"""Post-run audit of a discharging ledger.

The audit recomputes, from the ledger and the drawing, the bookkeeping
quantities the argument's correctness rests on, and checks them exactly:

- conservation: the final total equals the initial total;
- face balance: for every face, the charge received from its incident
  9+-vertices (rho+) covers the charge it routed out through transitive
  false vertices (rho-), with a margin of 1 on triangles that sent
  anything;
- crossing margin: per (face, routing vertex), the income attributable
  to the routing vertex's two heavy face-neighbors (pi+) is at least
  twice the amount routed out through it (pi-);
- four payment guarantees for small-degree vertices, each gated on the
  degree hypotheses that make it provable for every valid drawing, not
  only for extremal ones. Gates that match nothing are recorded with an
  instance count of zero, never failed.

Final-charge nonnegativity is deliberately not asserted: negative final
charges are possible on ordinary inputs and are merely reported.

The audit collects the amounts of each group (a face's heavy income and
routed outflow, a (face, routing vertex) pair's outflow, a transitive
corner's income and a (face, vertex) payment) and sums each group once
with `discharging.exact_sum`, so every reported value is exact.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .discharging import (
    ZERO,
    ChargeState,
    Element,
    Transfer,
    exact_sum,
    initial_total,
    transitive_corners,
)
from .oneplanar import AssociatedPlaneGraph


@dataclass(frozen=True)
class FaceFlow:
    received_heavy: Fraction  # from incident 9+-vertices, by R5
    sent_via_false: Fraction  # routed out through transitive false vertices, by R6


@dataclass(frozen=True)
class CrossingFlow:
    """Income vs routing demand for one (face, false vertex) pair."""

    face: int
    via: int
    inflow: Fraction
    outflow: Fraction


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    instances: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class AuditReport:
    conserved: bool
    initial_total: Fraction
    final_total: Fraction
    face_flow: dict[int, FaceFlow]
    crossing_flow: tuple[CrossingFlow, ...]
    checks: tuple[CheckOutcome, ...]
    negative_elements: tuple[tuple[Element, Fraction], ...]

    @property
    def passed(self) -> bool:
        return self.conserved and all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckOutcome:
        return next(c for c in self.checks if c.name == name)


TWO_THIRDS = Fraction(2, 3)
ONE_THIRD = Fraction(1, 3)
FIVE_TWELFTHS = Fraction(5, 12)


def audit(
    g: AssociatedPlaneGraph, final: ChargeState, transfers: list[Transfer]
) -> AuditReport:
    emb = g.embedding
    deg = emb.degrees
    face_count = emb.face_count()
    initial = initial_total(g)
    final_total = final.total()

    # amounts per group, each group summed once below
    received_heavy: defaultdict[int, list[Fraction]] = defaultdict(list)
    sent_via: defaultdict[int, list[Fraction]] = defaultdict(list)
    routed: defaultdict[tuple[int, int], list[Fraction]] = defaultdict(list)
    paid: defaultdict[tuple[int, int], list[Fraction]] = defaultdict(list)  # (face, vertex), R7+R8
    for t in transfers:
        rule = t.rule
        if rule == "R5":
            if deg[t.source[1]] >= 9:
                received_heavy[t.target[1]].append(t.amount)
        elif rule.startswith("R6"):
            f = t.source[1]
            sent_via[f].append(t.amount)
            routed[f, t.via].append(t.amount)
        elif rule in ("R7", "R8") and t.target[0] == "v":
            paid[t.source[1], t.target[1]].append(t.amount)

    face_flow = {
        i: FaceFlow(exact_sum(received_heavy.get(i, ())), exact_sum(sent_via.get(i, ())))
        for i in range(face_count)
    }
    payments = {key: exact_sum(amounts) for key, amounts in paid.items()}

    # pi+, per (face, routing vertex), over its transitive corners; the
    # R5 amount (d-4)/d is built once per degree
    r5 = {d: Fraction(d - 4, d) for d in set(deg.values()) if d >= 9}
    income: defaultdict[tuple[int, int], list[Fraction]] = defaultdict(list)
    for i, prev, v, nxt in transitive_corners(g):
        income[i, v] += (r5[deg[prev]], r5[deg[nxt]])
    crossing_flow = tuple(
        CrossingFlow(f, v, exact_sum(income.get((f, v), ())), exact_sum(routed.get((f, v), ())))
        for f, v in sorted(income.keys() | routed.keys())
    )

    checks = [
        _check_face_balance(emb, face_flow),
        _check_crossing_margin(crossing_flow),
        _check_triangle_payments(g, payments, degree=3, neighbor_bound=24, floor=TWO_THIRDS),
        _check_triangle_payments(g, payments, degree=4, neighbor_bound=12, floor=ONE_THIRD),
        _check_quad_payments(g, payments),
        _check_big_face_payments(g, payments),
    ]
    checks.insert(
        0,
        CheckOutcome(
            "conservation",
            1,
            ()
            if final_total == initial
            else (f"total drifted from {initial} to {final_total}",),
        ),
    )

    negative = tuple(sorted((el, charge) for el, charge in final.charges.items() if charge < 0))

    return AuditReport(
        conserved=final_total == initial,
        initial_total=initial,
        final_total=final_total,
        face_flow=face_flow,
        crossing_flow=crossing_flow,
        checks=tuple(checks),
        negative_elements=negative,
    )


def _check_face_balance(emb, face_flow: dict[int, FaceFlow]) -> CheckOutcome:
    fdeg = emb.face_degrees
    failures = []
    instances = 0
    for i, flow in face_flow.items():
        if fdeg[i] >= 4:
            instances += 1
            if flow.received_heavy < flow.sent_via_false:
                failures.append(
                    f"f{i}: received {flow.received_heavy} < routed out {flow.sent_via_false}"
                )
        elif flow.sent_via_false > 0:
            instances += 1
            if flow.received_heavy < flow.sent_via_false + 1:
                failures.append(
                    f"f{i}: received {flow.received_heavy}, needs routed out"
                    f" {flow.sent_via_false} plus 1"
                )
    return CheckOutcome("face-balance", instances, tuple(failures))


def _check_crossing_margin(crossing_flow: tuple[CrossingFlow, ...]) -> CheckOutcome:
    failures = [
        f"f{c.face} via v{c.via}: inflow {c.inflow} < 2 * outflow {c.outflow}"
        for c in crossing_flow
        if c.outflow > 0 and c.inflow < 2 * c.outflow
    ]
    return CheckOutcome("crossing-margin", len(crossing_flow), tuple(failures))


def _payment(payments: dict[tuple[int, int], Fraction], f: int, v: int) -> Fraction:
    return payments.get((f, v), ZERO)


def _check_triangle_payments(
    g: AssociatedPlaneGraph,
    payments: dict[tuple[int, int], Fraction],
    degree: int,
    neighbor_bound: int,
    floor: Fraction,
) -> CheckOutcome:
    """A triangle pays its true `degree`-vertex at least `floor` whenever
    the other two corners have degree at least `neighbor_bound`."""
    emb = g.embedding
    deg = emb.degrees
    false = g.false_vertices
    failures = []
    instances = 0
    for i, d in enumerate(emb.face_degrees):
        if d != 3:
            continue
        tails = emb.face_tails(i)
        for j, v in enumerate(tails):
            if v in false or deg[v] != degree:
                continue
            others = (tails[(j + 1) % 3], tails[(j + 2) % 3])
            if all(deg[u] >= neighbor_bound for u in others):
                instances += 1
                got = _payment(payments, i, v)
                if got < floor:
                    failures.append(f"f{i} paid v{v} {got}, needs {floor}")
    return CheckOutcome(f"triangle-pays-{degree}-vertex", instances, tuple(failures))


def _check_quad_payments(
    g: AssociatedPlaneGraph, payments: dict[tuple[int, int], Fraction]
) -> CheckOutcome:
    """Quadrilateral faces with at most one false vertex pay their small
    true vertices, provided the anchor's face-neighbors are heavy.

    With a 3-vertex anchor whose true face-neighbors all have degree at
    least 24, every incident true vertex of degree at most 4 gets 5/12.
    With no 3-vertex, a true 4-vertex anchor, and true face-neighbors of
    degree at least 12, every incident true 4-vertex gets 1/3.
    """
    emb = g.embedding
    deg = emb.degrees
    false = g.false_vertices
    failures = []
    instances = 0
    for i, d in enumerate(emb.face_degrees):
        if d != 4:
            continue
        tails = emb.face_tails(i)
        if sum(1 for t in tails if t in false) > 1:
            continue
        has_3 = any(deg[t] == 3 for t in tails)

        def neighbors_heavy(j: int, bound: int) -> bool:
            pair = (tails[(j - 1) % 4], tails[(j + 1) % 4])
            return all(u in false or deg[u] >= bound for u in pair)

        if has_3:
            anchored = any(
                deg[v] == 3 and neighbors_heavy(j, 24) for j, v in enumerate(tails)
            )
            if anchored:
                instances += 1
                for v in dict.fromkeys(tails):
                    if v not in false and deg[v] <= 4:
                        got = _payment(payments, i, v)
                        if got < FIVE_TWELFTHS:
                            failures.append(f"f{i} paid v{v} {got}, needs {FIVE_TWELFTHS}")
        else:
            anchored = any(
                v not in false and deg[v] == 4 and neighbors_heavy(j, 12)
                for j, v in enumerate(tails)
            )
            if anchored:
                instances += 1
                for v in dict.fromkeys(tails):
                    if v not in false and deg[v] == 4:
                        got = _payment(payments, i, v)
                        if got < ONE_THIRD:
                            failures.append(f"f{i} paid v{v} {got}, needs {ONE_THIRD}")
    return CheckOutcome("quad-face-payments", instances, tuple(failures))


def _check_big_face_payments(
    g: AssociatedPlaneGraph, payments: dict[tuple[int, int], Fraction]
) -> CheckOutcome:
    """5+-faces pay each incident true 4-vertex at least 1/3, provided
    the small vertices on the walk are sparse enough (at most half the
    boundary positions hold 3-vertices or true 4-vertices)."""
    emb = g.embedding
    deg = emb.degrees
    false = g.false_vertices
    failures = []
    instances = 0
    for i, d in enumerate(emb.face_degrees):
        if d < 5:
            continue
        tails = emb.face_tails(i)
        s = sum(1 for t in tails if deg[t] == 3)
        quads = [t for t in tails if t not in false and deg[t] == 4]
        if not quads or s + len(quads) > d // 2:
            continue
        instances += 1
        for v in dict.fromkeys(quads):
            got = _payment(payments, i, v)
            if got < ONE_THIRD:
                failures.append(f"f{i} paid v{v} {got}, needs {ONE_THIRD}")
    return CheckOutcome("big-face-payments", instances, tuple(failures))
