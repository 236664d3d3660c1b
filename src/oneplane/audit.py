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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .discharging import ChargeState, Element, Transfer, transitive_corners
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


def _r5_fraction(d: int) -> Fraction:
    return Fraction(d - 4, d)


def audit(
    g: AssociatedPlaneGraph, final: ChargeState, transfers: list[Transfer]
) -> AuditReport:
    emb = g.embedding
    initial_total = Fraction(
        sum(emb.degree(v) - 4 for v in emb.vertices)
        + sum(emb.face_degree(i) - 4 for i in range(emb.face_count()))
    )
    final_total = final.total()

    received_heavy: dict[int, Fraction] = {i: Fraction(0) for i in range(emb.face_count())}
    sent_via: dict[int, Fraction] = {i: Fraction(0) for i in range(emb.face_count())}
    routed: dict[tuple[int, int], Fraction] = {}
    payments: dict[tuple[int, int], Fraction] = {}  # (face, vertex) -> R7+R8 total
    for t in transfers:
        if t.rule == "R5" and emb.degree(t.source[1]) >= 9:
            received_heavy[t.target[1]] += t.amount
        elif t.rule.startswith("R6"):
            sent_via[t.source[1]] += t.amount
            key = (t.source[1], t.via)
            routed[key] = routed.get(key, Fraction(0)) + t.amount
        elif t.rule in ("R7", "R8") and t.target[0] == "v":
            key = (t.source[1], t.target[1])
            payments[key] = payments.get(key, Fraction(0)) + t.amount

    face_flow = {
        i: FaceFlow(received_heavy[i], sent_via[i]) for i in range(emb.face_count())
    }

    inflow: dict[tuple[int, int], Fraction] = {}  # pi+, summed over transitive corners
    for i, prev, v, nxt in transitive_corners(g):
        contribution = _r5_fraction(emb.degree(prev)) + _r5_fraction(emb.degree(nxt))
        inflow[(i, v)] = inflow.get((i, v), Fraction(0)) + contribution
    crossing_flow = tuple(
        CrossingFlow(f, v, inflow.get((f, v), Fraction(0)), routed.get((f, v), Fraction(0)))
        for f, v in sorted(set(inflow) | set(routed))
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
            if final_total == initial_total
            else (f"total drifted from {initial_total} to {final_total}",),
        ),
    )

    negative = tuple(
        (el, charge) for el, charge in sorted(final.charges.items()) if charge < 0
    )

    return AuditReport(
        conserved=final_total == initial_total,
        initial_total=initial_total,
        final_total=final_total,
        face_flow=face_flow,
        crossing_flow=crossing_flow,
        checks=tuple(checks),
        negative_elements=negative,
    )


def _check_face_balance(emb, face_flow: dict[int, FaceFlow]) -> CheckOutcome:
    failures = []
    instances = 0
    for i, flow in face_flow.items():
        if emb.face_degree(i) >= 4:
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
    return payments.get((f, v), Fraction(0))


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
    failures = []
    instances = 0
    for i in range(emb.face_count()):
        if emb.face_degree(i) != 3:
            continue
        tails = emb.face_tails(i)
        for j, v in enumerate(tails):
            if g.is_false(v) or emb.degree(v) != degree:
                continue
            others = [tails[(j + 1) % 3], tails[(j + 2) % 3]]
            if all(emb.degree(u) >= neighbor_bound for u in others):
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
    failures = []
    instances = 0
    for i in range(emb.face_count()):
        if emb.face_degree(i) != 4:
            continue
        tails = emb.face_tails(i)
        if sum(1 for t in tails if g.is_false(t)) > 1:
            continue
        has_3 = any(emb.degree(t) == 3 for t in tails)

        def neighbors_heavy(j: int, bound: int) -> bool:
            pair = (tails[(j - 1) % 4], tails[(j + 1) % 4])
            return all(g.is_false(u) or emb.degree(u) >= bound for u in pair)

        if has_3:
            anchored = any(
                emb.degree(v) == 3 and neighbors_heavy(j, 24) for j, v in enumerate(tails)
            )
            if anchored:
                instances += 1
                for v in dict.fromkeys(tails):
                    if not g.is_false(v) and emb.degree(v) <= 4:
                        got = _payment(payments, i, v)
                        if got < FIVE_TWELFTHS:
                            failures.append(f"f{i} paid v{v} {got}, needs {FIVE_TWELFTHS}")
        else:
            anchored = any(
                not g.is_false(v) and emb.degree(v) == 4 and neighbors_heavy(j, 12)
                for j, v in enumerate(tails)
            )
            if anchored:
                instances += 1
                for v in dict.fromkeys(tails):
                    if not g.is_false(v) and emb.degree(v) == 4:
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
    failures = []
    instances = 0
    for i in range(emb.face_count()):
        d = emb.face_degree(i)
        if d < 5:
            continue
        tails = emb.face_tails(i)
        s = sum(1 for t in tails if emb.degree(t) == 3)
        quads = [t for t in tails if not g.is_false(t) and emb.degree(t) == 4]
        if not quads or s + len(quads) > d // 2:
            continue
        instances += 1
        for v in dict.fromkeys(quads):
            got = _payment(payments, i, v)
            if got < ONE_THIRD:
                failures.append(f"f{i} paid v{v} {got}, needs {ONE_THIRD}")
    return CheckOutcome("big-face-payments", instances, tuple(failures))
