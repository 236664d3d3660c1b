"""Post-run audit of a discharging ledger.

The audit recomputes, from the ledger and the drawing, the bookkeeping
quantities the argument's correctness rests on, and checks them exactly
in seven gates, reported in this order and under these names:

- `conservation`: the final total equals the initial total.
- `face-balance`: the charge a face received by R5 from its incident
  9+-vertices (rho+; 9 = `HEAVY[6]`, R6's least m) covers the charge it
  routed out by R6 through transitive false vertices (rho-): rho+ >=
  rho- on every 4+-face, and rho+ >= rho- + 1 on every triangle with
  rho- > 0.
- `crossing-margin`: per (face, routing vertex), the R5 income from the
  routing vertex's two heavy face-neighbors (pi+) is at least twice
  the amount routed out through it (pi-) whenever pi- > 0.
- `triangle-pays-3-vertex`: a triangle pays its true 3-vertex at least
  2/3 when the other two corners have degree at least 24 = `HEAVY[3]`.
- `triangle-pays-4-vertex`: a triangle pays its true 4-vertex at least
  1/3 when the other two corners have degree at least 12 = `HEAVY[4]`.
- `quad-face-payments`: a 4-face with at most one false vertex is
  anchored by a true vertex whose true face-neighbors are heavy. If the
  face has a 3-vertex, the anchor is a 3-vertex, heavy means degree at
  least 24, and every incident true vertex of degree at most 4 gets at
  least 5/12. Otherwise the anchor is a 4-vertex, heavy means degree at
  least 12, and every incident true 4-vertex gets at least 1/3. Heavy
  is `HEAVY[anchor]`.
- `big-face-payments`: a 5+-face pays each incident true 4-vertex at
  least 1/3 when at most half of its boundary positions hold 3-vertices
  or true 4-vertices.

The four payment gates (the last four) are gated on the degree
hypotheses that make them provable for every valid drawing, not only
for extremal ones. Every degree threshold is read from
`lightedge.HEAVY`: with no light edge, each neighbor of a k-vertex has
degree at least `HEAVY[k]` = `BOUNDS[k]` + 1. Gates that match nothing
are recorded with an instance count of zero, never failed. A triangle
gate counts one instance per (face, vertex), the other face gates one
per face, and `crossing-margin` one per (face, routing vertex) with
income or outflow.

Final-charge nonnegativity is deliberately not asserted: negative final
charges are possible on ordinary inputs and are merely reported.

The audit collects the amounts of each group (a face's heavy income and
routed outflow, a (face, routing vertex) pair's outflow, a transitive
corner's income and a (face, vertex) payment) in one pass over the
transfers, reading each by unpacking, and sums each group once with
`exact_sum`, so every reported value is exact. A face with no heavy
income, or no routed outflow, reads `ZERO` there without a sum.
Payments are summed only for the (face, vertex) pairs a payment gate
owes. The triangle gates are looked up by the degree of the paid
corner. The pi+ income is read at `transitive_corners`, the one scan of
the corners the engine's R6 routes through.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .discharging import (
    ZERO,
    Element,
    Transfer,
    exact_sum,
    initial_total,
    transitive_corners,
)
from .lightedge import HEAVY
from .oneplanar import AssociatedPlaneGraph


@dataclass(frozen=True, slots=True)
class FaceFlow:
    received_heavy: Fraction  # from incident 9+-vertices (HEAVY[6]), by R5
    sent_via_false: Fraction  # routed out through transitive false vertices, by R6


@dataclass(frozen=True, slots=True)
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
        return all(c.passed for c in self.checks)


TWO_THIRDS = Fraction(2, 3)
ONE_THIRD = Fraction(1, 3)
FIVE_TWELFTHS = Fraction(5, 12)

# The triangle gates by degree k of the paid vertex: (least degree
# HEAVY[k] of the two other corners, floor).
_TRIANGLE_GATES = {3: (HEAVY[3], TWO_THIRDS), 4: (HEAVY[4], ONE_THIRD)}
# The quad gate by degree k of its anchor: (least degree HEAVY[k] of the
# anchor's true face-neighbors, floor, degrees of the paid vertices).
_QUAD_GATES = {3: (HEAVY[3], FIVE_TWELFTHS, (1, 2, 3, 4)), 4: (HEAVY[4], ONE_THIRD, (4,))}


def audit(
    g: AssociatedPlaneGraph, final: dict[Element, Fraction], transfers: list[Transfer]
) -> AuditReport:
    deg = g.embedding.degrees
    heavy = HEAVY[6]
    initial = initial_total(g)
    final_total = exact_sum(final.values())

    # amounts per group, each group summed once below
    received_heavy: defaultdict[int, list[Fraction]] = defaultdict(list)
    sent_via: defaultdict[int, list[Fraction]] = defaultdict(list)
    routed: defaultdict[tuple[int, int], list[Fraction]] = defaultdict(list)
    payments: list[Transfer] = []  # R7 and R8, to vertices
    for t in transfers:
        rule, source, target, amount, via = t
        if rule == "R5":
            if deg[source[1]] >= heavy:
                received_heavy[target[1]].append(amount)
        elif rule.startswith("R6"):
            f = source[1]
            sent_via[f].append(amount)
            routed[f, via].append(amount)
        elif rule in ("R7", "R8") and target[0] == "v":
            payments.append(t)

    face_flow, face_checks = _face_pass(g, received_heavy, sent_via, payments)

    # pi+, per (face, routing vertex), over its transitive corners; the
    # R5 amount (d-4)/d is built once per degree
    r5 = {d: Fraction(d - 4, d) for d in set(deg.values()) if d >= heavy}
    income: defaultdict[tuple[int, int], list[Fraction]] = defaultdict(list)
    for i, prev, v, nxt, *_ in transitive_corners(g):
        income[i, v] += (r5[deg[prev]], r5[deg[nxt]])
    crossing_flow = tuple(
        CrossingFlow(f, v, exact_sum(income.get((f, v), ())), exact_sum(routed.get((f, v), ())))
        for f, v in sorted(income.keys() | routed.keys())
    )
    margin_failures = tuple(
        f"f{c.face} via v{c.via}: inflow {c.inflow} < 2 * outflow {c.outflow}"
        for c in crossing_flow
        if c.outflow.numerator > 0 and c.inflow < 2 * c.outflow
    )

    drift = () if final_total == initial else (f"total drifted from {initial} to {final_total}",)
    checks = (
        CheckOutcome("conservation", 1, drift),
        face_checks[0],
        CheckOutcome("crossing-margin", len(crossing_flow), margin_failures),
        *face_checks[1:],
    )
    # the sign through the integer numerator: `charge < 0` would run an
    # ABC isinstance check per element
    negative = tuple(
        sorted((el, charge) for el, charge in final.items() if charge.numerator < 0)
    )

    return AuditReport(
        conserved=final_total == initial,
        initial_total=initial,
        final_total=final_total,
        face_flow=face_flow,
        crossing_flow=crossing_flow,
        checks=checks,
        negative_elements=negative,
    )


def _face_pass(
    g: AssociatedPlaneGraph,
    received_heavy: dict[int, list[Fraction]],
    sent_via: dict[int, list[Fraction]],
    payments: list[Transfer],
) -> tuple[dict[int, FaceFlow], list[CheckOutcome]]:
    """The face flows and the five face-indexed gates, in report order,
    from one pass over the faces. The pass decides each payment gate from
    degrees alone and records what it owes; the `payments` are then
    summed for the owed (face, vertex) pairs only."""
    emb = g.embedding
    deg = emb.degrees
    false = g.false_vertices
    names = (
        "face-balance",
        "triangle-pays-3-vertex",
        "triangle-pays-4-vertex",
        "quad-face-payments",
        "big-face-payments",
    )
    instances = dict.fromkeys(names, 0)
    failures: dict[str, list[str]] = {name: [] for name in names}

    owed: list[tuple[str, int, int, Fraction]] = []  # (gate, face, vertex, floor)

    def pays(name: str, i: int, due, floor: Fraction) -> None:
        """One instance of gate `name`: face i owes each vertex of `due`
        at least `floor`."""
        instances[name] += 1
        owed.extend((name, i, v, floor) for v in dict.fromkeys(due))

    face_flow: dict[int, FaceFlow] = {}
    for i, (d, tails) in enumerate(zip(emb.face_degrees, emb.faces)):
        got = exact_sum(received_heavy[i]) if i in received_heavy else ZERO
        out = exact_sum(sent_via[i]) if i in sent_via else ZERO
        face_flow[i] = FaceFlow(got, out)
        if d >= 4:
            instances["face-balance"] += 1
            if got < out:
                failures["face-balance"].append(f"f{i}: received {got} < routed out {out}")
        elif out.numerator > 0:
            instances["face-balance"] += 1
            if got < out + 1:
                failures["face-balance"].append(
                    f"f{i}: received {got}, needs routed out {out} plus 1"
                )

        if d == 3:
            for j, v in enumerate(tails):
                k = deg[v]
                if k not in _TRIANGLE_GATES or v in false:
                    continue
                least, floor = _TRIANGLE_GATES[k]
                if min(deg[tails[j - 1]], deg[tails[(j + 1) % 3]]) >= least:
                    pays(f"triangle-pays-{k}-vertex", i, (v,), floor)
        elif d == 4 and sum(1 for t in tails if t in false) <= 1:
            # a false vertex has degree 4, so a 3-vertex is always true
            anchor = 3 if any(deg[t] == 3 for t in tails) else 4
            bound, floor, due = _QUAD_GATES[anchor]
            if any(
                v not in false
                and deg[v] == anchor
                and all(u in false or deg[u] >= bound for u in (tails[j - 1], tails[(j + 1) % 4]))
                for j, v in enumerate(tails)
            ):
                small = [v for v in tails if v not in false and deg[v] in due]
                pays("quad-face-payments", i, small, floor)
        elif d >= 5:
            quads = [t for t in tails if t not in false and deg[t] == 4]
            if quads and sum(1 for t in tails if deg[t] == 3) + len(quads) <= d // 2:
                pays("big-face-payments", i, quads, ONE_THIRD)

    paid: dict[tuple[int, int], list[Fraction]] = {(i, v): [] for _, i, v, _ in owed}
    if paid:
        for _, source, target, amount, _ in payments:
            amounts = paid.get((source[1], target[1]))
            if amounts is not None:
                amounts.append(amount)
    for name, i, v, floor in owed:
        got = exact_sum(paid[i, v])
        if got < floor:
            failures[name].append(f"f{i} paid v{v} {got}, needs {floor}")

    return face_flow, [CheckOutcome(n, instances[n], tuple(failures[n])) for n in names]
