"""The discharging engine: exact rational charges moved by local rules.

Every vertex and face of the planarized drawing starts with charge
(degree - 4); on a sphere embedding these sum to exactly -8. The engine
then applies a fixed table of local rules and records every movement as
a tagged transfer, so the whole run can be audited after the fact. All
arithmetic is exact, and every amount and charge it reports is a
`fractions.Fraction`; conservation of the total is an exact equality,
never a tolerance.

Rules R1-R6 depend only on degrees and adjacency, so they are evaluated
simultaneously against the initial configuration (phase A). R7 and R8
then redistribute each face's remaining balance. They share one pass
over the faces: both move charge from a face to vertices, and a face's
balance after phase A is changed only by its own R7 or R8 transfers,
so no face reads what another face's split moved. The ledger still
lists every R7 transfer before every R8 transfer:

  R1  true 4-vertex:  1/6 to each incident 4-special face pivoted at it.
  R2  5-vertex:       3/10 to incident 5-special faces pivoted at it,
                      1/5 to its other incident 3-faces.
  R3  6-vertex:       7/18 and 1/3, same pattern as R2.
  R4  7-vertex:       1/2 to each incident false 3-face.
  R5  8+-vertex:      (d-4)/d to each incident face, once per incidence.
  R6  face-to-face and face-to-vertex transfers routed through a false
      vertex, described below.
  R7  every 4--face splits its remaining charge equally over its
      incident true 4--vertices (with boundary multiplicity), keeping
      the charge if there are none. The split happens whatever the sign
      of the balance.
  R8  every 5+-face first pays 2/3 to each incident 3-vertex, then
      splits its remaining charge equally over its incident true
      4-vertices, keeping it if there are none.

A false 3-face {v, p, q} with v false is k-special with pivot p when
p has degree k in {4, 5, 6}, q is adjacent in the original graph to the
far endpoint of p's crossing edge, and the far endpoint of q's crossing
edge has degree at most 11 / 9 / 8 for k = 4 / 5 / 6. Both true corners
of the face are tried as pivots, and R1-R3 pay once per pivot record.

R6 in detail. Around a false vertex v with rotation (n0, n1, n2, n3) the
original edges pair opposite neighbors. For each corner face f at v
between consecutive neighbors A, B, write a and b for the neighbors
opposite A and B, and m = min(deg(A), deg(B)). The sub-rule is chosen by
the band of m, as listed in the table `R6_BANDS`, and fires at most once
per (v, corner), covering both orientations of the stated rule:

  R6.1  m >= 24: if deg(a) = deg(b) = 3, f sends 1/6 through v to each
        of the two adjacent corner faces and to a and b; if exactly one
        of them, say a, has degree 3 and the other at least 4, f sends
        1/3 through v to a and to the adjacent corner face beyond a.
  R6.2  12 <= m <= 23, some far endpoint of degree <= 6:
        3-face sender: 1/6 to both adjacent corner faces when both far
        endpoints have degree <= 6, else 1/3 to the face beyond the
        small one; 4+-face sender: 1/3 to both adjacent corner faces.
  R6.3  10 <= m <= 11: amounts 1/10, 1/5 and 3/10, same shape.
  R6.4  m = 9: amounts 1/18, 1/9 and 5/18, same shape.

A face only ever sends through a false vertex whose two neighbors on
that face both have degree at least 9 (a transitive false vertex); this
is forced by the m >= 9 requirement above. The corners are the records
each crossing neighborhood derives once; the special faces, the R6
routing and the audit's transitive corners all read them.

Residual splits in R7/R8 may move a negative balance; those transfers
keep the face as their source and carry the signed per-recipient share.
Zero-amount transfers are never recorded.

While the rules run, each element's charge is an integer
[numerator, denominator] pair (see `_apply`), and the R7/R8 shares and
the final charges are built through one memo per run, so there is one
`Fraction` per distinct value within a run: the values repeat heavily
(a 6000-spoke wheel's 12002 final charges hold 4).

A run builds one element tuple per vertex and one per face. Every
transfer's source and target and every key of the final charges is one
of these objects, so a ledger holds no per-transfer copy of an element.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import itemgetter
from typing import NamedTuple

from .oneplanar import (
    AssociatedPlaneGraph,
    CrossingNeighborhood,
    crossing_neighborhoods,
    crossing_segments,
    is_false_triangle,
)

# An element of the charge ledger: ("v", vertex id) or ("f", face index).
Element = tuple[str, int]

SPECIAL_PARTNER_BOUND = {4: 11, 5: 9, 6: 8}

ZERO = Fraction(0)
R1_AMOUNT = Fraction(1, 6)
# R2 and R3 by degree: (rule, to a special face pivoted at the vertex,
# to any other incident 3-face).
R2_R3_AMOUNTS = {
    5: ("R2", Fraction(3, 10), Fraction(1, 5)),
    6: ("R3", Fraction(7, 18), Fraction(1, 3)),
}
R4_AMOUNT = Fraction(1, 2)
R8_PREPAY = Fraction(2, 3)

# R6 bands, highest first: (least m, rule, amounts). R6.1 amounts are
# (each of four targets, each of two targets); R6.2-R6.4 amounts are
# (3-face sender to both faces, 3-face sender to one face, 4+-face
# sender to each face). Below the last band nothing is routed.
R6_BANDS = (
    (24, "R6.1", (Fraction(1, 6), Fraction(1, 3))),
    (12, "R6.2", (Fraction(1, 6), Fraction(1, 3), Fraction(1, 3))),
    (10, "R6.3", (Fraction(1, 10), Fraction(1, 5), Fraction(3, 10))),
    (9, "R6.4", (Fraction(1, 18), Fraction(1, 9), Fraction(5, 18))),
)


def vertex(v: int) -> Element:
    return ("v", v)


def face(i: int) -> Element:
    return ("f", i)


def element_label(el: Element) -> str:
    return f"{el[0]}{el[1]}"


class Transfer(NamedTuple):
    """One rule-tagged charge movement. R6 transfers name the false
    vertex they are routed through."""

    rule: str
    source: Element
    target: Element
    amount: Fraction
    via: int | None = None


def exact_sum(values: Iterable[Fraction]) -> Fraction:
    """The exact sum of `values`, equal to `sum(values, Fraction(0))`.

    Integer numerators are summed per denominator, and one `Fraction` is
    built per distinct denominator, so a long sum over few denominators
    normalizes only a few times.
    """
    numerators: dict[int, int] = {}
    for q in values:
        d = q.denominator
        numerators[d] = numerators.get(d, 0) + q.numerator
    if len(numerators) == 1:
        ((d, n),) = numerators.items()
        # a sum equal to its last term is that term, already normalized
        return q if n == q.numerator else Fraction(n, d)
    return sum((Fraction(n, d) for d, n in numerators.items()), ZERO)


def _initial_excess(g: AssociatedPlaneGraph) -> dict[Element, int]:
    """degree - 4 for every vertex, then for every face, in ledger key order."""
    emb = g.embedding
    deg = emb.degrees
    excess = {vertex(v): deg[v] - 4 for v in emb.vertices}
    excess.update((face(i), d - 4) for i, d in enumerate(emb.face_degrees))
    return excess


def initial_charges(g: AssociatedPlaneGraph) -> dict[Element, Fraction]:
    """Charge degree - 4 on every vertex and face; the total is -8."""
    excess = _initial_excess(g)
    exact = {k: Fraction(k) for k in set(excess.values())}
    return {el: exact[k] for el, k in excess.items()}


def initial_total(g: AssociatedPlaneGraph) -> Fraction:
    """The total of `initial_charges(g)`, taken in integers from the
    degree tables; -8 on a sphere embedding."""
    emb = g.embedding
    deg = emb.degrees
    return Fraction(sum(deg.values()) + sum(emb.face_degrees) - 4 * (len(deg) + emb.face_count()))


@dataclass(frozen=True)
class SpecialFace:
    """A (false 3-face, pivot) pair satisfying the k-special pattern."""

    face: int
    pivot: int
    k: int
    partner: int


def find_special_faces(g: AssociatedPlaneGraph) -> list[SpecialFace]:
    """All (false 3-face, pivot) records, trying both true corners.

    The original graph is not recovered: an original edge between two
    true vertices is a dart of the embedding or a crossing segment. A
    drawing that does not straighten cleanly raises what
    `recover_original` raises."""
    emb = g.embedding
    deg, fdeg, darts = emb.degrees, emb.face_degrees, emb.face_of
    false = g.false_vertices
    hoods = crossing_neighborhoods(g)
    if not hoods:
        return []
    crossed = set(crossing_segments(g))
    crossed.update([(b, a) for a, b in crossed])
    records = []
    for hood in hoods:
        for near_a, near_b, far_a, far_b, f in hood.corners:
            if fdeg[f] != 3:
                continue
            # both corner vertices are candidate pivots; the pivot's own
            # crossing edge ends at its opposite neighbor
            for pivot, partner, pivot_far, partner_far in (
                (near_a, near_b, far_a, far_b),
                (near_b, near_a, far_b, far_a),
            ):
                k = deg[pivot]
                if k not in SPECIAL_PARTNER_BOUND or pivot in false:
                    continue
                if deg[partner_far] > SPECIAL_PARTNER_BOUND[k]:
                    continue
                if partner in false or pivot_far in false:
                    continue
                link = (partner, pivot_far)
                if link in darts or link in crossed:
                    records.append(SpecialFace(f, pivot, k, partner))
    records.sort(key=lambda s: (s.face, s.pivot))
    return records


def transitive_corners(g: AssociatedPlaneGraph) -> list[tuple[int, int, int, int]]:
    """(face, previous tail, false vertex, next tail) for every corner of
    a crossing whose two bounding endpoints have degree at least 9, read
    from the stored corner records, in crossing order: false vertices in
    vertex order, each one's corners in rotation order. The face walk
    enters the false vertex from the first bounding endpoint and leaves
    it toward the second."""
    deg = g.embedding.degrees
    return [
        (f, near_a, hood.false_vertex, near_b)
        for hood in crossing_neighborhoods(g)
        for near_a, near_b, _, _, f in hood.corners
        if deg[near_a] >= 9 and deg[near_b] >= 9
    ]


def _phase_a(
    g: AssociatedPlaneGraph,
    specials: list[SpecialFace],
    at_vertex: dict[int, Element],
    at_face: list[Element],
) -> list[Transfer]:
    emb = g.embedding
    deg = emb.degrees
    fdeg = emb.face_degrees
    false = g.false_vertices
    transfers: list[Transfer] = []
    pivot_keys = {(s.pivot, s.face) for s in specials}

    for s in specials:
        if s.k == 4:
            transfers.append(Transfer("R1", at_vertex[s.pivot], at_face[s.face], R1_AMOUNT))

    r5: dict[int, Fraction] = {}  # one R5 amount per degree
    for v in emb.vertices:
        d = deg[v]
        if d < 5 or v in false:
            continue
        src = at_vertex[v]
        corners = emb.corner_faces(v)
        if d == 5 or d == 6:
            # a 3-face occupies exactly one corner of each of its
            # vertices, so no dedup is needed
            rule, special_amt, plain_amt = R2_R3_AMOUNTS[d]
            for f in corners:
                if fdeg[f] == 3:
                    amt = special_amt if (v, f) in pivot_keys else plain_amt
                    transfers.append(Transfer(rule, src, at_face[f], amt))
        elif d == 7:
            for f in corners:
                if is_false_triangle(g, f):
                    transfers.append(Transfer("R4", src, at_face[f], R4_AMOUNT))
        else:
            amt = r5.get(d)
            if amt is None:
                amt = r5[d] = Fraction(d - 4, d)
            for f in corners:
                transfers.append(Transfer("R5", src, at_face[f], amt))

    for hood in crossing_neighborhoods(g):
        transfers.extend(_route_through_crossing(g, hood, at_vertex, at_face))
    return transfers


def _route_through_crossing(
    g: AssociatedPlaneGraph,
    hood: CrossingNeighborhood,
    at_vertex: dict[int, Element],
    at_face: list[Element],
) -> list[Transfer]:
    """R6 transfers for every sending corner of one false vertex."""
    deg = g.embedding.degrees
    corners = hood.corners
    transfers: list[Transfer] = []
    for i, (near_a, near_b, far_a, far_b, f1) in enumerate(corners):
        m = min(deg[near_a], deg[near_b])
        for least, rule, amounts in R6_BANDS:
            if m >= least:
                break
        else:
            continue
        src = at_face[f1]
        beyond_a = at_face[corners[(i + 1) % 4][4]]  # corner face past far_a
        beyond_b = at_face[corners[(i - 1) % 4][4]]  # corner face past far_b
        da, db = deg[far_a], deg[far_b]

        if rule == "R6.1":
            if da == 3 and db == 3:
                targets = (beyond_a, beyond_b, at_vertex[far_a], at_vertex[far_b])
                amt = amounts[0]
            elif da == 3:
                targets, amt = (beyond_a, at_vertex[far_a]), amounts[1]
            elif db == 3:
                targets, amt = (beyond_b, at_vertex[far_b]), amounts[1]
            else:
                continue
        elif da > 6 and db > 6:
            continue
        elif g.embedding.face_degrees[f1] != 3:
            targets, amt = (beyond_a, beyond_b), amounts[2]
        elif da <= 6 and db <= 6:
            targets, amt = (beyond_a, beyond_b), amounts[0]
        else:
            targets, amt = (beyond_a if da <= 6 else beyond_b,), amounts[1]
        transfers.extend(Transfer(rule, src, t, amt, via=hood.false_vertex) for t in targets)
    return transfers


def _exact(memo: dict[tuple[int, int], Fraction], n: int, d: int) -> Fraction:
    """`Fraction(n, d)`, one object per value among those built through
    `memo`: each is stored under the pair as given and under its lowest
    terms, so unequal pairs of one value share an object."""
    q = memo.get((n, d))
    if q is None:
        q = Fraction(n, d)
        q = memo[n, d] = memo.setdefault((q.numerator, q.denominator), q)
    return q


def _apply(charges: dict[Element, list[int]], transfers: list[Transfer]) -> None:
    """Move every transfer's amount between the [numerator, denominator]
    pairs of `charges`, scaling to the lcm of unequal denominators."""
    for t in transfers:
        amount = t.amount
        n, d = amount.numerator, amount.denominator
        pair = charges[t.source]
        if pair[1] == d:
            pair[0] -= n
        else:
            k = gcd(pair[1], d)
            pair[0] = pair[0] * (d // k) - n * (pair[1] // k)
            pair[1] = pair[1] // k * d
        pair = charges[t.target]
        if pair[1] == d:
            pair[0] += n
        else:
            k = gcd(pair[1], d)
            pair[0] = pair[0] * (d // k) + n * (pair[1] // k)
            pair[1] = pair[1] // k * d


def apply_discharging(g: AssociatedPlaneGraph) -> tuple[dict[Element, Fraction], list[Transfer]]:
    """Run all rules and return the final charges plus the full ledger."""
    emb = g.embedding
    deg = emb.degrees
    fdeg = emb.face_degrees
    false = g.false_vertices
    charges = {el: [k, 1] for el, k in _initial_excess(g).items()}
    # the run's one element tuple per vertex and per face, shared by its
    # transfers and its charges: the charge keys, vertices first
    elements = list(charges)
    at_vertex = dict(zip(emb.vertices, elements))
    at_face = elements[len(at_vertex):]
    memo: dict[tuple[int, int], Fraction] = {}

    transfers = _phase_a(g, find_special_faces(g), at_vertex, at_face)
    _apply(charges, transfers)

    # R7 and R8 in one pass over the faces; see the module docstring
    r7: list[Transfer] = []
    r8: list[Transfer] = []
    for i, (d, tails) in enumerate(zip(fdeg, emb.faces)):
        src = at_face[i]
        n, den = charges[src]
        if d <= 4:
            rule, out = "R7", r7
            takers = [t for t in tails if t not in false and deg[t] <= 4]
        else:
            rule, out = "R8", r8
            prepaid = [t for t in tails if deg[t] == 3]
            r8.extend(Transfer("R8", src, at_vertex[t], R8_PREPAY) for t in prepaid)
            pay = R8_PREPAY.numerator * len(prepaid)
            n, den = n * R8_PREPAY.denominator - pay * den, den * R8_PREPAY.denominator
            takers = [t for t in tails if t not in false and deg[t] == 4]
        if takers and n != 0:
            share = _exact(memo, n, den * len(takers))
            out.extend(Transfer(rule, src, at_vertex[t], share) for t in takers)
    late = r7 + r8
    _apply(charges, late)
    transfers.extend(late)

    final = {el: _exact(memo, n, d) for el, (n, d) in charges.items()}
    return final, transfers


# Export order: rule, source, target, via, amount. In the engine's ledgers
# a rule's transfers all carry a `via` (R6.*) or all leave it None, so
# None is never compared with an int.
_LEDGER_ORDER = itemgetter(0, 1, 2, 4, 3)


def ledger_lines(transfers: list[Transfer]) -> list[str]:
    """Render a ledger in its deterministic export order, one line per
    transfer: `rule;source;target;via;numerator/denominator`, with `via`
    empty outside R6."""
    # each distinct amount object is rendered once; keyed by id, since
    # `Fraction.__hash__` is slow, and every amount stays alive in
    # `transfers` while the cache lives. Labels are formatted in place as
    # `element_label` formats them: looking them up in a cache keyed by
    # the element tuple was slower.
    texts: dict[int, str] = {}
    lines = []
    for rule, source, target, amount, via in sorted(transfers, key=_LEDGER_ORDER):
        text = texts.get(id(amount))
        if text is None:
            text = texts[id(amount)] = f"{amount.numerator}/{amount.denominator}"
        via_label = "" if via is None else f"v{via}"
        lines.append(f"{rule};{source[0]}{source[1]};{target[0]}{target[1]};{via_label};{text}")
    return lines
