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
edge has degree at most 11 / 9 / 8 for k = 4 / 5 / 6: the light-edge
bound `BOUNDS[k]`. Both true corners of the face are tried as pivots,
and R1-R3 pay once per pivot record.

R6 in detail. Around a false vertex v with rotation (n0, n1, n2, n3) the
original edges pair opposite neighbors. For each corner face f at v
between consecutive neighbors A, B, write a and b for the neighbors
opposite A and B, and m = min(deg(A), deg(B)). The sub-rule is chosen by
the band of m, as listed in the table `R6_BANDS`, and fires at most once
per (v, corner), covering both orientations of the stated rule. The
bands start at `HEAVY[3..6]` = 24 / 12 / 10 / 9, that is 23 + 1,
11 + 1, 9 + 1 and 8 + 1: with no light edge, the neighbors of a
k-vertex have degree at least `HEAVY[k]`.

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
that face both have degree at least 9 = `HEAVY[6]` (a transitive false
vertex); this is forced by the m >= 9 requirement above. The corners
are the records of the drawing's one corner table, `crossing_corners`,
derived once; the special faces read it, and `transitive_corners`, the
one filter of it to the corners R6 can route through, is read by the
engine's R6 and by the audit's pi+. At each, `r6_route`, a pure
function of the degrees of A, B, a, b and f and the only reader of
`R6_BANDS`, picks the sub-rule, its targets and its amount.

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

The per-record work of a run costs C-level calls, not a Python frame
per record. Each transfer is built where its rule emits it, as
`tuple.__new__(Transfer, fields)`: one C call, where the `Transfer`
constructor runs the NamedTuple's Python-level `__new__` and takes
nearly twice as long. The rules that emit several transfers at once (R5, R6,
R7, R8) emit them as list comprehensions, `_apply` and the audit read
each record by unpacking it, and the R7/R8 recipients are tested
against sets built once per run. Rows are not built first and
converted to `Transfer`s at the end: that holds both lists at once.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import NamedTuple

from .lightedge import BOUNDS, HEAVY
from .oneplanar import AssociatedPlaneGraph, Corner, crossing_corners, is_false_triangle

# An element of the charge ledger: ("v", vertex id) or ("f", face index).
Element = tuple[str, int]

# Pivot degree -> largest degree of the partner's far end: the light-edge
# bounds of degrees 4 to 6, {4: 11, 5: 9, 6: 8}.
SPECIAL_PARTNER_BOUND = {k: BOUNDS[k] for k in (4, 5, 6)}

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

# R6 bands, highest first, read by `r6_route` only: (least m, rule,
# amounts). The leasts are HEAVY[3..6] = 24, 12, 10, 9. R6.1 amounts are
# (each of four targets, each of two targets); R6.2-R6.4 amounts are
# (3-face sender to both faces, 3-face sender to one face, 4+-face
# sender to each face). Below the last band nothing is routed.
R6_BANDS = (
    (HEAVY[3], "R6.1", (Fraction(1, 6), Fraction(1, 3))),
    (HEAVY[4], "R6.2", (Fraction(1, 6), Fraction(1, 3), Fraction(1, 3))),
    (HEAVY[5], "R6.3", (Fraction(1, 10), Fraction(1, 5), Fraction(3, 10))),
    (HEAVY[6], "R6.4", (Fraction(1, 18), Fraction(1, 9), Fraction(5, 18))),
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


# `_new(Transfer, (rule, source, target, amount, via))` builds the same
# record as `Transfer(rule, source, target, amount, via)` in one C call;
# the NamedTuple constructor runs a Python-level `__new__` per record.
_new = tuple.__new__


def exact_sum(values: Collection[Fraction]) -> Fraction:
    """The exact sum of `values` (a list, tuple or dict view), equal to
    `sum(values, Fraction(0))`.

    An empty collection sums to `ZERO` and a one-item one to that same
    item. Otherwise integer numerators are summed per denominator, then
    over the lcm of the distinct denominators, and one `Fraction` is
    built for the total, so a sum normalizes once however many
    denominators it holds.
    """
    if len(values) < 2:
        return next(iter(values), ZERO)
    numerators: dict[int, int] = {}
    for q in values:
        n, d = q.as_integer_ratio()
        numerators[d] = numerators.get(d, 0) + n
    den = lcm(*numerators)
    return Fraction(sum([n * (den // d) for d, n in numerators.items()]), den)


def _initial_excess(g: AssociatedPlaneGraph) -> dict[Element, int]:
    """degree - 4 for every vertex, then for every face, in ledger key order."""
    emb = g.embedding
    deg = emb.degrees
    excess = {("v", v): deg[v] - 4 for v in emb.vertices}
    excess.update((("f", i), d - 4) for i, d in enumerate(emb.face_degrees))
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


@dataclass(frozen=True, slots=True)
class SpecialFace:
    """A (false 3-face, pivot) pair satisfying the k-special pattern."""

    face: int
    pivot: int
    k: int
    partner: int


def find_special_faces(g: AssociatedPlaneGraph) -> list[SpecialFace]:
    """All (false 3-face, pivot) records, trying both true corners.

    The original graph is not recovered: an original edge between two
    true vertices is a dart of the embedding or one of a crossing's two
    segments, a corner record's endpoint A and its opposite a. A drawing
    that `validate` faults raises what `recover_original` raises; one
    that it does not has no two false vertices adjacent, so every corner
    vertex and far end is true."""
    emb = g.embedding
    deg, fdeg, darts = emb.degrees, emb.face_degrees, emb.face_of
    corners = crossing_corners(g)
    # over a crossing's four corners, A and a run through both segments
    # both ways round
    crossed = {(near, far) for _, near, _, _, far, _, _, _ in corners}
    keys = []  # (face, pivot, k, partner), sorted before the records are built
    for f, near_a, _, near_b, far_a, far_b, _, _ in corners:
        if fdeg[f] != 3:
            continue
        # both corner vertices are candidate pivots; the pivot's own
        # crossing edge ends at its opposite neighbor
        for pivot, partner, pivot_far, partner_far in (
            (near_a, near_b, far_a, far_b),
            (near_b, near_a, far_b, far_a),
        ):
            k = deg[pivot]
            if k not in SPECIAL_PARTNER_BOUND:
                continue
            if deg[partner_far] > SPECIAL_PARTNER_BOUND[k]:
                continue
            link = (partner, pivot_far)
            if link in darts or link in crossed:
                keys.append((f, pivot, k, partner))
    # a (face, pivot) pair occurs once, since a false triangle has one
    # false vertex, so the sort never compares k or partner
    keys.sort()
    return [SpecialFace(*key) for key in keys]


def transitive_corners(g: AssociatedPlaneGraph) -> list[Corner]:
    """The corner records (face, A, false vertex, B, a, b, face past a,
    face past b), in crossing order, whose two bounding endpoints A and
    B have degree at least 9 = `HEAVY[6]`, the least m of R6: the
    corners R6 can route through."""
    deg = g.embedding.degrees
    heavy = HEAVY[6]
    return [c for c in crossing_corners(g) if deg[c[1]] >= heavy and deg[c[3]] >= heavy]


def r6_route(
    deg_a: int, deg_b: int, far_a: int, far_b: int, sender_degree: int
) -> tuple[str, tuple[int, ...], Fraction] | None:
    """R6 at one corner, from the degrees of its bounding endpoints A and
    B, of their far ends a and b and of the sending face: (rule, target
    slots, amount to each target), or None when the corner sends
    nothing. The slots index (face past a, face past b, a, b)."""
    m = min(deg_a, deg_b)
    for least, rule, amounts in R6_BANDS:
        if m >= least:
            break
    else:
        return None
    if rule == "R6.1":
        if far_a == 3 and far_b == 3:
            return rule, (0, 1, 2, 3), amounts[0]
        if far_a == 3 and far_b >= 4:
            return rule, (0, 2), amounts[1]
        if far_b == 3 and far_a >= 4:
            return rule, (1, 3), amounts[1]
        return None
    if far_a > 6 and far_b > 6:
        return None
    if sender_degree != 3:
        return rule, (0, 1), amounts[2]
    if far_a <= 6 and far_b <= 6:
        return rule, (0, 1), amounts[0]
    return rule, ((0,) if far_a <= 6 else (1,)), amounts[1]


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
    pivot_keys = {(s.pivot, s.face) for s in specials}
    transfers = [
        _new(Transfer, ("R1", at_vertex[s.pivot], at_face[s.face], R1_AMOUNT, None))
        for s in specials
        if s.k == 4
    ]

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
                    transfers.append(_new(Transfer, (rule, src, at_face[f], amt, None)))
        elif d == 7:
            for f in corners:
                if is_false_triangle(g, f):
                    transfers.append(_new(Transfer, ("R4", src, at_face[f], R4_AMOUNT, None)))
        else:
            amt = r5.get(d)
            if amt is None:
                amt = r5[d] = Fraction(d - 4, d)
            transfers += [_new(Transfer, ("R5", src, at_face[f], amt, None)) for f in corners]

    for f, near_a, v, near_b, far_a, far_b, past_a, past_b in transitive_corners(g):
        route = r6_route(deg[near_a], deg[near_b], deg[far_a], deg[far_b], fdeg[f])
        if route is not None:
            rule, slots, amt = route
            ends = (at_face[past_a], at_face[past_b], at_vertex[far_a], at_vertex[far_b])
            src = at_face[f]
            transfers += [_new(Transfer, (rule, src, ends[k], amt, v)) for k in slots]
    return transfers


def _exact(memo: dict[tuple[int, int], Fraction], n: int, d: int) -> Fraction:
    """`Fraction(n, d)` for a pair that `memo` does not hold; callers read
    `memo` first. The value is stored under the pair as given and under
    its lowest terms, so unequal pairs of one value share an object, and
    there is one object per value among those built through `memo`."""
    q = Fraction(n, d)
    q = memo[n, d] = memo.setdefault(q.as_integer_ratio(), q)
    return q


def _apply(charges: dict[Element, list[int]], transfers: list[Transfer]) -> None:
    """Move every transfer's amount between the [numerator, denominator]
    pairs of `charges`, scaling to the lcm of unequal denominators."""
    for _, source, target, amount, _ in transfers:
        n, d = amount.as_integer_ratio()
        pair = charges[source]
        if pair[1] == d:
            pair[0] -= n
        else:
            k = gcd(pair[1], d)
            pair[0] = pair[0] * (d // k) - n * (pair[1] // k)
            pair[1] = pair[1] // k * d
        pair = charges[target]
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

    # R7 and R8 in one pass over the faces; see the module docstring.
    # Their recipients by degree, each set built once per run: R7 pays
    # the true vertices of degree at most 4, R8 prepays the 3-vertices
    # and then pays the true 4-vertices.
    r7_takers = {v for v, d in deg.items() if d <= 4} - false
    r8_takers = {v for v in r7_takers if deg[v] == 4}
    r8_prepaid = {v for v, d in deg.items() if d == 3}
    r7: list[Transfer] = []
    r8: list[Transfer] = []
    for src, d, tails in zip(at_face, emb.face_degrees, emb.faces):
        n, den = charges[src]
        if d <= 4:
            rule, out = "R7", r7
            takers = list(filter(r7_takers.__contains__, tails))
        else:
            rule, out = "R8", r8
            prepaid = list(filter(r8_prepaid.__contains__, tails))
            r8 += [_new(Transfer, ("R8", src, at_vertex[t], R8_PREPAY, None)) for t in prepaid]
            pay = R8_PREPAY.numerator * len(prepaid)
            n, den = n * R8_PREPAY.denominator - pay * den, den * R8_PREPAY.denominator
            takers = list(filter(r8_takers.__contains__, tails))
        if takers and n != 0:
            den *= len(takers)
            share = memo.get((n, den))
            if share is None:
                share = _exact(memo, n, den)
            out += [_new(Transfer, (rule, src, at_vertex[t], share, None)) for t in takers]
    _apply(charges, r7)
    _apply(charges, r8)
    transfers += r7
    transfers += r8

    final = {}
    for el, (n, d) in charges.items():
        q = memo.get((n, d))
        final[el] = _exact(memo, n, d) if q is None else q
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
