"""Charge initialization, rule firing, phases, and the ledger format."""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from gadgets import crossing_gadget, prepaid_big_face_gadget
from naive_oracle import naive_ledger, naive_run
from oneplane.audit import audit
from oneplane.discharging import (
    R6_BANDS,
    R8_PREPAY,
    SPECIAL_PARTNER_BOUND,
    apply_discharging,
    element_label,
    exact_sum,
    face,
    find_special_faces,
    initial_charges,
    ledger_lines,
    r6_route,
    transitive_corners,
    vertex,
)
from oneplane.generators import (
    GenerationFailed,
    GeneratorParams,
    catalog,
    catalog_names,
    random_oneplane,
)
from oneplane.lightedge import HEAVY, check_light_edge_guarantee
from oneplane.oneplanar import AssociatedPlaneGraph, Corner, build_drawing, crossing_corners
from references import sliced_corners
from test_acceptance import R6_SAMPLES
from test_audit import _gadget_drawings

K4 = {0: [1, 3, 2], 1: [2, 3, 0], 2: [0, 3, 1], 3: [2, 0, 1]}


def wheel(k: int) -> dict[int, list[int]]:
    """Hub 0 joined to the rim cycle 1..k."""
    rim = lambda i: 1 + (i - 1) % k  # noqa: E731
    rot = {0: [rim(i) for i in range(1, k + 1)]}
    for i in range(1, k + 1):
        rot[i] = [0, rim(i - 1), rim(i + 1)]
    return rot


# Fractions with small and with over-64-bit denominators, zeros and
# negatives included.
fractions = st.one_of(
    st.fractions(max_denominator=60),
    st.builds(
        Fraction,
        st.integers(min_value=-(2**90), max_value=2**90),
        st.integers(min_value=1, max_value=2**100),
    ),
    st.just(Fraction(0)),
)


@given(st.lists(fractions, max_size=40))
@example([])
@example([Fraction(0)])
@example([Fraction(-5, 7)])
@example([Fraction(1, 3), Fraction(-1, 3)])
@example([Fraction(1, 2**65 + 1), Fraction(2**64, 2**65 + 1), Fraction(-7, 2**70)])
def test_exact_sum_equals_fraction_sum(values):
    total = exact_sum(values)
    assert type(total) is Fraction
    assert total == sum(values, Fraction(0))
    assert exact_sum(dict(enumerate(values)).values()) == total
    # an empty or one-item collection is read directly
    if len(values) == 1:
        assert total is values[0]


def test_degree_thresholds_derive_from_the_bound_table():
    # the oracle writes these numbers out, so its ledger equalities check
    # the derivation; this pins the three tables themselves
    assert HEAVY == {3: 24, 4: 12, 5: 10, 6: 9, 7: 8}
    assert SPECIAL_PARTNER_BOUND == {4: 11, 5: 9, 6: 8}
    assert tuple(least for least, _, _ in R6_BANDS) == (24, 12, 10, 9)


def test_initial_charges_on_plane_k4():
    state = initial_charges(build_drawing(K4))
    assert all(state[vertex(v)] == -1 for v in range(4))
    assert all(state[face(i)] == -1 for i in range(4))
    assert exact_sum(state.values()) == -8


def test_false_vertex_starts_at_zero():
    g = catalog("k5-one-crossing")
    state = initial_charges(g)
    assert state[vertex(5)] == 0
    assert exact_sum(state.values()) == -8


def test_heavy_vertex_initial_charge_and_rate():
    g = crossing_gadget(24, 24, 3, 3)
    state = initial_charges(g)
    assert state[vertex(0)] == 20
    _, transfers = apply_discharging(g)
    rates = {t.amount for t in transfers if t.rule == "R5" and t.source == vertex(0)}
    assert rates == {Fraction(5, 6)}  # 20/24 per incident face


def test_k5_special_faces_use_both_pivots():
    records = find_special_faces(catalog("k5-one-crossing"))
    assert len(records) == 8
    assert all(r.k == 4 for r in records)
    by_face = Counter(r.face for r in records)
    assert sorted(by_face.values()) == [2, 2, 2, 2]


def test_special_face_partner_threshold_boundary():
    # pivot of degree 4, partner adjacent to the pivot's far endpoint
    special = crossing_gadget(4, 5, 2, 11, link_partner_far=True)
    records = find_special_faces(special)
    assert [(r.pivot, r.k, r.partner) for r in records] == [(0, 4, 1)]

    past = crossing_gadget(4, 5, 2, 12, link_partner_far=True)
    assert find_special_faces(past) == []


def test_plane_drawing_needs_no_recovered_graph(monkeypatch):
    # without a crossing there is no special face, and the recovered
    # graph, a sorted copy of every edge, is never read; with crossings
    # the engine reads the darts and the crossing segments instead
    def unread(g):
        raise AssertionError("recovered graph read")

    monkeypatch.setattr(AssociatedPlaneGraph, "_original", property(unread))
    assert find_special_faces(catalog("k4")) == []
    assert apply_discharging(catalog("icosahedron"))[1]
    assert len(find_special_faces(catalog("k5-one-crossing"))) == 8
    assert apply_discharging(catalog("cube-plus-diagonals"))[1]


def test_unlinked_partner_is_not_special():
    assert find_special_faces(crossing_gadget(4, 5, 1, 11)) == []


def test_pivot_rate_vs_partner_rate():
    g = crossing_gadget(4, 5, 2, 11, link_partner_far=True)
    _, transfers = apply_discharging(g)
    spoke = {(t.rule, t.source, t.amount) for t in transfers if t.rule in ("R1", "R2")}
    assert ("R1", vertex(0), Fraction(1, 6)) in {(r, s, a) for r, s, a in spoke}
    # the degree-5 partner pays the plain rate: the face is not special at it
    r2 = [t for t in transfers if t.rule == "R2" and t.source == vertex(1)]
    assert r2 and all(t.amount == Fraction(1, 5) for t in r2)


def test_transitive_false_vertices():
    g = crossing_gadget(9, 10)
    triangle = next(
        i for i in range(g.embedding.face_count()) if g.embedding.face_degrees[i] == 3
    )
    assert [v for f, _, v, *_ in transitive_corners(g) if f == triangle] == [2]

    g = crossing_gadget(8, 24)
    assert transitive_corners(g) == []

    assert transitive_corners(build_drawing(K4)) == []


def reference_corners(g: AssociatedPlaneGraph) -> list[Corner]:
    """The face-walk scan the corner table replaced, as its reference:
    (face, previous tail, false vertex, next tail) for every position on
    every face where a false vertex sits, then the previous and the next
    tail's far ends, read from the false vertex's rotation, and the
    faces past them, found on the walks as the faces entering the false
    vertex from the next tail and leaving it toward the previous one.
    Sorted."""
    rot = g.embedding.rotation
    false = g.false_vertices
    at = {}  # (previous tail, false vertex, next tail) -> face
    for i, walk in enumerate(g.embedding.faces):
        for j, (v, nxt) in enumerate(zip(walk, walk[1:] + walk[:1])):
            if v in false:
                at[walk[j - 1], v, nxt] = i
    out = []
    for (prev, v, nxt), i in at.items():
        r = rot[v]
        a, b = r[(r.index(prev) + 2) % 4], r[(r.index(nxt) + 2) % 4]
        out.append((i, prev, v, nxt, a, b, at[nxt, v, a], at[b, v, prev]))
    return sorted(out)


def assert_corners_as_reference(g: AssociatedPlaneGraph) -> list[Corner]:
    """The corner table is read off the false vertex's rotation turned
    to its lowest id and its `corner_faces` turned alike, and holds the
    face-walk reference's records; the transitive corners are the
    reference's records whose two bounding endpoints have degree at
    least 9. Returns the transitive corners, sorted."""
    corners = crossing_corners(g)
    assert corners == sliced_corners(g)
    reference = reference_corners(g)
    assert sorted(corners) == reference
    deg = g.embedding.degrees
    transitive = sorted(transitive_corners(g))
    assert transitive == [c for c in reference if deg[c[1]] >= 9 and deg[c[3]] >= 9]
    return transitive


def test_corners_match_the_face_walk_reference():
    drawings = [catalog(name) for name in catalog_names()] + R6_SAMPLES + _gadget_drawings()
    # the benchmark's quad-large drawing (749 crossings)
    drawings.append(random_oneplane(GeneratorParams(0, 1001, 0.75)))
    found = [assert_corners_as_reference(g) for g in drawings]
    assert sum(map(bool, found)) >= 20  # the filter is exercised


@given(
    st.integers(0, 10_000),
    st.integers(4, 40),
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
    st.randoms(use_true_random=False),
)
@settings(max_examples=40, deadline=None)
def test_corners_match_the_reference_on_generated_drawings(seed, size, density, rng):
    # The generated drawing as it is, then relabelled by a random
    # permutation, as the relabelling property does, with some true
    # vertices pumped with pendant leaves at random corners:
    # quadrangulation fills alone have no corner whose two endpoints
    # both reach degree 9.
    try:
        g = random_oneplane(GeneratorParams(seed, size, density))
    except GenerationFailed:
        reject()
    assert_corners_as_reference(g)
    labels = list(g.embedding.vertices)
    rng.shuffle(labels)
    vmap = dict(zip(g.embedding.vertices, labels))
    rot = {vmap[v]: [vmap[u] for u in r] for v, r in g.embedding.rotation.items()}
    false = {vmap[v] for v in g.false_vertices}
    true = sorted(set(rot) - false)
    for v in rng.sample(true, rng.randint(0, len(true))):
        for _ in range(rng.randint(0, 8)):
            leaf = max(rot) + 1
            rot[v].insert(rng.randrange(len(rot[v]) + 1), leaf)
            rot[leaf] = [v]
    assert_corners_as_reference(build_drawing(rot, false))


def test_eight_wheel_hub_pays_half_everywhere_and_ends_at_zero():
    g = build_drawing(wheel(8))
    final, transfers = apply_discharging(g)
    hub = [t for t in transfers if t.source == vertex(0)]
    assert len(hub) == 8
    assert all(t.rule == "R5" and t.amount == Fraction(1, 2) for t in hub)
    assert final[vertex(0)] == 0


def test_seven_vertex_on_six_false_triangles_ends_at_zero():
    # hub 0 of degree 7; rim vertices 1, 3, 5 are crossings, so six of the
    # seven hub corners are false triangles
    rot = {
        0: [1, 2, 3, 4, 5, 6, 7],
        1: [0, 7, 8, 2],
        2: [0, 1, 3],
        3: [0, 2, 9, 4],
        4: [0, 3, 5],
        5: [0, 4, 10, 6],
        6: [0, 5, 7],
        7: [0, 6, 1],
        8: [1],
        9: [3],
        10: [5],
    }
    g = build_drawing(rot, {1, 3, 5})
    final, transfers = apply_discharging(g)
    hub = [t for t in transfers if t.source == vertex(0)]
    assert len(hub) == 6
    assert all(t.rule == "R4" and t.amount == Fraction(1, 2) for t in hub)
    assert final[vertex(0)] == 0
    assert exact_sum(final.values()) == -8


def test_plane_k4_uses_only_residual_splits():
    g = build_drawing(K4)
    final, transfers = apply_discharging(g)
    assert {t.rule for t in transfers} == {"R7"}
    assert all(t.amount == Fraction(-1, 3) for t in transfers)
    assert all(final[vertex(v)] == -2 for v in range(4))
    assert all(final[face(i)] == 0 for i in range(4))


def test_five_wheel_exercises_r8_prepayment():
    g = build_drawing(wheel(5))
    final, transfers = apply_discharging(g)
    outer = next(
        i for i in range(g.embedding.face_count()) if g.embedding.face_degrees[i] == 5
    )
    prepaid = [t for t in transfers if t.rule == "R8" and t.source == face(outer)]
    assert len(prepaid) == 5
    assert all(t.amount == Fraction(2, 3) for t in prepaid)
    # no true 4-vertices: the face keeps its (negative) remainder
    assert final[face(outer)] == 1 - 5 * Fraction(2, 3)
    assert exact_sum(final.values()) == -8


def test_conservation_on_catalog_and_samples():
    for g in (
        catalog("k6-three-crossings"),
        catalog("icosahedron"),
        random_oneplane(GeneratorParams(17, 33, 0.5)),
        crossing_gadget(24, 30, 3, 4, "quad"),
    ):
        final, _ = apply_discharging(g)
        assert exact_sum(final.values()) == -8


def test_engine_is_pure_and_deterministic():
    g = catalog("k6-three-crossings")
    first = ledger_lines(apply_discharging(g)[1])
    second = ledger_lines(apply_discharging(g)[1])
    assert first == second


def test_mirror_drawing_discharges_identically():
    g = catalog("k6-three-crossings")
    mirrored = build_drawing(
        {v: list(reversed(r)) for v, r in g.embedding.rotation.items()},
        g.false_vertices,
    )
    final, transfers = apply_discharging(g)
    final_m, transfers_m = apply_discharging(mirrored)
    for v in g.embedding.vertices:
        assert final[vertex(v)] == final_m[vertex(v)]
    faces_a = Counter(c for el, c in final.items() if el[0] == "f")
    faces_b = Counter(c for el, c in final_m.items() if el[0] == "f")
    assert faces_a == faces_b
    assert len(transfers) == len(transfers_m)


LINE = re.compile(r"^R[1-8](\.[1-4])?;[vf]\d+;[vf]\d+;(v\d+)?;-?\d+/\d+$")


def test_ledger_line_format_and_order():
    g = crossing_gadget(24, 24, 3, 3)
    _, transfers = apply_discharging(g)
    lines = ledger_lines(transfers)
    assert all(LINE.match(line) for line in lines)
    keys = [line.split(";")[0] for line in lines]
    assert keys == sorted(keys)
    for line in lines:
        rule, _src, _tgt, via, _amt = line.split(";")
        assert (via != "") == rule.startswith("R6")
    r7_sources = {line.split(";")[1][0] for line in lines if line.startswith("R7")}
    assert r7_sources <= {"f"}


def _export_order(t):
    # rule, source, target, via (none first), amount
    return (t.rule, t.source, t.target, -1 if t.via is None else t.via, t.amount)


def _line(t):
    via = "" if t.via is None else element_label(vertex(t.via))
    amount = f"{t.amount.numerator}/{t.amount.denominator}"
    return f"{t.rule};{element_label(t.source)};{element_label(t.target)};{via};{amount}"


def test_ledger_lines_equal_the_per_transfer_rendering(corpus_runs):
    # ledger_lines renders each distinct amount once and formats labels in
    # place; every line must read as the transfer rendered alone, with
    # element_label's labels, in the ledger's sort order
    ledgers = [transfers for _, _, _, transfers in corpus_runs]
    ledgers += [apply_discharging(g)[1] for g in R6_SAMPLES + _gadget_drawings()]
    rules = set()
    for transfers in ledgers:
        ordered = sorted(transfers, key=_export_order)
        lines = ledger_lines(transfers)
        assert lines == [ledger_lines([t])[0] for t in ordered] == [_line(t) for t in ordered]
        rules |= {t.rule for t in transfers}
    assert {"R1", "R2", "R3", "R4", "R5", "R6.1", "R6.2", "R6.3", "R6.4", "R7", "R8"} <= rules


def _built_values(g):
    """The final charges and the R7/R8 residual shares of one run; the R8
    prepayment is a module constant, not built by the run."""
    final, transfers = apply_discharging(g)
    shares = [
        t.amount for t in transfers if t.rule in ("R7", "R8") and t.amount is not R8_PREPAY
    ]
    return list(final.values()) + shares


@pytest.mark.parametrize(
    "g",
    [build_drawing(wheel(300)), random_oneplane(GeneratorParams(1, 150, 0.75))],
    ids=["wheel-300", "random-1-150"],
)
def test_one_fraction_per_distinct_value_within_a_run(g):
    first, second = _built_values(g), _built_values(g)
    assert first == second
    assert all(type(q) is Fraction for q in first)
    # within a run, equal values are one object
    assert len({id(q) for q in first}) == len(set(first)) < len(first)
    # no object outlives its run: there is no cache across calls
    assert not {id(q) for q in first} & {id(q) for q in second}


def test_r6_routes_only_through_transitive_vertices():
    for g in (
        crossing_gadget(9, 24, 5, 5, "quad"),
        crossing_gadget(12, 23, 4, 6),
        catalog("k6-three-crossings"),
    ):
        _, transfers = apply_discharging(g)
        trans = {(f, v) for f, _, v, *_ in transitive_corners(g)}
        for t in transfers:
            if t.rule.startswith("R6"):
                assert (t.source[1], t.via) in trans


def spot_check_drawings():
    return [
        catalog("k5-one-crossing"),
        crossing_gadget(9, 9, 1, 1),
        random_oneplane(GeneratorParams(23, 11, 0.5)),
    ]


def test_engine_matches_naive_oracle_spot_checks():
    for g in spot_check_drawings():
        _, transfers = apply_discharging(g)
        engine = sorted(ledger_lines(transfers))
        oracle = sorted(naive_ledger(g.embedding.rotation, set(g.false_vertices)))
        assert engine == oracle


def test_engine_matches_naive_oracle_on_r6_samples_and_gadgets():
    """The R6 samples and the gadget sweep are where R6 fires, with
    unequal bounding degrees and with distinct corner faces past the two
    far ends, so their ledgers pin what `r6_route` picks and where the
    engine sends it."""
    for i, g in enumerate(R6_SAMPLES + _gadget_drawings()):
        engine = sorted(ledger_lines(apply_discharging(g)[1]))
        oracle = sorted(naive_ledger(g.embedding.rotation, set(g.false_vertices)))
        assert engine == oracle, i


def test_engine_matches_naive_oracle_on_the_r6_class_grid():
    # every band at its least degree and at one degree inside it, every
    # far-end degree from a leaf to past R6.2's bound of 6, and both
    # sender shapes
    rules = set()
    for m, far_a, far_b, sender in product(
        (9, 10, 11, 12, 23, 24, 40), range(1, 9), range(1, 9), ("triangle", "quad")
    ):
        g = crossing_gadget(m, m, far_a, far_b, sender)
        engine = sorted(ledger_lines(apply_discharging(g)[1]))
        oracle = sorted(naive_ledger(g.embedding.rotation, set(g.false_vertices)))
        assert engine == oracle, (m, far_a, far_b, sender)
        rules |= {line.split(";")[0] for line in engine}
    assert {"R6.1", "R6.2", "R6.3", "R6.4"} <= rules


# R6_BANDS's leasts, HEAVY[3..6], highest first
BAND_LEASTS = (24, 12, 10, 9)
# a target slot's mirror: the faces past a and b, then the vertices a and b
MIRRORED_SLOT = (1, 0, 3, 2)


def test_r6_route_is_mirror_symmetric_and_reads_only_the_band_of_m():
    by_band = {}
    for deg_a, deg_b, far_a, far_b, sender in product(
        range(1, 41), range(1, 41), range(1, 11), range(1, 11), range(3, 6)
    ):
        route = r6_route(deg_a, deg_b, far_a, far_b, sender)
        mirrored = r6_route(deg_b, deg_a, far_b, far_a, sender)
        if route is None:
            assert mirrored is None
        else:
            rule, slots, amount = route
            assert mirrored[0] == rule and mirrored[2] == amount
            assert sorted(mirrored[1]) == sorted(MIRRORED_SLOT[k] for k in slots)
        m = min(deg_a, deg_b)
        band = next((least for least in BAND_LEASTS if m >= least), None)
        if band is None:
            assert route is None
        assert by_band.setdefault((band, far_a, far_b, sender), route) == route


DEGENERATE = {
    # two crossing edges alone: the false vertex sits four times on one face
    "lone-crossing": ({0: [1, 2, 3, 4], 1: [0], 2: [0], 3: [0], 4: [0]}, {0}),
    # K1,3: the degree-3 hub occurs three times on the single 6-face, so
    # R8 prepays it once per occurrence
    "claw": ({0: [1, 2, 3], 1: [0], 2: [0], 3: [0]}, set()),
    # bridge on a 5-face, cut vertex visited twice on the walk
    "triangle-pendant": ({0: [1, 2, 3], 1: [2, 0], 2: [0, 1], 3: [0]}, set()),
    # two triangles sharing a degree-4 cut vertex
    "bowtie": ({0: [1, 2, 3, 4], 1: [2, 0], 2: [0, 1], 3: [4, 0], 4: [0, 3]}, set()),
}


def test_boundary_multiplicity_semantics_on_degenerate_drawings():
    for name, (rot, false) in DEGENERATE.items():
        g = build_drawing(rot, false)
        final, transfers = apply_discharging(g)
        assert exact_sum(final.values()) == -8, name
        engine = sorted(ledger_lines(transfers))
        oracle = sorted(naive_ledger(g.embedding.rotation, set(g.false_vertices)))
        assert engine == oracle, name


def test_claw_prepays_hub_once_per_occurrence():
    g = build_drawing(DEGENERATE["claw"][0])
    _, transfers = apply_discharging(g)
    prepaid = [t for t in transfers if t.rule == "R8" and t.target == vertex(0)]
    assert len(prepaid) == 3
    assert all(t.amount == Fraction(2, 3) for t in prepaid)


# Per band of m, as the paper states the rules: (rule, 3-face sender
# with both far ends of degree 3, 3-face sender with far degrees (3, 7),
# 4+-face sender). Each entry lists the routed amounts; R6.1 also pays
# the degree-3 far ends themselves.
R6_BAND_EXPECTED = {
    8: None,
    9: ("R6.4", [Fraction(1, 18)] * 2, [Fraction(1, 9)], [Fraction(5, 18)] * 2),
    10: ("R6.3", [Fraction(1, 10)] * 2, [Fraction(1, 5)], [Fraction(3, 10)] * 2),
    11: ("R6.3", [Fraction(1, 10)] * 2, [Fraction(1, 5)], [Fraction(3, 10)] * 2),
    12: ("R6.2", [Fraction(1, 6)] * 2, [Fraction(1, 3)], [Fraction(1, 3)] * 2),
    23: ("R6.2", [Fraction(1, 6)] * 2, [Fraction(1, 3)], [Fraction(1, 3)] * 2),
    24: ("R6.1", [Fraction(1, 6)] * 4, [Fraction(1, 3)] * 2, [Fraction(1, 6)] * 4),
}


def _r6(g) -> list[tuple[str, Fraction]]:
    _, transfers = apply_discharging(g)
    return sorted((t.rule, t.amount) for t in transfers if t.rule.startswith("R6"))


@pytest.mark.parametrize("m", sorted(R6_BAND_EXPECTED))
def test_r6_band_boundaries(m):
    expected = R6_BAND_EXPECTED[m]
    cases = {
        "both": _r6(crossing_gadget(m, m, 3, 3, "triangle")),
        "one-sided": _r6(crossing_gadget(m, m, 3, 7, "triangle")),
        "quad": _r6(crossing_gadget(m, m, 3, 3, "quad")),
    }
    if expected is None:
        assert cases == {"both": [], "one-sided": [], "quad": []}
        return
    rule, both, one_sided, quad = expected
    assert cases == {
        "both": [(rule, a) for a in both],
        "one-sided": [(rule, a) for a in one_sided],
        "quad": [(rule, a) for a in quad],
    }


def _assert_final_charges_match_oracle(g, final, name):
    # one exact Fraction per element, keyed in initial-charge order, each
    # equal to the oracle's balance moved one transfer at a time
    _, balance = naive_run(g.embedding.rotation, set(g.false_vertices))
    assert list(final) == list(initial_charges(g)), name
    assert all(type(q) is Fraction for q in final.values()), name
    assert {element_label(el): q for el, q in final.items()} == balance, name


def test_final_charges_match_the_naive_oracle(corpus_runs):
    drawings = [(name, build_drawing(rot, false)) for name, (rot, false) in DEGENERATE.items()]
    drawings += [(f"spot:{i}", g) for i, g in enumerate(spot_check_drawings())]
    drawings += [
        (f"band:{m},{far},{shape}", crossing_gadget(m, m, 3, far, shape))
        for m in R6_BAND_EXPECTED
        for far, shape in ((3, "triangle"), (7, "triangle"), (3, "quad"))
    ]
    drawings.append(("prepaid-big-face", prepaid_big_face_gadget()))
    for name, g in drawings:
        _assert_final_charges_match_oracle(g, apply_discharging(g)[0], name)
    small = [run for run in corpus_runs if run[1].embedding.vertex_count() <= 12]
    assert len(small) >= 10
    for name, g, final, _ in small:
        _assert_final_charges_match_oracle(g, final, name)


@given(
    st.integers(0, 10_000),
    st.integers(4, 150),
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
)
@example(1, 150, 0.75)
@settings(max_examples=25, deadline=None)
def test_final_charges_match_the_naive_oracle_on_random_drawings(seed, size, density):
    # sizes past ~60 give elements several distinct amount denominators
    # and R7/R8 shares of either sign (the example: up to 5 per element
    # and 36 negative shares)
    try:
        g = random_oneplane(GeneratorParams(seed, size, density))
    except GenerationFailed:
        reject()
    final, transfers = apply_discharging(g)
    _assert_final_charges_match_oracle(g, final, (seed, size, density))
    engine = sorted(ledger_lines(transfers))
    assert engine == sorted(naive_run(g.embedding.rotation, set(g.false_vertices))[0])


def _observed(g):
    final, transfers = apply_discharging(g)
    report = audit(g, final, transfers)
    verdict = check_light_edge_guarantee(g)
    return ledger_lines(transfers), verdict, report.checks, report.negative_elements


@given(
    st.integers(0, 10_000),
    st.integers(4, 40),
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
    st.randoms(use_true_random=False),
)
@settings(max_examples=25, deadline=None)
def test_rotation_start_does_not_matter(seed, size, density, rng):
    # Faces are indexed from their smallest directed edge and crossing
    # labels start at the lowest id, so no output sees where a stored
    # rotation starts.
    try:
        g = random_oneplane(GeneratorParams(seed, size, density))
    except GenerationFailed:
        reject()
    turned = {}
    for v, r in g.embedding.rotation.items():
        k = rng.randrange(len(r))
        turned[v] = r[k:] + r[:k]
    assert _observed(build_drawing(turned, g.false_vertices)) == _observed(g)


@given(
    st.integers(0, 10_000),
    st.integers(4, 40),
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
    st.randoms(use_true_random=False),
)
@settings(max_examples=25, deadline=None)
def test_relabelling_commutes_with_every_output(seed, size, density, rng):
    # Relabel the vertices by a random permutation, keeping the false
    # marks. The ledger, the final charges, the light-edge verdict and
    # the audit of the relabelled drawing are those of the drawing, read
    # through the vertex map and the face map its darts induce.
    try:
        g = random_oneplane(GeneratorParams(seed, size, density))
    except GenerationFailed:
        reject()
    labels = list(g.embedding.vertices)
    rng.shuffle(labels)
    vmap = dict(zip(g.embedding.vertices, labels))
    h = build_drawing(
        {vmap[v]: [vmap[u] for u in r] for v, r in g.embedding.rotation.items()},
        {vmap[v] for v in g.false_vertices},
    )
    fmap = [h.embedding.face_of[vmap[u], vmap[v]] for u, v, *_ in g.embedding.faces]

    def mapped(el):
        kind, x = el
        return (kind, vmap[x] if kind == "v" else fmap[x])

    final, transfers = apply_discharging(g)
    final_h, transfers_h = apply_discharging(h)
    assert Counter(
        t._replace(
            source=mapped(t.source),
            target=mapped(t.target),
            via=None if t.via is None else vmap[t.via],
        )
        for t in transfers
    ) == Counter(transfers_h)
    assert {mapped(el): q for el, q in final.items()} == final_h

    # the witness is the first light edge by (type, smaller degree, ids),
    # so only its type and smaller degree are free of the labelling
    verdict, verdict_h = check_light_edge_guarantee(g), check_light_edge_guarantee(h)
    assert (verdict.status, verdict.min_degree) == (verdict_h.status, verdict_h.min_degree)
    assert Counter(
        (w.light_type, frozenset(zip(map(vmap.get, w.edge), w.degrees)))
        for w in verdict.light_edges
    ) == Counter((w.light_type, frozenset(zip(w.edge, w.degrees))) for w in verdict_h.light_edges)
    if verdict.witness is not None:
        assert (verdict.witness.light_type, min(verdict.witness.degrees)) == (
            verdict_h.witness.light_type,
            min(verdict_h.witness.degrees),
        )

    report, report_h = audit(g, final, transfers), audit(h, final_h, transfers_h)
    assert report.checks == report_h.checks
    assert sorted((mapped(el), q) for el, q in report.negative_elements) == list(
        report_h.negative_elements
    )


def test_transfers_share_the_runs_element_tuples(corpus_runs):
    """A run builds one element tuple per vertex and per face: every
    transfer's source and target is the key object of that element in
    the final charges, on the corpus and on the gadgets."""
    runs = list(corpus_runs)
    for i, g in enumerate(R6_SAMPLES + _gadget_drawings()):
        runs.append((f"gadget:{i}", g, *apply_discharging(g)))
    for name, g, final, transfers in runs:
        key = {el: el for el in final}
        assert all(key[t.source] is t.source and key[t.target] is t.target for t in transfers), name
