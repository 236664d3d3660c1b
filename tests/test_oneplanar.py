"""Validation, recovery, crossing neighborhoods, and diagnostics."""

from __future__ import annotations

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from gadgets import (
    crossing_gadget,
    doubly_triangular_gadget,
    encircled_gadget,
    squeezed_gadget,
)
from neighborhoods import crossing_pairs, endpoints, faces
from oneplane.embedding import MalformedRotation, build_embedding
from oneplane.generators import (
    GenerationFailed,
    GeneratorParams,
    catalog,
    catalog_names,
    random_oneplane,
)
from oneplane.graphio import dumps
from oneplane.lightedge import check_light_edge_guarantee
from oneplane.oneplanar import (
    ADJACENT_FALSE,
    CROSSING_EDGE_ON_TWO_TRIANGLES,
    ENCIRCLED_4_VERTEX,
    FALSE_DEGREE,
    RECOVERED_MULTI_EDGE,
    SQUEEZED_3_VERTEX,
    AssociatedPlaneGraph,
    OriginalGraphView,
    RecoveredMultiEdge,
    ValidationReport,
    Violation,
    build_drawing,
    crossing_neighborhoods,
    drawing_diagnostics,
    recover_original,
    validate,
)
from reports import violation_kinds

K4 = {0: [1, 3, 2], 1: [2, 3, 0], 2: [0, 3, 1], 3: [2, 0, 1]}
# the wheel with hub 0 and rim 1-5
W5 = {0: [1, 2, 3, 4, 5], 1: [0, 5, 2], 2: [0, 1, 3], 3: [0, 2, 4], 4: [0, 3, 5], 5: [0, 4, 1]}

# Hand-built invalid drawings: (rotation, false vertices).
# vertex 2 is the crossing of edges 0-1 and 3-4, but 0-1 also exists
CROSSING_BESIDE_DIRECT_EDGE = ({0: [1, 2], 1: [2, 0], 2: [0, 3, 1, 4], 3: [2], 4: [2]}, {2})
# crossing 3's segment runs 0-3-4-0, a loop through the adjacent
# crossings 3 and 4
FALSE_CHAIN_LOOP = (
    {0: [3, 4], 1: [3], 2: [3], 3: [0, 1, 4, 2], 4: [3, 5, 0, 6], 5: [4], 6: [4]},
    {3, 4},
)
# crossing 2 of 0-1 and 3-4 beside the direct edge 0-1 (its segment runs
# 1-2-0), joined by the edge 3-10 to the adjacent crossings 8 and 9,
# whose segment 5-8-9-5 is a loop
LOOP_AND_MULTI_EDGE = (
    {
        0: [1, 2], 1: [2, 0], 2: [1, 3, 0, 4], 3: [2, 10], 4: [2],
        5: [8, 9], 6: [8], 7: [8], 8: [5, 6, 9, 7], 9: [8, 10, 5, 11], 10: [9, 3], 11: [9],
    },
    {2, 8, 9},
)
# the crossing segments of the adjacent crossings 0, 1 and 2 run into
# each other in a cycle
FALSE_VERTEX_CYCLE = (
    {0: (2, 4, 1, 3), 1: (0, 4, 2, 3), 2: (1, 4, 0, 3), 3: (0, 1, 2), 4: (0, 2, 1)},
    {0, 1, 2},
)
# the first two, the cycle shifted to 10-14, joined by the bridge 3-13:
# the multi-edge's segment comes first, the cycle's adjacencies are
# reported first
CYCLE_BESIDE_MULTI_EDGE = (
    {
        **CROSSING_BESIDE_DIRECT_EDGE[0],
        3: [2, 13],
        **{v + 10: [u + 10 for u in r] for v, r in FALSE_VERTEX_CYCLE[0].items()},
        13: [10, 11, 12, 3],
    },
    {2, 10, 11, 12},
)


@pytest.mark.parametrize("seq", [list, tuple])
@pytest.mark.parametrize("via_drawing", [False, True], ids=["build_embedding", "build_drawing"])
def test_embedding_owns_its_rotation_table(seq, via_drawing):
    source = catalog("k5-one-crossing")
    table = {v: seq(r) for v, r in source.embedding.rotation.items()}
    if via_drawing:
        g = build_drawing(table, source.false_vertices)
    else:
        g = AssociatedPlaneGraph(build_embedding(table), source.false_vertices)
    # change the caller's lists in place, then every entry of its dict
    for r in table.values():
        if isinstance(r, list):
            r.reverse()
    for v in list(table):
        table[v] = table[v][1:]
    table[6] = ()

    emb, fresh = g.embedding, source.embedding
    assert emb.rotation == fresh.rotation
    assert all(type(r) is tuple for r in emb.rotation.values())
    assert emb.degrees == fresh.degrees
    assert all(emb.corner_faces(v) == fresh.corner_faces(v) for v in emb.vertices)
    assert dumps(g) == dumps(source)
    assert len(set(crossing_neighborhoods(g))) == 1  # corner records are hashable


def test_plane_triangulation_validates_clean():
    report = validate(build_drawing(K4))
    assert report.ok


def test_adjacent_false_vertices_flagged():
    # path 0-1-2-3-4 with 1, 2 marked false (degrees wrong too)
    rot = {0: [1], 1: [0, 2], 2: [1, 3], 3: [2, 4], 4: [3]}
    report = validate(build_drawing(rot, {1, 2}))
    assert ADJACENT_FALSE in violation_kinds(report)
    assert FALSE_DEGREE in violation_kinds(report)


def test_false_degree_three_flagged():
    rot = {0: [1, 2, 3], 1: [2, 0], 2: [0, 1, 3], 3: [2, 0]}
    report = validate(build_drawing(rot, {0}))
    assert violation_kinds(report) == {FALSE_DEGREE}


def test_segment_into_false_vertex_of_wrong_degree_is_reported():
    # false vertex 0 (degree 4) next to false vertex 1 (degree 3): the
    # segment from 0 through 1 yields no edge, and nothing is raised
    rot = {0: [1, 2, 3, 4], 1: [0, 4, 2], 2: [0, 1, 3], 3: [0, 2, 4], 4: [0, 3, 1]}
    report = validate(build_drawing(rot, {0, 1}))
    assert violation_kinds(report) == {FALSE_DEGREE, ADJACENT_FALSE}


def test_recover_identity_without_crossings():
    view = recover_original(build_drawing(K4))
    assert view.edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    assert all(view.degrees[v] == 3 for v in view.vertices)


def test_recover_k5_from_catalog_drawing():
    g = catalog("k5-one-crossing")
    view = recover_original(g)
    assert len(view.vertices) == 5
    assert len(view.edges) == 10
    assert sorted(view.degrees.values()) == [4] * 5
    # true-vertex degrees agree between the drawing and the recovery
    assert all(view.degrees[v] == g.embedding.degrees[v] for v in view.vertices)
    # derived once per drawing: every call returns the same view
    assert recover_original(g) is view


def test_has_edge_agrees_with_edges():
    g = catalog("cube-plus-diagonals")
    view = recover_original(g)
    edges = set(view.edges)
    ids = sorted(g.embedding.rotation)
    assert len(edges) < len(view.vertices) * (len(view.vertices) - 1) // 2  # has non-edges
    for a in ids:
        for b in ids:
            assert view.has_edge(a, b) == ((min(a, b), max(a, b)) in edges), (a, b)
    assert not any(view.has_edge(f, v) for f in g.false_vertices for v in ids)


def test_has_edge_on_directly_constructed_view():
    view = OriginalGraphView(vertices=(0, 1, 2), edges=((2, 0), (0, 1)), degrees={0: 2, 1: 1, 2: 1})
    assert view.has_edge(0, 2) and view.has_edge(2, 0)
    assert view.has_edge(1, 0) and view.has_edge(0, 1)
    assert not view.has_edge(1, 2) and not view.has_edge(2, 1)


def test_coincident_recovered_edges_raise():
    g = encircled_gadget()
    for _ in range(2):  # a failed recovery is not cached: every call raises
        with pytest.raises(RecoveredMultiEdge):
            recover_original(g)
    assert RECOVERED_MULTI_EDGE in violation_kinds(validate(g))


def test_crossing_parallel_to_direct_edge_is_a_multi_edge():
    g = build_drawing(*CROSSING_BESIDE_DIRECT_EDGE)
    assert RECOVERED_MULTI_EDGE in violation_kinds(validate(g))
    with pytest.raises(RecoveredMultiEdge):
        recover_original(g)


RECOVERY_ERRORS = {RECOVERED_MULTI_EDGE: RecoveredMultiEdge}


def assert_refused(g: AssociatedPlaneGraph, derive) -> None:
    """`derive(g)` raises exactly `validate`'s first violation, on two
    calls in a row (a refusal is not cached): its text, as
    RecoveredMultiEdge for a multi-edge and as a plain ValueError
    otherwise."""
    first = validate(g).violations[0]
    expected = (RECOVERY_ERRORS.get(first.kind, ValueError), str(first))
    for _ in range(2):
        with pytest.raises(ValueError) as err:
            derive(g)
        assert (type(err.value), str(err.value)) == expected


def test_false_chain_straightening_to_a_loop_is_refused():
    g = build_drawing(*FALSE_CHAIN_LOOP)
    assert [str(v) for v in validate(g).violations] == [
        "adjacent-false-vertices [3, 4]: false vertices are adjacent"
    ]
    assert_refused(g, recover_original)


def test_straightening_loop_and_multi_edge_reported_in_instance_order():
    g = build_drawing(*LOOP_AND_MULTI_EDGE)
    assert [str(v) for v in validate(g).violations] == [
        "adjacent-false-vertices [8, 9]: false vertices are adjacent",
        "recovered-multi-edge [0, 1]: recovered edge appears twice",
    ]
    assert_refused(g, recover_original)


def test_false_vertex_cycle_is_refused_as_adjacent():
    # the three crossings' other segments all read 3-4
    g = build_drawing(*FALSE_VERTEX_CYCLE)
    assert [str(v) for v in validate(g).violations] == [
        "adjacent-false-vertices [0, 2]: false vertices are adjacent",
        "adjacent-false-vertices [0, 1]: false vertices are adjacent",
        "adjacent-false-vertices [1, 2]: false vertices are adjacent",
        "recovered-multi-edge [3, 4]: recovered edge appears twice",
        "recovered-multi-edge [3, 4]: recovered edge appears twice",
    ]
    assert_refused(g, recover_original)


@pytest.mark.parametrize("rotation, false, degree", [(K4, {3}, 3), (W5, {0}, 5)])
def test_recovery_refuses_a_false_vertex_whose_degree_is_not_4(rotation, false, degree):
    # recovery used to drop the vertex's edges, leaving K4's triangle
    # 0-1-2 at degree 2; it now raises validate's first violation
    g = build_drawing(rotation, false)
    (f,) = false
    assert [str(v) for v in validate(g).violations] == [
        f"false-vertex-degree [{f}]: degree {degree}, expected 4"
    ]
    for derive in (recover_original, crossing_neighborhoods, check_light_edge_guarantee):
        assert_refused(g, derive)


def test_ids_neighbors_and_marks_must_be_ints():
    # a float equal to an id used to pass as that id
    with pytest.raises(MalformedRotation, match="lists neighbor 1.0, a float, not an integer"):
        build_drawing({0: [1.0, 3, 2], 1: [2, 3, 0], 2: [0, 3, 1], 3: [2, 0, 1]})
    g = crossing_gadget(24, 30, 3, 4, "quad")
    # an unhashable mark is refused too, before a set of marks is built
    for mark, kind in ((2.0, "float"), (True, "bool"), ([5], "list")):
        with pytest.raises(ValueError) as err:
            build_drawing(g.embedding.rotation, [mark])
        assert str(err.value) == f"false-vertex mark {mark} is a {kind}, not an integer"
    with pytest.raises(ValueError, match=r"unknown vertices: \[99\]"):
        build_drawing(g.embedding.rotation, {2, 99})


def test_marks_may_name_every_vertex():
    g = build_drawing(K4, set(K4))
    assert g.false_vertices == frozenset(K4)
    assert violation_kinds(validate(g)) == {FALSE_DEGREE, ADJACENT_FALSE}


def test_crossing_neighborhoods_on_k5():
    g = catalog("k5-one-crossing")
    hoods = crossing_neighborhoods(g)
    assert len(hoods) == 1
    hood = hoods[0]
    assert hood.false_vertex == 5
    assert endpoints(hood)[0] == min(endpoints(hood))
    assert crossing_pairs(hood) == frozenset({frozenset({0, 2}), frozenset({1, 3})})
    assert all(0 <= f < g.embedding.face_count() for f in faces(hood))
    # each listed face joins consecutive endpoints
    for i in range(4):
        tails = set(g.embedding.faces[faces(hood)[i]])
        assert {hood.false_vertex, endpoints(hood)[i], endpoints(hood)[(i + 1) % 4]} <= tails


def test_plane_drawing_has_no_neighborhoods():
    assert crossing_neighborhoods(build_drawing(K4)) == []


def test_crossing_neighborhoods_are_derived_once_per_drawing():
    g = catalog("cube-plus-diagonals")
    assert crossing_neighborhoods(g) is crossing_neighborhoods(g)


def test_validation_recovery_and_light_edges_build_no_neighborhoods():
    # the corner records are derived apart from the straightening, so
    # the validate, recover and light-edges commands never build them;
    # the first drawing is the benchmark's quad-large one (749 crossings)
    drawings = [random_oneplane(GeneratorParams(0, 1001, 0.75))]
    drawings += [catalog(name) for name in catalog_names()]
    for g in drawings:
        assert validate(g).ok
        recover_original(g)
        check_light_edge_guarantee(g)
        assert "_neighborhoods" not in vars(g)
        crossing_neighborhoods(g)
        assert "_neighborhoods" in vars(g)  # the probe sees a build


def test_sorted_false_vertices_are_derived_once_per_drawing(corpus):
    for name, g in corpus:
        assert g.sorted_false_vertices == tuple(sorted(g.false_vertices)), name
        assert g.sorted_false_vertices is g.sorted_false_vertices, name
    assert [h.false_vertex for h in crossing_neighborhoods(g)] == list(g.sorted_false_vertices)


def test_cube_plus_diagonals_has_six_neighborhoods():
    g = catalog("cube-plus-diagonals")
    hoods = crossing_neighborhoods(g)
    assert len(hoods) == 6
    pairs = {p for h in hoods for p in crossing_pairs(h)}
    assert len(pairs) == 12  # two fresh diagonals per cube face


def test_edge_count_identity_under_recovery():
    for name, g in [
        ("k5", catalog("k5-one-crossing")),
        ("k6", catalog("k6-three-crossings")),
        ("cube+d", catalog("cube-plus-diagonals")),
    ]:
        view = recover_original(g)
        assert len(view.edges) == g.embedding.edge_count() - 2 * len(g.false_vertices), name


def test_diagnostics_clean_on_catalog():
    for name in ("k4", "cube", "icosahedron", "k5-one-crossing", "k6-three-crossings"):
        assert drawing_diagnostics(catalog(name)).ok, name


def test_encircled_four_vertex_flagged():
    report = drawing_diagnostics(encircled_gadget())
    assert ENCIRCLED_4_VERTEX in violation_kinds(report)


def test_squeezed_three_vertex_flagged():
    report = drawing_diagnostics(squeezed_gadget())
    assert violation_kinds(report) == {SQUEEZED_3_VERTEX}


def _squeezed_with_a_five_face() -> AssociatedPlaneGraph:
    """`squeezed_gadget` with its edge 1-4 subdivided by a new vertex 7,
    which turns the 3-vertex 0's quadrilateral into a 5-face."""
    rot = {v: list(r) for v, r in squeezed_gadget().embedding.rotation.items()}
    rot[1][rot[1].index(4)] = 7
    rot[4][rot[4].index(1)] = 7
    rot[7] = [1, 4]
    return build_drawing(rot, {1, 2})


def test_squeezed_three_vertex_boundaries():
    # vertex 0 sits on exactly 2 triangles with exactly 2 false neighbors;
    # its third corner is a 4-face, which still squeezes it, and a 5-face,
    # which does not
    g = squeezed_gadget()
    assert sorted(g.embedding.face_degrees[f] for f in g.embedding.corner_faces(0)) == [3, 3, 4]
    assert [str(v) for v in drawing_diagnostics(g).violations] == [
        "squeezed-3-vertex [0]: 2 triangles, 2 false neighbors, no 5+-face"
    ]
    g = _squeezed_with_a_five_face()
    assert sorted(g.embedding.face_degrees[f] for f in g.embedding.corner_faces(0)) == [3, 3, 5]
    assert drawing_diagnostics(g).ok


def test_crossing_edge_on_two_triangles_flagged():
    g = doubly_triangular_gadget()
    assert validate(g).ok  # valid, just not crossing-minimal
    report = drawing_diagnostics(g)
    assert CROSSING_EDGE_ON_TWO_TRIANGLES in violation_kinds(report)


def test_neighborhood_invariant_under_rotation_of_stored_lists():
    g = catalog("k6-three-crossings")
    base = {h.false_vertex: crossing_pairs(h) for h in crossing_neighborhoods(g)}
    rot = {v: list(r) for v, r in g.embedding.rotation.items()}
    for v in g.false_vertices:  # rotating the stored list keeps the embedding
        rot[v] = rot[v][2:] + rot[v][:2]
    g2 = build_drawing(rot, g.false_vertices)
    assert {h.false_vertex: crossing_pairs(h) for h in crossing_neighborhoods(g2)} == base


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_recovery_degree_identity_on_random_instances(seed):
    g = random_oneplane(GeneratorParams(seed, 4 + seed % 20, (seed % 3) / 4))
    view = recover_original(g)
    for v in view.vertices:
        assert view.degrees[v] == g.embedding.degrees[v]


def test_crossing_gadget_validates():
    g = crossing_gadget(9, 9, 1, 1, "triangle")
    assert validate(g).ok


def test_diagnostics_and_validation_share_one_report_type():
    for g in (catalog("k5-one-crossing"), squeezed_gadget()):
        assert type(validate(g)) is type(drawing_diagnostics(g)) is ValidationReport


def reference_straighten(g: AssociatedPlaneGraph) -> tuple[set[tuple[int, int]], list[Violation]]:
    """Straightening instance by instance: every false vertex whose
    degree is not 4 is named first, then every pair of adjacent false
    vertices, then every direct edge between true vertices and every
    crossing segment with two true ends is one ordered pair, and each
    repeated pair is named in that order. The reference for `validate`
    and `recover_original`; returns (edges, violations)."""
    rot = g.embedding.rotation
    false = g.false_vertices
    problems = [
        Violation(FALSE_DEGREE, (f,), f"degree {len(rot[f])}, expected 4")
        for f in sorted(false)
        if len(rot[f]) != 4
    ]
    problems += [
        Violation(ADJACENT_FALSE, (f, u), "false vertices are adjacent")
        for f in sorted(false)
        for u in rot[f]
        if u in false and f < u
    ]
    instances = [
        (u, v)
        for u in g.embedding.vertices
        if u not in false
        for v in rot[u]
        if u < v and v not in false
    ]
    for f in sorted(false):
        if len(rot[f]) != 4:
            continue
        for axis in (0, 1):
            a, b = rot[f][axis], rot[f][axis + 2]
            if a not in false and b not in false:
                instances.append((min(a, b), max(a, b)))
    edges: set[tuple[int, int]] = set()
    for pair in instances:
        if pair in edges:
            problems.append(Violation(RECOVERED_MULTI_EDGE, pair, "recovered edge appears twice"))
        edges.add(pair)
    return edges, problems


def assert_straightens_as_reference(g: AssociatedPlaneGraph) -> list[Violation]:
    """`validate`'s violations and `recover_original`'s edges or
    exception are the reference's. Returns the violations."""
    edges, problems = reference_straighten(g)
    assert list(validate(g).violations) == problems
    if problems:
        assert_refused(g, recover_original)
    else:
        assert recover_original(g).edges == tuple(sorted(edges))
    return problems


@pytest.mark.parametrize(
    "g",
    [
        build_drawing(*CROSSING_BESIDE_DIRECT_EDGE),
        build_drawing(*FALSE_CHAIN_LOOP),
        build_drawing(*LOOP_AND_MULTI_EDGE),
        build_drawing(*FALSE_VERTEX_CYCLE),
        build_drawing(*CYCLE_BESIDE_MULTI_EDGE),
        encircled_gadget(),
        squeezed_gadget(),
        doubly_triangular_gadget(),
        crossing_gadget(9, 9, 1, 1, "triangle"),
        crossing_gadget(24, 30, 3, 4, "quad"),
        *(catalog(name) for name in catalog_names()),
    ],
)
def test_straightening_matches_the_per_instance_reference(g):
    assert_straightens_as_reference(g)


@given(
    st.integers(0, 10_000),
    st.integers(4, 40),
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_straightening_matches_the_reference_on_relabelled_drawings(seed, size, density, rng):
    # Relabel the vertices by a random permutation, as the relabelling
    # property of the discharging tests does, and mark some true
    # 4-vertices false as well, which can make false vertices adjacent
    # and straighten into multi-edges.
    try:
        g = random_oneplane(GeneratorParams(seed, size, density))
    except GenerationFailed:
        reject()
    labels = list(g.embedding.vertices)
    rng.shuffle(labels)
    vmap = dict(zip(g.embedding.vertices, labels))
    fours = [v for v in g.embedding.vertices if g.embedding.degrees[v] == 4]
    marked = g.false_vertices | set(rng.sample(fours, rng.randint(0, len(fours))))
    for false in (g.false_vertices, marked):
        h = build_drawing(
            {vmap[v]: [vmap[u] for u in r] for v, r in g.embedding.rotation.items()},
            {vmap[v] for v in false},
        )
        assert_straightens_as_reference(h)
