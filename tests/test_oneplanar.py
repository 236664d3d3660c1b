"""Validation, recovery, crossing neighborhoods, and diagnostics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gadgets import (
    crossing_gadget,
    doubly_triangular_gadget,
    encircled_gadget,
    squeezed_gadget,
)
from oneplane.embedding import build_embedding
from oneplane.generators import GeneratorParams, catalog, random_oneplane
from oneplane.graphio import dumps
from oneplane.oneplanar import (
    ADJACENT_FALSE,
    CROSSING_EDGE_ON_TWO_TRIANGLES,
    ENCIRCLED_4_VERTEX,
    FALSE_CYCLE,
    FALSE_DEGREE,
    RECOVERED_LOOP,
    RECOVERED_MULTI_EDGE,
    SQUEEZED_3_VERTEX,
    AssociatedPlaneGraph,
    OriginalGraphView,
    RecoveredLoop,
    RecoveredMultiEdge,
    ValidationReport,
    build_drawing,
    crossing_neighborhoods,
    drawing_diagnostics,
    recover_original,
    validate,
)

K4 = {0: [1, 3, 2], 1: [2, 3, 0], 2: [0, 3, 1], 3: [2, 0, 1]}


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
    assert len(set(crossing_neighborhoods(g))) == 1  # endpoints are hashable


def test_plane_triangulation_validates_clean():
    report = validate(build_drawing(K4))
    assert report.ok


def test_adjacent_false_vertices_flagged():
    # path 0-1-2-3-4 with 1, 2 marked false (degrees wrong too)
    rot = {0: [1], 1: [0, 2], 2: [1, 3], 3: [2, 4], 4: [3]}
    report = validate(build_drawing(rot, {1, 2}))
    assert ADJACENT_FALSE in report.kinds()
    assert FALSE_DEGREE in report.kinds()


def test_false_degree_three_flagged():
    rot = {0: [1, 2, 3], 1: [2, 0], 2: [0, 1, 3], 3: [2, 0]}
    report = validate(build_drawing(rot, {0}))
    assert report.kinds() == {FALSE_DEGREE}


def test_segment_into_false_vertex_of_wrong_degree_is_reported():
    # false vertex 0 (degree 4) next to false vertex 1 (degree 3): the
    # segment from 0 through 1 yields no edge, and nothing is raised
    rot = {0: [1, 2, 3, 4], 1: [0, 4, 2], 2: [0, 1, 3], 3: [0, 2, 4], 4: [0, 3, 1]}
    report = validate(build_drawing(rot, {0, 1}))
    assert report.kinds() == {FALSE_DEGREE, ADJACENT_FALSE}


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
    assert RECOVERED_MULTI_EDGE in validate(g).kinds()


def test_crossing_parallel_to_direct_edge_is_a_multi_edge():
    # vertex 2 is the crossing of edges 0-1 and 3-4, but 0-1 also exists
    rot = {0: [1, 2], 1: [2, 0], 2: [0, 3, 1, 4], 3: [2], 4: [2]}
    g = build_drawing(rot, {2})
    assert RECOVERED_MULTI_EDGE in validate(g).kinds()
    with pytest.raises(RecoveredMultiEdge):
        recover_original(g)


def test_false_chain_straightening_to_a_loop():
    # crossing 3 straightens along 0-3-4-0; 3 and 4 are adjacent crossings
    rot = {0: [3, 4], 1: [3], 2: [3], 3: [0, 1, 4, 2], 4: [3, 5, 0, 6], 5: [4], 6: [4]}
    g = build_drawing(rot, {3, 4})
    kinds = validate(g).kinds()
    assert ADJACENT_FALSE in kinds
    assert RECOVERED_LOOP in kinds
    with pytest.raises(RecoveredLoop):
        recover_original(g)


def test_straightening_loop_and_multi_edge_reported_in_instance_order():
    # crossing 2 of 0-1 and 3-4 beside the direct edge 0-1 (its segment
    # runs 1-2-0), joined by the edge 3-10 to crossings 8 and 9, whose
    # segment 5-8-9-5 is a loop
    rot = {
        0: [1, 2], 1: [2, 0], 2: [1, 3, 0, 4], 3: [2, 10], 4: [2],
        5: [8, 9], 6: [8], 7: [8], 8: [5, 6, 9, 7], 9: [8, 10, 5, 11], 10: [9, 3], 11: [9],
    }
    g = build_drawing(rot, {2, 8, 9})
    assert [str(v) for v in validate(g).violations] == [
        "adjacent-false-vertices [8, 9]: false vertices are adjacent",
        "recovered-multi-edge [0, 1]: recovered edge appears twice",
        "recovered-loop [5]: crossing straightens to a loop",
    ]
    with pytest.raises(RecoveredMultiEdge, match=r"recovered-multi-edge \[0, 1\]"):
        recover_original(g)


def test_false_vertex_cycle_is_a_plain_value_error():
    # the crossing segments of 0, 1 and 2 run into each other in a cycle
    g = build_drawing(
        {0: (2, 4, 1, 3), 1: (0, 4, 2, 3), 2: (1, 4, 0, 3), 3: (0, 1, 2), 4: (0, 2, 1)},
        {0, 1, 2},
    )
    assert FALSE_CYCLE in validate(g).kinds()
    with pytest.raises(ValueError, match=FALSE_CYCLE) as err:
        recover_original(g)
    assert type(err.value) is ValueError


def test_crossing_neighborhoods_on_k5():
    g = catalog("k5-one-crossing")
    hoods = crossing_neighborhoods(g)
    assert len(hoods) == 1
    hood = hoods[0]
    assert hood.false_vertex == 5
    assert hood.endpoints[0] == min(hood.endpoints)
    assert hood.crossing_pairs() == frozenset({frozenset({0, 2}), frozenset({1, 3})})
    assert all(0 <= f < g.embedding.face_count() for f in hood.faces)
    # each listed face joins consecutive endpoints
    for i in range(4):
        tails = set(g.embedding.face_tails(hood.faces[i]))
        assert {hood.false_vertex, hood.endpoints[i], hood.endpoints[(i + 1) % 4]} <= tails


def test_plane_drawing_has_no_neighborhoods():
    assert crossing_neighborhoods(build_drawing(K4)) == []


def test_crossing_neighborhoods_are_derived_once_per_drawing():
    g = catalog("cube-plus-diagonals")
    assert crossing_neighborhoods(g) is crossing_neighborhoods(g)


def test_sorted_false_vertices_are_derived_once_per_drawing(corpus):
    for name, g in corpus:
        assert g.sorted_false_vertices == tuple(sorted(g.false_vertices)), name
        assert g.sorted_false_vertices is g.sorted_false_vertices, name
    assert [h.false_vertex for h in crossing_neighborhoods(g)] == list(g.sorted_false_vertices)


def test_cube_plus_diagonals_has_six_neighborhoods():
    g = catalog("cube-plus-diagonals")
    hoods = crossing_neighborhoods(g)
    assert len(hoods) == 6
    pairs = {p for h in hoods for p in h.crossing_pairs()}
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
    assert ENCIRCLED_4_VERTEX in report.kinds()


def test_squeezed_three_vertex_flagged():
    report = drawing_diagnostics(squeezed_gadget())
    assert report.kinds() == {SQUEEZED_3_VERTEX}


def test_crossing_edge_on_two_triangles_flagged():
    g = doubly_triangular_gadget()
    assert validate(g).ok  # valid, just not crossing-minimal
    report = drawing_diagnostics(g)
    assert CROSSING_EDGE_ON_TWO_TRIANGLES in report.kinds()


def test_neighborhood_invariant_under_rotation_of_stored_lists():
    g = catalog("k6-three-crossings")
    base = {h.false_vertex: h.crossing_pairs() for h in crossing_neighborhoods(g)}
    rot = {v: list(r) for v, r in g.embedding.rotation.items()}
    for v in g.false_vertices:  # rotating the stored list keeps the embedding
        rot[v] = rot[v][2:] + rot[v][:2]
    g2 = build_drawing(rot, g.false_vertices)
    assert {h.false_vertex: h.crossing_pairs() for h in crossing_neighborhoods(g2)} == base


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
