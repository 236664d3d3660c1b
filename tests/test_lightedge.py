"""Edge classification and the light-edge guarantee."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oneplane.generators import GeneratorParams, catalog, random_oneplane
from oneplane.lightedge import (
    BOUNDS,
    COUNTEREXAMPLE_CANDIDATE,
    HYPOTHESIS_UNMET,
    WITNESS_FOUND,
    LightEdgeWitness,
    check_light_edge_guarantee,
    classify_edge,
    find_light_edges,
)
from oneplane.oneplanar import OriginalGraphView, build_drawing, recover_original

# The older minimum-degree-4 list of Hudak and Sugerek, which the default
# table improves on: it starts at (4, <=13) and has no degree-3 type.
HUDAK_SUGEREK = {4: 13, 5: 9, 6: 8, 7: 7}


def test_threshold_examples():
    assert classify_edge(3, 23) == "T3"
    assert classify_edge(3, 24) is None
    assert classify_edge(7, 8) is None
    assert classify_edge(4, 4) == "T4"
    assert classify_edge(7, 7) == "T7"


def test_smaller_endpoint_wins_ties():
    assert classify_edge(3, 7) == "T3"
    assert classify_edge(4, 7) == "T4"
    assert classify_edge(5, 7) == "T5"


def test_bound_table_differs():
    assert classify_edge(4, 13, HUDAK_SUGEREK) == "T4"
    assert classify_edge(4, 13, BOUNDS) is None
    assert classify_edge(3, 3, HUDAK_SUGEREK) is None
    assert classify_edge(5, 9, HUDAK_SUGEREK) == "T5"


@given(st.integers(1, 200), st.integers(1, 200))
def test_classification_is_symmetric(a, b):
    assert classify_edge(a, b) == classify_edge(b, a)


def test_exhaustive_against_complement_list():
    def heavy(a, b):
        # the exact complement: (3,>=24), (4,>=12), (5,>=10), (6,>=9), (>=7,>=8)
        return (
            (a == 3 and b >= 24)
            or (a == 4 and b >= 12)
            or (a == 5 and b >= 10)
            or (a == 6 and b >= 9)
            or (a >= 7 and b >= 8)
        )

    for a in range(3, 65):
        for b in range(a, 65):
            assert (classify_edge(a, b) is None) == heavy(a, b), (a, b)


def test_witness_lists_on_catalog():
    cases = {
        "k5-one-crossing": ("T4", 10),
        "icosahedron": ("T5", 30),
        "cube-plus-diagonals": ("T6", 24),
        "k4": ("T3", 6),
    }
    for name, (tag, count) in cases.items():
        view = recover_original(catalog(name))
        witnesses = find_light_edges(view)
        assert len(witnesses) == count, name
        assert {w.light_type for w in witnesses} == {tag}, name


def test_witnesses_sorted_and_degree_consistent():
    view = recover_original(catalog("k6-three-crossings"))
    witnesses = find_light_edges(view)
    keys = [(w.light_type, min(w.degrees), w.edge) for w in witnesses]
    assert keys == sorted(keys)
    for w in witnesses:
        assert w.degrees == (view.degrees[w.edge[0]], view.degrees[w.edge[1]])


def test_verdict_witness_found():
    verdict = check_light_edge_guarantee(catalog("k5-one-crossing"))
    assert verdict.status == WITNESS_FOUND
    assert verdict.witness.light_type == "T4"
    assert verdict.witness.degrees == (4, 4)


def test_verdict_hypothesis_unmet_on_path():
    g = build_drawing({0: [1], 1: [0, 2], 2: [1]})
    verdict = check_light_edge_guarantee(g)
    assert verdict.status == HYPOTHESIS_UNMET
    assert verdict.min_degree == 1


def test_table_without_degree_three_needs_degree_four():
    verdict = check_light_edge_guarantee(catalog("k4"), HUDAK_SUGEREK)
    assert verdict.status == HYPOTHESIS_UNMET
    assert verdict.min_degree == 3
    assert check_light_edge_guarantee(catalog("k5-one-crossing"), HUDAK_SUGEREK).status == WITNESS_FOUND


def test_verdict_never_candidate_on_catalog():
    for name in ("k4", "cube", "icosahedron", "k5-one-crossing",
                 "k6-three-crossings", "cube-plus-diagonals"):
        verdict = check_light_edge_guarantee(catalog(name))
        assert verdict.status != COUNTEREXAMPLE_CANDIDATE, name


def test_lowered_table_gives_candidate():
    """Each drawing is regular, so lowering the one bound its edges meet
    leaves no light edge and no witness. These are not sharpness proofs:
    the edges are of type (6,6), (5,5) and (3,3), not the extremal types
    (3,23), (4,11), (5,9), (6,8) or (7,7) of the theorem's table."""
    for name, bounds, degree in (("cube-plus-diagonals", {**BOUNDS, 6: 5}, 6),
                                 ("icosahedron", {**BOUNDS, 5: 4}, 5),
                                 ("k4", {**BOUNDS, 3: 2}, 3)):
        verdict = check_light_edge_guarantee(catalog(name), bounds)
        assert verdict.status == COUNTEREXAMPLE_CANDIDATE, name
        assert verdict.min_degree == degree, name
        assert verdict.witness is None, name
        assert verdict.light_edges == (), name


def test_degree_below_one_rejected():
    with pytest.raises(ValueError):
        classify_edge(0, 5)
    view = OriginalGraphView(vertices=(0, 1, 2), edges=((0, 1),), degrees={0: 1, 1: 0, 2: 1})
    with pytest.raises(ValueError, match="degrees must be positive"):
        find_light_edges(view)


def test_witnesses_equal_the_per_edge_classification(corpus):
    # find_light_edges classifies each distinct degree pair once; the
    # witnesses and their order must be those of classifying every edge
    for name, g in corpus:
        view = recover_original(g)
        for bounds in (BOUNDS, {**BOUNDS, 6: 5}, HUDAK_SUGEREK):
            reference = []
            for a, b in view.edges:
                degrees = (view.degrees[a], view.degrees[b])
                tag = classify_edge(*degrees, bounds)
                if tag is not None:
                    reference.append(LightEdgeWitness((a, b), degrees, tag))
            reference.sort(key=lambda w: (w.light_type, min(w.degrees), w.edge))
            assert find_light_edges(view, bounds) == reference, (name, bounds)


def test_types_sort_by_degree_as_a_number():
    """Under a table with a two-digit key, a T3 edge still comes first:
    the type is ranked by its degree, not by its tag as a string, where
    "T10" sorts before "T3"."""
    g = random_oneplane(GeneratorParams(0, 301, 0.75))
    verdict = check_light_edge_guarantee(g, {3: 23, 10: 40})
    assert verdict.status == WITNESS_FOUND
    assert {w.light_type for w in verdict.light_edges} == {"T3", "T10"}
    assert verdict.witness.light_type == "T3"
    keys = [(min(w.degrees), w.edge) for w in verdict.light_edges]
    assert keys == sorted(keys)
    assert check_light_edge_guarantee(g).witness == verdict.witness
