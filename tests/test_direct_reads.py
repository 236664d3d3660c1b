"""The crossing facts read straight from the rotation equal the references.

`_straighten` reads each segment off the false vertex's rotation, the
corner records read their faces from the dart table, and
`find_special_faces` reads the original adjacency from the darts and
each crossing's two segments, its corner records' endpoints A and a.
The straightening must equal `reference_straighten`, and `references`
keeps the slicing and the recovered-graph lookup the other two
replaced; on valid and invalid drawings alike, the results, or the
exceptions raised, must be equal, in order. The straightening is the
one crossing check: every derivation that reads the crossings refuses
a drawing that `validate` faults, raising its first violation.
"""

from __future__ import annotations

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from gadgets import encircled_gadget, squeezed_gadget
from oneplane.discharging import apply_discharging, find_special_faces, transitive_corners
from oneplane.generators import (
    GenerationFailed,
    GeneratorParams,
    catalog,
    catalog_names,
    random_oneplane,
)
from oneplane.oneplanar import (
    ADJACENT_FALSE,
    AssociatedPlaneGraph,
    build_drawing,
    crossing_corners,
    recover_original,
    validate,
)
from references import recovered_special_faces, sliced_corners
from test_acceptance import R6_SAMPLES
from test_audit import _gadget_drawings
from test_oneplanar import (
    CROSSING_BESIDE_DIRECT_EDGE,
    CYCLE_BESIDE_MULTI_EDGE,
    FALSE_CHAIN_LOOP,
    FALSE_VERTEX_CYCLE,
    K4,
    LOOP_AND_MULTI_EDGE,
    W5,
    assert_refused,
    assert_straightens_as_reference,
)

# The edge 0-3 crossed by 4-6 at 1 and by 5-7 at 2: the chain 0-1-2-3
# of adjacent false vertices is an edge crossed twice. Leaves 8 and 9
# lift 0 and 4 to degree 4, so that the triangle 0-1-4 would be special
# with pivot 4 if the chain were followed.
CLEAN_FALSE_CHAIN = (
    {
        0: [1, 4, 8, 6], 1: [2, 4, 0, 6], 2: [3, 5, 1, 7], 3: [5, 2, 7],
        4: [5, 9, 0, 1], 5: [4, 2, 3], 6: [7, 1, 0], 7: [3, 2, 6], 8: [0], 9: [4],
    },
    {1, 2},
)
# false vertex 0 (degree 4) next to false vertex 1 (degree 3)
WRONG_DEGREE_IN_CHAIN = (
    {0: [1, 2, 3, 4], 1: [0, 4, 2], 2: [0, 1, 3], 3: [0, 2, 4], 4: [0, 3, 1]},
    {0, 1},
)
# Crossing 0 of 1-3 and 2-4 beside crossing 5 of 2-3 and 6-7: the
# triangle 0-1-2 is special with pivot 1 because its partner 2 is joined
# to 3, the far end of 1's crossing edge, by a crossing edge, not a dart.
CROSSED_LINK = (
    {
        0: [3, 2, 1, 4], 1: [0, 2, 8, 4], 2: [5, 1, 0, 6], 3: [5, 6, 0, 4],
        4: [3, 0, 1], 5: [7, 2, 6, 3], 6: [5, 2, 3], 7: [5], 8: [1],
    },
    {0, 5},
)
# The triangle 0-1-2 at crossing 0, with the true 4-vertex 1 as a
# candidate pivot. Its partner 2 is a false vertex adjacent to crossing
# 0, so the drawing is refused.
FALSE_PARTNER = (
    {
        0: [3, 2, 1, 4], 1: [0, 2, 6, 7], 2: [1, 0, 5, 3], 3: [2, 5, 0],
        4: [0], 5: [2, 3], 6: [1], 7: [1],
    },
    {0, 2},
)
# As FALSE_PARTNER, but the partner 2 is true and the far end 3 is false.
FALSE_FAR_END = (
    {
        0: [3, 2, 1, 4], 1: [0, 2, 7, 8], 2: [1, 0, 3], 3: [2, 0, 5, 6],
        4: [0], 5: [3], 6: [3], 7: [1], 8: [1],
    },
    {0, 3},
)


def _reversed_ids(drawing):
    """The drawing with vertex ids in reverse order, which reverses the
    order of every pair."""
    rotation, false = drawing
    top = max(rotation)
    return {top - v: [top - u for u in r] for v, r in rotation.items()}, {top - v for v in false}


HAND_BUILT = [
    CLEAN_FALSE_CHAIN,
    CROSSED_LINK,
    _reversed_ids(CROSSED_LINK),
    FALSE_PARTNER,
    _reversed_ids(FALSE_PARTNER),
    FALSE_FAR_END,
    _reversed_ids(FALSE_FAR_END),
    FALSE_CHAIN_LOOP,
    LOOP_AND_MULTI_EDGE,
    FALSE_VERTEX_CYCLE,
    CYCLE_BESIDE_MULTI_EDGE,
    CROSSING_BESIDE_DIRECT_EDGE,
    WRONG_DEGREE_IN_CHAIN,
    (K4, {3}),
    (W5, {0}),
]


def _outcome(derive, g: AssociatedPlaneGraph):
    """What `derive(g)` returns, or the type and text of the ValueError
    it raises."""
    try:
        return derive(g)
    except ValueError as err:
        return type(err), str(err)


def assert_reads_as_references(g: AssociatedPlaneGraph):
    """The straightening, the corner records and the special faces equal
    the references', or raise as they do; returns the special faces."""
    assert_straightens_as_reference(g)
    assert _outcome(crossing_corners, g) == _outcome(sliced_corners, g)
    specials = _outcome(find_special_faces, g)
    assert specials == _outcome(recovered_special_faces, g)
    return specials


def test_a_clean_chain_of_false_vertices_is_refused():
    g = build_drawing(*CLEAN_FALSE_CHAIN)
    assert [str(v) for v in validate(g).violations] == [
        "adjacent-false-vertices [1, 2]: false vertices are adjacent"
    ]
    assert assert_reads_as_references(g) == (ValueError, str(validate(g).violations[0]))


@pytest.mark.parametrize("rotation, false", HAND_BUILT)
def test_hand_built_drawings_read_as_the_references(rotation, false):
    assert_reads_as_references(build_drawing(rotation, false))


def test_special_faces_read_crossed_links_and_refuse_false_ends():
    records = assert_reads_as_references(build_drawing(*CROSSED_LINK))
    assert (0, 1, 4, 2) in [(s.face, s.pivot, s.k, s.partner) for s in records]
    for drawing in (FALSE_PARTNER, FALSE_FAR_END):
        g = build_drawing(*drawing)
        assert [v.kind for v in validate(g).violations] == [ADJACENT_FALSE]
        assert_refused(g, find_special_faces)


def test_catalog_samples_and_gadgets_read_as_the_references():
    drawings = [catalog(name) for name in catalog_names()] + R6_SAMPLES + _gadget_drawings()
    drawings += [encircled_gadget(), squeezed_gadget()]
    found = [assert_reads_as_references(g) for g in drawings]
    assert sum(1 for records in found if records and type(records) is list) >= 10


def _cross_again(rotation, false, f: int, a: int):
    """The drawing with the crossing segment's half f-a crossed once
    more: a new false vertex between f and a, crossed by an edge between
    two new leaves, one on each side. The segment through f now runs
    through two adjacent false vertices: an edge crossed twice."""
    n = max(rotation) + 1
    rot = {v: list(r) for v, r in rotation.items()}
    rot[f][rot[f].index(a)] = n
    rot[a][rot[a].index(f)] = n
    rot[n] = [f, n + 1, a, n + 2]
    rot[n + 1], rot[n + 2] = [n], [n]
    return rot, false | {n}


@given(
    st.integers(0, 10_000),
    st.integers(4, 40),
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_generated_drawings_read_as_the_references(seed, size, density, rng):
    # Relabel the vertices by a random permutation, then mark some true
    # 4-vertices false as well, which can make false vertices adjacent
    # and straighten into multi-edges, or cross one half of a crossing
    # segment again, which makes a chain of adjacent false vertices.
    try:
        g = random_oneplane(GeneratorParams(seed, size, density))
    except GenerationFailed:
        reject()
    labels = list(g.embedding.vertices)
    rng.shuffle(labels)
    vmap = dict(zip(g.embedding.vertices, labels))
    rot = {vmap[v]: [vmap[u] for u in r] for v, r in g.embedding.rotation.items()}
    false = {vmap[v] for v in g.false_vertices}
    fours = [vmap[v] for v in g.embedding.vertices if g.embedding.degrees[v] == 4]
    marked = false | set(rng.sample(fours, rng.randint(0, len(fours))))
    drawings = [g, build_drawing(rot, false), build_drawing(rot, marked)]
    if false:
        f = rng.choice(sorted(false))
        drawings.append(build_drawing(*_cross_again(rot, false, f, rng.choice(rot[f]))))
    for h in drawings:
        assert_reads_as_references(h)


@pytest.mark.parametrize(
    "derive",
    [
        recover_original,
        crossing_corners,
        find_special_faces,
        transitive_corners,
        apply_discharging,
    ],
)
@pytest.mark.parametrize(
    "drawing",
    [
        CLEAN_FALSE_CHAIN,
        FALSE_VERTEX_CYCLE,
        _cross_again(catalog("k5-one-crossing").embedding.rotation, frozenset({5}), 5, 0),
        (K4, {3}),
        (W5, {0}),
        CROSSING_BESIDE_DIRECT_EDGE,
    ],
    ids=["clean-chain", "cycle", "crossed-again", "k4-degree-3", "w5-degree-5", "multi-edge"],
)
def test_every_crossing_fault_is_refused_by_every_use_of_the_crossings(drawing, derive):
    assert_refused(build_drawing(*drawing), derive)
