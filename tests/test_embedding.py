"""Face tracing, Euler acceptance, and rotation-system validation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naive_oracle import naive_faces
from oneplane.embedding import (
    Disconnected,
    MalformedRotation,
    NotPlane,
    build_embedding,
    euler_characteristic,
)

TRIANGLE = {0: [1, 2], 1: [2, 0], 2: [0, 1]}
K4 = {0: [1, 3, 2], 1: [2, 3, 0], 2: [0, 3, 1], 3: [2, 0, 1]}
def walk_darts(walk):
    """The darts of a stored vertex walk, in walk order."""
    return list(zip(walk, walk[1:] + walk[:1]))


def assert_walks_partition_darts(emb):
    """The darts of the walks partition `face_of`'s keys, and each maps
    to its own face."""
    walked = [(d, i) for i, w in enumerate(emb.faces) for d in walk_darts(w)]
    assert len(walked) == len(emb.face_of) == 2 * emb.edge_count()
    assert dict(walked) == emb.face_of


CUBE = {
    0: [1, 4, 3], 1: [2, 5, 0], 2: [3, 6, 1], 3: [0, 7, 2],
    4: [5, 7, 0], 5: [6, 4, 1], 6: [2, 7, 5], 7: [6, 3, 4],
}


def test_triangle_has_two_triangular_faces():
    emb = build_embedding(TRIANGLE)
    assert emb.face_count() == 2
    assert [emb.face_degrees[i] for i in range(2)] == [3, 3]
    assert euler_characteristic(emb) == 2


def test_single_edge_is_one_face_of_degree_two():
    emb = build_embedding({0: [1], 1: [0]})
    assert emb.face_count() == 1
    assert emb.face_degrees[0] == 2


def test_k4_faces_match_independent_tracer():
    emb = build_embedding(K4)
    assert emb.face_count() == 4
    assert sorted(emb.face_degrees[i] for i in range(4)) == [3, 3, 3, 3]
    assert euler_characteristic(emb) == 2
    oracle = naive_faces({v: tuple(r) for v, r in K4.items()})
    assert [walk_darts(w) for w in emb.faces] == oracle


def test_cube_euler_and_faces():
    emb = build_embedding(CUBE)
    assert emb.vertex_count() - emb.edge_count() + emb.face_count() == 8 - 12 + 6
    assert sorted(emb.face_degrees[i] for i in range(6)) == [4] * 6
    oracle = naive_faces({v: tuple(r) for v, r in CUBE.items()})
    assert [walk_darts(w) for w in emb.faces] == oracle


def test_face_walks_partition_half_edges():
    emb = build_embedding(K4)
    walked = [d for walk in emb.faces for d in walk_darts(walk)]
    assert len(walked) == len(set(walked)) == 2 * emb.edge_count()
    assert_walks_partition_darts(emb)
    assert sum(emb.face_degrees[i] for i in range(emb.face_count())) == 2 * emb.edge_count()


def test_rebuild_is_deterministic():
    a = build_embedding(CUBE)
    b = build_embedding(CUBE)
    assert a.faces == b.faces
    assert a.face_of == b.face_of


def assert_matches_oracle(rotation):
    """The faces and `face_of`, in its insertion order, equal those of
    the independent tracer."""
    emb = build_embedding(rotation)
    oracle = naive_faces(emb.rotation)
    assert [walk_darts(w) for w in emb.faces] == oracle
    assert list(emb.face_of.items()) == [(d, i) for i, w in enumerate(oracle) for d in w]


def turned_wheel(spokes, seed):
    """Wheel with hub 0 and rim 1..spokes, each rotation turned to a
    seeded random start."""
    rng = random.Random(seed)
    rotation = {0: tuple(range(1, spokes + 1))}
    for i in range(1, spokes + 1):
        rotation[i] = (0, (i - 2) % spokes + 1, i % spokes + 1)
    for v, r in rotation.items():
        k = rng.randrange(len(r))
        rotation[v] = r[k:] + r[:k]
    return rotation


@pytest.mark.parametrize("spokes", [3, 4, 5, 7, 30, 300, 3000])
def test_turned_wheel_faces_match_independent_tracer(spokes):
    assert_matches_oracle(turned_wheel(spokes, seed=spokes))


def test_corpus_faces_match_independent_tracer(corpus):
    for _, g in corpus:
        assert_matches_oracle(g.embedding.rotation)


def assert_degree_tables(emb):
    rotation = emb.rotation
    assert emb.degrees == {v: len(r) for v, r in rotation.items()}
    assert emb.face_degrees == tuple(len(walk) for walk in naive_faces(rotation))
    assert all(emb.degrees[v] == len(r) for v, r in rotation.items())
    assert [emb.face_degrees[i] for i in range(emb.face_count())] == list(emb.face_degrees)
    # derived once: every access returns the same table
    assert emb.degrees is emb.degrees
    assert emb.face_degrees is emb.face_degrees


@pytest.mark.parametrize("spokes", [3, 4, 5, 7, 30, 300, 3000])
def test_turned_wheel_degree_tables_match_rotation_and_walks(spokes):
    emb = build_embedding(turned_wheel(spokes, seed=spokes))
    assert_degree_tables(emb)
    assert emb.degrees[0] == spokes
    assert sorted(emb.face_degrees) == [3] * spokes + [spokes]


def test_corpus_degree_tables_match_rotation_and_walks(corpus):
    for _, g in corpus:
        assert_degree_tables(g.embedding)


@pytest.mark.parametrize(
    "rotation, message",
    [
        ({}, "empty rotation system"),
        ({0: []}, "rotation system has no edges"),
        ({0: [0, 1], 1: [0]}, "loop at vertex 0"),
        ({0: [1, 5], 1: [0]}, "vertex 0 lists unknown neighbor 5"),
        ({0: [1, 1], 1: [0, 0]}, "vertex 0 lists neighbor 1 twice"),
        ({0: [1], 1: []}, "edge 0-1 is not symmetric"),
        # vertices in table order; within one, neighbors in rotation order,
        # and the symmetry scan only after the vertex's own checks
        ({0: [1, 2], 1: [], 2: [0, 2]}, "edge 0-1 is not symmetric"),
        ({2: [0, 2], 0: [1, 2], 1: []}, "loop at vertex 2"),
        ({0: [1, 5, 1], 1: [0]}, "vertex 0 lists unknown neighbor 5"),
        ({0: [1, 1, 0], 1: [0]}, "vertex 0 lists neighbor 1 twice"),
        ({0: [1, 2, 2], 1: [], 2: [0]}, "vertex 0 lists neighbor 2 twice"),
        ({0: [1], 1: [0, 2], 2: []}, "edge 1-2 is not symmetric"),
        # an earlier asymmetric edge outranks a later loop, repeat or
        # unknown neighbor, and every rotation fault outranks
        # disconnection and a failed Euler test
        ({0: [1], 1: [], 2: [1, 1]}, "edge 0-1 is not symmetric"),
        ({0: [1], 1: [], 2: [7]}, "edge 0-1 is not symmetric"),
        ({0: [1], 1: [], 2: [3], 3: [2]}, "edge 0-1 is not symmetric"),
        ({0: [], 1: []}, "rotation system has no edges"),
        ({0: [2, 3, 4], 1: [0, 2, 3, 4], 2: [0, 1, 3, 4], 3: [0, 1, 2, 4], 4: [0, 1, 2, 3]},
         "edge 1-0 is not symmetric"),
        # a bool equals 0 or 1 but is not a vertex id: K4 with a bool
        # neighbor, and K4 keyed False, True, 2, 3
        ({0: [True, 2, 3], 1: [0, 3, 2], 2: [0, 1, 3], 3: [0, 2, 1]},
         "vertex 0 lists neighbor True, a bool, not an integer"),
        ({False: [True, 3, 2], True: [2, 3, False], 2: [False, 3, True], 3: [2, False, True]},
         "vertex id False is a bool, not an integer"),
        # at its vertex, before the loop, unknown-neighbor and repeat
        # checks; after every check of an earlier vertex
        ({0: [0, 7, 1, 1, True], 1: [0]}, "vertex 0 lists neighbor True, a bool, not an integer"),
        ({0: [7], 2: [True], 1: [0]}, "vertex 0 lists unknown neighbor 7"),
        # ids and neighbors must be ints: a float equal to an id is none,
        # and is named the same way
        ({0: [1.0, 3, 2], 1: [2, 3, 0], 2: [0, 3, 1], 3: [2, 0, 1]},
         "vertex 0 lists neighbor 1.0, a float, not an integer"),
        ({0.0: [1, 3, 2], 1: [2, 3, 0.0], 2: [0.0, 3, 1], 3: [2, 0.0, 1]},
         "vertex id 0.0 is a float, not an integer"),
        ({0: [0, 7, 1, 1, 1.0], 1: [0]}, "vertex 0 lists neighbor 1.0, a float, not an integer"),
        ({0: [7], 2: [1.0], 1: [0]}, "vertex 0 lists unknown neighbor 7"),
        ({0: [1], 1: [0, 2.0], 2.0: [1]}, "vertex 1 lists neighbor 2.0, a float, not an integer"),
        ({0: ["1"], 1: [0]}, "vertex 0 lists neighbor '1', a str, not an integer"),
    ],
)
def test_malformed_rotation_messages_and_first_error(rotation, message):
    with pytest.raises(MalformedRotation) as err:
        build_embedding(rotation)
    assert str(err.value) == message


def test_asymmetric_rotation_rejected():
    with pytest.raises(MalformedRotation):
        build_embedding({0: [1], 1: []})


def test_loop_rejected():
    with pytest.raises(MalformedRotation):
        build_embedding({0: [0, 1], 1: [0]})


def test_duplicate_neighbor_rejected():
    with pytest.raises(MalformedRotation):
        build_embedding({0: [1, 1], 1: [0, 0]})


def test_empty_and_edgeless_rejected():
    with pytest.raises(MalformedRotation):
        build_embedding({})
    with pytest.raises(MalformedRotation):
        build_embedding({0: []})


def test_disconnected_rejected():
    with pytest.raises(Disconnected):
        build_embedding({0: [1], 1: [0], 2: [3], 3: [2]})


def test_disconnection_outranks_euler():
    k5 = {v: [u for u in range(5) if u != v] for v in range(5)}
    with pytest.raises(Disconnected, match="2 vertices unreachable from 0"):
        build_embedding({**k5, 5: [6], 6: [5]})


def test_k5_rotation_is_not_plane():
    # K5 admits no sphere embedding, whatever the rotation
    k5 = {v: [u for u in range(5) if u != v] for v in range(5)}
    with pytest.raises(NotPlane):
        build_embedding(k5)


@st.composite
def rotation_systems(draw):
    """Connected simple graphs with shuffled rotations; most are not plane."""
    n = draw(st.integers(min_value=2, max_value=7))
    extra = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))
    adj = {v: set() for v in range(n)}
    for v in range(1, n):  # random spanning tree keeps it connected
        u = draw(st.integers(0, v - 1))
        adj[v].add(u)
        adj[u].add(v)
    for u, v in extra:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    rotation = {}
    for v in range(n):
        order = sorted(adj[v])
        perm = draw(st.permutations(order))
        rotation[v] = list(perm)
    return rotation


@given(rotation_systems())
@settings(max_examples=120, deadline=None)
def test_tracing_invariants_on_random_rotations(rotation):
    try:
        emb = build_embedding(rotation)
    except NotPlane:
        return
    assert euler_characteristic(emb) == 2
    walked = [d for walk in emb.faces for d in walk_darts(walk)]
    assert len(walked) == len(set(walked)) == 2 * emb.edge_count()
    assert_walks_partition_darts(emb)
    again = build_embedding(rotation)
    assert again.faces == emb.faces
    assert_matches_oracle(rotation)
