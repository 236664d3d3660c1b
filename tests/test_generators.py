"""Catalog fixtures and the quadrangulation-based generators."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oneplane import generators, graphio, oneplanar
from oneplane.embedding import build_embedding
from oneplane.generators import (
    GenerationFailed,
    GeneratorParams,
    NotQuadrangulation,
    UnknownCatalogName,
    _build_order,
    _grow_quadrangulation,
    _radial_quadrangulation,
    _split_quad,
    _stacked_triangulation,
    catalog,
    catalog_names,
    quadrangulation_diagonals,
    random_oneplane,
)
from oneplane.oneplanar import RecoveredMultiEdge, recover_original, validate

C4 = {0: [3, 1], 1: [0, 2], 2: [1, 3], 3: [2, 0]}


def test_catalog_shapes():
    expect = {
        "k4": (4, 0, 6),
        "cube": (8, 0, 12),
        "icosahedron": (12, 0, 30),
        "k5-one-crossing": (6, 1, 10),
        "k6-three-crossings": (9, 3, 15),
        "cube-plus-diagonals": (14, 6, 24),
    }
    assert sorted(expect) == catalog_names()
    for name, (n_planarized, n_false, original_edges) in expect.items():
        g = catalog(name)
        assert g.embedding.vertex_count() == n_planarized, name
        assert len(g.false_vertices) == n_false, name
        assert validate(g).ok, name
        assert len(recover_original(g).edges) == original_edges, name


def test_k5_catalog_counts():
    g = catalog("k5-one-crossing")
    assert g.embedding.edge_count() == 12
    assert g.embedding.face_count() == 8


def test_unknown_catalog_name():
    with pytest.raises(UnknownCatalogName):
        catalog("nosuch")


def _fill_some(q, indices):
    """`q` with the faces at `indices` filled, through the fill step
    that `quadrangulation_diagonals` runs on every face."""
    emb = build_embedding(q)
    return generators._fill_faces(
        {v: list(r) for v, r in emb.rotation.items()}, [emb.faces[i] for i in indices]
    )


def test_four_cycle_single_fill_gives_k4():
    g = _fill_some(C4, [0])
    view = recover_original(g)
    assert len(view.vertices) == 4
    assert len(view.edges) == 6
    assert sorted(view.degrees.values()) == [3, 3, 3, 3]


def test_four_cycle_double_fill_breaks_simplicity():
    with pytest.raises(RecoveredMultiEdge):
        quadrangulation_diagonals(C4)


def test_cube_fill_is_six_regular():
    g = quadrangulation_diagonals(catalog("cube").embedding.rotation)
    view = recover_original(g)
    assert len(view.vertices) == 8
    assert len(view.edges) == 24
    assert set(view.degrees.values()) == {6}
    assert len(g.false_vertices) == 6


def test_fill_counts_match_selection():
    cube_rot = catalog("cube").embedding.rotation
    g = _fill_some(cube_rot, [0, 2, 4])
    assert len(g.false_vertices) == 3
    assert len(recover_original(g).edges) == 12 + 2 * 3


def test_non_quadrangulation_rejected():
    k4 = {0: [1, 3, 2], 1: [2, 3, 0], 2: [0, 3, 1], 3: [2, 0, 1]}
    with pytest.raises(NotQuadrangulation, match="face 0 has degree 3"):
        quadrangulation_diagonals(k4)
    # a path has one face, (0, 1, 2, 1): degree 4, but it repeats vertex 1
    path = {0: [1], 1: [0, 2], 2: [1]}
    with pytest.raises(NotQuadrangulation, match="face 0 repeats a vertex"):
        quadrangulation_diagonals(path)


def test_generation_is_deterministic():
    a = graphio.dumps(random_oneplane(GeneratorParams(1, 12, 0.5)))
    b = graphio.dumps(random_oneplane(GeneratorParams(1, 12, 0.5)))
    assert a == b


def test_zero_density_means_plane():
    g = random_oneplane(GeneratorParams(3, 15, 0.0))
    assert not g.false_vertices


def test_spec_example_full_density():
    g = random_oneplane(GeneratorParams(7, 20, 1.0))
    assert validate(g).ok
    assert recover_original(g).min_degree() >= 3


def test_too_tight_parameters_fail():
    with pytest.raises(GenerationFailed):
        random_oneplane(GeneratorParams(1, 4, 1.0))


def test_out_of_range_parameters_rejected():
    with pytest.raises(ValueError, match="size must be at least 4"):
        random_oneplane(GeneratorParams(1, 3, 0.0))
    for density in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match="crossing density must lie in"):
            random_oneplane(GeneratorParams(1, 12, density))


@given(st.integers(0, 10_000), st.integers(4, 40), st.sampled_from([0.0, 0.25, 0.5]))
@settings(max_examples=40, deadline=None)
def test_generator_outputs_always_validate(seed, size, density):
    g = random_oneplane(GeneratorParams(seed, size, density))
    assert validate(g).ok
    true_count = g.embedding.vertex_count() - len(g.false_vertices)
    assert true_count == size


# sha256 over `graphio.dumps` of every drawing of the grid below, each
# preceded by its parameters, "GenerationFailed" standing for a drawing
# the parameters cannot reach, and then of catalog("cube-plus-diagonals").
# Any change to what the generators draw, or to how the random stream is
# consumed, changes it.
GENERATOR_DIGEST = (
    "7235ddcfb156478c6dbe6864962e6107650d62c759fcc6fafdd3a533ae3144f9"
)
# Sizes 4-7 split the 4-cycle, sizes 3t - 4 (8 to 23, 59) are radial
# quadrangulations with no split, and the others take one or two splits.
GOLDEN_SIZES = (4, 5, 6, 7, 8, 11, 14, 17, 20, 23, 9, 10, 12, 13, 16, 25, 31, 40, 59)
GOLDEN_DENSITIES = (0.0, 0.25, 0.5, 0.75, 1.0)


def test_generator_bytes_are_pinned():
    grid = [GeneratorParams(seed, size, density)
            for seed in range(4) for size in GOLDEN_SIZES for density in GOLDEN_DENSITIES]
    grid += [GeneratorParams(0, 100, 0.5), GeneratorParams(1, 301, 0.75)]
    h = hashlib.sha256()
    for p in grid:
        h.update(f"{p.seed} {p.size} {p.crossing_density}\n".encode())
        try:
            h.update(graphio.dumps(random_oneplane(p)).encode())
        except GenerationFailed:
            h.update(b"GenerationFailed\n")
    h.update(graphio.dumps(catalog("cube-plus-diagonals")).encode())
    assert h.hexdigest() == GENERATOR_DIGEST


def _split_and_check(rng, rotation, walks, count):
    """Split `count` random quads one after another, checking the kept
    walks against a fresh build after each split."""
    for _ in range(count):
        walk = rng.choice(walks)
        walks.remove(walk)
        if rng.random() < 0.5:
            walk = walk[1:] + walk[:1]
        walks = _build_order(walks + _split_quad(rotation, walk, max(rotation) + 1))
        assert tuple(walks) == build_embedding(rotation).faces


@given(st.integers(0, 10_000), st.integers(4, 40))
@settings(max_examples=100, deadline=None)
def test_kept_walks_are_the_build_order_at_every_stage(seed, n):
    """The generators embed each drawing once: at every growth stage the
    walks they keep are the faces a build of the rotation would give,
    in index order."""
    rng = random.Random(seed)
    triangulation, walks = _stacked_triangulation(rng, n)
    assert tuple(walks) == build_embedding(triangulation).faces
    quadrangulation, walks = _radial_quadrangulation(triangulation, walks)
    assert tuple(walks) == build_embedding(quadrangulation).faces
    _split_and_check(rng, quadrangulation, walks, 3)
    four_cycle = {0: [3, 1], 1: [0, 2], 2: [1, 3], 3: [2, 0]}
    _split_and_check(rng, four_cycle, [(0, 1, 2, 3), (0, 3, 2, 1)], 4)
    # the quadrangulation that `random_oneplane` fills, at every size up
    # to 3n - 4 and so with every number of splits
    for size in (4, 5, 6, 7, n, 3 * n - 5, 3 * n - 4):
        rotation, walks = _grow_quadrangulation(rng, size)
        assert tuple(walks) == build_embedding(rotation).faces
        assert len(rotation) == size


def test_each_generated_drawing_is_embedded_once(monkeypatch):
    """The growth stages read their kept walks: the only build is the
    final `build_drawing`'s, at 4-cycle splits, radial quadrangulations
    with and without splits, and the catalog's filled cube."""
    builds = []
    real = oneplanar.build_embedding

    def counted(rotation):
        builds.append(len(rotation))
        return real(rotation)

    monkeypatch.setattr(oneplanar, "build_embedding", counted)
    monkeypatch.setattr(generators, "build_embedding", counted)
    for size, density in ((7, 0.5), (30, 0.75), (59, 1.0), (100, 0.5)):
        builds.clear()
        g = random_oneplane(GeneratorParams(0, size, density))
        assert builds == [g.embedding.vertex_count()], size
    builds.clear()
    catalog("cube-plus-diagonals")
    assert builds == [8, 14]
