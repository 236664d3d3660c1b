"""Desk-scale corpus of valid drawings.

Three sources: a catalog of fixed, hand-checked rotation systems; a
deterministic construction that fills quadrilateral faces with crossing
diagonal pairs; and a seeded random generator.

The random generator grows a simple plane quadrangulation and then fills
a requested fraction of its faces with crossings. For sizes of the form
3t - 4 it uses the vertex-face incidence graph of a randomly grown
stacked triangulation, whose faces can all be filled simultaneously
without ever breaking simplicity; other sizes are reached by splitting
one or two quadrilateral faces, which caps the fillable fraction
slightly. Fills that would duplicate a recovered edge are skipped, and
whole attempts that cannot reach the requested fill count are retried
with fresh random structure before giving up.

Each growth step keeps the face walks of what it grows, in the order
`build_embedding` would list them, so a generated drawing is embedded
once, by the final `build_drawing`, which also validates it. A build
ranks each face by its least dart and starts its walk there; every walk
grown here has distinct vertices, so that order is: each walk starts at
its least vertex, and the walks are sorted by their first two vertices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .embedding import build_embedding
from .oneplanar import AssociatedPlaneGraph, RecoveredMultiEdge, build_drawing, validate


class UnknownCatalogName(KeyError):
    """Requested catalog entry does not exist."""


class NotQuadrangulation(ValueError):
    """Input embedding has a face that is not a proper quadrilateral."""


class GenerationFailed(RuntimeError):
    """Random generation could not satisfy the parameters."""


# Fixed rotation systems, verified against the embedding and validation
# layers: face counts, Euler identity, recovered graphs and degrees.
_CATALOG: dict[str, tuple[dict[int, tuple[int, ...]], frozenset[int]]] = {
    # 4 triangular faces.
    "k4": (
        {0: (1, 3, 2), 1: (2, 3, 0), 2: (0, 3, 1), 3: (2, 0, 1)},
        frozenset(),
    ),
    # 6 quadrilateral faces.
    "cube": (
        {
            0: (1, 4, 3), 1: (2, 5, 0), 2: (3, 6, 1), 3: (0, 7, 2),
            4: (5, 7, 0), 5: (6, 4, 1), 6: (2, 7, 5), 7: (6, 3, 4),
        },
        frozenset(),
    ),
    # 20 triangular faces, 5-regular.
    "icosahedron": (
        {
            0: (3, 6, 4, 2, 1), 1: (5, 7, 3, 0, 2), 2: (8, 5, 1, 0, 4),
            3: (7, 9, 6, 0, 1), 4: (10, 8, 2, 0, 6), 5: (8, 11, 7, 1, 2),
            6: (9, 10, 4, 0, 3), 7: (5, 11, 9, 3, 1), 8: (10, 11, 5, 2, 4),
            9: (7, 11, 10, 6, 3), 10: (9, 11, 8, 4, 6), 11: (10, 9, 7, 5, 8),
        },
        frozenset(),
    ),
    # K5 drawn with one crossing: vertex 5 is the crossing of 0-2 and 1-3.
    "k5-one-crossing": (
        {
            0: (4, 1, 5, 3), 1: (4, 2, 5, 0), 2: (5, 1, 4, 3),
            3: (4, 0, 5, 2), 4: (2, 1, 0, 3), 5: (0, 1, 2, 3),
        },
        frozenset({5}),
    ),
    # K6 drawn with three crossings between two nested triangles.
    "k6-three-crossings": (
        {
            0: (1, 6, 3, 8, 2), 1: (2, 7, 4, 6, 0), 2: (0, 8, 5, 7, 1),
            3: (6, 4, 5, 8, 0), 4: (1, 7, 5, 3, 6), 5: (7, 2, 8, 3, 4),
            6: (1, 4, 3, 0), 7: (1, 2, 5, 4), 8: (5, 2, 0, 3),
        },
        frozenset({6, 7, 8}),
    ),
}


def catalog_names() -> list[str]:
    return sorted([*_CATALOG, "cube-plus-diagonals"])


def catalog(name: str) -> AssociatedPlaneGraph:
    """A fixed, validated drawing from the published catalog."""
    if name == "cube-plus-diagonals":
        rot, _ = _CATALOG["cube"]
        return quadrangulation_diagonals(rot)
    if name not in _CATALOG:
        raise UnknownCatalogName(name)
    rot, false = _CATALOG[name]
    return build_drawing(rot, false)


@dataclass(frozen=True)
class GeneratorParams:
    seed: int
    size: int
    crossing_density: float


def _insert_after(rotation: dict[int, list[int]], v: int, anchor: int, new: int) -> None:
    rotation[v].insert(rotation[v].index(anchor) + 1, new)


def _fill_face(rotation: dict[int, list[int]], walk: tuple[int, ...], new: int) -> None:
    """Subdivide the quad face with walk vertices (A, B, C, D) into four
    triangles around a fresh crossing vertex."""
    a, b, c, d = walk
    # corner at B sits between A and C, so the new spoke lands after A, etc.
    _insert_after(rotation, a, d, new)
    _insert_after(rotation, b, a, new)
    _insert_after(rotation, c, b, new)
    _insert_after(rotation, d, c, new)
    rotation[new] = [b, a, d, c]


def _fill_faces(
    rotation: dict[int, list[int]], walks: list[tuple[int, ...]]
) -> AssociatedPlaneGraph:
    """Fill each quad walk of `rotation` with a crossing vertex, numbered
    in walk order from max(rotation) + 1, and build the drawing with
    those vertices marked false."""
    first = max(rotation) + 1
    for new, walk in enumerate(walks, first):
        _fill_face(rotation, walk, new)
    return build_drawing(rotation, frozenset(range(first, first + len(walks))))


def quadrangulation_diagonals(
    q: dict[int, list[int] | tuple[int, ...]], faces: list[int] | None = None
) -> AssociatedPlaneGraph:
    """Fill quadrilateral faces with crossing diagonal pairs.

    By default every face of the quadrangulation is filled; pass face
    indices to fill a subset. Raises ValueError naming a repeated or
    out-of-range index before any face is filled, NotQuadrangulation if
    any face is not a 4-walk over distinct vertices, and propagates
    simplicity violations from validation as RecoveredMultiEdge-kind
    errors.
    """
    emb = build_embedding(q)
    for i, d in enumerate(emb.face_degrees):
        if d != 4:
            raise NotQuadrangulation(f"face {i} has degree {d}")
    count = emb.face_count()
    selected = list(range(count)) if faces is None else list(faces)
    seen: set[int] = set()
    for i in selected:
        if not 0 <= i < count:
            raise ValueError(f"face index {i} is out of range: the embedding has {count} faces")
        if i in seen:
            raise ValueError(f"face index {i} is repeated")
        seen.add(i)

    walks = [emb.faces[i] for i in selected]
    for i, walk in zip(selected, walks):
        if len(set(walk)) != 4:
            raise NotQuadrangulation(f"face {i} repeats a vertex: {walk}")

    g = _fill_faces({v: list(r) for v, r in emb.rotation.items()}, walks)
    report = validate(g)
    if not report.ok:
        raise RecoveredMultiEdge("; ".join(str(v) for v in report.violations))
    return g


Walk = tuple[int, ...]


def _build_order(walks: list[Walk]) -> list[Walk]:
    """Face walks over distinct vertices, in `build_embedding`'s order:
    each turned to start at its least vertex, then sorted."""
    turned = []
    for w in walks:
        k = w.index(min(w))
        turned.append(w[k:] + w[:k])
    return sorted(turned)


# K4's face walks, in build order, for the catalog rotation.
_K4_WALKS: list[Walk] = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]


def _stacked_triangulation(rng: random.Random, n: int) -> tuple[dict[int, list[int]], list[Walk]]:
    """Grow a random stacked triangulation on n >= 4 vertices, and its
    face walks in build order.

    Starts from K4 and repeatedly puts a new vertex inside a random
    triangular face, joined to its three corners. Always simple, plane,
    and 3-connected.
    """
    rotation = {v: list(r) for v, r in _CATALOG["k4"][0].items()}
    faces = list(_K4_WALKS)
    for w in range(4, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        # the face walk visits a -> b -> c; the new faces keep that order
        _insert_after(rotation, b, a, w)
        _insert_after(rotation, c, b, w)
        _insert_after(rotation, a, c, w)
        rotation[w] = [b, a, c]
        # new walks keep the old orientation: (a,b,w) stands for a->b->w
        faces += [(a, b, w), (b, c, w), (c, a, w)]
    return rotation, _build_order(faces)


def _radial_quadrangulation(
    triangulation: dict[int, list[int]], walks: list[Walk]
) -> tuple[dict[int, list[int]], list[Walk]]:
    """Vertex-face incidence graph of a plane triangulation, given its
    face walks in build order, and the result's walks in build order.

    Face k of the input becomes vertex n + k; every face of the result
    is a quadrilateral, (v, f[u, v], u, f[v, u]) for the input edge
    v < u, where f[p, q] = n + k for the face k that holds dart p -> q.
    """
    n = len(triangulation)
    f: dict[tuple[int, int], int] = {}
    for k, (a, b, c) in enumerate(walks):
        f[a, b] = f[b, c] = f[c, a] = n + k
    rotation: dict[int, list[int]] = {}
    for v in sorted(triangulation):
        r = triangulation[v]
        rotation[v] = [f[v, u] for u in r[1:] + r[:1]]
    for k, walk in enumerate(walks):
        # face walks and vertex rotations run in opposite chirality
        rotation[n + k] = list(reversed(walk))
    quads = [(v, f[u, v], u, f[v, u]) for v, r in triangulation.items() for u in r if v < u]
    return rotation, sorted(quads)


def _split_quad(rotation: dict[int, list[int]], walk: Walk, new: int) -> list[Walk]:
    """Split the quad face (A, B, C, D) into two quads with a fresh
    degree-2 vertex joined to B and D; returns their walks."""
    a, b, c, d = walk
    _insert_after(rotation, b, a, new)
    _insert_after(rotation, d, c, new)
    rotation[new] = [b, d]
    return [(a, b, new, d), (new, b, c, d)]


def _grow_quadrangulation(rng: random.Random, size: int) -> tuple[dict[int, list[int]], list[Walk]]:
    """A random simple plane quadrangulation on `size` >= 4 vertices,
    and its face walks in build order."""
    if size < 8:
        rotation = {0: [3, 1], 1: [0, 2], 2: [1, 3], 3: [2, 0]}
        walks = [(0, 1, 2, 3), (0, 3, 2, 1)]
        splits = size - 4
    else:
        base = (size + 4) // 3  # largest t with 3t - 4 <= size
        rotation, walks = _radial_quadrangulation(*_stacked_triangulation(rng, base))
        splits = size - (3 * base - 4)
    for _ in range(splits):
        walk = rng.choice(walks)
        walks.remove(walk)
        if rng.random() < 0.5:
            walk = walk[1:] + walk[:1]  # split along the other diagonal
        walks = _build_order(walks + _split_quad(rotation, walk, max(rotation) + 1))
    return rotation, walks


_MAX_ATTEMPTS = 10


def random_oneplane(params: GeneratorParams) -> AssociatedPlaneGraph:
    """Deterministic seeded drawing: a random plane quadrangulation with
    a crossing pair inserted into a fraction of its faces.

    The fill target is floor(density * face count). Fills whose diagonal
    pair would duplicate an original edge are skipped; if an attempt
    cannot reach the target, a fresh quadrangulation is grown, and after
    a bounded number of attempts GenerationFailed signals that the
    parameters are too tight.
    """
    if params.size < 4:
        raise ValueError("size must be at least 4")
    if not 0.0 <= params.crossing_density <= 1.0:
        raise ValueError("crossing density must lie in [0, 1]")
    rng = random.Random(params.seed)

    for _ in range(_MAX_ATTEMPTS):
        rotation, walks = _grow_quadrangulation(rng, params.size)
        target = int(params.crossing_density * len(walks))

        used_pairs: set[frozenset[int]] = {
            frozenset((u, v)) for u, r in rotation.items() for v in r if u < v
        }
        order = list(range(len(walks)))
        rng.shuffle(order)
        chosen: list[int] = []
        for i in order:
            if len(chosen) == target:
                break
            walk = walks[i]
            diag_a, diag_b = frozenset((walk[0], walk[2])), frozenset((walk[1], walk[3]))
            if diag_a in used_pairs or diag_b in used_pairs or diag_a == diag_b:
                continue
            used_pairs |= {diag_a, diag_b}
            chosen.append(i)
        if len(chosen) < target:
            continue

        g = _fill_faces(rotation, [walks[i] for i in sorted(chosen)])
        if validate(g).ok:
            return g

    raise GenerationFailed(
        f"no valid drawing for seed={params.seed} size={params.size} "
        f"density={params.crossing_density} after {_MAX_ATTEMPTS} attempts"
    )
