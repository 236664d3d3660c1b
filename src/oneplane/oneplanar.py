"""Planarized 1-plane drawings.

The input model is the planarized form of a drawing in which every edge
is crossed at most once: each crossing point is replaced by a marked
degree-4 vertex (a "false" vertex), and the result is an ordinary plane
graph. This module validates such drawings, recovers the original
abstract graph by straightening the crossing pairs back out, exposes the
local neighborhood of every crossing, and flags structural patterns that
cannot occur in a crossing-minimal drawing.

Straightening works on the rotation at a false vertex: its four
neighbors pair up opposite positions, so a crossing with rotation
(a, b, c, d) stands for the two original edges a-c and b-d. An edge
crossed at most once passes through one false vertex, so each segment
is read straight off that rotation, with no walk.

The straightening is the one crossing check. It walks the false
vertices once and finds every crossing fault: a false vertex whose
degree is not 4, two adjacent false vertices (an edge crossed twice)
and a recovered multi-edge. `validate` reports them all, and every
derivation that reads the crossings (`recover_original`,
`crossing_neighborhoods` and, through them, the light-edge search, the
k-special faces, the transitive corners and the discharging) refuses a
faulty drawing by raising the first of them, with `validate`'s text.
The check does work in proportion to the crossings, and is derived once
per drawing.

The recovered edge list, the direct edges between true vertices plus
the segments, is built on the first `recover_original`; the discharging
engine does not build it, since an original edge between two true
vertices is a dart of the embedding or one of a crossing's two
segments, read off its neighborhood. Every dart at a true vertex of a
valid drawing straightens into exactly one recovered edge, so the
recovered degrees are the embedding's own.

Each crossing's four corner records are derived once, with its
neighborhood, from the false vertex's rotation and the faces of its
darts; the discharging engine and the audit read them and derive no
corner again. They are built on first use, apart from the
straightening, so `validate`, `recover_original` and the light-edge
search build none. The faces are read from `face_of` directly, not
through `PlaneEmbedding.corner_faces`, whose per-vertex tuple made a
build of the neighborhoods about 1.6 times slower on a 749-crossing
drawing; they equal the false vertex's `corner_faces`, rotated alike.
Vertex ids, neighbors and false-vertex marks must be ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .embedding import PlaneEmbedding, build_embedding


class RecoveredMultiEdge(ValueError):
    """Straightening produced two parallel copies of the same edge."""


@dataclass(frozen=True)
class AssociatedPlaneGraph:
    """A plane embedding plus the set of vertices marking crossings. The
    sorted false vertices, the straightening (read through `validate`),
    the recovered original graph (through `recover_original`) and the
    crossing neighborhoods (through `crossing_neighborhoods`) are
    derived once per drawing, on first use. The last two refuse a
    drawing that `validate` faults, on every access."""

    embedding: PlaneEmbedding
    false_vertices: frozenset[int]

    @cached_property
    def sorted_false_vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self.false_vertices))

    @cached_property
    def _straightened(self) -> tuple[tuple[tuple[int, int], ...], tuple[Violation, ...]]:
        """The crossing segments and the crossing faults, derived once
        per drawing, on first use."""
        return _straighten(self)

    def _refuse_invalid(self) -> None:
        """Raise the first crossing fault, with `validate`'s text: as
        RecoveredMultiEdge for a multi-edge, as a plain ValueError
        otherwise. Every derivation that reads the crossings calls it
        first."""
        problems = self._straightened[1]
        if problems:
            error = RecoveredMultiEdge if problems[0].kind == RECOVERED_MULTI_EDGE else ValueError
            raise error(str(problems[0]))

    @cached_property
    def _neighborhoods(self) -> list[CrossingNeighborhood]:
        self._refuse_invalid()
        emb = self.embedding
        face_of = emb.face_of
        out: list[CrossingNeighborhood] = []
        for f in self.sorted_false_vertices:
            r = emb.rotation[f]
            k = r.index(min(r))
            a, b, c, d = r[k:] + r[:k]
            # the corner between two neighbors is the face of the dart
            # from f to the second
            corners = (
                (a, b, c, d, face_of[f, b]),
                (b, c, d, a, face_of[f, c]),
                (c, d, a, b, face_of[f, d]),
                (d, a, b, c, face_of[f, a]),
            )
            out.append(CrossingNeighborhood(f, corners))
        return out

    @cached_property
    def _original(self) -> OriginalGraphView:
        """Derived once per drawing, on first use, for `recover_original`.
        An invalid drawing caches nothing and raises on every access."""
        self._refuse_invalid()
        emb, false = self.embedding, self.false_vertices
        rot, deg = emb.rotation, emb.degrees
        vertices = tuple(v for v in emb.vertices if v not in false)
        # the direct edges between true vertices come nearly in order
        edges = [(u, v) for u in vertices for v in rot[u] if u < v and v not in false]
        edges += self._straightened[0]
        edges.sort()
        # every dart at a true vertex straightens into one recovered edge
        degrees = {v: deg[v] for v in vertices}
        return OriginalGraphView(vertices=vertices, edges=tuple(edges), degrees=degrees)


def build_drawing(
    rotation: dict[int, list[int] | tuple[int, ...]],
    false_vertices: set[int] | frozenset[int] = frozenset(),
) -> AssociatedPlaneGraph:
    """Build and embed a planarized drawing from a rotation table.

    Vertex ids, neighbors and false-vertex marks must be ints; a mark
    that is not one, such as 2.0 for vertex 2 or the list [2], raises
    ValueError, and so does a mark naming no vertex."""
    emb = build_embedding(rotation)
    for m in false_vertices:
        if type(m) is not int:
            raise ValueError(f"false-vertex mark {m!r} is a {type(m).__name__}, not an integer")
    marks = frozenset(false_vertices)
    if not marks <= emb.rotation.keys():
        unknown = sorted(marks - emb.rotation.keys())
        raise ValueError(f"false-vertex marks name unknown vertices: {unknown}")
    return AssociatedPlaneGraph(embedding=emb, false_vertices=marks)


@dataclass(frozen=True)
class Violation:
    kind: str
    members: tuple[int, ...]
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} {list(self.members)}: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    """The one report type, for both `validate` and `drawing_diagnostics`;
    `ok` means no violation was found."""

    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


# Violation kinds produced by validate().
FALSE_DEGREE = "false-vertex-degree"
ADJACENT_FALSE = "adjacent-false-vertices"
RECOVERED_MULTI_EDGE = "recovered-multi-edge"


def _straighten(
    g: AssociatedPlaneGraph,
) -> tuple[tuple[tuple[int, int], ...], tuple[Violation, ...]]:
    """The crossing segments, as ordered pairs in segment order, and the
    crossing faults, found in one pass over the false vertices in vertex
    order: each false vertex whose degree is not 4 first, then each
    pair of adjacent false vertices, then the multi-edges, in segment
    order.

    A crossing with rotation r stands for the segments (r0, r2) and
    (r1, r3), read straight off r. A false vertex whose degree is not 4
    is no crossing and yields no segment. An edge crossed at most once
    meets no two false vertices in a row, so a segment with a false end
    is skipped, not followed: its adjacency is reported. A segment whose
    pair is a direct edge or an earlier segment is a multi-edge. Direct
    edges never repeat one another, and a segment's two ends are
    distinct, because `build_embedding` rejects repeated neighbors.
    """
    rot = g.embedding.rotation
    darts = g.embedding.face_of
    false = g.false_vertices
    wrong_degree: list[Violation] = []
    adjacent: list[Violation] = []
    multi_edges: list[Violation] = []
    segments: list[tuple[int, int]] = []
    seen_pairs: set[tuple[int, int]] = set()
    for f in g.sorted_false_vertices:
        r = rot[f]
        for u in r:
            if u in false and f < u:
                adjacent.append(Violation(ADJACENT_FALSE, (f, u), "false vertices are adjacent"))
        if len(r) != 4:
            wrong_degree.append(Violation(FALSE_DEGREE, (f,), f"degree {len(r)}, expected 4"))
            continue
        for axis in (0, 1):
            a, b = r[axis], r[axis + 2]
            if a in false or b in false:
                continue
            pair = (a, b) if a < b else (b, a)
            segments.append(pair)
            if pair in darts or pair in seen_pairs:
                multi_edges.append(
                    Violation(RECOVERED_MULTI_EDGE, pair, "recovered edge appears twice")
                )
            else:
                seen_pairs.add(pair)
    return tuple(segments), (*wrong_degree, *adjacent, *multi_edges)


def validate(g: AssociatedPlaneGraph) -> ValidationReport:
    """Check the crossing structure; violations are reported, never raised.

    An empty report means: every false vertex has degree 4, no two false
    vertices are adjacent, and the recovered original graph is simple.
    """
    return ValidationReport(g._straightened[1])


@dataclass(frozen=True)
class OriginalGraphView:
    """The abstract graph obtained by straightening all crossings.

    The set of `edges` is derived once, on the first `has_edge` call. A
    lookup tries the pair both ways round, so it takes constant time and
    agrees with `edges` however each pair is ordered. No code in the
    package calls `has_edge`: the discharging engine reads the original
    adjacency from the embedding's darts and the crossing neighborhoods.
    It is kept for callers of the view and as the tests' reference.
    """

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    degrees: dict[int, int]

    def min_degree(self) -> int:
        return min(self.degrees.values())

    @cached_property
    def _edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    def has_edge(self, a: int, b: int) -> bool:
        s = self._edge_set
        return (a, b) in s or (b, a) in s


def recover_original(g: AssociatedPlaneGraph) -> OriginalGraphView:
    """Undo the planarization, returning the original simple graph.

    Refuses, on every call, a drawing that `validate` faults: a false
    vertex whose degree is not 4 (no crossing; straightening would drop
    its edges), two adjacent false vertices (an edge crossed twice) or a
    recovered multi-edge. It raises the first fault `validate` reports,
    with its text: RecoveredMultiEdge for a multi-edge, a plain
    ValueError otherwise. `crossing_neighborhoods` refuses the same
    drawings with the same error. The straightening is derived once per
    drawing and shared with `validate`; every call on a valid drawing
    returns the same view, whose `degrees` are the embedding's degrees
    of the true vertices, and which callers must not modify.
    """
    return g._original


@dataclass(frozen=True)
class CrossingNeighborhood:
    """Local labels around one crossing, derived once per crossing.

    The four endpoints are the false vertex's neighbors in rotation
    order, starting at the lowest id, so endpoints 0/2 and 1/3 are the
    two original edges. `corners[i]` is (A, B, a, b, face), where A and
    B are the endpoints i and i+1 bounding the corner, a and b are their
    opposite endpoints, the far ends of the two original edges, and
    face is the face at the corner, the face of the dart from the false
    vertex to B, read from `face_of` directly for speed; it equals the
    false vertex's `corner_faces`, rotated alike. The starting label is
    only a representative: consumers must not depend on which rotation
    or reflection of the labels was chosen.
    """

    false_vertex: int
    corners: tuple[tuple[int, int, int, int, int], ...]


def crossing_neighborhoods(g: AssociatedPlaneGraph) -> list[CrossingNeighborhood]:
    """One neighborhood per false vertex, in vertex order; every call on
    a drawing returns the same list, which callers must not modify.
    Raises what `recover_original` raises, on every call, when
    `validate` faults the drawing."""
    return g._neighborhoods


# Violation kinds produced by drawing_diagnostics(). Each names a local
# pattern that a crossing-minimal simple drawing cannot contain.
SQUEEZED_3_VERTEX = "squeezed-3-vertex"
CROSSING_EDGE_ON_TWO_TRIANGLES = "crossing-edge-on-two-triangles"
ENCIRCLED_4_VERTEX = "encircled-4-vertex"


def is_false_triangle(g: AssociatedPlaneGraph, face: int) -> bool:
    """Whether `face` is a 3-face with a false vertex on it."""
    emb = g.embedding
    return emb.face_degrees[face] == 3 and any(t in g.false_vertices for t in emb.faces[face])


def drawing_diagnostics(g: AssociatedPlaneGraph) -> ValidationReport:
    """Flag local patterns impossible in crossing-minimal drawings.

    A nonempty report does not make the input unusable; it signals that
    the drawing is not crossing-minimal or not a drawing of a simple
    graph at all. Three patterns are checked:

    - a 3-vertex on two or more triangles, with two or more false
      neighbors, but no incident face of degree 5 or more;
    - an edge from a false vertex to a 3-vertex lying on two triangles;
    - a true 4-vertex all four of whose corners are triangles containing
      a false vertex.
    """
    emb = g.embedding
    rot = emb.rotation
    false = g.false_vertices
    flags: list[Violation] = []

    for v in emb.vertices:
        d = emb.degrees[v]
        if v in false or d not in (3, 4):
            continue
        corners = emb.corner_faces(v)
        if d == 3:
            corner_degs = [emb.face_degrees[f] for f in corners]
            triangles = sum(1 for fd in corner_degs if fd == 3)
            false_nbrs = sum(1 for u in rot[v] if u in false)
            if triangles >= 2 and false_nbrs >= 2 and not any(fd >= 5 for fd in corner_degs):
                flags.append(
                    Violation(
                        SQUEEZED_3_VERTEX,
                        (v,),
                        f"{triangles} triangles, {false_nbrs} false neighbors, no 5+-face",
                    )
                )
        elif all(is_false_triangle(g, f) for f in corners):
            flags.append(
                Violation(ENCIRCLED_4_VERTEX, (v,), "four false triangles around a 4-vertex")
            )

    for u in g.sorted_false_vertices:
        for v in rot[u]:
            if v in false or emb.degrees[v] != 3:
                continue
            side_a = emb.face_of[(u, v)]
            side_b = emb.face_of[(v, u)]
            if emb.face_degrees[side_a] == 3 and emb.face_degrees[side_b] == 3:
                flags.append(
                    Violation(
                        CROSSING_EDGE_ON_TWO_TRIANGLES,
                        (u, v),
                        "crossing edge to a 3-vertex lies on two triangles",
                    )
                )

    return ValidationReport(tuple(flags))
