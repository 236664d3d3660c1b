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
(a, b, c, d) stands for the two original edges a-c and b-d. In a valid
drawing every neighbor of a false vertex is true, so each segment is
read straight off that rotation, with no walk. Only a segment with a
false end, in a drawing that `validate` rejects for adjacent false
vertices, is followed through the further false vertices it meets.

`validate` does work in proportion to the crossings: it reads the
crossing segments alone, derived once per drawing, and tests each
against the embedding's darts and the earlier segments. The recovered
edge list, the direct edges between true vertices plus the segments, is
built on the first `recover_original`; the discharging engine does not
build it, since an original edge between two true vertices is a dart of
the embedding or a crossing segment (`crossing_segments`). Recovery
refuses a false vertex whose degree is not 4, through the check the
crossing neighborhoods share, so every dart at a true vertex straightens
into exactly one recovered edge and the recovered degrees are the
embedding's own.

Each crossing's four corner records are derived once, with its
neighborhood, from the false vertex's rotation and the faces of its
darts; the discharging engine and the audit read them and derive no
corner again.
Vertex ids, neighbors and false-vertex marks must be ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .embedding import PlaneEmbedding, build_embedding


class RecoveredLoop(ValueError):
    """Straightening a crossing produced an edge from a vertex to itself."""


class RecoveredMultiEdge(ValueError):
    """Straightening produced two parallel copies of the same edge."""


@dataclass(frozen=True)
class AssociatedPlaneGraph:
    """A plane embedding plus the set of vertices marking crossings. The
    sorted false vertices, the straightening (whose segments are read
    through `crossing_segments`), the recovered original graph (through
    `recover_original`) and the crossing neighborhoods (through
    `crossing_neighborhoods`) are derived once per drawing, on first
    use."""

    embedding: PlaneEmbedding
    false_vertices: frozenset[int]

    @cached_property
    def sorted_false_vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self.false_vertices))

    @cached_property
    def _straightened(self) -> tuple[tuple[tuple[int, int], ...], tuple[Violation, ...]]:
        """The crossing segments and the straightening violations,
        derived once per drawing, on first use, for `validate` and
        `recover_original`."""
        return _straighten(self)

    def _check_false_degrees(self) -> None:
        """Raise ValueError naming the first false vertex, in vertex
        order, whose degree is not 4; shared by recovery and the
        crossing neighborhoods."""
        deg = self.embedding.degrees
        for f in self.sorted_false_vertices:
            if deg[f] != 4:
                raise ValueError(f"false vertex {f} has degree {deg[f]}, not 4")

    @cached_property
    def _neighborhoods(self) -> list[CrossingNeighborhood]:
        self._check_false_degrees()
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
        segments = crossing_segments(self)
        emb, false = self.embedding, self.false_vertices
        rot, deg = emb.rotation, emb.degrees
        vertices = tuple(v for v in emb.vertices if v not in false)
        # the direct edges between true vertices come nearly in order
        edges = [(u, v) for u in vertices for v in rot[u] if u < v and v not in false]
        edges += segments
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
    that is not one, such as 2.0 for vertex 2, raises ValueError, and so
    does a mark naming no vertex."""
    emb = build_embedding(rotation)
    marks = frozenset(false_vertices)
    for m in marks:
        if type(m) is not int:
            raise ValueError(f"false-vertex mark {m!r} is a {type(m).__name__}, not an integer")
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
FALSE_CYCLE = "false-vertex-cycle"
RECOVERED_LOOP = "recovered-loop"
RECOVERED_MULTI_EDGE = "recovered-multi-edge"

# The exception recover_original raises for the first violation of a kind.
_RECOVERY_ERRORS = {RECOVERED_LOOP: RecoveredLoop, RECOVERED_MULTI_EDGE: RecoveredMultiEdge}


def _follow_segment(g: AssociatedPlaneGraph, start: int, toward: int) -> tuple[int, ...] | None:
    """Walk straight through false vertices from `start` in direction `toward`.

    Returns the vertex path ending at the first true vertex, None if the
    walk cycles through false vertices without reaching one, or an empty
    path if it meets a false vertex whose degree is not 4.
    """
    rot = g.embedding.rotation
    path = [start, toward]
    prev, cur = start, toward
    budget = len(rot) + 1
    while cur in g.false_vertices:
        if len(rot[cur]) != 4:
            return ()
        budget -= 1
        if budget == 0:
            return None
        r = rot[cur]
        nxt = r[(r.index(prev) + 2) % 4]
        path.append(nxt)
        prev, cur = cur, nxt
    return tuple(path)


def _straighten(
    g: AssociatedPlaneGraph,
) -> tuple[tuple[tuple[int, int], ...], tuple[Violation, ...]]:
    """The crossing segments, as ordered pairs in segment order, and the
    violations straightening finds.

    The direct edges are read from the embedding's dart table. A
    crossing with rotation r reads its segments (r0, r2) and (r1, r3)
    directly when both ends are true, as they are in a valid drawing.
    Only a segment with a false end, which `validate` flags as adjacent
    false vertices, is walked through `_follow_segment`, and a walk
    found again from another false vertex on it is skipped; a directly
    read segment has one false vertex, so no other finds it. A segment
    with equal endpoints is a loop, and one whose pair is a direct edge
    or an earlier segment is a multi-edge: direct edges never repeat one
    another, because `build_embedding` rejects repeated neighbors.
    Segment walks that cycle through false vertices are violations and
    produce no segment; so do, unreported, walks that meet a false
    vertex of degree other than 4, which validate() flags on its own.
    The cycles are reported first, then the loops and multi-edges, each
    in segment order.
    """
    rot = g.embedding.rotation
    darts = g.embedding.face_of
    false = g.false_vertices
    problems: list[Violation] = []
    named: list[Violation] = []  # loops and multi-edges
    segments: list[tuple[int, int]] = []
    seen_paths: set[tuple[int, ...]] = set()
    seen_pairs: set[tuple[int, int]] = set()
    for f in g.sorted_false_vertices:
        r = rot[f]
        if len(r) != 4:
            continue  # reported separately by validate()
        for axis in (0, 1):
            a, b = r[axis], r[axis + 2]
            if a in false or b in false:
                half_a = _follow_segment(g, f, a)
                half_b = _follow_segment(g, f, b)
                if half_a is None or half_b is None:
                    problems.append(
                        Violation(
                            FALSE_CYCLE, (f,), "crossing segment cycles through false vertices"
                        )
                    )
                    continue
                if not half_a or not half_b:
                    continue
                path = tuple(reversed(half_a)) + half_b[1:]
                key = min(path, path[::-1])
                if key in seen_paths:
                    continue  # same segment discovered from another false vertex on it
                seen_paths.add(key)
                a, b = path[0], path[-1]
            pair = (a, b) if a < b else (b, a)
            segments.append(pair)
            if a == b:
                named.append(Violation(RECOVERED_LOOP, (a,), "crossing straightens to a loop"))
            elif pair in darts or pair in seen_pairs:
                named.append(Violation(RECOVERED_MULTI_EDGE, pair, "recovered edge appears twice"))
            else:
                seen_pairs.add(pair)
    return tuple(segments), tuple(problems + named)


def validate(g: AssociatedPlaneGraph) -> ValidationReport:
    """Check the crossing structure; violations are reported, never raised.

    An empty report means: every false vertex has degree 4, no two false
    vertices are adjacent, and the recovered original graph is simple.
    """
    rot = g.embedding.rotation
    violations: list[Violation] = []

    for f in g.sorted_false_vertices:
        d = len(rot[f])
        if d != 4:
            violations.append(Violation(FALSE_DEGREE, (f,), f"degree {d}, expected 4"))

    for f in g.sorted_false_vertices:
        for u in rot[f]:
            if u in g.false_vertices and f < u:
                violations.append(Violation(ADJACENT_FALSE, (f, u), "false vertices are adjacent"))

    violations.extend(g._straightened[1])
    return ValidationReport(tuple(violations))


@dataclass(frozen=True)
class OriginalGraphView:
    """The abstract graph obtained by straightening all crossings.

    The set of `edges` is derived once, on the first `has_edge` call. A
    lookup tries the pair both ways round, so it takes constant time and
    agrees with `edges` however each pair is ordered. No code in the
    package calls `has_edge`: the discharging engine reads the original
    adjacency from the embedding's darts and `crossing_segments`. It is
    kept for callers of the view and as the tests' reference.
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

    Raises a plain ValueError, first, when a false vertex's degree is not
    4 (`crossing_neighborhoods` raises the same error, from the same
    check): such a vertex is no crossing, and straightening would drop
    its edges. Then raises RecoveredLoop or RecoveredMultiEdge when
    straightening breaks simplicity, and a plain ValueError when a
    crossing segment cycles through false vertices. Each signals an
    invalid drawing, on every call. The straightening is derived once
    per drawing and shared with `validate`; every call on a valid
    drawing returns the same view, whose `degrees` are the embedding's
    degrees of the true vertices, and which callers must not modify.
    """
    return g._original


def crossing_segments(g: AssociatedPlaneGraph) -> tuple[tuple[int, int], ...]:
    """The original edges that cross, one ordered pair per crossing
    segment, in segment order; every call on a drawing returns the same
    tuple. Raises what `recover_original` raises, on every call, when
    the drawing does not straighten cleanly."""
    g._check_false_degrees()
    segments, problems = g._straightened
    if problems:
        raise _RECOVERY_ERRORS.get(problems[0].kind, ValueError)(str(problems[0]))
    return segments


@dataclass(frozen=True)
class CrossingNeighborhood:
    """Local labels around one crossing, derived once per crossing.

    The four endpoints are the false vertex's neighbors in rotation
    order, starting at the lowest id, so endpoints 0/2 and 1/3 are the
    two original edges. `corners[i]` is (A, B, a, b, face), where A and
    B are the endpoints i and i+1 bounding the corner, a and b are their
    opposite endpoints, the far ends of the two original edges, and
    face is the face at the corner: the false vertex's `corner_faces`,
    rotated alike. The starting label is only a representative:
    consumers must not depend on which rotation or reflection of the
    labels was chosen.
    """

    false_vertex: int
    corners: tuple[tuple[int, int, int, int, int], ...]


def crossing_neighborhoods(g: AssociatedPlaneGraph) -> list[CrossingNeighborhood]:
    """One neighborhood per false vertex, in vertex order; every call on
    a drawing returns the same list, which callers must not modify."""
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
        corners = emb.corner_faces(v)
        corner_degs = [emb.face_degrees[f] for f in corners]

        if d == 3 and v not in false:
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

        if d == 4 and v not in false and all(is_false_triangle(g, f) for f in corners):
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
