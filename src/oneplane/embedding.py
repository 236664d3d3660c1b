"""Rotation systems and the sphere embeddings they induce.

A rotation system records, for every vertex, the cyclic order of its
neighbors. Tracing directed edges (darts) through these rotations
recovers the faces: the successor of the dart (u, v) is (v, w), where w
follows u in the rotation at v. The walks so obtained partition the
darts, and the system describes a sphere embedding exactly when
V - E + F = 2. Anything else is rejected. A build derives a table of
these successors once, so it runs in time linear in V + E.

A face is stored once, as its vertex walk: the tails of its darts in
walk order. The darts of a walk w are `zip(w, w[1:] + w[:1])`, and
`face_of` maps each dart back to its face.

A rotation is a plain dict from each vertex to a sequence of its
neighbors. `build_embedding` copies it once, into a dict of tuples,
and `PlaneEmbedding.rotation` is that copy: the embedding's own table,
which callers must not modify.

A build tests each rotation as a whole (its length, loop and unknown
neighbors against its successor table), tests the types of all ids and
neighbors at once (ids and neighbors must be ints: a bool or a float
such as 1.0 equals an int id but is not one), and finds an asymmetric
edge as a successor the face walk cannot read. Only when such a test
fails does the per-dart scan run, to name the first fault in table
order, as it would have alone. Rotation faults come before
disconnection, and disconnection before a failed Euler test.

Face indexing is deterministic: faces are numbered in the order of
their least darts, and each walk starts at the tail of its least dart,
so rebuilding from equal rotations always yields identical faces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat

HalfEdge = tuple[int, int]


class MalformedRotation(ValueError):
    """The rotation table is not a simple, symmetric neighbor structure."""


class Disconnected(ValueError):
    """The underlying graph has more than one component."""


class NotPlane(ValueError):
    """The rotation system embeds in a surface of positive genus."""


@dataclass(frozen=True)
class PlaneEmbedding:
    """A rotation system together with its traced faces.

    `rotation` maps each vertex to its neighbors in cyclic
    counterclockwise order, one tuple per vertex. It is the embedding's
    own table, copied at build; callers must not modify it. Each face
    is its vertex walk, the tails of its darts in walk order; `face_of`
    maps every dart to the index of the unique face containing it.
    Walks carry multiplicity: a bridge puts both of its directions on
    the same face, and a cut vertex may appear several times on one
    walk. The sorted `vertices`, the vertex `degrees` and the
    `face_degrees` are derived once, on first use.
    """

    rotation: dict[int, tuple[int, ...]]
    faces: tuple[tuple[int, ...], ...]
    face_of: dict[HalfEdge, int] = field(repr=False)

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self.rotation))

    @cached_property
    def degrees(self) -> dict[int, int]:
        """Vertex -> degree. Callers must not modify it."""
        return {v: len(r) for v, r in self.rotation.items()}

    @cached_property
    def face_degrees(self) -> tuple[int, ...]:
        """Face index -> length of its walk."""
        return tuple(map(len, self.faces))

    def vertex_count(self) -> int:
        return len(self.rotation)

    def edge_count(self) -> int:
        return len(self.face_of) // 2

    def face_count(self) -> int:
        return len(self.faces)

    def corner_faces(self, v: int) -> tuple[int, ...]:
        """Faces around v in rotation order, one per corner, with
        multiplicity: the i-th lies between the i-th and (i+1)-th
        neighbors."""
        r = self.rotation[v]
        return tuple(map(self.face_of.__getitem__, zip(repeat(v), r[1:] + r[:1])))


def _check_rotation(table: dict[int, tuple[int, ...]], succ: dict[int, dict[int, int]]) -> None:
    if not table:
        raise MalformedRotation("empty rotation system")
    for v, nbrs in table.items():
        if type(v) is not int:
            raise MalformedRotation(f"vertex id {v!r} is a {type(v).__name__}, not an integer")
        for u in nbrs:
            if type(u) is not int:
                raise MalformedRotation(
                    f"vertex {v} lists neighbor {u!r}, a {type(u).__name__}, not an integer"
                )
        seen: set[int] = set()
        for u in nbrs:
            if u == v:
                raise MalformedRotation(f"loop at vertex {v}")
            if u not in table:
                raise MalformedRotation(f"vertex {v} lists unknown neighbor {u}")
            if u in seen:
                raise MalformedRotation(f"vertex {v} lists neighbor {u} twice")
            seen.add(u)
        for u in nbrs:
            if v not in succ[u]:
                raise MalformedRotation(f"edge {v}-{u} is not symmetric")
    if not any(table.values()):
        raise MalformedRotation("rotation system has no edges")


def _check_connected(table: dict[int, tuple[int, ...]]) -> None:
    start = next(iter(table))
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for u in table[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    if len(seen) != len(table):
        raise Disconnected(f"{len(table) - len(seen)} vertices unreachable from {start}")


def _trace_faces(
    table: dict[int, tuple[int, ...]], succ: dict[int, dict[int, int]]
) -> tuple[list[tuple[int, ...]], dict[HalfEdge, int]]:
    face_of: dict[HalfEdge, int] = {}
    faces: list[tuple[int, ...]] = []
    for u in sorted(table):
        for v in sorted(table[u]):
            start = cur = (u, v)
            if start in face_of:
                continue
            walk: list[int] = []
            while True:
                face_of[cur] = len(faces)
                tail, head = cur
                walk.append(tail)
                cur = (head, succ[head][tail])
                if cur == start:
                    break
            faces.append(tuple(walk))
    return faces, face_of


def build_embedding(rotation: dict[int, list[int] | tuple[int, ...]]) -> PlaneEmbedding:
    """Trace the faces of a rotation table and verify it is a sphere embedding.

    `rotation` maps each vertex to a sequence of its neighbors; the
    embedding keeps its own copy, one tuple per vertex, so later changes
    to the caller's table do not reach it. Raises MalformedRotation for
    asymmetric, looped, or duplicated adjacencies and for a vertex id or
    neighbor that is not an int (a bool or a float such as 1.0 equals an
    int id but is none), Disconnected for multi-component input, and
    NotPlane when the traced faces violate Euler's identity V - E + F = 2.
    """
    table = dict(zip(rotation, map(tuple, rotation.values())))
    # succ[v][u]: the neighbor that follows u in the cyclic order at v
    succ = {v: dict(zip(r, r[1:] + r[:1])) for v, r in table.items()}
    keys = table.keys()
    if (
        not table
        or set(map(type, chain(keys, chain.from_iterable(table.values())))) != {int}
        or any(
            len(s) != len(r) or v in s or not s.keys() <= keys
            for (v, r), s in zip(table.items(), succ.values())
        )
    ):
        _check_rotation(table, succ)
    # Now no rotation repeats a neighbor, so each face walk returns to
    # its start unless it reads succ[head][tail] for a dart whose
    # reverse is missing; every dart's successor is read.
    try:
        faces, face_of = _trace_faces(table, succ)
    except KeyError:
        faces, face_of = [], {}
    if not faces:  # an asymmetric edge, or no edge at all
        _check_rotation(table, succ)
    _check_connected(table)

    emb = PlaneEmbedding(rotation=table, faces=tuple(faces), face_of=face_of)
    if euler_characteristic(emb) != 2:
        raise NotPlane(
            f"V - E + F = {euler_characteristic(emb)}, expected 2 "
            f"(V={emb.vertex_count()}, E={emb.edge_count()}, F={emb.face_count()})"
        )
    return emb


def euler_characteristic(emb: PlaneEmbedding) -> int:
    return emb.vertex_count() - emb.edge_count() + emb.face_count()
