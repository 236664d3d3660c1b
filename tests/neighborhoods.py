"""Facts about the crossings, read off the flat corner table.

`crossing_corners(g)` holds four `Corner` records per false vertex,
(face, A, false vertex, B, a, b, face past a, face past b), in crossing
order. These readers give the tests each crossing's endpoints, faces and
two crossing edges without a second copy in the package.
"""

from __future__ import annotations

from oneplane.oneplanar import Corner


def crossings(corners: tuple[Corner, ...]) -> dict[int, tuple[Corner, ...]]:
    """Each false vertex's four records, in rotation order, keyed by the
    false vertex, in crossing order."""
    return {corners[i][2]: corners[i : i + 4] for i in range(0, len(corners), 4)}


def endpoints(records: tuple[Corner, ...]) -> tuple[int, ...]:
    """The four neighbors in rotation order, starting at the lowest id."""
    return tuple(c[1] for c in records)


def faces(records: tuple[Corner, ...]) -> tuple[int, ...]:
    """`faces(records)[i]` is the face between endpoints i and i+1."""
    return tuple(c[0] for c in records)


def crossing_pairs(records: tuple[Corner, ...]) -> frozenset[frozenset[int]]:
    """The two original edges that cross at the false vertex."""
    e = endpoints(records)
    return frozenset({frozenset({e[0], e[2]}), frozenset({e[1], e[3]})})
