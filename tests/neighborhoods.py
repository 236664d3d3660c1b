"""Facts about one crossing, read off its corner records.

`corners[i]` of a `CrossingNeighborhood` is (A, B, a, b, face): the
endpoints i and i+1 bounding corner i, their opposite endpoints and the
face at that corner. These readers give the tests the endpoints, the
faces and the two crossing edges without a second copy in the package.
"""

from __future__ import annotations

from oneplane.oneplanar import CrossingNeighborhood


def endpoints(hood: CrossingNeighborhood) -> tuple[int, ...]:
    """The four neighbors in rotation order, starting at the lowest id."""
    return tuple(c[0] for c in hood.corners)


def faces(hood: CrossingNeighborhood) -> tuple[int, ...]:
    """`faces(hood)[i]` is the face between endpoints i and i+1."""
    return tuple(c[4] for c in hood.corners)


def crossing_pairs(hood: CrossingNeighborhood) -> frozenset[frozenset[int]]:
    """The two original edges that cross at the false vertex."""
    e = endpoints(hood)
    return frozenset({frozenset({e[0], e[2]}), frozenset({e[1], e[3]})})
