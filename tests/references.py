"""The check path's earlier derivations, kept as references.

The package reads each crossing's corner records and original
adjacencies straight from the false vertex's rotation and the
embedding's dart table. These are the derivations it replaced: the
corner faces sliced from `corner_faces`, and the original adjacency read
from the recovered graph. Tests require the package's results to equal
theirs.
"""

from __future__ import annotations

from oneplane.discharging import SPECIAL_PARTNER_BOUND, SpecialFace
from oneplane.oneplanar import (
    AssociatedPlaneGraph,
    CrossingNeighborhood,
    crossing_neighborhoods,
    recover_original,
)


def sliced_neighborhoods(g: AssociatedPlaneGraph) -> list[CrossingNeighborhood]:
    """The crossing neighborhoods with each corner record's face sliced
    from the false vertex's `corner_faces`, rotated to its lowest
    endpoint like the rotation."""
    g._refuse_invalid()
    emb = g.embedding
    out: list[CrossingNeighborhood] = []
    for f in g.sorted_false_vertices:
        r, c = emb.rotation[f], emb.corner_faces(f)
        k = r.index(min(r))
        e = r[k:] + r[:k]
        corners = tuple(zip(e, e[1:] + e[:1], e[2:] + e[:2], e[3:] + e[:3], c[k:] + c[:k]))
        out.append(CrossingNeighborhood(f, corners))  # type: ignore[arg-type]
    return out


def recovered_special_faces(g: AssociatedPlaneGraph) -> list[SpecialFace]:
    """`find_special_faces` with the original adjacency read from the
    recovered graph's `has_edge`."""
    deg = g.embedding.degrees
    fdeg = g.embedding.face_degrees
    false = g.false_vertices
    hoods = crossing_neighborhoods(g)
    if not hoods:
        return []
    view = recover_original(g)
    records = []
    for hood in hoods:
        for near_a, near_b, far_a, far_b, f in hood.corners:
            if fdeg[f] != 3:
                continue
            for pivot, partner, pivot_far, partner_far in (
                (near_a, near_b, far_a, far_b),
                (near_b, near_a, far_b, far_a),
            ):
                k = deg[pivot]
                if k not in SPECIAL_PARTNER_BOUND or pivot in false:
                    continue
                if not view.has_edge(partner, pivot_far):
                    continue
                if deg[partner_far] <= SPECIAL_PARTNER_BOUND[k]:
                    records.append(SpecialFace(f, pivot, k, partner))
    records.sort(key=lambda s: (s.face, s.pivot))
    return records
