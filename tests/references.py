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
from oneplane.oneplanar import AssociatedPlaneGraph, Corner, recover_original


def sliced_corners(g: AssociatedPlaneGraph) -> tuple[Corner, ...]:
    """The corner table with each record's faces sliced from the false
    vertex's `corner_faces`, rotated to its lowest endpoint like the
    rotation: corner i of a crossing with endpoints e and faces c is
    (c[i], e[i], false vertex, e[i+1], e[i+2], e[i+3], c[i+1], c[i-1]),
    indices mod 4."""
    g._refuse_invalid()
    emb = g.embedding
    out: list[Corner] = []
    for v in g.sorted_false_vertices:
        r, c = emb.rotation[v], emb.corner_faces(v)
        k = r.index(min(r))
        e, c = r[k:] + r[:k], c[k:] + c[:k]
        out += [(c[i], e[i], v, e[i - 3], e[i - 2], e[i - 1], c[i - 3], c[i - 1]) for i in range(4)]
    return tuple(out)


def recovered_special_faces(g: AssociatedPlaneGraph) -> list[SpecialFace]:
    """`find_special_faces` with the original adjacency read from the
    recovered graph's `has_edge`."""
    deg = g.embedding.degrees
    fdeg = g.embedding.face_degrees
    false = g.false_vertices
    corners = sliced_corners(g)
    if not corners:
        return []
    view = recover_original(g)
    records = []
    for f, near_a, _, near_b, far_a, far_b, _, _ in corners:
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
