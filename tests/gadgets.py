"""Hand-built drawings that exercise specific rule and audit patterns.

Degrees are pumped with pendant leaves, which leave the crossing
structure untouched: a leaf only enlarges the outer face. Every builder
returns a validated drawing except `encircled_gadget`, which is an
intentionally broken drawing used by the diagnostics tests.
"""

from __future__ import annotations

from oneplane.oneplanar import AssociatedPlaneGraph, build_drawing, validate


def _attach_leaves(rot: dict[int, list[int]], v: int, count: int) -> None:
    assert count >= 0, f"degree request at vertex {v} is below its base degree"
    for _ in range(count):
        leaf = max(rot) + 1
        rot[v].append(leaf)
        rot[leaf] = [v]


def _built(rot: dict[int, list[int]], false: set[int], check: bool = True) -> AssociatedPlaneGraph:
    g = build_drawing(rot, false)
    if check:
        report = validate(g)
        assert report.ok, f"gadget is invalid: {[str(v) for v in report.violations]}"
    return g


def crossing_gadget(
    corner_a_degree: int,
    corner_b_degree: int,
    far_a_degree: int = 1,
    far_b_degree: int = 1,
    sender: str = "triangle",
    link_partner_far: bool = False,
) -> AssociatedPlaneGraph:
    """One crossing v = 2 of edges A-C and B-D, with the corner face at
    (A, B) shaped as a triangle (edge A-B) or a quadrilateral (path
    A-w-B). A = 0, B = 1, C = 3, D = 4; leaves pump the degrees.
    With link_partner_far, B gains the edge B-C that the special-face
    pattern asks from the pivot A.
    """
    if sender == "triangle":
        rot: dict[int, list[int]] = {
            0: [1, 2],          # A: B, v
            1: [2, 0],          # B: v, A
            2: [0, 1, 3, 4],    # v: crossing pairs {A, C} and {B, D}
            3: [2],             # C
            4: [2],             # D
        }
        if link_partner_far:
            rot[1] = [3, 2, 0]
            rot[3] = [2, 1]
    elif sender == "quad":
        if link_partner_far:
            raise ValueError("link_partner_far needs the triangle sender")
        rot = {
            0: [5, 2],          # A: w, v
            1: [2, 5],          # B: v, w
            2: [0, 1, 3, 4],
            3: [2],
            4: [2],
            5: [1, 0],          # w between B and A
        }
    else:
        raise ValueError(sender)
    linked = 1 if link_partner_far else 0
    _attach_leaves(rot, 0, corner_a_degree - 2)
    _attach_leaves(rot, 1, corner_b_degree - 2 - linked)
    _attach_leaves(rot, 3, far_a_degree - 1 - linked)
    _attach_leaves(rot, 4, far_b_degree - 1)
    return _built(rot, {2})


def closed_crossing_gadget(
    corner_a_degree: int, corner_b_degree: int, far_a_degree: int, far_b_degree: int
) -> AssociatedPlaneGraph:
    """`crossing_gadget`'s triangle sender, with edges B-C and A-D closing
    the two far-side corners into triangles, so the corner faces past
    the far ends C and D are two different faces. The fourth corner,
    between C and D, is the outer face, where every leaf goes."""
    rot: dict[int, list[int]] = {
        0: [1, 2, 4],       # A: B, v, D
        1: [3, 2, 0],       # B: C, v, A
        2: [0, 1, 3, 4],    # v: crossing pairs {A, C} and {B, D}
        3: [2, 1],          # C: v, B
        4: [0, 2],          # D: A, v
    }
    _attach_leaves(rot, 0, corner_a_degree - 3)
    _attach_leaves(rot, 1, corner_b_degree - 3)
    _attach_leaves(rot, 3, far_a_degree - 2)
    _attach_leaves(rot, 4, far_b_degree - 2)
    return _built(rot, {2})


def triangle_payment_gadget(small_degree: int, heavy_degree: int) -> AssociatedPlaneGraph:
    """True triangle {t=0, X=1, Y=2} with deg(t) = small_degree and
    deg(X) = deg(Y) = heavy_degree."""
    rot: dict[int, list[int]] = {0: [2, 1], 1: [0, 2], 2: [1, 0]}
    _attach_leaves(rot, 0, small_degree - 2)
    _attach_leaves(rot, 1, heavy_degree - 2)
    _attach_leaves(rot, 2, heavy_degree - 2)
    return _built(rot, set())


def quad_payment_gadget(
    anchor_degree: int,
    heavy_degree: int,
    crossing_mid: bool = False,
    mid_far_degrees: tuple[int, int] = (3, 3),
) -> AssociatedPlaneGraph:
    """Quadrilateral face {t=0, X=1, m=2, Y=3} with deg(t) = anchor_degree
    and deg(X) = deg(Y) = heavy_degree. The vertex m opposite the anchor
    is true of degree 2, or, with crossing_mid, a crossing of X-Z and
    Y-W whose far endpoints Z = 4 and W = 5 get the given degrees."""
    rot: dict[int, list[int]] = {0: [3, 1], 1: [0, 2], 2: [1, 3], 3: [2, 0]}
    false: set[int] = set()
    if crossing_mid:
        rot[2] = [1, 3, 4, 5]  # crossing pairs {X, Z}, {Y, W}
        rot[4] = [2]
        rot[5] = [2]
        false = {2}
        _attach_leaves(rot, 4, mid_far_degrees[0] - 1)
        _attach_leaves(rot, 5, mid_far_degrees[1] - 1)
    _attach_leaves(rot, 0, anchor_degree - 2)
    _attach_leaves(rot, 1, heavy_degree - 2)
    _attach_leaves(rot, 3, heavy_degree - 2)
    return _built(rot, false)


def big_face_gadget(ring_degree: int = 9) -> AssociatedPlaneGraph:
    """Pentagon whose vertices are one true 4-vertex t = 0 and four
    vertices of degree ring_degree."""
    rot: dict[int, list[int]] = {i: [(i - 1) % 5, (i + 1) % 5] for i in range(5)}
    _attach_leaves(rot, 0, 2)
    for v in range(1, 5):
        _attach_leaves(rot, v, ring_degree - 2)
    return _built(rot, set())


def prepaid_big_face_gadget() -> AssociatedPlaneGraph:
    """Pentagon with a true 4-vertex 0, a 3-vertex 1 and three 9-vertices.
    After phase A it holds 1 + 3 * 5/9 = 8/3, so R8 prepays 2/3 out of a
    fractional balance and passes the remaining 2 to vertex 0."""
    rot: dict[int, list[int]] = {i: [(i - 1) % 5, (i + 1) % 5] for i in range(5)}
    _attach_leaves(rot, 0, 2)
    _attach_leaves(rot, 1, 1)
    for v in range(2, 5):
        _attach_leaves(rot, v, 7)
    return _built(rot, set())


def squeezed_gadget() -> AssociatedPlaneGraph:
    """A 3-vertex 0 between two crossings 1 and 2, on two triangles, with
    its third face a quadrilateral. Valid 1-plane drawings of simple
    graphs cannot be crossing-minimal with this pattern; this embedding
    is not even simple after straightening (which is fine: diagnostics
    run on any embedding)."""
    rot = {
        0: [1, 3, 2],
        1: [3, 0, 4, 5],   # false, crossing pairs {3, 4} and {0, 5}
        2: [4, 0, 3, 6],   # false, crossing pairs {4, 3} and {0, 6}
        3: [0, 1, 2],
        4: [1, 2],
        5: [1],
        6: [2],
    }
    return _built(rot, {1, 2}, check=False)


def doubly_triangular_gadget() -> AssociatedPlaneGraph:
    """A crossing 0 whose edge to the 3-vertex 1 lies on two triangles.
    This drawing is valid, only not crossing-minimal."""
    rot = {
        0: [1, 2, 4, 3],   # false, crossing pairs {1, 4} and {2, 3}
        1: [2, 0, 3],
        2: [0, 1],
        3: [1, 0],
        4: [0],
    }
    return _built(rot, {0})


def encircled_gadget() -> AssociatedPlaneGraph:
    """A true 4-vertex 0 surrounded by four false triangles.

    Straightening forces two parallel edges between vertices 2 and 4,
    so this drawing is intentionally invalid; it exists to trip the
    diagnostics."""
    rot = {
        0: [1, 2, 3, 4],
        1: [0, 4, 5, 2],   # false, crossing pairs {0, 5} and {4, 2}
        2: [0, 1, 3],
        3: [0, 2, 6, 4],   # false, crossing pairs {0, 6} and {2, 4}
        4: [0, 3, 1],
        5: [1],
        6: [3],
    }
    return _built(rot, {1, 3}, check=False)
