"""Light-edge classification and the guarantee check.

An edge is light when the degrees of its endpoints, taken in the
recovered original graph, fall inside one of the bounded degree types of
a bound table. The default table, `BOUNDS`, is the theorem's: every
valid drawing of a simple graph with minimum degree 3 has an edge of
type (3, <=23), (4, <=11), (5, <=9), (6, <=8) or (7, 7). A caller may
pass another table, such as a lowered one; its least key is the minimum
degree its guarantee assumes.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from .oneplanar import AssociatedPlaneGraph, OriginalGraphView, recover_original

# Smaller endpoint degree -> largest allowed partner degree.
BOUNDS: Mapping[int, int] = {3: 23, 4: 11, 5: 9, 6: 8, 7: 7}

# With no light edge, every neighbor of a k-vertex has degree at least
# HEAVY[k]. The discharging rules' degree bands and the audit's degree
# gates are these numbers.
HEAVY: Mapping[int, int] = {k: b + 1 for k, b in BOUNDS.items()}


def classify_edge(a: int, b: int, bounds: Mapping[int, int] = BOUNDS) -> str | None:
    """Light type of an edge with endpoint degrees a and b, or None.

    The type is tagged by its smaller endpoint degree, as "T3" to "T7".
    Order-insensitive. When several types would match, the one tagged by
    the smaller endpoint degree wins.
    """
    if a < 1 or b < 1:
        raise ValueError("degrees must be positive")
    lo, hi = min(a, b), max(a, b)
    bound = bounds.get(lo)
    if bound is not None and hi <= bound:
        return f"T{lo}"
    return None


@dataclass(frozen=True, slots=True)
class LightEdgeWitness:
    edge: tuple[int, int]
    degrees: tuple[int, int]
    light_type: str


def find_light_edges(
    view: OriginalGraphView, bounds: Mapping[int, int] = BOUNDS
) -> list[LightEdgeWitness]:
    """All light edges of the recovered graph, sorted by the smaller
    endpoint degree, as a number (so T3 comes before T10), then by edge."""
    deg = view.degrees
    # (least degree, edge, degrees, type) per light edge, sorted before
    # the records are built; edges are unique, so the sort never
    # compares the degrees or the type
    found = []
    # light type per distinct (degree, degree) pair, classified once
    types: dict[tuple[int, int], str | None] = {}
    for edge in view.edges:
        a, b = edge
        degrees = (deg[a], deg[b])
        try:
            tag = types[degrees]
        except KeyError:
            tag = types[degrees] = classify_edge(*degrees, bounds)
        if tag is not None:
            found.append((min(degrees), edge, degrees, tag))
    found.sort()
    return [LightEdgeWitness(edge, degrees, tag) for _, edge, degrees, tag in found]


WITNESS_FOUND = "witness-found"
HYPOTHESIS_UNMET = "hypothesis-unmet"
COUNTEREXAMPLE_CANDIDATE = "counterexample-candidate"


@dataclass(frozen=True)
class GuaranteeVerdict:
    """Outcome of searching a valid drawing for its guaranteed light edge.

    `light_edges` lists every light edge of the recovered graph, as
    `find_light_edges` orders them, whatever the status; `witness` is
    the first of them when the status is witness-found, else None.
    Under `BOUNDS`, `counterexample-candidate` never occurs for a valid
    drawing of a minimum-degree-3 graph.
    """

    status: str
    min_degree: int
    light_edges: tuple[LightEdgeWitness, ...] = ()

    @property
    def witness(self) -> LightEdgeWitness | None:
        return self.light_edges[0] if self.status == WITNESS_FOUND else None


def check_light_edge_guarantee(
    g: AssociatedPlaneGraph, bounds: Mapping[int, int] = BOUNDS
) -> GuaranteeVerdict:
    """Search for a guaranteed light edge in a valid drawing.

    Requires the recovered graph's minimum degree to be at least the
    least key of `bounds` (3 under `BOUNDS`); anything lower is reported
    as hypothesis-unmet, with no witness.
    The edges are classified once, for the witness and `light_edges`.
    """
    view = recover_original(g)
    min_degree = view.min_degree()
    witnesses = tuple(find_light_edges(view, bounds))
    if min_degree < min(bounds):
        return GuaranteeVerdict(HYPOTHESIS_UNMET, min_degree, witnesses)
    if witnesses:
        return GuaranteeVerdict(WITNESS_FOUND, min_degree, witnesses)
    return GuaranteeVerdict(COUNTEREXAMPLE_CANDIDATE, min_degree)
