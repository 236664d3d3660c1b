"""Model 1-plane graph drawings, find their guaranteed light edges, and
run an exact-rational discharging argument as an auditable ledger."""

from .audit import AuditReport, audit
from .discharging import (
    SpecialFace,
    Transfer,
    apply_discharging,
    find_special_faces,
    initial_charges,
    ledger_lines,
)
from .embedding import (
    Disconnected,
    MalformedRotation,
    NotPlane,
    PlaneEmbedding,
    build_embedding,
    euler_characteristic,
)
from .generators import (
    GenerationFailed,
    GeneratorParams,
    NotQuadrangulation,
    UnknownCatalogName,
    catalog,
    catalog_names,
    quadrangulation_diagonals,
    random_oneplane,
)
from .lightedge import (
    BOUNDS,
    LightEdgeWitness,
    check_light_edge_guarantee,
    classify_edge,
    find_light_edges,
)
from .oneplanar import (
    AssociatedPlaneGraph,
    OriginalGraphView,
    RecoveredMultiEdge,
    build_drawing,
    crossing_corners,
    drawing_diagnostics,
    is_false_triangle,
    recover_original,
    validate,
)

__version__ = "0.1.0"
