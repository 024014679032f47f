"""Exact arithmetic for real tropical cones and tropical Metzler
spectrahedra: game-graph operators, structural transformations, pencil
synthesis, and polyhedral frontends."""

from .errors import (
    DimensionMismatch,
    EmptyBelow,
    MalformedInput,
    NonStochastic,
    NotCompliant,
    PreconditionViolated,
    TooManyDigits,
    TropconeError,
    ValidationFailed,
)
from .graph import (
    Edge,
    GameGraph,
    MinMaxOperator,
    absorption,
    check_stochastic,
    eval_operator,
    graph_from_minmax,
    is_compliant,
    minmax_eval,
    subfixed,
    validate_graph,
)
from .lp import (
    PolyhedralUnion,
    eval_F_from_polyhedra,
    lp_max,
    tropical_convexity_falsifier,
    union_from_minmax,
    union_member,
)
from .pencil import (
    MetzlerPencil,
    ProjectedPencil,
    TropPointSet,
    affine_envelope,
    pencil_from_generators,
    pencil_member,
    synthesize_cone,
)
from .scalars import NEG_INF, SignedTrop, Trop
from .transforms import (
    WitnessMap,
    first_transformation,
    pipeline,
    second_transformation,
    zwick_paterson,
)
from .verify import VerificationReport, verify_graph

__all__ = [name for name in dir() if not name.startswith("_")]
