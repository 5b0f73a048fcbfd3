"""Boundary behavior of two-variable Schur-class functions.

Finite-dimensional realizations (colligations), carapoint detection,
desingularized generalized models, slope functions with their three
equivalent representations, synthesis of Schur functions with prescribed
boundary derivatives, and two-variable Nevanlinna representations through a
self-adjoint resolvent.
"""

__version__ = "0.1.0"

from .boundary import (
    is_carapoint,
    model_liminf,
    nontangential_value,
    radial_liminf,
)
from .colligation import (
    Colligation,
    eval_phi,
    model_residual,
    model_vector,
    unitary_extension,
)
from .desingularize import (
    GeneralizedRealization,
    desingularize,
    eval_I,
    eval_phi_gen,
    quadrature_log_check,
    u_vector,
)
from .errors import (
    BischurError,
    BoundarySingularityError,
    DivergenceError,
    DomainError,
    IllConditionedError,
    InternalInconsistencyError,
    InvalidInputError,
    NoLimitError,
    NoSolutionError,
    NotAnIsometryError,
    NotSlopeTypeError,
    ObstructionError,
    PoleError,
    PreconditionError,
    SchemaError,
    UseLimitError,
)
from .linalg import (
    DEFAULT_TOLERANCES,
    Tolerances,
    min_norm_solve,
    null_space,
    structure_check,
)
from .nev2d import (
    TwoVarNevRep,
    carapoint_at_infinity,
    eval_h2,
    pick_value_from_schur,
    rep_from_schur,
    schur_value_from_pick,
    to_bidisc,
)
from .representations import (
    DiscreteMeasure01,
    NevanlinnaData,
    h_from_measure,
    h_from_nevanlinna,
    measure_from_nevanlinna,
    nevanlinna_from_measure,
    stieltjes_recover,
)
from .slope import (
    SlopePair,
    derivative_checks,
    directional_derivative_analytic,
    directional_derivative_numeric,
    pick_check,
    slope_eval,
    slope_measure,
)
from .synthesis import (
    SynthesizedSchur,
    fit_colligation,
    herglotz_component,
    synth_eval,
    verify_carapoint,
    verify_slope,
)
