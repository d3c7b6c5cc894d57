"""Eventual positivity and irreducibility analysis for operator semigroups.

The package decides, with certificates where possible and sampled
evidence where not, whether a one-parameter operator family is
positive, eventually positive, or neither; whether it is irreducible,
and whether irreducibility persists for the tail family; and how those
properties behave under positive perturbations and coupling.
"""

__version__ = "0.1.0"

from .errors import (
    CertificateMissing,
    ConsistencyViolation,
    DepthExceeded,
    EvposError,
    InputError,
    NoConvergence,
    NotInIdeal,
    PremiseViolation,
    QuadratureBudgetExceeded,
    ShiftNotOnGrid,
    TransferViolation,
    WitnessSearchFailure,
)
from .gammashift import GammaShiftProvider, Grid1D, GridFunction
from .irreducibility import (
    IRREDUCIBLE_NOT_PERSISTENT,
    PERSISTENTLY_IRREDUCIBLE,
    REDUCIBLE,
    IrreducibilityReport,
    classify,
)
from .lattice import IdealMask
from .perturbation import (
    CoordinateFunctional,
    CoupledProvider,
    CoupledSystem,
    DenseCoupling,
    DysonPhillipsResult,
    GridFunctional,
    ProductVector,
    RankOneCoupling,
    coupling_irreducibility_check,
    coupling_premise_check,
    domination_check,
    dyson_phillips_sum,
    invariance_transfer_check,
)
from .positivity import (
    PositivityClass,
    PositivityVerdict,
    SpectralCertificate,
    approximate_from_below,
    certify_eventual_strong_positivity,
    classify_on_grid,
    nonempty_spectrum_construction,
    spectral_certificate,
    spr_lower_bound_check,
)
from .presets import PRESETS, run_coupled_demo, run_matrix_demo, run_shift_demo
from .semigroup import (
    MatrixSemigroup,
    SemigroupProvider,
    TimeGrid,
    demo_eigensystem,
    demo_generator,
    expm,
    matrix_power_formula_check,
)
from .spectral import (
    ProjectionReport,
    algebraic_simplicity_test,
    dominant_projection,
    mean_ergodic_projection,
)
from .stepfun import (
    PiecewiseConstantFn,
    ShiftStepProvider,
    irreducibility_witness_search,
    pairing,
    rademacher,
    shift_apply,
    vanishing_time,
    walsh,
)

__all__ = [
    "__version__",
    # errors
    "CertificateMissing",
    "ConsistencyViolation",
    "DepthExceeded",
    "EvposError",
    "InputError",
    "NoConvergence",
    "NotInIdeal",
    "PremiseViolation",
    "QuadratureBudgetExceeded",
    "ShiftNotOnGrid",
    "TransferViolation",
    "WitnessSearchFailure",
    # carriers and providers
    "GammaShiftProvider",
    "Grid1D",
    "GridFunction",
    "IdealMask",
    "MatrixSemigroup",
    "PiecewiseConstantFn",
    "SemigroupProvider",
    "ShiftStepProvider",
    "TimeGrid",
    # positivity
    "PositivityClass",
    "PositivityVerdict",
    "SpectralCertificate",
    "approximate_from_below",
    "certify_eventual_strong_positivity",
    "classify_on_grid",
    "nonempty_spectrum_construction",
    "spectral_certificate",
    "spr_lower_bound_check",
    # irreducibility
    "IRREDUCIBLE_NOT_PERSISTENT",
    "PERSISTENTLY_IRREDUCIBLE",
    "REDUCIBLE",
    "IrreducibilityReport",
    "classify",
    # spectral structure
    "ProjectionReport",
    "algebraic_simplicity_test",
    "dominant_projection",
    "mean_ergodic_projection",
    # perturbation and coupling
    "CoordinateFunctional",
    "CoupledProvider",
    "CoupledSystem",
    "DenseCoupling",
    "DysonPhillipsResult",
    "GridFunctional",
    "ProductVector",
    "RankOneCoupling",
    "coupling_irreducibility_check",
    "coupling_premise_check",
    "domination_check",
    "dyson_phillips_sum",
    "invariance_transfer_check",
    # exact step functions
    "irreducibility_witness_search",
    "pairing",
    "rademacher",
    "shift_apply",
    "vanishing_time",
    "walsh",
    # demos
    "PRESETS",
    "demo_eigensystem",
    "demo_generator",
    "expm",
    "matrix_power_formula_check",
    "run_coupled_demo",
    "run_matrix_demo",
    "run_shift_demo",
]
