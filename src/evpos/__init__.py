"""Eventual positivity and irreducibility analysis for operator semigroups.

The package decides, with certificates where possible and sampled
evidence where not, whether a one-parameter operator family is
positive, eventually positive, or neither; whether it is irreducible,
and whether irreducibility persists for the tail family; and how those
properties behave under positive perturbations and coupling.

Importing the package loads no submodule.  Each public name below is
imported with the submodule that defines it on first access (PEP 562),
so ``import evpos.cli`` and an ``analyze`` run load the matrix modules
only, and the lattice modules (``perturbation``, ``presets``,
``gammashift``, ``stepfun``) load when a name from them is first used.
"""

import importlib

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_EXPORTS = {
    "errors": (
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
    ),
    "gammashift": ("GammaShiftProvider", "Grid1D", "GridFunction"),
    "lattice": ("IdealMask",),
    "semigroup": (
        "MatrixSemigroup",
        "SemigroupProvider",
        "TimeGrid",
        "demo_eigensystem",
        "demo_generator",
        "expm",
        "matrix_power_formula_check",
    ),
    "positivity": (
        "PositivityClass",
        "PositivityVerdict",
        "SpectralCertificate",
        "approximate_from_below",
        "certify_eventual_strong_positivity",
        "classify_on_grid",
        "nonempty_spectrum_construction",
        "spectral_certificate",
        "spr_lower_bound_check",
    ),
    "irreducibility": (
        "IRREDUCIBLE_NOT_PERSISTENT",
        "PERSISTENTLY_IRREDUCIBLE",
        "REDUCIBLE",
        "IrreducibilityReport",
        "classify",
    ),
    "spectral": (
        "ProjectionReport",
        "algebraic_simplicity_test",
        "dominant_projection",
        "mean_ergodic_projection",
    ),
    "perturbation": (
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
    ),
    "stepfun": (
        "PiecewiseConstantFn",
        "ShiftStepProvider",
        "irreducibility_witness_search",
        "pairing",
        "rademacher",
        "shift_apply",
        "vanishing_time",
        "walsh",
    ),
    "presets": ("PRESETS", "run_coupled_demo", "run_matrix_demo", "run_shift_demo"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_OWNER]


def __getattr__(name):
    """Import the public `name` from its submodule and keep it here."""
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
