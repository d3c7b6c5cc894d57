"""Scripted demonstration systems with end-to-end verification suites.

Three presets ship with the package, keyed by the names the command
line accepts:

* ``ex5_2`` -- the 3x3 showcase generator with known eigenstructure:
  power formula, third row/column positivity, the strong-positivity
  certificate, the rank-one projection, and the domination family.
* ``ex3_10`` -- the exact-rational nilpotent shift on step functions:
  orthonormal systems, pairing values, nilpotency at time one, and the
  exact irreducibility witness scan.
* ``ex5_6`` -- the coupled system tying the showcase matrix to the
  smoothing/left-shift grid family through one integral window and one
  coordinate window, with four documented claims.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InputError, check_tol
from .gammashift import GammaShiftProvider, Grid1D, GridFunction
from .irreducibility import PERSISTENTLY_IRREDUCIBLE, classify
from .perturbation import (
    CoordinateFunctional,
    CoupledProvider,
    CoupledSystem,
    GridFunctional,
    ProductVector,
    RankOneCoupling,
    coupling_irreducibility_check,
    coupling_premise_check,
    domination_check,
)
from .positivity import PositivityClass, certify_eventual_strong_positivity
from .semigroup import (
    MAX_GRID_POINTS,
    MatrixSemigroup,
    demo_eigensystem,
    demo_generator,
    expm,
    matrix_power_formula_check,
)
from .spectral import dominant_projection
from .stepfun import (
    ShiftStepProvider,
    check_depth,
    irreducibility_witness_search,
    pairing,
    rademacher,
    shift_apply,
    walsh,
)


@dataclass(frozen=True)
class CheckResult:
    """One named verification step inside a preset suite."""

    name: str
    passed: bool
    must_pass: bool = True
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PresetReport:
    preset: str
    ok: bool
    checks: tuple
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "preset": self.preset,
            "ok": self.ok,
            "notes": self.notes,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "must_pass": c.must_pass,
                    "details": c.details,
                }
                for c in self.checks
            ],
        }


def _finish(preset: str, checks: list, notes: str = "") -> PresetReport:
    ok = all(c.passed for c in checks if c.must_pass)
    return PresetReport(preset=preset, ok=ok, checks=tuple(checks), notes=notes)


# --------------------------------------------------------------------------
# ex5_2: the 3x3 showcase matrix
# --------------------------------------------------------------------------


def run_matrix_demo(tol: float = 1e-9, grid_points: int = 256, t_max: float = 20.0) -> PresetReport:
    """Full verification suite for the showcase generator."""
    check_tol(tol)
    if not 0.0 < t_max < math.inf:
        raise InputError(f"t_max must be finite and positive, got {t_max:g}")
    if not 1 <= grid_points <= MAX_GRID_POINTS:
        raise InputError(f"grid_points must lie in 1..{MAX_GRID_POINTS}, got {grid_points}")
    A = demo_generator()
    checks = []

    worst_rel = 0.0
    for n in range(1, 7):
        formula, direct = matrix_power_formula_check(n)
        scale = float(np.max(np.abs(direct)))
        worst_rel = max(worst_rel, float(np.max(np.abs(formula - direct))) / scale)
    checks.append(
        CheckResult(
            "power-formula n=1..6",
            worst_rel <= 1e-12,
            details={"max_relative_error": worst_rel},
        )
    )

    evals, U = demo_eigensystem()
    res = max(
        float(np.linalg.norm(A @ U[:, i] - evals[i] * U[:, i])) for i in range(3)
    )
    checks.append(
        CheckResult("eigenpair residuals", res <= 1e-12, details={"max_residual": res})
    )

    times = np.geomspace(t_max / 10**4, t_max, grid_points)
    edge_min = math.inf
    for E in MatrixSemigroup(A).matrices(times):
        edge_min = min(edge_min, float(np.min(E[2, :])), float(np.min(E[:, 2])))
    checks.append(
        CheckResult(
            "third row/column positivity",
            edge_min >= -1e-10,
            details={"min_entry": edge_min, "sampled_times": len(times)},
        )
    )

    cert, verdict = certify_eventual_strong_positivity(A, tol=tol)
    t0 = verdict.onset_t0
    cert_ok = (
        verdict.verdict == PositivityClass.UNIFORMLY_EVENTUALLY_STRONGLY_POSITIVE
        and verdict.certified
        and t0 is not None
    )
    rng = np.random.default_rng(20240816)
    min_past_onset = math.inf
    if cert_ok:
        for t in t0 + rng.uniform(0.0, t_max, size=50):
            min_past_onset = min(min_past_onset, float(np.min(expm(A, float(t)))))
    checks.append(
        CheckResult(
            "strong-positivity certificate",
            cert_ok and min_past_onset > 0.0,
            details={
                "class": verdict.verdict.value,
                "onset_t0": t0,
                "min_entry_past_onset": min_past_onset,
            },
        )
    )

    target = np.ones((3, 3)) / 3.0
    drift = float(np.max(np.abs(expm(A - 9.0 * np.eye(3), 20.0) - target)))
    checks.append(
        CheckResult(
            "rescaled limit at t=20",
            drift <= 1e-6,
            details={"max_abs_deviation": drift},
        )
    )

    dom_worst = math.inf
    for b in (0.0, 1.0, 5.0):
        rep = domination_check(A, np.diag([0.0, 0.0, b]), tol=tol)
        dom_worst = min(dom_worst, rep.conclusion_min)
    checks.append(
        CheckResult(
            "domination family b in {0,1,5}",
            dom_worst >= -1e-9,
            details={"min_difference_entry": dom_worst},
        )
    )

    irr = classify(A=A)
    checks.append(
        CheckResult(
            "persistent irreducibility",
            irr.classification == PERSISTENTLY_IRREDUCIBLE
            and irr.evidence_mode == "certified",
            details={"classification": irr.classification, "mode": irr.evidence_mode},
        )
    )

    proj = dominant_projection(A, expect_positive_eigenvectors=True, certificate=cert)
    perr = float(np.max(np.abs(proj.projection - target)))
    checks.append(
        CheckResult(
            "rank-one projection",
            perr <= 1e-10 and max(proj.residuals.values()) <= 1e-8,
            details={"projection_error": perr, "residuals": dict(proj.residuals)},
        )
    )

    return _finish("ex5_2", checks)


# --------------------------------------------------------------------------
# ex3_10: nilpotent shift on exact step functions
# --------------------------------------------------------------------------


def run_shift_demo(depth: int = 8) -> PresetReport:
    """Exact-arithmetic suite for the nilpotent shift family."""
    check_depth(depth)
    checks = []

    r1 = rademacher(1)
    fourth = Fraction(1, 4)
    checks.append(
        CheckResult(
            "first sign function",
            r1.value_at(fourth) == 1 and r1.value_at(Fraction(3, 4)) == -1,
            details={"left": str(r1.value_at(fourth)), "right": str(r1.value_at(Fraction(3, 4)))},
        )
    )

    ortho_ok = all(
        pairing(i, j, 0) == (1 if i == j else 0) for i in range(1, 7) for j in range(1, 7)
    )
    checks.append(CheckResult("sign-function orthonormality", ortho_ok))

    w3 = walsh(3)
    prod = rademacher(1).product(rademacher(2))
    checks.append(
        CheckResult(
            "product structure of index 3",
            w3 == prod and set(w3.values) <= {1, -1} and w3.integral() == 0,
            details={"integral": str(w3.integral())},
        )
    )

    f = rademacher(2)
    law_ok = shift_apply(shift_apply(f, Fraction(1, 4)), Fraction(1, 4)) == shift_apply(
        f, Fraction(1, 2)
    )
    checks.append(CheckResult("composition law at quarter steps", law_ok))

    nil_ok = all(
        pairing(k, j, 1) == 0 for k in range(1, 5) for j in range(1, 5)
    )
    checks.append(
        CheckResult(
            "nilpotency at t=1",
            nil_ok,
            details={"pairs": 16},
        )
    )

    witnesses = {}
    witness_ok = True
    for k in range(1, 5):
        for j in range(1, 5):
            found = None
            for d in range(depth, max(depth, 10) + 1):
                found = irreducibility_witness_search(k, j, d)
                if found is not None:
                    break
            witnesses[f"{k},{j}"] = None if found is None else str(found)
            if k != j and found is None:
                witness_ok = False
    checks.append(
        CheckResult(
            "exact pairing witnesses in (0,1)",
            witness_ok,
            details={"witnesses": witnesses},
        )
    )

    quarter = pairing(1, 1, Fraction(1, 4))
    checks.append(
        CheckResult(
            "quarter-shift self pairing",
            quarter == Fraction(1, 4),
            details={"value": str(quarter)},
        )
    )

    rep = classify(ShiftStepProvider(depth=depth))
    checks.append(
        CheckResult(
            "classification",
            rep.classification == "IrreducibleNotPersistent",
            details={"classification": rep.classification, "mode": rep.evidence_mode},
        )
    )

    return _finish("ex3_10", checks)


# --------------------------------------------------------------------------
# ex5_6: matrix coupled to the smoothing/left-shift grid family
# --------------------------------------------------------------------------


def coupled_demo_system(L: float = 6.0, h: float = 0.125) -> CoupledSystem:
    """The two-carrier demonstration system on a window [-L, L].

    The first carrier runs the showcase matrix; the second carrier runs
    the smoothing/left-shift family on the grid.  The couplings are a
    coordinate feed z -> z_3 * indicator([1,2]) into the grid and an
    integral window f -> (integral over [-2,-1]) * e_3 back into the
    matrix carrier.
    """
    if not 4.0 <= L < math.inf:
        raise InputError("window half-length must be finite and at least 4")
    if not 0.0 < h < math.inf:
        raise InputError(f"cell width must be finite and positive, got {h:g}")
    cells_per_unit = 1.0 / h
    if abs(cells_per_unit - round(cells_per_unit)) > 1e-12:
        raise InputError("cell width must divide 1")
    count = int(round(2 * L / h))
    if count > MAX_GRID_POINTS:
        raise InputError(
            f"window [-{L:g}, {L:g}] at cell width {h:g} has {count} cells, "
            f"past the cap {MAX_GRID_POINTS}"
        )
    grid = Grid1D(x_min=-L, h=h, count=count)
    provider1 = MatrixSemigroup(demo_generator())
    provider2 = GammaShiftProvider(grid)
    b21 = RankOneCoupling(
        output=GridFunction.indicator(grid, 1.0, 2.0),
        functional=CoordinateFunctional(2, 3),
    )
    b12 = RankOneCoupling(
        output=np.array([0.0, 0.0, 1.0]),
        functional=GridFunctional(grid, -2.0, -1.0),
    )
    return CoupledSystem(provider1, provider2, b12, b21)


def lattice_steps(t_max: float, h: float) -> int:
    """The number of whole steps h up to t_max, refused below one step with InputError."""
    if not 0.0 < t_max < math.inf or round(t_max / h) < 1:
        raise InputError(f"t_max must be finite and reach the first step h = {h:g}")
    return int(round(t_max / h))


def run_coupled_demo(
    L: float = 6.0,
    h: float = 0.125,
    t_max: float = 4.0,
    tol: float = 1e-9,
) -> PresetReport:
    """Verify the four documented claims of the coupled demonstration.

    (1) both mixed premise families are positive on samples; (2) the
    first component of the coupled orbit of (z, 0) matches the plain
    matrix flow for t < 2 and is genuinely negative somewhere, so the
    coupled family is not positive; (3) the second component's support
    floor stays at or right of the cell containing 1 - t (any cell once
    1 - t has left the window), by integer bookkeeping, so no orbit value
    is quasi-interior; (4) sampled coupled operators act positively on
    positive seeds for large times (grid-limited evidence).  Orbits come
    from the lattice renewal equation, which sums every series term, in
    sweeps that announce their last step (CoupledProvider.orbit): claim 2
    sweeps to the last step before t = 2, claims 3 and 4 to t_max/h, and
    a sweep past the node budget or the double range of the matrix flow
    is refused before the first sample.
    """
    check_tol(tol)
    system = coupled_demo_system(L=L, h=h)
    q_max = lattice_steps(t_max, h)
    provider = CoupledProvider(system)
    grid = system.provider2.grid
    # claim 3's sweep to the last step, refused here before any claim's work
    seed3 = ProductVector(np.ones(3), system.provider2.zero_vector())
    fronts_sweep = provider.orbit([seed3], q_max)
    checks = []

    premise = coupling_premise_check(system, tol=tol)
    checks.append(
        CheckResult(
            "claim 1: premise positivity",
            premise.ok,
            details={
                "min_entry": premise.min_entry,
                "pairs_checked": premise.pairs_checked,
            },
        )
    )

    # claim 2 -- identity of the first component below the travel time.
    # The grid feed is born at the cell of x = 1 and moves left one cell
    # per step, while the window read back into the matrix carrier ends
    # at the cell of x = -1; integer support accounting therefore forces
    # every matrix-bound return term to vanish until the travel time 2.
    birth_cell = system.b21.output.support_lo
    window_hi = system.b12.functional._cells[1]  # first cell past the window
    n1 = system.dim1
    z = np.array([0.0, 1.0, 0.0])
    seed = ProductVector(z, system.provider2.zero_vector())
    q_lt2 = [q for q in range(1, int(round(t_max / h)) + 1) if q * h < 2.0]
    times = [q * h for q in q_lt2]
    first_comp_dev = 0.0
    sweep = provider.orbit([seed], len(q_lt2))
    for (values, gaps, floors), flow in zip(sweep, system.provider1.matrices(times)):
        first_comp_dev = max(first_comp_dev, float(np.max(np.abs(values[0, :n1] - flow @ z))))
    # the quadrature gauge of the sweep's last value
    gauge = provider.vec_norm(provider.unstack(gaps[0], floors[0]))
    travel_ok = birth_cell - max(q_lt2) >= window_hi
    t_neg = 0.01
    shift_cells = math.ceil(t_neg / h)
    neg_legit = birth_cell - shift_cells >= window_hi
    neg_entry = float((expm(demo_generator(), t_neg) @ z)[0])
    checks.append(
        CheckResult(
            "claim 2: first-component identity and negativity",
            first_comp_dev <= max(tol, gauge)
            and travel_ok
            and neg_legit
            and neg_entry < -1e-6,
            details={
                "max_first_component_deviation": first_comp_dev,
                "negative_entry_at_t=0.01": neg_entry,
                "support_argument": {
                    "birth_cell": int(birth_cell),
                    "window_end_cell": int(window_hi),
                    "max_shift_cells_below_2": max(q_lt2),
                },
            },
        )
    )

    # claim 3 -- support confinement of the second component.
    support_ok = True
    fronts = []
    for q, (_, _, floors) in enumerate(fronts_sweep, 1):
        t = q * h
        support_lo = int(floors[0, 1])
        # past t = L + 1 the front 1 - t has left the window: every cell qualifies
        floor_cell = grid.cell_of(1.0 - t) if 1.0 - t >= grid.x_min else 0
        fronts.append({"t": t, "support_lo": support_lo, "required_cell": int(floor_cell)})
        if support_lo < floor_cell:
            support_ok = False
    checks.append(
        CheckResult(
            "claim 3: support confinement (never quasi-interior)",
            support_ok,
            details={"front_samples": fronts[:4] + fronts[-2:], "samples": len(fronts)},
        )
    )

    # structural bonus recorded with claim 3: below the travel time the
    # second-order term vanishes identically, so the series terminates.
    # Sampled at a quarter of t_max or at the last step before t = 2,
    # whichever comes first.
    small_q = max(1, min(q_max // 4, max(q_lt2)))
    alive = provider.terms_alive(seed, small_q * h)
    checks.append(
        CheckResult(
            "second-order term vanishes below the travel time",
            alive is not None and alive <= 2,
            details={"terms_alive": alive, "t": small_q * h},
        )
    )

    # claim 4 -- grid-limited evidence of eventual positivity on seeds,
    # swept as one block: row s of each step is the orbit of seed s.
    seeds = provider.default_test_vectors()
    last_bad = [None] * len(seeds)
    for q, (values, _, _) in enumerate(provider.orbit(seeds, q_max), 1):
        mins = [(float(np.min(row[:n1])), float(np.min(row[n1:]))) for row in values]
        for s, (m1, m2) in enumerate(mins):
            if min(m1, m2) < -max(tol, 1e-12):
                last_bad[s] = q * h
    evidence = []
    claim4_ok = True
    for vi, bad in enumerate(last_bad):
        onset = 0.0 if bad is None else bad + h
        if onset >= q_max * h:
            claim4_ok = False
        evidence.append({"seed": vi, "sampled_onset": onset, "final_min_entries": mins[vi]})
    checks.append(
        CheckResult(
            "claim 4: eventual positivity on seeds (evidence)",
            claim4_ok,
            must_pass=False,
            details={"evidence": evidence},
        )
    )

    irr = coupling_irreducibility_check(system, tol=tol)
    checks.append(
        CheckResult(
            "coupled irreducibility witnesses",
            irr.asserted,
            must_pass=False,
            details={
                "sub_classifications": list(irr.sub_classifications),
                "witness_12": irr.witness_12,
                "witness_21": irr.witness_21,
            },
        )
    )

    notes = (
        f"grid [-{L}, {L}] with {grid.count} cells of width {h}; orbits "
        "solve the lattice renewal equation, which sums every series term "
        "(no truncation tail); claims 2 and 3 rest on exact integer support "
        "accounting"
    )
    return _finish("ex5_6", checks, notes)


PRESETS = {
    "ex5_2": run_matrix_demo,
    "ex3_10": run_shift_demo,
    "ex5_6": run_coupled_demo,
}
