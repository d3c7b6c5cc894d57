"""Acceptance gate: the eleven headline claims, one test per criterion.

Each test prints exactly one ``criterion NN PASS/FAIL`` line (visible
with ``pytest -s`` or in the captured output of a failing run) and
asserts the claim at its stated tolerance.  The per-module test files
carry the broader invariant suites; criterion 11 runs a curated
cross-module bundle of those invariants in one place.
"""

import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from evpos import (
    CoupledProvider,
    MatrixSemigroup,
    ProductVector,
    algebraic_simplicity_test,
    approximate_from_below,
    certify_eventual_strong_positivity,
    demo_eigensystem,
    demo_generator,
    dominant_projection,
    domination_check,
    dyson_phillips_sum,
    expm,
    irreducibility_witness_search,
    matrix_power_formula_check,
    mean_ergodic_projection,
    pairing,
)
from evpos.gammashift import GammaShiftProvider, Grid1D
from evpos.irreducibility import (
    build_super_fixed_vector,
    enumerate_invariant_ideals,
    eventual_invariance_of_principal_ideal,
    weak_conditions_test,
)
from evpos.positivity import spr_lower_bound_check
from evpos.presets import coupled_demo_system
from evpos.stepfun import ShiftStepProvider
from brute_oracles import brute_force_ideals
from sampled_oracles import sampled_conditions_table


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} FAIL: {desc}")
        raise
    print(f"criterion {num:02d} PASS: {desc}")


def coupled_provider():
    system = coupled_demo_system(L=6.0, h=0.125)
    return system, CoupledProvider(system)


def test_criterion_01_power_formula_and_eigenpairs():
    with criterion(1, "closed-form matrix powers and eigenpairs are exact"):
        for n in range(1, 7):
            formula, direct = matrix_power_formula_check(n)
            scale = float(np.max(np.abs(direct)))
            assert np.max(np.abs(formula - direct)) <= 1e-12 * scale
        A = demo_generator()
        evals, U = demo_eigensystem()
        assert np.allclose(evals, [0.0, 8.0, 9.0], atol=1e-12)
        for i in range(3):
            residual = np.max(np.abs(A @ U[:, i] - evals[i] * U[:, i]))
            assert residual <= 1e-12


def test_criterion_02_third_row_and_column_nonnegative():
    with criterion(2, "third row/column of the showcase flow stays nonnegative"):
        A = demo_generator()
        worst = np.inf
        for t in np.geomspace(20.0 / 1e4, 20.0, 256):
            E = expm(A, float(t))
            worst = min(worst, float(np.min(E[2, :])), float(np.min(E[:, 2])))
        assert worst >= -1e-10


def test_criterion_03_certified_onset_and_rescaled_limit():
    with criterion(3, "certified onset gives strict positivity; rescaled limit hit"):
        A = demo_generator()
        _cert, verdict = certify_eventual_strong_positivity(A)
        t0 = verdict.onset_t0
        assert verdict.certified and t0 is not None
        rng = np.random.default_rng(20260816)
        for t in t0 + rng.uniform(0.0, 20.0, size=50):
            assert float(np.min(expm(A, float(t)))) > 0.0
        target = np.ones((3, 3)) / 3.0
        dist = np.max(np.abs(math.exp(-9.0 * 20.0) * expm(A, 20.0) - target))
        assert dist <= 1e-6


def test_criterion_04_diagonal_feedback_domination():
    with criterion(4, "diagonal feedback dominates the unperturbed flow"):
        A = demo_generator()
        for b in (0.0, 1.0, 5.0):
            rep = domination_check(A, np.diag([0.0, 0.0, b]))
            assert rep.premise_min >= -1e-9
            assert rep.conclusion_min >= -1e-9


def test_criterion_05_series_matches_perturbed_exponential():
    with criterion(5, "perturbation series equals the perturbed flow within tail"):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            A = rng.normal(size=(n, n))
            A *= 2.0 / max(np.linalg.norm(A, 2), 1e-9)
            B = rng.normal(size=(n, n))
            B *= 2.0 / max(np.linalg.norm(B, 2), 1e-9)
            prov = MatrixSemigroup(A)
            for t in (0.5, 1.0, 2.0):
                res = dyson_phillips_sum(prov, B, t)
                assert res.tail_bound <= 1e-8  # finite, and a bound with content
                err = float(np.linalg.norm(res.total - expm(A + B, t), 2))
                assert err <= res.tail_bound + 1e-8


def test_criterion_06_ideal_enumeration_routes_agree():
    with criterion(6, "brute-force and graph ideal enumeration agree"):
        rng = np.random.default_rng(6)
        mismatches = 0
        for _ in range(200):
            n = int(rng.integers(2, 9))
            A = (rng.random((n, n)) < 0.35) * rng.uniform(0.5, 3.0, size=(n, n))
            np.fill_diagonal(A, rng.uniform(-2.0, 2.0, size=n))
            brute = [m.sorted_members() for m in brute_force_ideals(A)]
            graph = [m.sorted_members() for m in enumerate_invariant_ideals(A)]
            if brute != graph:
                mismatches += 1
        assert mismatches == 0


def test_criterion_07_exact_nilpotency_and_witnesses():
    with criterion(7, "step-function flow: exact vanishing at 1, witnesses below"):
        for k in range(1, 5):
            for j in range(1, 5):
                value = pairing(k, j, Fraction(1))
                assert value == 0
        for k in range(1, 5):
            for j in range(1, 5):
                if k == j:
                    continue
                t = irreducibility_witness_search(k, j, 10)
                assert isinstance(t, Fraction)
                assert 0 < t < 1
                assert pairing(k, j, t) != 0


def test_criterion_08_support_confinement():
    with criterion(8, "coupled orbit support never crosses the moving front"):
        system, provider = coupled_provider()
        grid = system.provider2.grid
        seed = ProductVector(np.ones(3), system.provider2.zero_vector())
        for q in range(1, 33):
            t = q * 0.125
            out = provider.apply(t, seed)
            support_lo = out.second.support_lo
            floor_cell = grid.cell_of(1.0 - t)
            assert isinstance(support_lo, int) and isinstance(floor_cell, int)
            assert support_lo >= floor_cell


def test_criterion_09_first_component_identity_and_negativity():
    with criterion(9, "coupled first component follows the matrix flow, dips < 0"):
        system, provider = coupled_provider()
        A = demo_generator()
        z = np.array([0.0, 1.0, 0.0])
        seed = ProductVector(z, system.provider2.zero_vector())
        h = 0.125
        deviation = 0.0
        for q in range(1, 16):  # q * h < 2
            t = q * h
            out = provider.apply(t, seed)
            deviation = max(
                deviation, float(np.max(np.abs(out.first - expm(A, t) @ z)))
            )
        series_tol = max(1e-9, provider.series_report()["quadrature_estimate"])
        assert deviation <= series_tol
        # below one lattice step no return term exists, so the first
        # component at t = 0.01 is the plain matrix flow
        birth_cell = system.b21.output.support_lo
        window_hi = system.b12.functional._cells[1]
        assert birth_cell - math.ceil(0.01 / h) >= window_hi
        neg_entry = float((expm(A, 0.01) @ z)[0])
        assert neg_entry < -1e-6


def test_criterion_10_spectral_suite():
    with criterion(10, "simplicity test, projection residuals, long-run means"):
        jordan = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert not algebraic_simplicity_test(
            jordan, 0.0, np.array([1.0, 0.0]), np.array([0.0, 1.0])
        )
        A = demo_generator()
        u = np.ones(3) / np.sqrt(3.0)
        assert algebraic_simplicity_test(A, 9.0, u, u)

        proj = dominant_projection(A)
        assert max(proj.residuals.values()) <= 1e-8

        shifted = A - 9.0 * np.eye(3)
        ergodic = mean_ergodic_projection(shifted)
        target = np.ones((3, 3)) / 3.0
        assert np.max(np.abs(ergodic.projection - target)) <= 1e-8
        # independent long-run mean: with the exact symmetric eigensystem
        # the time average is P plus ((e^{lam T} - 1)/(lam T)) P_lam over
        # the negative eigenvalues lam of the shifted generator
        evals, U = demo_eigensystem()
        P = np.outer(U[:, 2], U[:, 2])
        for T in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0):
            C_T = P.copy()
            for i, lam in enumerate((-9.0, -1.0)):
                C_T += (np.exp(lam * T) - 1.0) / (lam * T) * np.outer(U[:, i], U[:, i])
            assert np.max(np.abs(C_T - ergodic.projection)) <= 10.0 / T


def test_criterion_11_cross_module_invariant_bundle():
    with criterion(11, "cross-module invariant bundle holds"):
        # implication diagram consistent on every carrier we ship; a
        # matrix carrier has no exact pairing support, so its table is the
        # sampled oracle's
        assert sampled_conditions_table(MatrixSemigroup(demo_generator())).diagram_consistent
        for p in (
            ShiftStepProvider(depth=4),
            GammaShiftProvider(Grid1D(x_min=-2.0, h=0.25, count=16)),
        ):
            assert weak_conditions_test(p).diagram_consistent

        # gauge bound: dominated orbits stay inside twice the ideal
        A = demo_generator() - 10.0 * np.eye(3)
        fixed = build_super_fixed_vector(A, np.ones(3))
        rep = eventual_invariance_of_principal_ideal(MatrixSemigroup(A), fixed)
        assert rep.premise_ok and rep.gauge_bound_ok
        assert rep.bound_constant == 2.0
        for _t, gauge_in, gauge_out in rep.gauge_checks:
            assert gauge_out <= 2.0 * gauge_in + 1e-9

        # pointwise lower bounds certify the spectral radius
        ones = np.ones((2, 2))
        rep_ones = spr_lower_bound_check(ones, np.ones(2), 2.0, n_max=512)
        assert abs(rep_ones.spectral_radius - 2.0) <= 1e-9 * 2.0
        T = np.array([[2.0, 1.0], [0.5, 2.0]])
        rep_strict = spr_lower_bound_check(T, np.ones(2), 2.0)
        eig_spr = float(np.max(np.abs(np.linalg.eigvals(T))))
        assert rep_strict.spectral_radius >= 2.0 * (1.0 - 1e-9)
        assert abs(rep_strict.spectral_radius - eig_spr) <= 1e-9 * eig_spr

        # resolvent-style approximations stay monotone inside [0, g]
        prov = MatrixSemigroup(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        g = np.array([1.0, 2.0])
        approx = approximate_from_below(prov, g, [1.0, 0.5, 0.25, 0.125])
        for k in range(len(approx) - 1):
            assert np.all(approx[k] <= approx[k + 1] + 1e-12)
        for lower in approx:
            assert np.all(lower >= -1e-12)
            assert np.all(lower <= g + 1e-12)
