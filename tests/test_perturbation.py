"""Perturbation series, order comparisons, invariance transfer, coupling."""

import functools
import gc
import math
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg

import evpos.cli as cli
import evpos.gammashift as gammashift
import evpos.perturbation as perturbation
import evpos.semigroup as semigroup
from evpos.errors import (
    CertificateMissing,
    ExpmOverflow,
    InputError,
    PremiseViolation,
    QuadratureBudgetExceeded,
    ShiftNotOnGrid,
    TransferViolation,
)
from evpos.gammashift import GammaShiftProvider, Grid1D, GridFunction
from evpos.lattice import IdealMask
from evpos.perturbation import (
    TAIL_TOLERANCE,
    CoordinateFunctional,
    CoupledProvider,
    CoupledSystem,
    DenseCoupling,
    GridFunctional,
    ProductVector,
    RankOneCoupling,
    choose_terms,
    coupling_irreducibility_check,
    coupling_premise_check,
    domination_check,
    dyson_phillips_sum,
    invariance_transfer_check,
    perturbation_tail_bound,
)
from evpos.positivity import PositivityClass, classify_on_grid
from evpos.presets import coupled_demo_system
from evpos.semigroup import MatrixSemigroup, demo_generator, expm
from evpos.stepfun import ShiftStepProvider
from brute_oracles import ListOrbitProvider, list_weighted_sums
from sampled_oracles import sampled_leak_onset, sampled_mixed_witness


@pytest.fixture(autouse=True)
def no_kept_engines():
    """Each test starts with no lattice engine kept, so a fresh sweep does its own work."""
    perturbation._ENGINES.clear()


def random_pair(rng, n_max=8, scale=2.0):
    n = int(rng.integers(2, n_max + 1))
    A = rng.normal(size=(n, n))
    A *= scale / max(np.linalg.norm(A, 2), 1e-9)
    B = rng.normal(size=(n, n))
    B *= scale / max(np.linalg.norm(B, 2), 1e-9)
    return A, B


def taylor_terms(A, B, t, count, samples=64):
    """(coefficients of eps^0..eps^{count-1} in e^{t(A + eps B)}, their scale).

    A discrete Fourier transform of the complex exponentials at the
    samples-th roots of unity: the coefficient of eps^k is V_k(t), up to
    the aliased coefficients of eps^{k + samples}, which are negligible
    for |B| t of a few units, and to the rounding of the largest sample,
    the returned scale.
    """
    eps = np.exp(2j * np.pi * np.arange(samples) / samples)
    flows = np.array([scipy.linalg.expm(t * (A + e * B)) for e in eps])
    coeffs = np.fft.fft(flows, axis=0) / samples
    return coeffs[:count], float(np.max(np.abs(flows)))


class TestSeries:
    def test_zero_perturbation_terminates_immediately(self):
        A = demo_generator()
        res = dyson_phillips_sum(MatrixSemigroup(A), np.zeros((3, 3)), 1.5)
        assert res.n_terms == 0
        scale = float(np.max(np.abs(res.total)))
        assert np.max(np.abs(res.total - expm(A, 1.5))) <= 1e-12 * scale

    def test_first_order_term_for_frozen_flow(self):
        # with A = 0 the recursion integrates B directly: term n is (tB)^n/n!
        B = np.array([[0.0, 1.0], [2.0, 0.0]])
        terms = dyson_phillips_sum(MatrixSemigroup(np.zeros((2, 2))), B, 0.7).terms
        assert np.max(np.abs(terms[1] - 0.7 * B)) <= 1e-12
        assert np.max(np.abs(terms[2] - (0.7 * B) @ (0.7 * B) / 2.0)) <= 1e-12

    def test_first_two_terms_against_block_exponential(self):
        # exp(t[[A,B],[0,A]]) carries the first-order term in its top-right
        # block, and the 3x3 block version carries the second-order term:
        # the package's construction, here at the smallest block sizes
        rng = np.random.default_rng(31)
        for _ in range(5):
            A, B = random_pair(rng, n_max=5)
            n = A.shape[0]
            t = 1.1
            terms = dyson_phillips_sum(MatrixSemigroup(A), B, t).terms

            block1 = np.zeros((2 * n, 2 * n))
            block1[:n, :n] = A
            block1[:n, n:] = B
            block1[n:, n:] = A
            v1 = expm(block1, t)[:n, n:]
            assert np.max(np.abs(terms[1] - v1)) <= 1e-10

            block2 = np.zeros((3 * n, 3 * n))
            for k in range(3):
                block2[k * n : (k + 1) * n, k * n : (k + 1) * n] = A
            block2[:n, n : 2 * n] = B
            block2[n : 2 * n, 2 * n :] = B
            v2 = expm(block2, t)[:n, 2 * n :]
            assert np.max(np.abs(terms[2] - v2)) <= 1e-10

    def test_terms_are_taylor_coefficients_in_epsilon(self):
        # independent oracle: V_k(t) is the coefficient of eps^k in
        # e^{t(A + eps B)}, taken from complex exponentials on |eps| = 1
        rng = np.random.default_rng(41)
        for _ in range(6):
            A, B = random_pair(rng, n_max=6)
            for t in (0.5, 2.0):
                res = dyson_phillips_sum(MatrixSemigroup(A), B, t)
                assert res.n_terms >= 8
                want, scale = taylor_terms(A, B, t, res.n_terms + 1)
                for got, coeff in zip(res.terms, want):
                    assert float(np.max(np.abs(coeff.imag))) <= 1e-12 * scale
                    assert float(np.max(np.abs(got - coeff.real))) <= 1e-12 * scale

    def test_sum_matches_perturbed_exponential_small_norms(self):
        rng = np.random.default_rng(1234)
        for _ in range(12):
            A, B = random_pair(rng, scale=float(rng.uniform(0.3, 2.0)))
            prov = MatrixSemigroup(A)
            for t in (0.5, 1.0, 2.0):
                res = dyson_phillips_sum(prov, B, t)
                assert res.tail_bound <= 1e-8  # finite, and a bound with content
                err = float(np.linalg.norm(res.total - expm(A + B, t), 2))
                assert err <= res.tail_bound + 1e-8

    def test_sum_matches_perturbed_exponential_larger_norms(self):
        rng = np.random.default_rng(77)
        for _ in range(6):
            A, B = random_pair(rng, scale=5.0)
            prov = MatrixSemigroup(A)
            res = dyson_phillips_sum(prov, B, 2.0)
            # the default cap lets the block hold the 44-48 terms the tail needs
            assert res.tail_bound <= TAIL_TOLERANCE
            err = float(np.linalg.norm(res.total - expm(A + B, 2.0), 2))
            assert err <= res.tail_bound + 1e-8

    def test_terms_positive_under_positive_data(self):
        A = np.array([[-2.0, 1.0], [0.5, -3.0]])  # off-diagonal nonnegative
        B = np.array([[0.2, 0.1], [0.0, 0.4]])
        for term in dyson_phillips_sum(MatrixSemigroup(A), B, 1.0).terms:
            assert float(np.min(term)) >= -1e-12

    def test_tail_bound_decreases_and_covers_remainder(self, monkeypatch):
        env = (1.0, 9.0)
        tails = [perturbation_tail_bound(env, 1.0, 1.0, n) for n in (2, 5, 10, 20)]
        assert all(tails[i] > tails[i + 1] for i in range(len(tails) - 1))
        # conservative: must dominate the actual remainder of a sample series;
        # a block budget of 12 rows caps a 3 x 3 carrier at 3 terms
        A, B = demo_generator(), np.diag([0.0, 0.0, 1.0])
        monkeypatch.setattr(perturbation, "BLOCK_BUDGET", 12)
        short = dyson_phillips_sum(MatrixSemigroup(A), B, 1.0)
        assert len(short.terms) == 4
        remainder = float(np.linalg.norm(expm(A + B, 1.0) - sum(short.terms), 2))
        assert remainder <= short.tail_bound

    def test_term_cap_respected(self):
        n, tail = choose_terms(4, (1.0, 9.0), 1.0, 1.0)
        assert n <= 4
        assert tail > 0

    def test_node_budget_guard(self, monkeypatch):
        # 41 terms of a 30 x 30 carrier take a block generator of
        # 41 x 30 = 1230 > BLOCK_BUDGET rows: refused before it is formed
        rng = np.random.default_rng(8)
        A, B = rng.normal(size=(30, 30)), 10.0 * np.eye(30)

        def no_work(*args):
            raise AssertionError("the block exponential was formed past its budget")

        monkeypatch.setattr(perturbation, "expm", no_work)
        with pytest.raises(QuadratureBudgetExceeded, match="past the budget of 1024"):
            perturbation._block_terms(A, B, 1.0, 40)
        # the series caps a carrier at the block it holds, but at least one
        # term: past half the budget even that block is refused
        monkeypatch.setattr(perturbation, "BLOCK_BUDGET", 50)
        with pytest.raises(QuadratureBudgetExceeded, match="past the budget of 50"):
            dyson_phillips_sum(MatrixSemigroup(A), B, 1.0)

    def test_infinite_tail_refused_before_the_block(self, monkeypatch):
        # at t = 2000 both envelopes of the demo grow like e^{9t}, so the
        # tail is inf at every count up to the cap: no block is formed
        def no_work(*args):
            raise AssertionError("the block exponential was formed for an inf tail")

        monkeypatch.setattr(perturbation, "expm", no_work)
        with pytest.raises(ExpmOverflow, match="envelope tail is inf at the cap of 340 terms"):
            dyson_phillips_sum(MatrixSemigroup(demo_generator()), np.eye(3), 2000.0)

    def test_each_distinct_envelope_pair_is_tried_once(self, monkeypatch):
        # a Jordan block has no usable eigenbasis, so its growth pair is the
        # log-norm pair: the series computes it once and names it once
        log_norm, calls = semigroup.log_norm_envelope, []

        def counted(A):
            calls.append(1)
            return log_norm(A)

        monkeypatch.setattr(semigroup, "log_norm_envelope", counted)
        monkeypatch.setattr(perturbation, "log_norm_envelope", counted)
        res = dyson_phillips_sum(MatrixSemigroup(np.array([[0.0, 1.0], [0.0, 0.0]])), np.eye(2), 1.0)
        assert len(calls) == 1 and res.tail_bound <= TAIL_TOLERANCE
        calls.clear()
        with pytest.raises(ExpmOverflow) as shared:
            dyson_phillips_sum(MatrixSemigroup(np.array([[0.0, 1e308], [0.0, 0.0]])), np.eye(2), 1.0)
        assert len(calls) == 1
        assert str(shared.value).endswith("terms for the log-norm pair (1, 5e+307)")
        # the demo's eigenbasis pair differs from its log-norm pair: both are named
        with pytest.raises(ExpmOverflow) as distinct:
            dyson_phillips_sum(MatrixSemigroup(demo_generator()), np.eye(3), 2000.0)
        assert "for the growth pair (" in str(distinct.value)
        assert ") and the log-norm pair (1, " in str(distinct.value)


class TestDomination:
    @pytest.mark.parametrize("b", [0.0, 1.0, 5.0])
    def test_showcase_diagonal_family(self, b):
        rep = domination_check(demo_generator(), np.diag([0.0, 0.0, b]))
        assert rep.premise_min >= -1e-9
        assert rep.conclusion_min >= -1e-9

    @pytest.mark.parametrize("n1, n2", [(1, 1), (3, 3), (2, 5), (7, 4)])
    def test_sandwich_min_matches_the_pairwise_loop(self, n1, n2):
        # the batched products against one product per (t, s) pair, bit for
        # bit; ties keep the first pair in sampling order
        rng = np.random.default_rng(10 * n1 + n2)
        left = {0.1 * k: rng.normal(size=(n1, n1)) for k in range(6)}
        right = {0.2 * k: rng.normal(size=(n2, n2)) for k in range(5)}
        zeros = {s: np.zeros((n2, n2)) for s in right}
        B = rng.normal(size=(n1, n2))
        for R in (right, zeros):
            best = (math.inf, None, None, None, None)
            for t, lt in left.items():
                for s, rs in R.items():
                    prod = lt @ B @ rs
                    i, j = np.unravel_index(int(np.argmin(prod)), prod.shape)
                    if prod[i, j] < best[0]:
                        best = (float(prod[i, j]), t, s, int(i), int(j))
            flows = [(list(d), np.array(list(d.values()))) for d in (left, R)]
            assert perturbation._sandwich_min(flows[0], B, flows[1]) == best
        assert best[1:] == (0.0, 0.0, 0, 0)  # the zero product's first pair

    def test_perturbing_the_wrong_coordinate_breaks_the_premise(self):
        with pytest.raises(PremiseViolation) as exc:
            domination_check(demo_generator(), np.diag([1.0, 0.0, 0.0]))
        assert exc.value.witnesses

    def test_negative_perturbation_rejected(self):
        with pytest.raises(PremiseViolation):
            domination_check(demo_generator(), np.diag([0.0, 0.0, -1.0]))

    def test_metzler_base_with_positive_perturbation(self):
        A = np.array([[-2.0, 1.0], [1.0, -2.0]])
        rep = domination_check(A, np.array([[0.5, 0.0], [0.25, 0.5]]))
        assert rep.conclusion_min >= -1e-12

    def test_domination_monotone_in_strength(self):
        # growing the perturbation can only widen the gap at a fixed time
        A = np.array([[-2.0, 1.0], [1.0, -2.0]])
        t = 1.0
        gaps = []
        for b in (0.5, 1.0, 2.0):
            B = np.array([[0.0, b], [b, 0.0]])
            gaps.append(float(np.min(expm(A + B, t) - expm(A, t))))
        assert gaps[0] <= gaps[1] <= gaps[2]

    def test_lattice_carrier_domination(self, monkeypatch):
        # the domination check and the series are matrix-carrier tools: a
        # Gamma-shift carrier is refused before any exponential or kernel
        def no_work(*args, **kwargs):
            raise AssertionError("an exponential or a kernel was evaluated")

        for module in (semigroup, perturbation):
            monkeypatch.setattr(module, "expm", no_work)
        monkeypatch.setattr(gammashift, "gamma_kernel_weights", no_work)
        prov = GammaShiftProvider(Grid1D(x_min=-2.0, h=0.25, count=16))
        B = np.zeros((16, 16))
        B[3, 12] = 0.5  # one positive mass route
        with pytest.raises(InputError, match="requires a dense matrix carrier"):
            domination_check(prov, B)
        with pytest.raises(InputError, match="requires a dense matrix carrier"):
            dyson_phillips_sum(prov, B, 2.0)


class TestInvarianceTransfer:
    def test_block_triangular_family(self):
        At = np.array([[-1.0, 2.0, 0.0], [1.0, -2.0, 0.0], [0.0, 0.0, -3.0]])
        Bt = np.array([[0.0, 1.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        rep = invariance_transfer_check(At, Bt, IdealMask.of([0, 1], 3))
        assert rep.perturbed_onset == 0.0
        assert rep.unperturbed_onset == 0.0
        assert rep.family_onset == (0.0, 0.0)

    def test_trivial_ideals_accepted(self):
        A = demo_generator()
        B = np.diag([0.0, 0.0, 1.0])
        for mask in (IdealMask.empty(3), IdealMask.full(3)):
            rep = invariance_transfer_check(A, B, mask)
            assert (rep.perturbed_onset, rep.unperturbed_onset) == (0.0, 0.0)
            assert rep.family_onset == (0.0, 0.0)

    def test_leaky_perturbation_violates_premise(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        B = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(PremiseViolation) as info:
            invariance_transfer_check(A, B, IdealMask.of([0], 2))
        assert info.value.witnesses == [(1, 0, 1.0)]
        # a leak that grows: the sampled scan agrees that it never stops
        assert sampled_leak_onset(A + B, IdealMask.of([0], 2)) is None

    @pytest.mark.parametrize(
        "A, B",
        [
            ([[-3.0, 0.0], [1.0, -3.0]], [[0.0, 0.0], [0.0, 0.0]]),
            ([[-3.0, 0.0], [0.0, -3.0]], [[0.0, 0.0], [1.0, 0.0]]),
        ],
    )
    def test_decaying_leak_is_refused_at_the_premise(self, A, B):
        # e^{t(A+B)}[1, 0] = t e^{-3t} > 0 for every t > 0; the sampled scan
        # reads its decay below 1e-9 as invariance from t ~ 7.87 on
        A, B = np.array(A), np.array(B)
        mask = IdealMask.of([0], 2)
        with pytest.raises(PremiseViolation) as info:
            invariance_transfer_check(A, B, mask)
        assert info.value.witnesses == [(1, 0, 1.0)]
        assert 7.0 < sampled_leak_onset(A + B, mask) < 8.0

    def test_leak_only_in_b_is_refused_at_the_premise(self):
        A = np.array([[-1.0, 1.0], [0.0, -2.0]])
        B = np.array([[0.0, 0.0], [0.5, 0.0]])
        mask = IdealMask.of([0], 2)
        assert sampled_leak_onset(A, mask) == 0.0
        with pytest.raises(PremiseViolation) as info:
            invariance_transfer_check(A, B, mask)
        assert info.value.witnesses == [(1, 0, 0.5)]

    def test_conclusion_failure_names_the_generator_entry(self):
        # A + B = -I leaves every ideal invariant and T(t) B T(s) =
        # e^{-t-s} B >= 0, but e^{tA} is not positive and A[1, 0] leaks
        A = np.array([[-1.0, 0.0], [-1.0, -1.0]])
        B = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(TransferViolation) as info:
            invariance_transfer_check(A, B, IdealMask.of([0], 2))
        assert info.value.witnesses == [(1, 0, -1.0)]

    def test_transfer_never_fires_on_block_triangular_inputs(self):
        # whenever the perturbed family leaves the ideal invariant the
        # transfer back to the unperturbed family is a theorem; random
        # positivity-preserving block-upper-triangular generators must
        # never raise (general sign patterns would trip the mixed
        # positivity premise instead of exercising the transfer).  These
        # leaks are exactly zero, so the sampled scan agrees with the
        # zero pattern.
        rng = np.random.default_rng(53)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, n))
            A = np.abs(rng.normal(size=(n, n)))
            A[np.diag_indices(n)] = -rng.uniform(1.0, 3.0, size=n)
            B = np.abs(rng.normal(size=(n, n)))
            A[k:, :k] = 0.0
            B[k:, :k] = 0.0
            mask = IdealMask.of(range(k), n)
            rep = invariance_transfer_check(A, B, mask)
            assert (rep.perturbed_onset, rep.unperturbed_onset) == (0.0, 0.0)
            assert rep.family_onset == (0.0, 0.0)
            assert sampled_leak_onset(A + B, mask) == sampled_leak_onset(A, mask) == 0.0

    def test_lattice_carrier_rejected(self):
        grid = Grid1D(x_min=-2.0, h=0.25, count=16)
        with pytest.raises(InputError):
            invariance_transfer_check(
                GammaShiftProvider(grid), np.zeros((16, 16)), IdealMask.of([0], 16)
            )


def matrix_matrix_system(strength=0.1) -> CoupledSystem:
    A = demo_generator()
    return CoupledSystem(
        MatrixSemigroup(A),
        MatrixSemigroup(A.copy()),
        DenseCoupling(strength * np.ones((3, 3))),
        DenseCoupling(strength * np.ones((3, 3))),
    )


def lattice_system() -> CoupledSystem:
    grid = Grid1D(x_min=-2.0, h=0.25, count=16)
    return CoupledSystem(
        MatrixSemigroup(demo_generator()),
        GammaShiftProvider(grid),
        RankOneCoupling(
            output=np.array([0.0, 0.0, 1.0]),
            functional=GridFunctional(grid, -1.0, 0.0),
        ),
        RankOneCoupling(
            output=GridFunction.indicator(grid, 0.5, 1.0),
            functional=CoordinateFunctional(2, 3),
        ),
    )


class TestCouplingBlocks:
    def test_rank_one_matches_outer_product(self):
        grid = Grid1D(x_min=-2.0, h=0.25, count=16)
        func = GridFunctional(grid, -1.0, 0.0)
        block = RankOneCoupling(output=np.array([0.0, 0.0, 1.0]), functional=func)
        dense = block.to_dense()
        f = GridFunction.indicator(grid, -0.75, 0.5)
        direct = block.apply(f)
        assert np.allclose(dense @ np.asarray(f.samples), direct)

    def test_grid_functional_is_window_integral(self):
        grid = Grid1D(x_min=-2.0, h=0.25, count=16)
        func = GridFunctional(grid, -1.0, 0.0)
        f = GridFunction.indicator(grid, -2.0, 2.0)
        # the indicator has unit height, so the window integral is its width
        assert func(f) == pytest.approx(1.0)

    def test_grid_functional_exact_zero_for_disjoint_support(self):
        grid = Grid1D(x_min=-2.0, h=0.25, count=16)
        func = GridFunctional(grid, -1.0, 0.0)
        f = GridFunction.indicator(grid, 1.0, 2.0)
        assert func(f) == 0.0

    @pytest.mark.parametrize(
        "window, cells",
        [((-3.0, -1.0), (0, 4)), ((-1.0, 5.0), (4, 16)), ((-3.0, 5.0), (0, 16)), ((-1.0, 0.0), (4, 8)),
         ((-5.0, -3.0), None), ((3.0, 4.0), None), ((2.0, 3.0), None), ((-5.0, -2.0), None)],
    )
    def test_grid_functional_clips_its_window_to_the_grid(self, window, cells):
        # a window that reaches past either edge keeps the cells it meets;
        # one that misses the grid is refused
        grid = Grid1D(x_min=-2.0, h=0.25, count=16)
        if cells is None:
            with pytest.raises(InputError, match="window does not meet the grid"):
                GridFunctional(grid, *window)
            return
        func = GridFunctional(grid, *window)
        assert func.key == (grid, *cells)
        f = GridFunction(grid, np.arange(1.0, 17.0))
        assert func(f) == 0.25 * float(np.arange(1.0, 17.0)[slice(*cells)].sum())

    def test_coordinate_functional(self):
        func = CoordinateFunctional(2, 3)
        assert func(np.array([5.0, 6.0, 7.0])) == 7.0

    def test_product_vector_arithmetic(self):
        grid = Grid1D(x_min=-2.0, h=0.25, count=16)
        v = ProductVector(np.ones(3), GridFunction.indicator(grid, 0.0, 1.0))
        w = v + v
        assert np.allclose(w.first, 2.0 * np.ones(3))
        assert np.allclose(np.asarray(w.second.samples), 2.0 * np.asarray(v.second.samples))
        d = w - v
        assert np.allclose(d.first, v.first)
        s = v * 3.0
        assert np.allclose(s.first, 3.0 * np.ones(3))


class TestCoupledMatrixCarriers:
    def test_couple_matches_block_exponential(self):
        system = matrix_matrix_system()
        block = np.zeros((6, 6))
        A = demo_generator()
        block[:3, :3] = A
        block[3:, 3:] = A
        block[:3, 3:] = 0.1
        block[3:, :3] = 0.1
        dense = CoupledProvider(system).to_dense(0.7)
        ref = expm(block, 0.7)
        assert np.max(np.abs(dense - ref)) <= 1e-9 * float(np.max(np.abs(ref)))

    def test_premise_check_passes(self):
        rep = coupling_premise_check(matrix_matrix_system())
        assert rep.ok
        assert rep.min_entry >= 0.0
        assert rep.pairs_checked > 0

    def test_negative_coupling_fails_the_premise_and_still_evaluates(self):
        system = CoupledSystem(
            MatrixSemigroup(demo_generator()),
            MatrixSemigroup(demo_generator()),
            DenseCoupling(-0.1 * np.ones((3, 3))),
            DenseCoupling(0.1 * np.ones((3, 3))),
        )
        assert coupling_premise_check(system).ok is False
        assert CoupledProvider(system).to_dense(0.5).shape == (6, 6)

    def test_irreducibility_asserted_for_positive_coupling(self):
        rep = coupling_irreducibility_check(matrix_matrix_system())
        assert rep.asserted
        assert rep.sub_classifications == (
            "PersistentlyIrreducible",
            "PersistentlyIrreducible",
        )
        assert rep.witness_12 is not None and rep.witness_21 is not None

    def test_irreducibility_refused_when_a_block_vanishes(self):
        system = CoupledSystem(
            MatrixSemigroup(demo_generator()),
            MatrixSemigroup(demo_generator()),
            DenseCoupling(0.1 * np.ones((3, 3))),
            DenseCoupling(np.zeros((3, 3))),
        )
        rep = coupling_irreducibility_check(system)
        assert not rep.asserted
        assert "vanishes" in rep.notes

    def test_block_sign_pattern_agrees_with_graph_oracle(self):
        # the assembled 6x6 block generator must be irreducible exactly
        # when the coupled check asserts it
        from evpos.irreducibility import classify

        system = matrix_matrix_system()
        block = np.zeros((6, 6))
        block[:3, :3] = demo_generator()
        block[3:, 3:] = demo_generator()
        block[:3, 3:] = 0.1
        block[3:, :3] = 0.1
        assert classify(A=block).classification == "PersistentlyIrreducible"
        assert coupling_irreducibility_check(system).asserted


COUPLED_SYSTEMS = {
    "matrix-matrix": matrix_matrix_system,
    "demo": coupled_demo_system,
    "demo-L4-h0.25": lambda: coupled_demo_system(L=4.0, h=0.25),
}


class TestCoupledWitnesses:
    @pytest.mark.parametrize("name", COUPLED_SYSTEMS)
    def test_sampled_witnesses_lie_in_the_exact_ranges(self, name):
        # the grid search the check once ran is the oracle: whatever
        # (s, t0) it finds lies in the range the exact witness certifies,
        # for the same seed, and the sampled positivity classes agree
        system = COUPLED_SYSTEMS[name]()
        rep = coupling_irreducibility_check(system)
        assert rep.asserted
        directions = (
            (system.provider1, system.b21, system.provider2, rep.witness_21),
            (system.provider2, system.b12, system.provider1, rep.witness_12),
        )
        for src, block, tgt, exact in directions:
            seed, s, t0 = sampled_mixed_witness(src, block, tgt)
            assert seed == exact["seed_index"]
            assert s > 0.0 and s >= exact["s_from"] and t0 >= exact["t0_from"]
        eventually_positive = {
            PositivityClass.POSITIVE,
            PositivityClass.UNIFORMLY_EVENTUALLY_STRONGLY_POSITIVE,
            PositivityClass.UNIFORMLY_EVENTUALLY_POSITIVE,
        }
        for provider, exact_class in zip((system.provider1, system.provider2), rep.positivity_classes):
            assert exact_class in {c.value for c in eventually_positive}
            assert classify_on_grid(provider).verdict in eventually_positive

    def test_demo_witnesses_are_exact(self):
        rep = coupling_irreducibility_check(coupled_demo_system())
        assert rep.asserted
        assert rep.sub_classifications == ("PersistentlyIrreducible", "PersistentlyIrreducible")
        assert rep.positivity_classes == ("UniformlyEventuallyStronglyPositive", "Positive")
        # the grid feed: first window cell 32, last 39; seed 0 starts at cell 56
        assert rep.witness_12["s_from"] == (56 - 39) * 0.125 == 2.125
        assert rep.witness_12["t0_from"] == 0.0
        # the matrix feed reads e_3: (A e_1)_3 = 3 is the first Krylov coefficient
        assert rep.witness_21["source"].startswith("B A^1 f != 0")
        assert rep.witness_21["s_from"] == 0.0 and rep.witness_21["t0_from"] == 0.125
        assert "sampled" not in repr(rep)

    def test_krylov_order_on_a_reducible_generator(self):
        # e_1 never reaches e_2 under a lower triangular A, so e_1^T A^k e_2
        # vanishes for every k < n and so does e_1^T e^{sA} e_2
        A = np.array([[1.0, 0.0, 0.0], [2.0, -1.0, 0.0], [0.5, 3.0, 2.0]])
        row = np.array([[1.0, 0.0, 0.0]])
        assert perturbation._krylov_order(A, row, np.array([0.0, 1.0, 0.0]), 1e-9) is None
        assert perturbation._krylov_order(A, row, np.array([1.0, 0.0, 0.0]), 1e-9) == 0
        last = np.array([[0.0, 0.0, 1.0]])
        assert perturbation._krylov_order(A, last, np.array([1.0, 0.0, 0.0]), 1e-9) == 1
        assert perturbation._krylov_order(A, last, np.array([0.0, 1.0, 0.0]), 1e-9) == 1
        chain = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        assert perturbation._krylov_order(chain, row, np.array([0.0, 0.0, 1.0]), 1e-9) == 2

    def test_lattice_source_without_a_window_is_refused(self):
        system = coupled_demo_system()
        block = RankOneCoupling(output=np.ones(3), functional=CoordinateFunctional(0, 96))
        with pytest.raises(CertificateMissing, match="window"):
            perturbation._block_witness(system.provider2, block, system.provider1, 1e-9)


class TestCoupledLatticeCarrier:
    @pytest.mark.parametrize("dense", ["b12", "b21"])
    def test_dense_block_refused_before_any_evaluation(self, dense, monkeypatch):
        grid = Grid1D(x_min=-2.0, h=0.25, count=16)
        rng = np.random.default_rng(5)
        A = rng.uniform(-1.0, 1.0, (16, 16))
        blocks = {
            "b12": RankOneCoupling(output=np.eye(16)[3], functional=GridFunctional(grid, -1.0, 0.0)),
            "b21": RankOneCoupling(
                output=GridFunction.indicator(grid, 0.5, 1.0), functional=CoordinateFunctional(2, 16)
            ),
        }
        blocks[dense] = DenseCoupling(0.1 * np.ones((16, 16)))
        system = CoupledSystem(MatrixSemigroup(A), GammaShiftProvider(grid), **blocks)
        calls = []
        monkeypatch.setattr(semigroup, "expm", lambda *a: calls.append(a))
        monkeypatch.setattr(gammashift, "gamma_kernel_weights", lambda *a: calls.append(a))
        with pytest.raises(InputError, match=f"{dense} is a DenseCoupling"):
            CoupledProvider(system)
        assert calls == []

    def test_times_are_read_by_the_lattice_carrier(self):
        # the coupled system reads a time as steps through its Gamma-shift
        # carrier's grid: a time off the lattice by more than 1e-9 h is
        # refused by both, one within it is its step, and both snap
        # candidate times alike
        system = coupled_demo_system(L=4.0, h=0.25)
        provider = CoupledProvider(system)
        seed = ProductVector(np.ones(3), system.provider2.zero_vector())
        f = system.provider2.default_test_vectors()[0]
        for t in (50.0 + 2e-8, 0.25 + 1e-9, -0.25):
            for refused in (
                lambda: system.provider2.apply(t, f),
                lambda: provider.apply(t, seed),
                lambda: provider.to_dense(t),
            ):
                with pytest.raises(ShiftNotOnGrid):
                    refused()
        assert vector_bytes(provider.apply(2.0 + 2e-10, seed)) == vector_bytes(provider.apply(2.0, seed))
        candidates = [0.0, 0.1, 0.2, 1.3, 50.0 + 2e-8, -1.0, 2.0]
        assert provider.admissible_times(candidates) == system.provider2.admissible_times(candidates)

    def test_orbit_gauges_stay_beside_the_kept_orbits(self):
        # the provider keeps 64 seed orbits and the gap of each one's last
        # value beside it; the gauge of a seed it does not keep is folded
        # into one running maximum, so series_report still reads the
        # largest gauge of every seed evaluated; the seeds past the 64th
        # are ten times larger, so theirs is the largest
        system = coupled_demo_system(L=4.0, h=0.25)
        rng = np.random.default_rng(11)
        provider, alone = CoupledProvider(system), []
        for n in range(100):
            seed = random_seed_vector(rng, system) * (10.0 if n >= 64 else 1.0)
            provider.apply(0.5, seed)
            single = CoupledProvider(system)
            single.apply(0.5, seed)
            alone.append(single.series_report()["quadrature_estimate"])
            if n == 63:
                assert provider.series_report()["quadrature_estimate"] == max(alone)
        assert len(provider._orbit_cache) == len(provider._orbit_gaps) == 64
        assert provider.series_report()["quadrature_estimate"] == max(alone)
        assert max(alone[64:]) > max(alone[:64])

    def test_series_terminates_when_return_window_is_unreachable(self):
        system = lattice_system()
        provider = CoupledProvider(system)
        seed = ProductVector(
            np.array([0.0, 1.0, 0.0]), system.provider2.zero_vector()
        )
        # grid feed is born on [0.5, 1.0) and moves left; the matrix-bound
        # window is [-1.0, 0.0), three cells further left, so until the
        # flow has had three lattice steps past birth the round-trip term
        # is identically zero and the series stops after first order
        assert provider.terms_alive(seed, 2 * 0.25) == 2
        # once the feed can travel back into the window a third term
        # appears; K(0) is nilpotent, so some later term still vanishes
        assert provider.terms_alive(seed, 4 * 0.25) >= 3

    def test_apply_consistent_with_dense(self):
        # every step of an ascending and then a descending sweep on one
        # provider; both sweeps must also give the same bytes
        system = lattice_system()
        provider = CoupledProvider(system)
        seed = ProductVector(
            np.array([1.0, 0.5, 0.25]),
            GridFunction.indicator(system.provider2.grid, -1.0, 1.0),
        )
        stacked = np.concatenate(
            [seed.first, np.asarray(seed.second.samples)]
        )
        seen = {}
        for sweep in (range(1, 7), range(6, 0, -1)):
            for q in sweep:
                t = q * 0.25
                via_terms = provider.apply(t, seed)
                via_dense = provider.to_dense(t) @ stacked
                out = np.concatenate([via_terms.first, np.asarray(via_terms.second.samples)])
                assert np.max(np.abs(out - via_dense)) <= 1e-9 * max(1.0, np.max(np.abs(out)))
                seen.setdefault(q, []).append(out.tobytes())
        assert all(asc == desc for asc, desc in seen.values())

    def test_orbit_independent_of_call_history(self):
        # asking for a later time first must not change an earlier time's
        # sum, surviving term count or series report
        def observe(warm_up: bool):
            provider = CoupledProvider(lattice_system())
            seed = ProductVector(
                np.array([0.0, 1.0, 0.0]), provider.system.provider2.zero_vector()
            )
            if warm_up:
                provider.apply(1.5, seed)
                provider.terms_alive(seed, 1.5)
            alive = provider.terms_alive(seed, 0.5)
            total = provider.apply(0.5, seed)
            return (
                vector_bytes(total),
                alive,
                {k: float(v).hex() for k, v in provider.series_report().items()},
            )

        assert observe(warm_up=True) == observe(warm_up=False)

    def test_adjoint_pairing_identity(self):
        system = lattice_system()
        provider = CoupledProvider(system)
        grid = system.provider2.grid
        f = ProductVector(
            np.array([1.0, 0.0, 0.5]), GridFunction.indicator(grid, -1.0, 0.0)
        )
        phi = ProductVector(
            np.array([0.0, 1.0, 1.0]), GridFunction.indicator(grid, -2.0, 2.0)
        )
        t = 0.5
        lhs = provider.pair(provider.apply_adjoint(t, phi), f)
        rhs = provider.pair(phi, provider.apply(t, f))
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_off_lattice_time_rejected(self):
        provider = CoupledProvider(lattice_system())
        seed = ProductVector(np.ones(3), provider.system.provider2.zero_vector())
        with pytest.raises(ShiftNotOnGrid):
            provider.apply(0.3, seed)

    def test_envelope_dominates_observed_growth(self):
        provider = CoupledProvider(lattice_system())
        M, w = provider.envelope
        for q in (1, 2, 4):
            t = q * 0.25
            dense = provider.to_dense(t)
            assert np.linalg.norm(dense, 2) <= M * np.exp(w * t) * (1 + 1e-9)

    def test_mismatched_coupling_dimensions_rejected(self):
        grid = Grid1D(x_min=-2.0, h=0.25, count=16)
        with pytest.raises(InputError):
            CoupledSystem(
                MatrixSemigroup(demo_generator()),
                GammaShiftProvider(grid),
                RankOneCoupling(
                    output=np.array([1.0, 0.0]),  # wrong output dimension
                    functional=GridFunctional(grid, -1.0, 0.0),
                ),
                RankOneCoupling(
                    output=GridFunction.indicator(grid, 0.5, 1.0),
                    functional=CoordinateFunctional(2, 3),
                ),
            )


# --------------------------------------------------------------------------
# references: the left-fold lattice rule and the linear term-count scan
# --------------------------------------------------------------------------


class LeftFoldSeries:
    """The lattice series with B applied to every value and T to every summand.

    Each quadrature sum is folded one object at a time; apply_b is B as
    a map.
    """

    def __init__(self, apply_t, apply_b, seed, h, norm):
        self.apply_t = apply_t
        self.apply_b = apply_b
        self.seed = seed
        self.h = h
        self.norm = norm
        self.values, self.norms, self.images, self.live, self.gaps = [], [], [], [], []

    def _fill(self, n, q):
        if n == len(self.values):
            for rows in (self.values, self.norms, self.images, self.live, self.gaps):
                rows.append([])
        values = self.values[n]
        for p in range(len(values), q + 1):
            gap = 0.0
            if n == 0:
                v = self.apply_t(p, self.seed)
            elif p == 0:
                v = self.images[n - 1][0] * 0.0
            else:
                g = self.images[n - 1]
                wts = perturbation._renewal_rules(p, self.h)[0]
                trap = np.full(p + 1, self.h)
                trap[0] = trap[p] = 0.5 * self.h
                applied = [self.apply_t(p - j, g[j]) for j in range(p + 1)]
                v = applied[0] * float(wts[0])
                tz = applied[0] * float(trap[0])
                for j in range(1, p + 1):
                    v = v + applied[j] * float(wts[j])
                    tz = tz + applied[j] * float(trap[j])
                gap = self.norm(v - tz)
            image = self.apply_b(v)
            values.append(v)
            self.norms[n].append(self.norm(v))
            self.images[n].append(image)
            self.live[n].append(self.norm(image) != 0.0)
            self.gaps[n].append(gap)

    def at(self, q, n_terms):
        perturbation.check_node_budget(n_terms, q)
        self._fill(0, q)
        floor = 1e-16 * max(max(self.norms[0][: q + 1]), 1e-300)
        terms = [self.values[0][q]]
        gauge = 0.0
        tiny_streak = 0
        for n in range(1, n_terms + 1):
            if not any(self.live[n - 1][: q + 1]):
                break
            self._fill(n, q)
            terms.append(self.values[n][q])
            gauge += self.gaps[n][q]
            if max(self.norms[n][: q + 1]) <= floor:
                tiny_streak += 1
                if tiny_streak >= 2:
                    break
            else:
                tiny_streak = 0
        return terms, gauge


def reference_tail_bound(envelope, norm_b, t, n_terms):
    """The envelope tail, each term M^{n+1} |B|^n t^n e^{omega t} / n! from its logarithm.

    The logarithm is log M + omega t + n log(|B| M t) - log n!, summed
    in the package's order, so the sums agree bit for bit.
    """
    M, omega = float(envelope[0]), float(envelope[1])
    t = float(t)
    if t <= 0.0 or norm_b <= 0.0:
        return 0.0
    x = norm_b * M * t
    total = 0.0
    n = n_terms + 1
    while True:
        log_term = math.log(M) + omega * t + n * math.log(x) - math.lgamma(n + 1)
        if log_term >= 700.0:
            return math.inf
        term = math.exp(log_term)
        total += term
        if n > x and (term == 0.0 or term <= total * 1e-18):
            return total
        n += 1


def reference_choose_terms(cap, envelope, norm_b, t):
    """The first n = 0, 1, ... whose tail passes, each tail summed from scratch."""
    for n in range(cap + 1):
        tail = reference_tail_bound(envelope, norm_b, t, n)
        if tail <= TAIL_TOLERANCE:
            return n, tail
    return cap, reference_tail_bound(envelope, norm_b, t, cap)


def vector_bytes(v):
    if isinstance(v, ProductVector):
        return (vector_bytes(v.first), vector_bytes(v.second))
    if isinstance(v, GridFunction):
        return (v.samples.tobytes(), v.support_lo)
    return np.asarray(v).tobytes()


def random_seed_vector(rng, system):
    """A seeded product vector with signed entries and zero cells below a floor."""
    grid = system.provider2.grid
    samples = rng.normal(size=grid.count)
    lo = int(rng.integers(0, grid.count))
    samples[:lo] = 0.0
    samples[rng.uniform(size=grid.count) < 0.2] = 0.0
    return ProductVector(rng.normal(size=system.dim1), GridFunction(grid, samples))


def square_map_terms_alive(provider, f, t):
    """terms_alive from the recursion's r(q+1)-square matrix, built on unit histories.

    The matrix of the coefficient recursion on steps 0..q is its image of
    every unit history; the count is the first power that maps the seed's
    history to zero, None when r(q+1) + 1 powers do not.
    """
    orbit, q = provider._seed_orbit(f, t)
    orbit.fill(q)
    c = np.array(orbit.base.rows[: q + 1]).ravel()
    n = c.size
    basis = np.eye(n).reshape(q + 1, provider._range.rank, n)
    step_map = provider._range.next_coefficients(basis).reshape(n, n)
    for alive in range(1, n + 2):
        if not c.any():
            return alive
        c = step_map @ c
    return None


def fold(terms):
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


# a cap the reference series never reaches: it ends on its own, at a
# vanished term or at two terms below the floating floor
FULL_DEPTH = 200


def observe_orbit(system, seeds, q_max):
    """Per-step (sum, series report, sum minus the seed flow) of fresh providers."""
    h = system.provider2.grid.h
    seen = []
    for seed in seeds:
        provider = CoupledProvider(system)
        for q in range(1, q_max + 1):
            total = provider.apply(q * h, seed)
            orbit = provider._orbit_cache[provider._fingerprint(seed)]
            flow = provider.unstack(orbit.flows.rows[q, 0], orbit.flow_floors.rows[q, 0])
            seen.append((total, provider.series_report(), total - flow))
        # the sums past the seed flow came from the shared range orbits,
        # filled in doubling blocks of steps to the end of the block of q_max
        assert provider._range.orbits.size == 2 ** q_max.bit_length()
    return seen


def reference_orbit(system, seeds, q_max):
    """Per-step (sum, gauge, terms past the first) of LeftFoldSeries to full depth.

    B is applied block by block.
    """
    h = system.provider2.grid.h
    p1, p2 = system.provider1, system.provider2

    def apply_t(m, v):
        return ProductVector(p1.apply(m * h, v.first), p2.apply(m * h, v.second))

    def apply_b(v):
        return ProductVector(system.b12.apply(v.second), system.b21.apply(v.first))

    seen = []
    for seed in seeds:
        series = LeftFoldSeries(apply_t, apply_b, seed.copy(), h, CoupledProvider(system).vec_norm)
        for q in range(1, q_max + 1):
            terms, gauge = series.at(q, FULL_DEPTH)
            assert len(terms) <= FULL_DEPTH
            seen.append((fold(terms), gauge, fold([terms[0] * 0.0, *terms[1:]])))
    return seen


def max_entry(v):
    return max(float(np.max(np.abs(v.first))), float(np.max(np.abs(v.second.samples))))


def assert_close(v, ref, scale):
    assert float(np.max(np.abs(v.first - ref.first))) <= scale
    assert float(np.max(np.abs(v.second.samples - ref.second.samples))) <= scale


def assert_orbits_agree(got, want):
    """Exact support floors and zero tails; values to 1e-12 relative.

    The part past the seed flow is compared on its own scale as well, up
    to the rounding of the sum it was taken from: the terms the coupling
    kernel enters can be far below the orbit.  The renewal's gauge is the
    norm of the summed trapezoid gaps, so it is at most the series gauge,
    the sum of the gaps' norms.
    """
    assert len(got) == len(want)
    for (total, report, past), (ref, ref_gauge, ref_past) in zip(got, want):
        assert report["tail_bound"] == 0.0 and report["n_terms"] == 0
        assert report["quadrature_estimate"] <= ref_gauge * (1.0 + 1e-12)
        assert total.second.support_lo == ref.second.support_lo
        assert_close(total, ref, 1e-12 * max_entry(ref))
        assert_close(past, ref_past, 1e-12 * max_entry(ref_past) + 1e-15 * max_entry(ref))
    return len(got)


class TestLatticeSeriesAgainstLeftFold:
    @pytest.mark.parametrize(
        "make_system, q_max",
        [(lattice_system, 32), (coupled_demo_system, 32)],
        ids=["lattice", "demo"],
    )
    def test_orbits_match_full_depth(self, make_system, q_max):
        # the renewal solve is the sum of every series term: the oracle is
        # the term-by-term series run until it ends, with T applied to
        # every summand, so floors agree exactly and values to rounding
        system = make_system()
        rng = np.random.default_rng(2024)
        zero = system.provider2.zero_vector()
        # (e_2, 0) and (1, 0) leave the matrix-bound window unreached for a
        # while, so their series stop at terms whose images vanish
        seeds = [
            ProductVector(np.array([0.0, 1.0, 0.0]), zero),
            ProductVector(np.ones(3), zero),
            random_seed_vector(rng, system),
        ]
        fast = observe_orbit(system, seeds, q_max)
        assert assert_orbits_agree(fast, reference_orbit(system, seeds, q_max)) == 3 * q_max

    def test_carrier_work_is_the_range_orbits(self, monkeypatch):
        # the grid family's kernel of each step and the matrix family's
        # e^{t A}, t = 0, h, .., are evaluated once per provider, whatever
        # the number of seeds, in the doubling blocks of steps 0..1, 2..3,
        # 4..7, .., 32..63 of the stores: one call per block, so at most
        # ceil(log2(q + 1)) + 1 calls each; a second seed whose grid
        # component is zero adds no kernel and no exponential
        system = coupled_demo_system()
        h = system.provider2.grid.h
        kernels, exps = [], []
        weights, expm = gammashift.gamma_kernel_weights, semigroup.expm
        monkeypatch.setattr(
            gammashift,
            "gamma_kernel_weights",
            lambda *a: kernels.append(np.atleast_1d(a[0]).tolist()) or weights(*a),
        )
        monkeypatch.setattr(
            semigroup, "expm", lambda A, t=1.0: exps.append(np.atleast_1d(t).tolist()) or expm(A, t)
        )
        provider = CoupledProvider(system)
        zero = system.provider2.zero_vector()
        q = 32
        bound = math.ceil(math.log2(q + 1)) + 1
        counts = []
        for z in (np.ones(3), np.array([1.0, 2.0, 0.5])):
            seed = ProductVector(z, zero)
            for step in range(1, q + 1):
                provider.apply(step * h, seed)
            assert provider.terms_alive(seed, q * h) >= 3
            counts.append((len(kernels), len(exps)))
        assert counts[0] == counts[1]
        assert 0 < len(kernels) <= bound and 0 < len(exps) <= bound
        for calls, first in ((kernels, 1), (exps, 0)):
            times = [t for block in calls for t in block]
            assert len(times) == len(set(times))
            assert set(times) >= {m * h for m in range(first, q + 1)}

    def test_terms_alive_matches_the_square_step_map(self):
        rng = np.random.default_rng(56)
        system = coupled_demo_system()
        h = system.provider2.grid.h
        counts = set()
        for _ in range(8):
            seed = random_seed_vector(rng, system)
            provider = CoupledProvider(system)
            for q in (1, 2, 4, 8, 15, 16, 32):
                got = provider.terms_alive(seed, q * h)
                assert got == square_map_terms_alive(provider, seed, q * h)
                counts.add(got)
        assert len(counts) > 1

    def test_weighted_sums_are_the_left_fold(self):
        # one-entry rows and entries that are -0.0 in every summand are the
        # two cases where a plain np.add.reduce departs from the fold
        rng = np.random.default_rng(11)
        grid = Grid1D(x_min=-1.0, h=0.25, count=8)
        for shape in [(1,), (2,), (3,), (96,), (1, 1), (35, 35)]:
            for k in (2, 3, 9, 33):
                rows = [rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8) for _ in range(k)]
                for row in rows:
                    row[rng.uniform(size=shape) < 0.3] = -0.0
                if rows[0].size > 1:
                    for row in rows:
                        row.flat[-1] = -0.0
                rules = rng.uniform(0.1, 2.0, size=(2, k))
                for w, got in zip(rules, perturbation._weighted_sums(rows, rules)):
                    want = rows[0] * float(w[0])
                    for j in range(1, k):
                        want = want + rows[j] * float(w[j])
                    assert got.tobytes() == want.tobytes()
                    assert np.signbit(got.flat[-1]) or rows[0].size == 1
        # one reduction over stacked product vectors is the componentwise
        # sum of the list-based oracle
        funcs = [
            GridFunction(grid, np.r_[np.zeros(2), 1.0, rng.normal(size=5)], 2),
            GridFunction(grid, np.r_[np.zeros(2), -2.0, rng.normal(size=5)], 2),
            GridFunction(grid, np.r_[np.zeros(5), rng.normal(size=3)], 5),
        ]
        vecs = [ProductVector(rng.normal(size=3), f) for f in funcs]
        w = np.array([[1.0, 0.5, 0.25], [0.0, -0.5, 2.0]])
        rows = [np.concatenate([v.first, v.second.samples]) for v in vecs]
        for got, want in zip(perturbation._weighted_sums(rows, w), list_weighted_sums(vecs, w)):
            assert got.tobytes() == np.concatenate([want.first, want.second.samples]).tobytes()

    def test_exact_cancellation_keeps_the_bookkept_floor(self):
        # a seed orbit at step 1 sums its flow T(h) f with weight 1, the
        # range orbit T(h) u with w_0 c(0) = 0.125 * 4 and u with
        # w_1 c(1) = 0.125 * 2; their cell 2 entries 1, -2 and 0 cancel
        # exactly, and the value keeps the least floor of its summands
        # instead of one read off its samples
        layout = CoupledProvider(lattice_system())
        grid = layout._grids[1]
        rng = np.random.default_rng(12)

        def vector(first, samples, floor):
            return ProductVector(np.array(first), GridFunction(grid, np.array(samples), floor))

        zeros = [0.0, 0.0, 0.0]
        flows = [
            vector([4.0, 0.0, 0.0], rng.normal(size=16), 0),
            vector([2.0, 0.0, 0.0], np.r_[np.zeros(2), 1.0, rng.normal(size=13)], 2),
        ]
        ranges = [
            vector(zeros, np.r_[np.zeros(5), rng.normal(size=11)], 5),
            vector(zeros, np.r_[np.zeros(2), -2.0, rng.normal(size=13)], 2),
        ]

        def block(vectors):
            # writes the stacked row, the floors and Phi(v) = v.first[0] of each step's vector
            def rows(lo, hi, values, floors, coeffs):
                part = vectors[lo:hi]
                for row, v in enumerate(part):
                    values[row], coeffs[row] = layout.stack(v), v.first[0]
                    floors[row] = (0, v.second.support_lo)
                return len(part)

            return rows

        finite_range = perturbation._FiniteRange(block(ranges), 1, grid.h, 19)
        orbit = perturbation._SeedOrbit(block(flows), finite_range, 1)
        values, _, floors = orbit.at(1)
        value = layout.unstack(values[0], floors[0])
        want = flows[1] * 1.0 + ranges[1] * 0.5 + ranges[0] * 0.25
        assert vector_bytes(value) == vector_bytes(want)
        assert value.second.support_lo == 2 and value.second.samples[2] == 0.0

    def test_lattice_to_dense_matches_full_depth(self):
        # the basis orbits against the dense series with the identity
        # factorisation, run until it ends
        system = lattice_system()
        provider = CoupledProvider(system)
        Bd = system.block_dense()
        h = 0.25
        p1, p2 = system.provider1, system.provider2
        flow = functools.cache(lambda m: scipy.linalg.block_diag(p1.to_dense(m * h), p2.to_dense(m * h)))
        for q in (1, 5, 16, 32):
            ref = LeftFoldSeries(
                lambda m, x: flow(m) @ x,
                lambda x: Bd @ x,
                np.eye(provider.carrier_dim),
                h,
                lambda x: float(np.max(np.abs(x))),
            )
            terms, ref_gauge = ref.at(q, FULL_DEPTH)
            assert len(terms) <= FULL_DEPTH
            want = fold(terms)
            got = provider.to_dense(q * h)
            assert float(np.max(np.abs(got - want))) <= 1e-12 * float(np.max(np.abs(want)))
            report = provider.series_report(q * h)
            assert report["tail_bound"] == 0.0
            assert report["quadrature_estimate"] <= ref_gauge * (1.0 + 1e-12)


def assert_same_array(got, want):
    """Equal values and equal sign bits, so -0.0 and 0.0 differ."""
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def assert_same_vector(got, want):
    assert_same_array(got.first, want.first)
    assert_same_array(got.second.samples, want.second.samples)
    assert got.second.support_lo == want.second.support_lo


def demo_system_l4() -> CoupledSystem:
    return coupled_demo_system(L=4.0, h=0.25)


def low_rank_system(feed: float, back: float) -> CoupledSystem:
    """lattice_system() with its outputs scaled by feed and back; a zero output has rank 0."""
    base = lattice_system()
    return CoupledSystem(
        base.provider1,
        base.provider2,
        RankOneCoupling(output=base.b12.output * feed, functional=base.b12.functional),
        RankOneCoupling(output=base.b21.output * back, functional=base.b21.functional),
    )


class TestOrbitStoreAgainstLists:
    """The stacked orbit store against the list-based lattice path, bit for bit."""

    @pytest.mark.parametrize(
        "make_system",
        [coupled_demo_system, demo_system_l4, lattice_system],
        ids=["demo-L6-h0.125", "demo-L4-h0.25", "lattice"],
    )
    def test_orbits_are_the_list_orbits(self, make_system):
        # three seeds share one provider and its range orbits, and the
        # steps are asked out of order: 16, then 3, then 0..32
        system = make_system()
        h = system.provider2.grid.h
        zero = system.provider2.zero_vector()
        seeds = [
            ProductVector(np.array([0.0, 1.0, 0.0]), zero),
            ProductVector(np.ones(3), zero),
            random_seed_vector(np.random.default_rng(18), system),
        ]
        provider, oracle = CoupledProvider(system), ListOrbitProvider(system)
        last_gauges = {}
        for q in [16, 3, *range(33)]:
            for i, seed in enumerate(seeds):
                want, last_gauges[i] = oracle.apply(q * h, seed)
                assert_same_vector(provider.apply(q * h, seed), want)
                orbit, _ = provider._seed_orbit(seed, q * h)
                _, gaps, floors = orbit.at(q)
                gap = provider.unstack(gaps[0], floors[0])
                assert_same_array(np.array(provider.vec_norm(gap)), np.array(last_gauges[i]))
                report = provider.series_report()
                assert report["quadrature_estimate"] == max(last_gauges.values())
                assert report["tail_bound"] == 0.0 and report["n_terms"] == 0
        for q in (1, 2, 5, 16, 32):
            for seed in seeds:
                assert provider.terms_alive(seed, q * h) == oracle.terms_alive(seed, q * h)
            dense, gauge = oracle.to_dense(q * h)
            assert_same_array(provider.to_dense(q * h), dense)
            assert provider.series_report(q * h)["quadrature_estimate"] == gauge

    def test_a_fresh_dense_sweep_takes_one_kernel_and_one_exponential_per_block(self, monkeypatch):
        # to_dense at steps 1..16 fills the basis orbits, the range orbits
        # and the flow stores in the blocks 0..1, 2..3, 4..7, 8..15 and
        # 16..31: one expm stack and one gamma_kernel_weights call each
        kernels, exps = [], []
        weights, expm = gammashift.gamma_kernel_weights, semigroup.expm
        monkeypatch.setattr(
            gammashift, "gamma_kernel_weights", lambda *a: kernels.append(a) or weights(*a)
        )
        monkeypatch.setattr(semigroup, "expm", lambda A, t=1.0: exps.append(t) or expm(A, t))
        system = coupled_demo_system()
        h = system.provider2.grid.h
        provider = CoupledProvider(system)
        for q in range(1, 17):
            provider.to_dense(q * h)
        bound = math.ceil(math.log2(17)) + 1
        assert bound == 6 and 0 < len(kernels) <= bound and 0 < len(exps) <= bound

    @pytest.mark.parametrize(
        "make_system",
        [
            coupled_demo_system,
            demo_system_l4,
            lattice_system,
            *(functools.partial(low_rank_system, *scales) for scales in ((0, 0), (1, 0), (0, 1))),
        ],
        ids=["demo-L6-h0.125", "demo-L4-h0.25", "lattice", "r0", "b12", "b21"],
    )
    def test_dense_columns_are_the_basis_orbits(self, make_system):
        # column j of to_dense(q h) is stack(apply(q h, e_j)) for the j-th
        # stacked unit vector e_j, byte for byte, at q = 2^k - 1, 2^k and
        # 2^k + 1; the orbits come from a second provider, seeded in turn
        system = make_system()
        grid = system.provider2.grid
        h, n1 = grid.h, system.dim1
        steps = sorted({q for k in range(1, 6) for q in (2**k - 1, 2**k, 2**k + 1)})
        dense, orbits = CoupledProvider(system), CoupledProvider(system)
        columns = {q: dense.to_dense(q * h) for q in steps}
        for j, e in enumerate(np.eye(dense.carrier_dim)):
            seed = ProductVector(e[:n1], GridFunction(grid, e[n1:]))
            for q in steps:
                want = orbits.stack(orbits.apply(q * h, seed))
                assert columns[q][:, j].tobytes() == want.tobytes()


class TestMatrixFlowStore:
    """The doubling store of e^{m h A} against the single-time route of the list oracle."""

    @pytest.mark.parametrize(
        "L, h, steps", [(6.0, 0.125, 16), (4.0, 0.25, 12)], ids=["L6-h0.125", "L4-h0.25"]
    )
    def test_orbits_are_the_single_time_orbits(self, L, h, steps):
        # the benchmark's orbit sweeps from three positive seeds: values,
        # support floors, gauges and dense operators byte for byte the
        # oracle's, whose matrix carrier takes one expm call per time
        provider = CoupledProvider(coupled_demo_system(L=L, h=h))
        oracle = ListOrbitProvider(coupled_demo_system(L=L, h=h))
        zero = provider.system.provider2.zero_vector()
        rng = np.random.default_rng(22)
        last_gauges = []
        for _ in range(3):
            seed = ProductVector(rng.uniform(0.1, 1.0, 3), zero)
            for q in range(1, steps + 1):
                want, gauge = oracle.apply(q * h, seed)
                assert vector_bytes(provider.apply(q * h, seed)) == vector_bytes(want)
            last_gauges.append(gauge)
        report = provider.series_report()
        assert report["n_terms"] == 0 and report["tail_bound"] == 0.0
        assert report["quadrature_estimate"].hex() == max(last_gauges).hex()
        for q in (1, 5, 16):
            dense, gauge = oracle.to_dense(q * h)
            assert provider.to_dense(q * h).tobytes() == dense.tobytes()
            assert provider.series_report(q * h)["quadrature_estimate"].hex() == gauge.hex()

    @pytest.mark.parametrize(
        "make_system",
        [coupled_demo_system, demo_system_l4, lattice_system],
        ids=["demo-L6-h0.125", "demo-L4-h0.25", "lattice"],
    )
    def test_grid_seeds_at_the_block_edges(self, make_system):
        # seeds whose grid component is nonzero, the indicator of [-1, 0]
        # and a seeded positive grid function, each on a fresh provider:
        # the stores fill in blocks 0..1, 2..3, 4..7, .., and values,
        # floors, gauges and dense operators at q = 2^k - 1, 2^k and
        # 2^k + 1 are byte for byte those of the list oracle
        system = make_system()
        grid = system.provider2.grid
        h = grid.h
        positive = np.random.default_rng(25).uniform(0.0, 1.0, grid.count)
        positive[: grid.count // 3] = 0.0
        seeds = [
            ProductVector(np.array([0.2, 0.7, 0.4]), GridFunction.indicator(grid, -1.0, 0.0)),
            ProductVector(np.zeros(3), GridFunction(grid, positive)),
        ]
        steps = sorted({q for k in range(1, 6) for q in (2**k - 1, 2**k, 2**k + 1)})
        oracle = ListOrbitProvider(system)
        for seed in seeds:
            provider = CoupledProvider(system)
            for q in steps:
                want, gauge = oracle.apply(q * h, seed)
                assert vector_bytes(provider.apply(q * h, seed)) == vector_bytes(want)
                orbit, _ = provider._seed_orbit(seed, q * h)
                _, gaps, floors = orbit.at(q)
                gap = provider.unstack(gaps[0], floors[0])
                assert float(provider.vec_norm(gap)).hex() == float(gauge).hex()
        for q in steps:
            dense, gauge = oracle.to_dense(q * h)
            assert provider.to_dense(q * h).tobytes() == dense.tobytes()
            assert provider.series_report(q * h)["quadrature_estimate"].hex() == gauge.hex()

    @pytest.mark.parametrize(
        "feed, back", [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], ids=["r0", "b12", "b21"]
    )
    def test_lower_rank_couplings_are_the_list_orbits(self, feed, back):
        # a zero output gives its block rank 0, so the range holds 0 or 1
        # vectors instead of the 2 of lattice_system(); values and dense
        # operators stay byte for byte the list oracle's
        grid = Grid1D(x_min=-2.0, h=0.25, count=16)
        system = CoupledSystem(
            MatrixSemigroup(demo_generator()),
            GammaShiftProvider(grid),
            RankOneCoupling(
                output=np.array([0.0, 0.0, feed]), functional=GridFunctional(grid, -1.0, 0.0)
            ),
            RankOneCoupling(
                output=GridFunction.indicator(grid, 0.5, 1.0) * back,
                functional=CoordinateFunctional(2, 3),
            ),
        )
        provider, oracle = CoupledProvider(system), ListOrbitProvider(system)
        assert provider._range.rank == int(feed) + int(back)
        seed = ProductVector(np.ones(3), GridFunction.indicator(grid, -1.0, 0.0))
        for q in range(12):
            want, _ = oracle.apply(q * 0.25, seed)
            assert vector_bytes(provider.apply(q * 0.25, seed)) == vector_bytes(want)
            assert provider.to_dense(q * 0.25).tobytes() == oracle.to_dense(q * 0.25)[0].tobytes()

    @pytest.mark.parametrize("other", ["wrapped", "shift-step"])
    def test_other_carriers_are_refused_before_any_evaluation(self, other, monkeypatch):
        # a lattice system flows only matrix and Gamma-shift carriers: a
        # carrier known only through its own apply (here a wrapper of a
        # Gamma-shift carrier, or the shift on step functions) is refused
        # when the provider is built, before any exponential or kernel
        class OwnApply:
            def __init__(self, inner):
                self.inner = inner

            def __getattr__(self, name):
                return getattr(self.inner, name)

        base = lattice_system()
        if other == "wrapped":
            system = CoupledSystem(base.provider1, OwnApply(base.provider2), base.b12, base.b21)
            name, kind = "provider2", "OwnApply"
        else:
            shift = ShiftStepProvider(3)
            grid = base.provider2.grid
            system = CoupledSystem(
                shift,
                base.provider2,
                RankOneCoupling(output=np.eye(8)[3], functional=GridFunctional(grid, -1.0, 0.0)),
                RankOneCoupling(output=base.b21.output, functional=CoordinateFunctional(2, 8)),
            )
            name, kind = "provider1", "ShiftStepProvider"
        calls = []
        monkeypatch.setattr(semigroup, "expm", lambda *a: calls.append(a))
        monkeypatch.setattr(gammashift, "gamma_kernel_weights", lambda *a: calls.append(a))
        with pytest.raises(InputError, match=f"{name} is a {kind}; a lattice system flows only"):
            CoupledProvider(system)
        assert calls == []

    def test_a_checked_sweep_evaluates_nothing_past_its_end(self, monkeypatch):
        # orbit(seeds, q) fills the matrix flows to q when it is called,
        # and the blocks of its sweep end there: the sweep to q takes no
        # exponential and no kernel past step q
        system = coupled_demo_system(L=6.0, h=0.125)
        provider = CoupledProvider(system)
        seed = ProductVector(np.ones(3), GridFunction.indicator(system.provider2.grid, -1.0, 0.0))
        sweep = provider.orbit([seed], 20)
        kernels, exps = [], []
        weights, expm = gammashift.gamma_kernel_weights, semigroup.expm
        monkeypatch.setattr(
            gammashift,
            "gamma_kernel_weights",
            lambda *a: kernels.append(np.atleast_1d(a[0]).tolist()) or weights(*a),
        )
        monkeypatch.setattr(semigroup, "expm", lambda A, t=1.0: exps.append(t) or expm(A, t))
        for _ in sweep:
            pass
        assert exps == []
        assert sorted(t for block in kernels for t in block) == [m * 0.125 for m in range(1, 21)]

    def test_a_fresh_sweep_takes_one_kernel_and_one_exponential_per_block(self, monkeypatch):
        # 16 steps fill the blocks 0..1, 2..3, 4..7, 8..15 and 16..31, one
        # gamma_kernel_weights call (counted through the module attribute,
        # as the benchmark tracer wraps it) and one expm call each
        kernels, exps = [], []
        weights, expm = gammashift.gamma_kernel_weights, semigroup.expm
        monkeypatch.setattr(
            gammashift, "gamma_kernel_weights", lambda *a: kernels.append(a) or weights(*a)
        )
        monkeypatch.setattr(semigroup, "expm", lambda A, t=1.0: exps.append(t) or expm(A, t))
        system = coupled_demo_system(L=6.0, h=0.125)
        provider = CoupledProvider(system)
        seed = ProductVector(np.ones(3), system.provider2.zero_vector())
        for q in range(1, 17):
            provider.apply(q * 0.125, seed)
        bound = math.ceil(math.log2(17)) + 1
        assert bound == 6 and 0 < len(kernels) <= bound and 0 < len(exps) <= bound

    def test_a_block_past_the_overflow_defers_it(self):
        # e^{9t} of the demo matrix leaves the double range between steps
        # 315 and 316 (h = 1/4); step 256 asks for the block 256..511, which
        # keeps steps 256..315 and raises nothing until step 316 is read
        system = coupled_demo_system(L=4.0, h=0.25)
        provider = CoupledProvider(system)
        seed = ProductVector(np.ones(3), system.provider2.zero_vector())
        for q in range(1, 301):
            out = provider.apply(q * 0.25, seed)
        assert np.isfinite(out.first).all() and np.isfinite(out.second.samples).all()
        provider.orbit([seed], 315)
        with pytest.raises(ExpmOverflow) as single:
            MatrixSemigroup(demo_generator()).matrix(79.0)
        with pytest.raises(ExpmOverflow) as refused:
            provider.orbit([seed], 316)
        assert str(refused.value) == f"the orbit to t = 79 overflows: {single.value}"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_non_finite_flow_is_refused_at_its_own_step(self):
        # e^{9t} (1e300, ...) leaves the double range at step 9 (h = 1/4):
        # the block 8..15 holds step 8 and stops before step 9, which the
        # coordinate functional refuses, as the single-step evaluation did,
        # only when the sweep reaches it; a range filled ahead by another
        # seed changes nothing
        system = coupled_demo_system(L=4.0, h=0.25)
        zero = system.provider2.zero_vector()
        warm = CoupledProvider(system)
        warm.apply(3.0, ProductVector(np.ones(3), zero))
        for provider in (CoupledProvider(system), warm):
            seed = ProductVector(np.full(3, 1e300), zero)
            for q in range(9):
                provider.apply(q * 0.25, seed)
            with pytest.raises(ValueError, match="vector entries must be finite"):
                provider.apply(9 * 0.25, seed)

    def test_support_front_overflow_exits_one(self, tmp_path, capsys):
        argv = ["timeseries", "support-front", "--t-max", "80"]
        assert cli.main([*argv, "--report-out", str(tmp_path / "over.csv")]) == 1
        with pytest.raises(ExpmOverflow) as single:
            MatrixSemigroup(demo_generator()).matrix(80.0)
        assert capsys.readouterr().err == f"error: the orbit to t = 80 overflows: {single.value}\n"


def count_carrier_work(monkeypatch):
    """(kernel calls, expm calls): lists that grow with every Gamma-kernel and expm call."""
    kernels, exps = [], []
    weights, expm = gammashift.gamma_kernel_weights, semigroup.expm
    monkeypatch.setattr(gammashift, "gamma_kernel_weights", lambda *a: kernels.append(a) or weights(*a))
    monkeypatch.setattr(semigroup, "expm", lambda A, t=1.0: exps.append(t) or expm(A, t))
    return kernels, exps


def demo_like(A=None, x_min=-4.0, h=0.25, window=(-2.0, -1.0), scale=1.0, floor_drop=0):
    """coupled_demo_system(L=4, h=0.25) with one piece of its data changed.

    A replaces the generator, x_min and h move the grid, window is the
    matrix-bound functional's, scale multiplies the grid-bound output and
    floor_drop lowers that output's declared support floor.
    """
    grid = Grid1D(x_min=x_min, h=h, count=int(round(8.0 / h)))
    out = GridFunction.indicator(grid, 1.0, 2.0) * scale
    return CoupledSystem(
        MatrixSemigroup(demo_generator() if A is None else A),
        GammaShiftProvider(grid),
        RankOneCoupling(output=np.array([0.0, 0.0, 1.0]), functional=GridFunctional(grid, *window)),
        RankOneCoupling(
            output=GridFunction(grid, out.samples, out.support_lo - floor_drop),
            functional=CoordinateFunctional(2, 3),
        ),
    )


def one_ulp_generator():
    A = demo_generator()
    A[0, 1] = np.nextafter(A[0, 1], np.inf)
    return A


class TestSharedEngines:
    """Providers of equal lattice systems share one engine: its flows, kernels and range orbits."""

    @pytest.mark.parametrize("L, h", [(6.0, 0.125), (4.0, 0.25)], ids=["L6-h0.125", "L4-h0.25"])
    def test_equal_systems_share_one_engine(self, L, h, monkeypatch):
        # a second coupled_demo_system(L, h) call builds a new but equal
        # system: its provider reads the first one's engine, so its 16-step
        # sweep takes no exponential and no kernel, and its values, floors
        # and gauges at q = 2^k - 1, 2^k and 2^k + 1 are byte for byte
        # those of a fresh engine and of the list oracle
        grid = coupled_demo_system(L=L, h=h).provider2.grid
        seeds = [
            ProductVector(np.array([0.3, 0.9, 0.6]), GridFunction.zero(grid)),
            ProductVector(np.array([0.2, 0.7, 0.4]), GridFunction.indicator(grid, -1.0, 0.0)),
        ]
        first = CoupledProvider(coupled_demo_system(L=L, h=h))
        for q in range(1, 17):
            first.apply(q * h, seeds[0])
        kernels, exps = count_carrier_work(monkeypatch)
        second = CoupledProvider(coupled_demo_system(L=L, h=h))
        assert second._engine is first._engine
        for q in range(1, 17):
            second.apply(q * h, seeds[0])
        assert (len(kernels), len(exps)) == (0, 0)
        steps = sorted({q for k in range(1, 6) for q in (2**k - 1, 2**k, 2**k + 1)})
        perturbation._ENGINES.clear()
        fresh = CoupledProvider(coupled_demo_system(L=L, h=h))
        assert fresh._engine is not second._engine
        oracle = ListOrbitProvider(coupled_demo_system(L=L, h=h))
        for seed in seeds:
            for q in steps:
                want, gauge = oracle.apply(q * h, seed)
                for provider in (second, fresh):
                    assert vector_bytes(provider.apply(q * h, seed)) == vector_bytes(want)
                    orbit, _ = provider._seed_orbit(seed, q * h)
                    _, gaps, floors = orbit.at(q)
                    gap = provider.unstack(gaps[0], floors[0])
                    assert float(provider.vec_norm(gap)).hex() == float(gauge).hex()
        assert second.series_report() == fresh.series_report()

    @pytest.mark.parametrize(
        "changed",
        [
            {"A": one_ulp_generator()},
            {"x_min": -4.25},
            {"h": 0.125},
            {"window": (-2.0, -0.75)},
            {"scale": 2.0},
            {"floor_drop": 1},
        ],
        ids=["A-one-ulp", "x_min", "h", "window", "output-scaled", "support-floor"],
    )
    def test_each_change_of_data_gets_its_own_engine(self, changed):
        base = CoupledProvider(demo_like())
        assert CoupledProvider(coupled_demo_system(L=4.0, h=0.25))._engine is base._engine
        system = demo_like(**changed)
        other = CoupledProvider(system)
        assert other._engine is not base._engine
        assert CoupledProvider(demo_like(**changed))._engine is other._engine
        # the engine flows the changed data: values and floors are the oracle's
        oracle, h = ListOrbitProvider(system), system.provider2.grid.h
        seed = ProductVector(np.ones(3), GridFunction.indicator(system.provider2.grid, -1.0, 0.0))
        for q in (1, 5, 9):
            assert vector_bytes(other.apply(q * h, seed)) == vector_bytes(oracle.apply(q * h, seed)[0])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_refusals_keep_their_step_on_a_shared_engine(self, monkeypatch):
        # a second provider of an overflowing system refuses at the same
        # step with the same message, whether the first one was swept or
        # checked there; a seed whose own flow leaves the double range is
        # refused at its own step; the node budget still refuses first
        first = CoupledProvider(coupled_demo_system(L=4.0, h=0.25))
        second = CoupledProvider(coupled_demo_system(L=4.0, h=0.25))
        assert second._engine is first._engine
        seed = ProductVector(np.ones(3), GridFunction.zero(first.system.provider2.grid))
        with pytest.raises(ExpmOverflow) as single:
            MatrixSemigroup(demo_generator()).matrix(79.0)
        for provider in (first, second):
            provider.orbit([seed], 315)
            with pytest.raises(ExpmOverflow) as refused:
                provider.orbit([seed], 316)
            assert str(refused.value) == f"the orbit to t = 79 overflows: {single.value}"
            with pytest.raises(ExpmOverflow) as refused:
                provider.apply(79.0, seed)
            assert str(refused.value) == str(single.value)
        huge = ProductVector(np.full(3, 1e300), seed.second)
        for provider in (first, second):
            for q in range(9):
                provider.apply(q * 0.25, huge)
            with pytest.raises(ValueError, match="vector entries must be finite"):
                provider.apply(9 * 0.25, huge)
        calls = count_carrier_work(monkeypatch)

        def no_work(*args):
            raise AssertionError("the series was filled past its budget")

        monkeypatch.setattr(perturbation._SeedOrbit, "fill", no_work)
        third = CoupledProvider(coupled_demo_system(L=4.0, h=0.25))
        with pytest.raises(QuadratureBudgetExceeded):
            third.apply(2000 * 0.25, seed)
        with pytest.raises(QuadratureBudgetExceeded):
            third.to_dense(2000 * 0.25)
        assert calls == ([], [])

    def test_the_least_recently_used_engine_is_dropped(self):
        # four engines are kept; a fifth distinct system drops the one
        # least recently read, and a read moves an engine to the front
        def system(i):
            return coupled_demo_system(L=4.0 + i, h=0.25)

        engines = [CoupledProvider(system(i))._engine for i in range(4)]
        assert CoupledProvider(system(0))._engine is engines[0]
        CoupledProvider(system(4))
        assert len(perturbation._ENGINES) == 4
        assert CoupledProvider(system(0))._engine is engines[0]
        assert CoupledProvider(system(1))._engine is not engines[1]
        assert CoupledProvider(system(3))._engine is engines[3]

    def test_editing_the_callers_data_after_construction_changes_no_result(self):
        # the engine flows its own read-only copies: an in-place edit of
        # the caller's generator and range output after the provider is
        # built reaches neither that provider nor a later one of equal data
        system = coupled_demo_system(L=4.0, h=0.25)
        edited = CoupledProvider(system)
        system.provider1.A[0, 0] += 1.0
        system.b21.output.samples[:] *= 2.0
        later = CoupledProvider(coupled_demo_system(L=4.0, h=0.25))
        assert later._engine is edited._engine
        oracle = ListOrbitProvider(coupled_demo_system(L=4.0, h=0.25))
        seed = ProductVector(np.array([0.3, 0.9, 0.6]), GridFunction.zero(system.provider2.grid))
        for q in range(1, 13):
            want = vector_bytes(oracle.apply(q * 0.25, seed)[0])
            assert vector_bytes(edited.apply(q * 0.25, seed)) == want
            assert vector_bytes(later.apply(q * 0.25, seed)) == want

    def test_dropped_providers_and_engines_are_freed_without_the_collector(self):
        # no orbit holds its provider and the range's block writer holds
        # no engine, so reference counts alone free a deleted provider,
        # its orbits included, and an engine a fifth system evicts
        def system(i):
            return coupled_demo_system(L=4.0 + i, h=0.25)

        seed = ProductVector(np.ones(3), GridFunction.indicator(system(0).provider2.grid, -1.0, 0.0))
        gc.disable()
        try:
            provider = CoupledProvider(system(0))
            for q in range(1, 9):
                provider.apply(q * 0.25, seed)
            provider.to_dense(2.0)
            provider.series_report()
            dropped, engine = weakref.ref(provider), weakref.ref(provider._engine)
            del provider
            assert dropped() is None and engine() is not None
            for i in range(1, 5):
                other = system(i)
                CoupledProvider(other).apply(0.5, ProductVector(np.ones(3), other.provider2.zero_vector()))
            assert len(perturbation._ENGINES) == 4 and engine() is None
        finally:
            gc.enable()

    def test_dense_carriers_other_than_matrices_are_refused(self, monkeypatch):
        # off a lattice both carriers are one block exponential, so a
        # carrier without a generator is refused before any exponential
        calls = count_carrier_work(monkeypatch)
        block = DenseCoupling(np.full((8, 8), 0.1))
        system = CoupledSystem(MatrixSemigroup(-np.eye(8)), ShiftStepProvider(3), block, block)
        with pytest.raises(
            InputError, match="provider2 is a ShiftStepProvider; a system off a lattice flows only"
        ):
            CoupledProvider(system)
        assert calls == ([], [])


class TestTermCountAgainstLinearScan:
    def test_seeded_grid_matches_linear_scan(self):
        cases = 0
        kinds = set()
        for M in (1.0, 1.1, 2.5):
            for omega in (-1.0, 0.0, 9.0, 30.0):
                for norm_b in (0.0, 1e-3, 0.5, 1.0, 3.0):
                    for t in (0.0, 0.125, 1.0, 4.0, 32.0):
                        for cap in (1, 4, 40):
                            got = choose_terms(cap, (M, omega), norm_b, t)
                            want = reference_choose_terms(cap, (M, omega), norm_b, t)
                            assert got[0] == want[0]
                            assert got[1].hex() == want[1].hex()
                            cases += 1
                            if got[1] == 0.0:
                                kinds.add("zero")
                            elif math.isinf(got[1]):
                                kinds.add("inf")
                            elif got[1] > TAIL_TOLERANCE:
                                kinds.add("capped")
                            else:
                                kinds.add("met")
        assert cases == 900
        assert kinds == {"zero", "inf", "capped", "met"}

    def test_random_cases_match_linear_scan(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            env = (float(rng.uniform(1.0, 3.0)), float(rng.uniform(-2.0, 12.0)))
            norm_b = float(10.0 ** rng.uniform(-4.0, 1.0))
            t = float(rng.integers(0, 64)) * 0.125
            cap = int(rng.integers(1, 41))
            got = choose_terms(cap, env, norm_b, t)
            want = reference_choose_terms(cap, env, norm_b, t)
            assert got[0] == want[0] and got[1].hex() == want[1].hex()
            n = int(rng.integers(0, 41))
            assert perturbation_tail_bound(env, norm_b, t, n).hex() == reference_tail_bound(
                env, norm_b, t, n
            ).hex()


class TestLatticeNodeBudget:
    def test_orbit_refused_before_any_work(self, monkeypatch):
        provider = CoupledProvider(lattice_system())
        seed = ProductVector(np.ones(3), provider.system.provider2.zero_vector())

        def no_work(*args):
            raise AssertionError("the series was filled past its budget")

        monkeypatch.setattr(perturbation._SeedOrbit, "fill", no_work)
        # r (q + 1)(q + 2) / 2 exceeds the budget at q = 2000
        with pytest.raises(QuadratureBudgetExceeded):
            provider.apply(2000 * 0.25, seed)
        with pytest.raises(QuadratureBudgetExceeded):
            provider.terms_alive(seed, 2000 * 0.25)
        with pytest.raises(QuadratureBudgetExceeded):
            provider.to_dense(2000 * 0.25)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_series_overflow_is_typed(self):
        # the flows stay in range, but a coupling of size 1e300 takes the
        # round trip's coefficients past the double range at t = 1, where
        # the third series term would leave it
        grid = Grid1D(x_min=-2.0, h=0.25, count=16)
        system = CoupledSystem(
            MatrixSemigroup(demo_generator()),
            GammaShiftProvider(grid),
            RankOneCoupling(
                output=np.array([0.0, 0.0, 1e300]), functional=GridFunctional(grid, -1.0, 0.0)
            ),
            RankOneCoupling(
                output=GridFunction.indicator(grid, 0.5, 1.0), functional=CoordinateFunctional(2, 3)
            ),
        )
        provider = CoupledProvider(system)
        seed = ProductVector(np.zeros(3), GridFunction.indicator(grid, -1.0, 0.0))
        sweep = provider.orbit([seed], 8)
        with pytest.raises(ExpmOverflow, match="coefficients at t = 1 left the double range"):
            for q in range(1, 9):
                provider.apply(q * 0.25, seed)
        with pytest.raises(ExpmOverflow, match="coefficients at t = 1 left the double range"):
            for _ in sweep:
                pass

    def test_orbit_past_the_squared_norm_range(self):
        # from t ~ 38 the matrix component passes 1e154, where a plain sum
        # of squares overflows; the orbit and its gauge stay finite
        system = coupled_demo_system(L=4.0, h=0.25)
        provider = CoupledProvider(system)
        seed = ProductVector(np.ones(3), system.provider2.zero_vector())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = provider.apply(50.0, seed)
        assert 1e154 < float(np.max(out.first)) < math.inf
        report = provider.series_report()
        assert report["tail_bound"] == 0.0
        assert 0.0 < report["quadrature_estimate"] < math.inf

    def test_divergent_renewal_refused(self):
        # K(0) = [[0, 1000], [1, 0]] has spectral radius sqrt(1000), so
        # w K(0) with w = h / 2 = 0.125 has radius 3.95 and the lattice
        # series diverges at the first step
        grid = Grid1D(x_min=-2.0, h=0.25, count=16)
        system = CoupledSystem(
            MatrixSemigroup(demo_generator()),
            GammaShiftProvider(grid),
            RankOneCoupling(
                output=np.array([0.0, 0.0, 1.0]), functional=GridFunctional(grid, -1.0, 0.0)
            ),
            RankOneCoupling(
                output=GridFunction.indicator(grid, -1.0, 0.0) * 1000.0,
                functional=CoordinateFunctional(2, 3),
            ),
        )
        provider = CoupledProvider(system)
        seed = ProductVector(np.ones(3), system.provider2.zero_vector())
        assert vector_bytes(provider.apply(0.0, seed)) == vector_bytes(seed)
        with pytest.raises(PremiseViolation, match="spectral radius 3.95"):
            provider.apply(0.25, seed)
        with pytest.raises(PremiseViolation, match="diverges"):
            provider.to_dense(0.25)

    def test_matrix_flow_overflow_refused(self):
        # e^{9t} of the demo matrix leaves the double range between the two steps
        provider = CoupledProvider(coupled_demo_system(L=4.0, h=0.25))
        seed = ProductVector(np.ones(3), provider.system.provider2.zero_vector())
        provider.orbit([seed], 315)  # t = 78.75
        with pytest.raises(ExpmOverflow, match="the orbit to t = 79 overflows"):
            provider.orbit([seed], 316)

    def test_budget_edge(self):
        perturbation.check_node_budget(40, 314)  # 1,990,800 nodes
        with pytest.raises(QuadratureBudgetExceeded):
            perturbation.check_node_budget(40, 315)  # 2,003,440 nodes

    def test_a_rank_zero_system_has_a_step_cap(self, monkeypatch):
        # every node counts at least one summand, so both outputs zero
        # still cap the steps: 1999 * 2000 / 2 nodes pass, 2000 * 2001 / 2
        # do not, and the refusal comes before any Gamma kernel
        perturbation.check_node_budget(0, 1998)
        for q in (1999, 10**9):
            with pytest.raises(QuadratureBudgetExceeded):
                perturbation.check_node_budget(0, q)
        system = low_rank_system(0.0, 0.0)
        provider = CoupledProvider(system)
        seed = ProductVector(np.ones(3), GridFunction.indicator(system.provider2.grid, -1.0, 0.0))
        kernels, _ = count_carrier_work(monkeypatch)
        for refused in (lambda: provider.apply(2000 * 0.25, seed), lambda: provider.to_dense(2000 * 0.25)):
            with pytest.raises(QuadratureBudgetExceeded):
                refused()
        with pytest.raises(QuadratureBudgetExceeded):
            provider.orbit([seed], 2000)
        assert kernels == []
