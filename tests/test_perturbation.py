"""Perturbation series, order comparisons, invariance transfer, coupling."""

import math

import numpy as np
import pytest

import evpos.perturbation as perturbation
from evpos.errors import (
    CouplingPremiseWarning,
    ExpmOverflow,
    InputError,
    PremiseViolation,
    QuadratureBudgetExceeded,
    ShiftNotOnGrid,
)
from evpos.gammashift import GammaShiftProvider, Grid1D, GridFunction
from evpos.lattice import IdealMask
from evpos.perturbation import (
    TAIL_TOLERANCE,
    CoordinateFunctional,
    CoupledProvider,
    CoupledSystem,
    DenseCoupling,
    DysonPhillipsConfig,
    GridFunctional,
    ProductVector,
    RankOneCoupling,
    choose_terms,
    couple,
    coupling_irreducibility_check,
    coupling_premise_check,
    domination_check,
    dyson_phillips_sum,
    dyson_phillips_terms,
    invariance_transfer_check,
    perturbation_tail_bound,
)
from evpos.presets import coupled_demo_system
from evpos.semigroup import MatrixSemigroup, demo_generator, expm


def random_pair(rng, n_max=8, scale=2.0):
    n = int(rng.integers(2, n_max + 1))
    A = rng.normal(size=(n, n))
    A *= scale / max(np.linalg.norm(A, 2), 1e-9)
    B = rng.normal(size=(n, n))
    B *= scale / max(np.linalg.norm(B, 2), 1e-9)
    return A, B


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
        terms, _tail = dyson_phillips_terms(MatrixSemigroup(np.zeros((2, 2))), B, 0.7)
        assert np.max(np.abs(terms[1] - 0.7 * B)) <= 1e-12
        assert np.max(np.abs(terms[2] - (0.7 * B) @ (0.7 * B) / 2.0)) <= 1e-12

    def test_first_two_terms_against_block_exponential(self):
        # independent oracle: exp(t[[A,B],[0,A]]) carries the first-order
        # term in its top-right block, and the 3x3 block version carries
        # the second-order term
        rng = np.random.default_rng(31)
        for _ in range(5):
            A, B = random_pair(rng, n_max=5)
            n = A.shape[0]
            t = 1.1
            terms, _ = dyson_phillips_terms(MatrixSemigroup(A), B, t)

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

    def test_sum_matches_perturbed_exponential_small_norms(self):
        rng = np.random.default_rng(1234)
        for _ in range(12):
            A, B = random_pair(rng, scale=float(rng.uniform(0.3, 2.0)))
            prov = MatrixSemigroup(A)
            for t in (0.5, 1.0, 2.0):
                res = dyson_phillips_sum(prov, B, t)
                err = float(np.linalg.norm(res.total - expm(A + B, t), 2))
                assert err <= res.tail_bound + 1e-8

    def test_sum_matches_perturbed_exponential_larger_norms(self):
        rng = np.random.default_rng(77)
        for _ in range(6):
            A, B = random_pair(rng, scale=5.0)
            prov = MatrixSemigroup(A)
            res = dyson_phillips_sum(prov, B, 2.0)
            err = float(np.linalg.norm(res.total - expm(A + B, 2.0), 2))
            assert err <= res.tail_bound + 10.0 * res.quadrature_estimate + 1e-8

    def test_terms_positive_under_positive_data(self):
        A = np.array([[-2.0, 1.0], [0.5, -3.0]])  # off-diagonal nonnegative
        B = np.array([[0.2, 0.1], [0.0, 0.4]])
        terms, _ = dyson_phillips_terms(MatrixSemigroup(A), B, 1.0)
        for term in terms:
            assert float(np.min(term)) >= -1e-12

    def test_tail_bound_decreases_and_covers_remainder(self):
        env = (1.0, 9.0)
        tails = [perturbation_tail_bound(env, 1.0, 1.0, n) for n in (2, 5, 10, 20)]
        assert all(tails[i] > tails[i + 1] for i in range(len(tails) - 1))
        # conservative: must dominate the actual remainder of a sample series
        A, B = demo_generator(), np.diag([0.0, 0.0, 1.0])
        prov = MatrixSemigroup(A)
        short_terms, short_tail = dyson_phillips_terms(
            prov, B, 1.0, DysonPhillipsConfig(max_terms=3)
        )
        remainder = float(np.linalg.norm(expm(A + B, 1.0) - sum(short_terms), 2))
        assert remainder <= short_tail

    def test_term_cap_respected(self):
        cfg = DysonPhillipsConfig(max_terms=4)
        n, tail = choose_terms(cfg, (1.0, 9.0), 1.0, 1.0)
        assert n <= 4
        assert tail > 0

    def test_node_budget_guard(self):
        # at t = 2000 the term count hits its cap of 40, so the panel
        # recursion would need 40 x 3 x 4000 x 8 = 3.84e6 nodes
        with pytest.raises(QuadratureBudgetExceeded):
            dyson_phillips_sum(MatrixSemigroup(demo_generator()), np.eye(3), 2000.0)

    def test_config_validation(self):
        with pytest.raises(InputError):
            DysonPhillipsConfig(max_terms=0)


class TestDomination:
    @pytest.mark.parametrize("b", [0.0, 1.0, 5.0])
    def test_showcase_diagonal_family(self, b):
        rep = domination_check(demo_generator(), np.diag([0.0, 0.0, b]))
        assert rep.premise_min >= -1e-9
        assert rep.conclusion_min >= -1e-9

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

    def test_lattice_carrier_domination(self):
        grid = Grid1D(x_min=-2.0, h=0.25, count=16)
        prov = GammaShiftProvider(grid)
        B = np.zeros((16, 16))
        B[3, 12] = 0.5  # one positive mass route
        rep = domination_check(prov, B, tol=1e-9)
        assert rep.conclusion_min >= -1e-9


class TestInvarianceTransfer:
    def test_block_triangular_family(self):
        At = np.array([[-1.0, 2.0, 0.0], [1.0, -2.0, 0.0], [0.0, 0.0, -3.0]])
        Bt = np.array([[0.0, 1.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        rep = invariance_transfer_check(At, Bt, IdealMask.of([0, 1], 3))
        assert rep.perturbed_onset == 0.0
        assert rep.unperturbed_onset == 0.0
        assert rep.family_onset == (0.0, 0.0)
        assert rep.max_leak_past_onset == 0.0

    def test_trivial_ideals_accepted(self):
        A = demo_generator()
        B = np.diag([0.0, 0.0, 1.0])
        for mask in (IdealMask.empty(3), IdealMask.full(3)):
            rep = invariance_transfer_check(A, B, mask)
            assert rep.max_leak_past_onset == 0.0

    def test_leaky_perturbation_violates_premise(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        B = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(PremiseViolation):
            invariance_transfer_check(A, B, IdealMask.of([0], 2))

    def test_transfer_never_fires_on_block_triangular_inputs(self):
        # whenever the perturbed family leaves the ideal invariant the
        # transfer back to the unperturbed family is a theorem; random
        # positivity-preserving block-upper-triangular generators must
        # never raise (general sign patterns would trip the mixed
        # positivity premise instead of exercising the transfer)
        rng = np.random.default_rng(53)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, n))
            A = np.abs(rng.normal(size=(n, n)))
            A[np.diag_indices(n)] = -rng.uniform(1.0, 3.0, size=n)
            B = np.abs(rng.normal(size=(n, n)))
            A[k:, :k] = 0.0
            B[k:, :k] = 0.0
            rep = invariance_transfer_check(A, B, IdealMask.of(range(k), n))
            assert rep.max_leak_past_onset <= 1e-9

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

    def test_coordinate_functional(self):
        func = CoordinateFunctional(2, 3)
        assert func(np.array([5.0, 6.0, 7.0])) == 7.0

    def test_factorization_mismatch_rejected(self):
        A = demo_generator()
        bad = (np.ones((3, 1)), np.ones((1, 3)))
        with pytest.raises(InputError):
            CoupledSystem(
                MatrixSemigroup(A),
                MatrixSemigroup(A),
                DenseCoupling(0.1 * np.ones((3, 3))),
                DenseCoupling(0.1 * np.ones((3, 3))),
                factorization12=bad,
            )

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
        dense = couple(system, 0.7)
        ref = expm(block, 0.7)
        assert np.max(np.abs(dense - ref)) <= 1e-9 * float(np.max(np.abs(ref)))

    def test_premise_check_passes(self):
        rep = coupling_premise_check(matrix_matrix_system())
        assert rep.ok
        assert rep.min_entry >= 0.0
        assert rep.pairs_checked > 0

    def test_negative_coupling_warns_and_still_returns(self):
        system = CoupledSystem(
            MatrixSemigroup(demo_generator()),
            MatrixSemigroup(demo_generator()),
            DenseCoupling(-0.1 * np.ones((3, 3))),
            DenseCoupling(0.1 * np.ones((3, 3))),
        )
        with pytest.warns(CouplingPremiseWarning):
            dense = couple(system, 0.5)
        assert dense.shape == (6, 6)

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


class TestCoupledLatticeCarrier:
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
        terms = provider.orbit_terms(seed, 2 * 0.25)
        assert len(terms) <= 2
        # once the feed can travel back into the window a third term appears
        longer = provider.orbit_terms(seed, 4 * 0.25)
        assert len(longer) >= 3

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
        # terms, sum or series report
        def observe(warm_up: bool):
            provider = CoupledProvider(lattice_system())
            seed = ProductVector(
                np.array([0.0, 1.0, 0.0]), provider.system.provider2.zero_vector()
            )
            if warm_up:
                provider.orbit_terms(seed, 1.5)
            terms = provider.orbit_terms(seed, 0.5)
            total = provider.apply(0.5, seed)
            vectors = [*terms, total]
            return (
                [(v.first.tobytes(), v.second.samples.tobytes()) for v in vectors],
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

    Each quadrature sum is folded one object at a time.  apply_b is B as
    a map; a dense identity factorisation of the package is read through
    its coefficients, which are the image B V.
    """

    def __init__(self, apply_t, apply_b, seed, h, norm):
        if isinstance(apply_b, perturbation._DenseRange):
            apply_b = apply_b.coefficients
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
                wts = perturbation._lattice_weights(p, self.h)
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
    """The envelope tail, every term recomputed from its logarithm."""
    M, omega = float(envelope[0]), float(envelope[1])
    t = float(t)
    if t <= 0.0 or norm_b <= 0.0:
        return 0.0
    x = norm_b * M * t
    log_m = math.log(M) if M > 0 else float("-inf")
    base = omega * t
    total = 0.0
    n = n_terms + 1
    while True:
        log_term = (n + 1) * log_m + base + n * math.log(x) - math.lgamma(n + 1)
        if log_term >= 700.0:
            return math.inf
        term = math.exp(log_term)
        total += term
        if n > x and (term == 0.0 or term <= total * 1e-18):
            return total
        n += 1


def reference_choose_terms(config, envelope, norm_b, t):
    """The first n = 0, 1, ... whose tail passes, each tail summed from scratch."""
    for n in range(config.max_terms + 1):
        tail = reference_tail_bound(envelope, norm_b, t, n)
        if tail <= TAIL_TOLERANCE:
            return n, tail
    return config.max_terms, reference_tail_bound(envelope, norm_b, t, config.max_terms)


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


def fold(terms):
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def observe_orbit(system, seeds, q_max):
    """Per-step (terms, sum, series report, live pattern) of fresh providers."""
    h = system.provider2.grid.h
    seen = []
    for seed in seeds:
        provider = CoupledProvider(system)
        for q in range(1, q_max + 1):
            terms = provider.orbit_terms(seed, q * h)
            total = provider.apply(q * h, seed)
            series = provider._orbit_cache[provider._fingerprint(seed)]
            live = [row[: q + 1] for row in series.live[: len(terms)]]
            seen.append((terms, total, provider.series_report(), live))
        # the terms past the first came from the shared range orbits
        assert 0 < len(provider._range._orbits) <= q_max + 1
    return seen


def reference_orbit(system, seeds, q_max):
    """observe_orbit through LeftFoldSeries, B applied block by block."""
    h = system.provider2.grid.h
    p1, p2 = system.provider1, system.provider2

    def apply_t(m, v):
        return ProductVector(p1.apply(m * h, v.first), p2.apply(m * h, v.second))

    def apply_b(v):
        return ProductVector(system.b12.apply(v.second), system.b21.apply(v.first))

    config = DysonPhillipsConfig()
    seen = []
    for seed in seeds:
        series = LeftFoldSeries(apply_t, apply_b, seed.copy(), h, CoupledProvider(system).vec_norm)
        for q in range(1, q_max + 1):
            n_terms, tail = choose_terms(
                config, system.diag_envelope(), system.perturbation_norm(), q * h
            )
            terms, gauge = series.at(q, n_terms)
            report = {"n_terms": len(terms) - 1, "tail_bound": tail, "quadrature_estimate": gauge}
            live = [row[: q + 1] for row in series.live[: len(terms)]]
            seen.append((terms, fold(terms), report, live))
    return seen


def max_entry(v):
    return max(float(np.max(np.abs(v.first))), float(np.max(np.abs(v.second.samples))))


def assert_orbits_agree(got, want):
    """Exact term counts, floors, live patterns and tails; values to 1e-12 relative."""
    assert len(got) == len(want)
    cases = 0
    for (terms, total, report, live), (ref_terms, ref_total, ref_report, ref_live) in zip(got, want):
        assert len(terms) == len(ref_terms)
        assert live == ref_live
        assert report["n_terms"] == ref_report["n_terms"]
        assert report["tail_bound"].hex() == ref_report["tail_bound"].hex()
        gauge, ref_gauge = report["quadrature_estimate"], ref_report["quadrature_estimate"]
        assert abs(gauge - ref_gauge) <= 1e-12 * ref_gauge
        for v, ref in zip([*terms, total], [*ref_terms, ref_total]):
            assert v.second.support_lo == ref.second.support_lo
            scale = 1e-12 * max_entry(ref)
            assert float(np.max(np.abs(v.first - ref.first))) <= scale
            assert float(np.max(np.abs(v.second.samples - ref.second.samples))) <= scale
            cases += 1
    return cases


class TestLatticeSeriesAgainstLeftFold:
    @pytest.mark.parametrize(
        "make_system, q_max",
        [(lattice_system, 32), (coupled_demo_system, 32)],
        ids=["lattice_system", "coupled_demo_system"],
    )
    def test_coupled_orbits_bitwise_equal(self, make_system, q_max):
        # bitwise in the integer bookkeeping: the package sums
        # (w_j c_jk) T(u_k), the reference w_j T(c_jk u_k), the same
        # products in another order, so support floors, term counts, live
        # patterns and tails agree bit for bit and the values to rounding
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
        assert assert_orbits_agree(fast, reference_orbit(system, seeds, q_max)) > 300
        assert any(len(terms) <= 2 for terms, _, _, _ in fast)
        assert any(len(terms) >= 4 for terms, _, _, _ in fast)

    def test_carrier_work_is_the_range_orbits(self, monkeypatch):
        # rank-one blocks give r = 2 range vectors, so an orbit to step q
        # applies the grid family (r + 1)(q + 1) times whatever the term
        # count, and a second seed adds only its own term-0 orbit
        system = coupled_demo_system()
        h = system.provider2.grid.h
        calls = []
        apply = GammaShiftProvider.apply
        monkeypatch.setattr(
            GammaShiftProvider, "apply", lambda self, t, f: calls.append(t) or apply(self, t, f)
        )
        provider = CoupledProvider(system)
        zero = system.provider2.zero_vector()
        q, r = 32, 2
        for seed, budget in (
            (ProductVector(np.ones(3), zero), (r + 1) * (q + 1)),
            (ProductVector(np.array([1.0, 2.0, 0.5]), zero), q + 1),
        ):
            before = len(calls)
            for step in range(1, q + 1):
                provider.apply(step * h, seed)
            assert len(calls) - before <= budget
            assert provider.series_report()["n_terms"] >= 3

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
        # the floor is bookkept, not read off the samples: the first
        # cells of these three summands cancel exactly
        funcs = [
            GridFunction(grid, np.r_[np.zeros(2), 1.0, rng.normal(size=5)], 2),
            GridFunction(grid, np.r_[np.zeros(2), -2.0, rng.normal(size=5)], 2),
            GridFunction(grid, np.r_[np.zeros(5), rng.normal(size=3)], 5),
        ]
        vecs = [ProductVector(rng.normal(size=3), f) for f in funcs]
        w = np.array([[1.0, 0.5, 0.25]])
        (got,) = perturbation._weighted_sums(vecs, w)
        want = vecs[0] * 1.0 + vecs[1] * 0.5 + vecs[2] * 0.25
        assert vector_bytes(got) == vector_bytes(want)
        assert got.second.support_lo == 2 and got.second.samples[2] == 0.0

    def test_dense_lattice_terms_bitwise_equal(self):
        grid = Grid1D(x_min=-2.0, h=0.25, count=16)
        prov = GammaShiftProvider(grid)
        rng = np.random.default_rng(7)
        B = rng.normal(size=(16, 16))
        B[:, :5] = 0.0  # images of the low cells vanish
        ops = [prov.to_dense(m * grid.h) for m in range(25)]
        for q in (1, 2, 3, 7, 24):
            terms, gauge = perturbation._dense_lattice_terms(
                lambda m: ops[m], B, grid.h, q, 12
            )
            ref = LeftFoldSeries(
                lambda m, x: ops[m] @ x,
                lambda x: B @ x,
                np.eye(16),
                grid.h,
                lambda x: float(np.max(np.abs(x))) if x.size else 0.0,
            )
            ref_terms, ref_gauge = ref.at(q, 12)
            assert [t.tobytes() for t in terms] == [t.tobytes() for t in ref_terms]
            assert gauge.hex() == ref_gauge.hex()

    def test_lattice_to_dense_bitwise_equal(self, monkeypatch):
        def observe():
            provider = CoupledProvider(lattice_system())
            out = []
            for q in (1, 5, 16, 32):
                out.append(provider.to_dense(q * 0.25).tobytes())
                out.append({k: float(v).hex() for k, v in provider.series_report(q * 0.25).items()})
            return out

        fast = observe()
        monkeypatch.setattr(perturbation, "_LatticeSeries", LeftFoldSeries)
        assert fast == observe()

    def test_lattice_dp_sum_bitwise_equal(self, monkeypatch):
        grid = Grid1D(x_min=-2.0, h=0.25, count=16)
        B = np.zeros((16, 16))
        B[3, 12] = 0.5

        def observe():
            res = dyson_phillips_sum(GammaShiftProvider(grid), B, 2.0)
            return [t.tobytes() for t in res.terms], res.total.tobytes(), res.quadrature_estimate

        fast = observe()
        monkeypatch.setattr(perturbation, "_LatticeSeries", LeftFoldSeries)
        assert fast == observe()


class TestTermCountAgainstLinearScan:
    def test_seeded_grid_matches_linear_scan(self):
        cases = 0
        kinds = set()
        for M in (1.0, 1.1, 2.5):
            for omega in (-1.0, 0.0, 9.0, 30.0):
                for norm_b in (0.0, 1e-3, 0.5, 1.0, 3.0):
                    for t in (0.0, 0.125, 1.0, 4.0, 32.0):
                        for cap in (1, 4, 40):
                            cfg = DysonPhillipsConfig(max_terms=cap)
                            got = choose_terms(cfg, (M, omega), norm_b, t)
                            want = reference_choose_terms(cfg, (M, omega), norm_b, t)
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
            cfg = DysonPhillipsConfig(max_terms=int(rng.integers(1, 41)))
            got = choose_terms(cfg, env, norm_b, t)
            want = reference_choose_terms(cfg, env, norm_b, t)
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

        monkeypatch.setattr(perturbation._LatticeSeries, "_fill", no_work)
        # (q + 1)(q + 2) / 2 alone exceeds the budget at q = 2000
        with pytest.raises(QuadratureBudgetExceeded):
            provider.apply(2000 * 0.25, seed)
        with pytest.raises(QuadratureBudgetExceeded):
            provider.orbit_terms(seed, 2000 * 0.25)
        with pytest.raises(QuadratureBudgetExceeded):
            provider.to_dense(2000 * 0.25)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_series_overflow_is_typed(self):
        # the flows stay in range, but a coupling of size 1e300 takes the
        # third term of the round trip past the double range
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
        provider.check_orbit(8)
        with pytest.raises(ExpmOverflow, match="term 3 at t = 1 left the double range"):
            for q in range(1, 9):
                provider.apply(q * 0.25, seed)

    def test_matrix_flow_overflow_refused(self):
        # e^{9t} of the demo matrix leaves the double range between the two steps
        provider = CoupledProvider(coupled_demo_system(L=4.0, h=0.25), DysonPhillipsConfig(8))
        provider.check_orbit(315)  # t = 78.75
        with pytest.raises(ExpmOverflow, match="the orbit to t = 79 overflows"):
            provider.check_orbit(316)

    def test_budget_edge(self):
        perturbation.check_node_budget(40, 314)  # 1,990,800 nodes
        with pytest.raises(QuadratureBudgetExceeded):
            perturbation.check_node_budget(40, 315)  # 2,003,440 nodes
