"""Dominant-eigenvalue structure: simplicity, projections, ergodic means."""

import numpy as np
import pytest
from scipy.linalg import block_diag, schur

import evpos.semigroup as semigroup
import evpos.spectral as spectral
from evpos.errors import (
    CertificateMissing,
    NoConvergence,
    NotAnEigenpair,
    PremiseViolation,
)
from evpos.semigroup import MatrixSemigroup, demo_eigensystem, demo_generator, expm
from evpos.spectral import (
    algebraic_simplicity_test,
    dominant_projection,
    mean_ergodic_projection,
)
from sampled_oracles import sampled_cesaro_limit

JORDAN = np.array([[1.0, 1.0], [0.0, 1.0]])
ROTATION = np.array([[0.0, -1.0], [1.0, 0.0]])
TARGET = np.ones((3, 3)) / 3.0


class TestSimplicity:
    def test_dominant_eigenvalue_of_showcase_is_simple(self):
        u = np.ones(3) / np.sqrt(3.0)
        assert algebraic_simplicity_test(demo_generator(), 9.0, u, u)

    def test_all_showcase_eigenvalues_are_simple(self):
        evals, U = demo_eigensystem()
        A = demo_generator()
        for i in range(3):
            assert algebraic_simplicity_test(A, float(evals[i]), U[:, i], U[:, i])

    def test_jordan_block_fails(self):
        # eigenvalue 1 is geometrically simple but defective: the left and
        # right eigenvectors pair to zero
        assert not algebraic_simplicity_test(
            JORDAN, 1.0, np.array([1.0, 0.0]), np.array([0.0, 1.0])
        )

    def test_semisimple_double_eigenvalue_fails(self):
        A = np.diag([2.0, 2.0, 1.0])
        e1 = np.array([1.0, 0.0, 0.0])
        assert not algebraic_simplicity_test(A, 2.0, e1, e1)

    def test_wrong_eigenvalue_rejected(self):
        with pytest.raises(NotAnEigenpair):
            algebraic_simplicity_test(demo_generator(), 7.5, np.ones(3), np.ones(3))

    def test_bad_eigenvector_rejected(self):
        with pytest.raises(NotAnEigenpair):
            algebraic_simplicity_test(
                demo_generator(), 9.0, np.array([1.0, 0.0, 0.0]), np.ones(3)
            )


class TestDominantProjection:
    def test_showcase_projection_is_averaging(self):
        rep = dominant_projection(demo_generator())
        assert rep.eigenvalue == pytest.approx(9.0, abs=1e-9)
        assert rep.rank == 1
        assert np.max(np.abs(rep.projection - TARGET)) <= 1e-10
        assert max(rep.residuals.values()) <= 1e-8

    def test_positive_eigenvector_assertion(self):
        rep = dominant_projection(demo_generator(), expect_positive_eigenvectors=True)
        assert np.all(rep.right_vec > 0)
        assert np.all(rep.left_vec > 0)
        assert rep.right_vec @ rep.left_vec == pytest.approx(1.0)

    def test_shift_equivariance(self):
        base = dominant_projection(demo_generator())
        for c in (-3.0, 2.5, 10.0):
            rep = dominant_projection(demo_generator() + c * np.eye(3))
            assert rep.eigenvalue == pytest.approx(9.0 + c, abs=1e-9)
            assert np.max(np.abs(rep.projection - base.projection)) <= 1e-9

    def test_projection_commutes_with_the_flow(self):
        rep = dominant_projection(demo_generator())
        E = expm(demo_generator(), 1.0)
        lhs = E @ rep.projection
        rhs = rep.projection @ E
        assert np.max(np.abs(lhs - rhs)) <= 1e-8 * np.max(np.abs(lhs))
        assert np.max(np.abs(lhs - np.exp(9.0) * rep.projection)) <= 1e-6 * np.exp(9.0)

    def test_jordan_block_has_no_certificate(self):
        with pytest.raises(CertificateMissing):
            dominant_projection(JORDAN)

    def test_complex_dominant_pair_has_no_certificate(self):
        with pytest.raises(CertificateMissing):
            dominant_projection(ROTATION)


def schur_dominant_vector(A, s, gap):
    """Leading Schur vector for the eigenvalue near `s` (a 1x1 block)."""
    margin = max(min(gap, 1.0), 1e-8) / 2.0
    _, Q, sdim = schur(A, output="real", sort=lambda re, im: re > s - margin)
    assert sdim == 1, "dominant Schur block is not 1x1"
    return Q[:, 0]


def schur_projection(A):
    """Independent route: the sorted real Schur vectors of A and A^T, each
    refined by three steps of inverse iteration, give u phi^T / <phi, u>."""
    order = np.sort(np.linalg.eigvals(A).real)
    s, gap = float(order[-1]), float(order[-1] - order[-2])
    shift = (s + 1e-11 * (1.0 + abs(s))) * np.eye(A.shape[0])
    vecs = []
    for X in (A, A.T):
        v = schur_dominant_vector(X, s, gap)
        for _ in range(3):
            v = np.linalg.solve(X - shift, v)
            v = v / np.linalg.norm(v)
        vecs.append(v)
    u, phi = vecs
    return np.outer(u, phi) / float(phi @ u)


def oracle_draws():
    """Seeded Metzler, eventually positive and symmetric indefinite inputs."""
    rng = np.random.default_rng(4207)
    for n in (3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48, 64):
        metzler = rng.uniform(0.0, 1.0, (n, n)) - rng.uniform(0.0, 2.0) * np.eye(n)
        eventual = rng.uniform(0.5, 1.5, (n, n))
        eventual[0, n - 1] = -rng.uniform(0.05, 0.2)
        eventual[n - 1, 1] = -rng.uniform(0.05, 0.2)
        G = rng.normal(size=(n, n))
        yield from (("metzler", metzler), ("eventual", eventual), ("indefinite", (G + G.T) / 2))


class TestSchurOracle:
    def test_projection_matches_sorted_schur_route(self):
        draws = list(oracle_draws())
        assert len(draws) == 42
        for stratum, A in draws:
            P = dominant_projection(A).projection
            ref = schur_projection(A)
            err = float(np.max(np.abs(P - ref))) / float(np.max(np.abs(ref)))
            assert err <= 1e-10, (stratum, A.shape[0], err)


I2, Z2 = np.eye(2), np.zeros((2, 2))


class TestMeanErgodic:
    def test_shifted_showcase_converges_to_averaging(self):
        A = demo_generator() - 9.0 * np.eye(3)
        rep = mean_ergodic_projection(A)
        assert rep.rank == 1
        assert np.max(np.abs(rep.projection - TARGET)) <= 1e-13
        assert np.allclose(np.outer(rep.right_vec, rep.left_vec), rep.projection, atol=1e-15)
        assert rep.right_vec @ rep.left_vec == pytest.approx(1.0)

    def test_cesaro_distance_obeys_ten_over_T(self):
        # independent oracle: with the exact symmetric eigensystem the
        # Cesaro mean is P + sum over negative eigenvalues of
        # ((e^{lam T} - 1) / (lam T)) P_lam
        evals, U = demo_eigensystem()
        P = np.outer(U[:, 2], U[:, 2])
        for T in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0):
            C_T = P.copy()
            for i, lam in enumerate((-9.0, -1.0)):
                C_T += (np.exp(lam * T) - 1.0) / (lam * T) * np.outer(U[:, i], U[:, i])
            assert np.max(np.abs(C_T - P)) <= 10.0 / T

    @pytest.mark.parametrize(
        "A, rank",
        [
            (demo_generator() - 9.0 * np.eye(3), 1),
            (np.diag([0.0, 0.0, -1.0]), 2),
            # a defective stable block beside a simple 0
            (np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 0.0]]), 1),
        ],
    )
    def test_projection_onto_the_kernel(self, A, rank):
        rep = mean_ergodic_projection(A)
        P = rep.projection
        assert rep.rank == rank
        assert np.linalg.matrix_rank(P) == rank
        bound = 1e-8 * (1.0 + np.linalg.norm(A, 2))
        assert rep.residuals["idempotent"] <= bound
        assert rep.residuals["eigen_commute"] <= bound
        assert np.max(np.abs(A @ P)) <= bound and np.max(np.abs(P @ A)) <= bound

    def test_rotation_group_means_vanish(self):
        rep = mean_ergodic_projection(ROTATION)
        assert rep.rank == 0
        assert np.max(np.abs(rep.projection)) == 0.0

    def test_nilpotent_part_never_stabilises(self):
        with pytest.raises(NoConvergence):
            mean_ergodic_projection(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize(
        "A",
        [
            np.diag([1.0, 1.0], 1),
            np.block([[ROTATION, I2], [Z2, ROTATION]]),
            np.block([[ROTATION, I2, Z2], [Z2, ROTATION, I2], [Z2, Z2, ROTATION]]),
        ],
        ids=["nilpotent3", "rotation-pair-4x4", "rotation-pair-6x6"],
    )
    def test_defective_axis_eigenvalue_refused(self, A):
        # e^{tA} grows polynomially on a defective axis eigenvalue, so the
        # means grow or oscillate without a limit
        with pytest.raises(NoConvergence):
            mean_ergodic_projection(A)

    def test_nonzero_spectral_bound_rejected(self):
        with pytest.raises(PremiseViolation):
            mean_ergodic_projection(demo_generator())

    def test_no_exponential_is_evaluated(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the exact route evaluated a sampled quantity")

        monkeypatch.setattr(semigroup, "expm", refuse)
        monkeypatch.setattr(MatrixSemigroup, "envelope", property(refuse))
        monkeypatch.setattr(spectral, "dominant_projection", refuse)
        rep = mean_ergodic_projection(demo_generator() - 9.0 * np.eye(3))
        assert rep.rank == 1

    def test_matches_the_sampled_cesaro_oracle(self):
        # seeded shifted Metzler generators, some with a rotation block
        # beside them, and one rank-2 kernel; the oracle's own fit bounds
        # its error by about C / T_max
        rng = np.random.default_rng(2020)
        shifted = {}
        corpus = []
        for n in range(3, 13):
            M = rng.uniform(0.0, 1.0, (n, n)) - rng.uniform(0.0, 2.0) * np.eye(n)
            shifted[n] = M - float(np.max(np.linalg.eigvals(M).real)) * np.eye(n)
            corpus.append((shifted[n], 1))
            if n % 3 == 0:
                corpus.append((block_diag(shifted[n], ROTATION), 1))
        corpus.append((block_diag(shifted[3], shifted[4]), 2))
        assert len(corpus) == 15
        for A, rank in corpus:
            rep = mean_ergodic_projection(A)
            limit, fit_constant = sampled_cesaro_limit(A)
            assert rep.rank == rank
            err = float(np.max(np.abs(rep.projection - limit)))
            assert err <= 3.0 * fit_constant / 64.0, (A.shape[0], err, fit_constant)

    def test_agreement_with_dominant_projection(self):
        A = demo_generator() - 9.0 * np.eye(3)
        ergodic = mean_ergodic_projection(A)
        direct = dominant_projection(A)
        assert np.max(np.abs(ergodic.projection - direct.projection)) <= 1e-8
