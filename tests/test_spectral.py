"""Dominant-eigenvalue structure: simplicity, projections, ergodic means."""

import numpy as np
import pytest
from scipy.linalg import schur

import evpos.spectral as spectral
from evpos.errors import (
    CertificateMissing,
    InputError,
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


class TestMeanErgodic:
    def test_shifted_showcase_converges_to_averaging(self):
        rep = mean_ergodic_projection(demo_generator() - 9.0 * np.eye(3))
        assert rep.rank == 1
        assert np.max(np.abs(rep.projection - TARGET)) <= 1e-8
        assert max(v for v in rep.residuals.values() if not np.isnan(v)) <= 1e-8

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
        "A", [demo_generator() - 9.0 * np.eye(3), ROTATION, JORDAN - np.eye(2)]
    )
    def test_cesaro_samples_are_the_per_time_exponentials(self, monkeypatch, A):
        # the stacked samples against one expm call per time, bit for bit
        seen = []
        trapezoid = spectral._trapezoid
        monkeypatch.setattr(
            spectral,
            "_trapezoid",
            lambda samples, h, stride: seen.append((samples, h)) or trapezoid(samples, h, stride),
        )
        try:
            spectral.mean_ergodic_projection(A, T_max=4.0)
        except NoConvergence:
            pass  # the verdict is not what this test checks
        # three trapezoid rules per mean, for T = 1, 2, 4
        for T, (samples, h) in zip((1, 2, 4), seen[::3]):
            assert len(samples) == 4 * 32 * T + 1
            for i, got in enumerate(samples):
                assert got.tobytes() == expm(A, i * h).tobytes()

    @pytest.mark.parametrize("A", [demo_generator() - 9.0 * np.eye(3), ROTATION])
    def test_cesaro_means_share_one_sample_list(self, monkeypatch, A):
        # one list of 4 * 32 * 64 + 1 times; each T's means are bit for bit
        # the means of a list evaluated afresh for that T alone
        lengths = []
        matrices = MatrixSemigroup.matrices
        monkeypatch.setattr(
            MatrixSemigroup,
            "matrices",
            lambda self, times: lengths.append(len(times)) or matrices(self, times),
        )
        means = []
        cesaro = spectral._cesaro_mean
        monkeypatch.setattr(
            spectral,
            "_cesaro_mean",
            lambda samples, h, T: means.append((T, cesaro(samples, h, T))) or means[-1][1],
        )
        spectral.mean_ergodic_projection(A)
        assert lengths == [16, 8193]  # the growth envelope's samples, then the means'
        assert [T for T, _ in means] == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
        for T, got in means:
            n = 128 * int(T)
            fresh = list(matrices(MatrixSemigroup(A), [i * (T / n) for i in range(n + 1)]))
            assert got.tobytes() == cesaro(fresh, T / n, T).tobytes()

    def test_nodes_per_unit_below_four_rejected(self):
        with pytest.raises(InputError):
            mean_ergodic_projection(demo_generator() - 9.0 * np.eye(3), nodes_per_unit=2)

    def test_rotation_group_means_vanish(self):
        rep = mean_ergodic_projection(ROTATION)
        assert rep.rank == 0
        assert np.max(np.abs(rep.projection)) == 0.0

    def test_nilpotent_part_never_stabilises(self):
        with pytest.raises(NoConvergence):
            mean_ergodic_projection(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_nonzero_spectral_bound_rejected(self):
        with pytest.raises(PremiseViolation):
            mean_ergodic_projection(demo_generator())

    def test_agreement_with_dominant_projection(self):
        A = demo_generator() - 9.0 * np.eye(3)
        ergodic = mean_ergodic_projection(A)
        direct = dominant_projection(A)
        assert np.max(np.abs(ergodic.projection - direct.projection)) <= 1e-8
