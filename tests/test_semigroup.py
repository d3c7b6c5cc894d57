"""Matrix exponential engine, time grids, and the showcase generator."""

import numpy as np
import pytest
import scipy.linalg

from evpos import semigroup
from evpos.errors import ExpmOverflow
from evpos.semigroup import (
    MatrixSemigroup,
    TimeGrid,
    default_envelope,
    demo_eigensystem,
    demo_generator,
    expm,
    matrix_power_formula_check,
    power_formula_matrix,
)


def test_expm_against_scipy_random():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        A = rng.normal(scale=1.5, size=(n, n))
        t = float(rng.uniform(0.1, 3.0))
        mine = expm(A, t)
        ref = scipy.linalg.expm(t * A)
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(mine - ref)) <= 1e-12 * scale


def test_expm_semigroup_law():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(5, 5))
    left = expm(A, 0.7) @ expm(A, 0.3)
    right = expm(A, 1.0)
    assert np.max(np.abs(left - right)) <= 1e-12 * float(np.max(np.abs(right)))


def test_expm_at_zero_is_identity():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(expm(A, 0.0), np.eye(2))


class TestTimeGrid:
    def test_logspace_default_shape(self):
        g = TimeGrid.default()
        pts = list(g.points)
        assert pts[0] == 0.0
        assert len(pts) == 257  # 256 log points plus the origin
        assert pts == sorted(pts)
        assert pts[-1] == pytest.approx(20.0)

    def test_tail_keeps_last_fraction_of_positive_times(self):
        g = TimeGrid.from_points([0.0, 0.1, 0.5, 1.0])
        assert list(g.tail(0.5)) == [0.5, 1.0]
        assert list(g.tail(0.01)) == [1.0]  # at least one point survives

    def test_rejects_non_increasing_points(self):
        with pytest.raises(ValueError):
            TimeGrid(points=np.array([0.5, 0.5]), t_start=0.0, t_end=1.0)


def test_default_envelope_bounds_family():
    rng = np.random.default_rng(3)
    for _ in range(10):
        A = rng.normal(size=(4, 4))
        M, w = default_envelope(A)
        for t in (0.0, 0.5, 1.0, 2.0, 5.0):
            norm = float(np.linalg.norm(expm(A, t), 2))
            assert norm <= M * np.exp(w * t) * (1.0 + 1e-9)


class TestShowcaseMatrix:
    def test_eigensystem_reconstructs_generator(self):
        A = demo_generator()
        evals, U = demo_eigensystem()
        assert np.max(np.abs(U @ U.T - np.eye(3))) <= 1e-13
        rebuilt = U @ np.diag(evals) @ U.T
        assert np.max(np.abs(rebuilt - A)) <= 1e-12

    def test_eigenpair_residuals(self):
        A = demo_generator()
        evals, U = demo_eigensystem()
        for i in range(3):
            res = np.linalg.norm(A @ U[:, i] - evals[i] * U[:, i])
            assert res <= 1e-12

    @pytest.mark.parametrize("n", range(1, 13))
    def test_power_formula_matches_direct_powers(self, n):
        formula, direct = matrix_power_formula_check(n)
        scale = float(np.max(np.abs(direct)))
        assert np.max(np.abs(formula - direct)) <= 1e-12 * scale

    def test_power_formula_domain_starts_at_one(self):
        # the closed form deliberately fails at n = 0: it sums the
        # nonzero-eigenvalue projections only, not the identity
        assert np.max(np.abs(power_formula_matrix(0) - np.eye(3))) > 0.1

    def test_demo_row_sums_make_ones_an_eigenvector(self):
        A = demo_generator()
        assert np.allclose(A @ np.ones(3), 9.0 * np.ones(3))


class TestMatrixSemigroup:
    def test_matrix_not_metzler_for_demo(self):
        prov = MatrixSemigroup(demo_generator())
        assert not prov.is_metzler()

    def test_metzler_detection(self):
        prov = MatrixSemigroup(np.array([[-1.0, 2.0], [0.0, -3.0]]))
        assert prov.is_metzler()

    def test_positivity_probe_is_definite(self):
        prov = MatrixSemigroup(demo_generator())
        mn, idx, definite = prov.positivity_probe(0.1)
        assert definite
        E = expm(demo_generator(), 0.1)
        assert mn == pytest.approx(float(np.min(E)))
        assert E[idx] == pytest.approx(mn)

    def test_apply_matches_dense(self):
        prov = MatrixSemigroup(demo_generator())
        v = np.array([1.0, -2.0, 0.5])
        out = prov.apply(0.8, v)
        assert np.allclose(out, expm(demo_generator(), 0.8) @ v)

    def test_adjoint_pairs_correctly(self):
        prov = MatrixSemigroup(demo_generator())
        rng = np.random.default_rng(11)
        f, phi = rng.normal(size=3), rng.normal(size=3)
        lhs = prov.pair(prov.apply_adjoint(0.6, phi), f)
        rhs = prov.pair(phi, prov.apply(0.6, f))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_envelope_holds_on_samples(self):
        prov = MatrixSemigroup(demo_generator())
        M, w = prov.envelope
        for t in (0.0, 1.0, 3.0):
            assert np.linalg.norm(prov.matrix(t), 2) <= M * np.exp(w * t) * (1 + 1e-9)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_envelope_built_on_first_read(self):
        # e^{20 A} overflows: construction succeeds, the first read raises
        prov = MatrixSemigroup(np.array([[40.0, 1.0], [1.0, 40.0]]))
        with pytest.raises(ExpmOverflow):
            prov.envelope

    def test_explicit_envelope_returned_unchanged(self):
        env = (2.5, -0.75)
        prov = MatrixSemigroup(demo_generator(), envelope=env)
        assert prov.envelope is env

    def test_cache_stays_within_byte_budget_and_exact(self):
        rng = np.random.default_rng(5)
        A = rng.normal(scale=0.05, size=(128, 128))
        prov = MatrixSemigroup(A)
        times = list(TimeGrid.default())
        first = [prov.matrix(t) for t in times]
        cached = sum(m.nbytes for m in prov._cache.values())
        assert 0 < cached <= semigroup._CACHE_BUDGET_BYTES
        assert len(prov._cache) < len(times)
        second = [prov.matrix(t) for t in times]
        for t, m1, m2 in zip(times, first, second):
            ref = expm(A, t)
            assert np.array_equal(m1, ref)
            assert np.array_equal(m2, ref)
