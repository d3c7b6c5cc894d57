"""Grid carrier driven by the smoothing/left-shift kernel family."""

import numpy as np
import pytest
import scipy.stats

from evpos.errors import ShiftNotOnGrid
from evpos.gammashift import (
    GammaShiftProvider,
    Grid1D,
    GridFunction,
    gamma_kernel_weights,
    gamma_shift_apply,
)


@pytest.fixture
def grid():
    return Grid1D(x_min=-6.0, h=0.125, count=96)


@pytest.fixture
def provider(grid):
    return GammaShiftProvider(grid)


class TestKernelWeights:
    def test_exponential_closed_form_at_unit_shape(self, grid):
        # shape parameter 1 makes the kernel an exponential density, so
        # each cell mass has the closed form e^{-mh} - e^{-(m+1)h}
        w, deficit = gamma_kernel_weights(1.0, grid, 40)
        m = np.arange(40)
        closed = np.exp(-m * grid.h) - np.exp(-(m + 1) * grid.h)
        assert np.max(np.abs(w - closed)) <= 1e-15
        assert w.sum() + deficit == pytest.approx(1.0, abs=1e-13)

    def test_matches_scipy_gamma_cdf(self, grid):
        w, _ = gamma_kernel_weights(2.5, grid, 50)
        edges = np.arange(51) * grid.h
        ref = np.diff(scipy.stats.gamma.cdf(edges, a=2.5))
        assert np.max(np.abs(w - ref)) <= 1e-13

    def test_weights_positive_and_deficit_small_for_wide_window(self, grid):
        w, deficit = gamma_kernel_weights(0.5, grid, 96)
        assert np.all(w > 0)
        assert 0 <= deficit < 1e-4

    def test_rejects_nonpositive_time(self, grid):
        with pytest.raises(ValueError):
            gamma_kernel_weights(0.0, grid)


class TestGridFunction:
    def test_indicator_support(self, grid):
        f = GridFunction.indicator(grid, 1.0, 2.0)
        assert f.support_lo == grid.cell_of(1.0) == 56
        assert f.norm_l1() == pytest.approx(1.0)
        f.assert_support_sound()

    def test_arithmetic_keeps_support_sound(self, grid):
        f = GridFunction.indicator(grid, 1.0, 2.0)
        g = GridFunction.indicator(grid, 0.0, 1.0)
        (f + g).assert_support_sound()
        (f - g).assert_support_sound()
        (f.scale(2.0)).assert_support_sound()

    def test_zero_flag(self, grid):
        assert GridFunction.zero(grid).is_zero
        assert not GridFunction.indicator(grid, 0.0, 1.0).is_zero


class TestProvider:
    def test_support_moves_left_exactly_q_cells(self, provider, grid):
        f = GridFunction.indicator(grid, 1.0, 2.0)
        for q in (1, 4, 13):
            out = provider.apply(q * grid.h, f)
            assert out.support_lo == f.support_lo - q
            out.assert_support_sound()

    def test_smoothing_spreads_strictly_right_of_front(self, provider, grid):
        f = GridFunction.indicator(grid, 1.0, 2.0)
        out = provider.apply(0.5, f)
        s = np.asarray(out.samples)
        assert np.all(s[out.support_lo :] > 0)
        assert np.all(s[: out.support_lo] == 0.0)

    def test_apply_matches_dense(self, provider, grid):
        f = GridFunction.indicator(grid, 1.0, 2.0)
        D = provider.to_dense(0.5)
        out = provider.apply(0.5, f)
        assert np.max(np.abs(D @ np.asarray(f.samples) - np.asarray(out.samples))) == 0.0

    def test_adjoint_is_transpose(self, provider, grid):
        D = provider.to_dense(0.5)
        phi = GridFunction.indicator(grid, -1.0, 0.0)
        adj = provider.apply_adjoint(0.5, phi)
        assert np.max(np.abs(D.T @ np.asarray(phi.samples) - np.asarray(adj.samples))) == 0.0

    def test_pairing_identity(self, provider, grid):
        f = GridFunction.indicator(grid, 1.0, 2.0)
        phi = GridFunction.indicator(grid, -1.0, 0.0)
        lhs = provider.pair(provider.apply_adjoint(0.5, phi), f)
        rhs = provider.pair(phi, provider.apply(0.5, f))
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_semigroup_defect_shrinks_with_cell_width(self):
        # the kernel family composes exactly in the continuum; on the
        # grid the defect is pure discretization and must shrink as the
        # cells refine
        eps = []
        for h, n in ((0.125, 96), (0.0625, 192), (0.03125, 384)):
            g = Grid1D(x_min=-6.0, h=h, count=n)
            p = GammaShiftProvider(g)
            f = GridFunction.indicator(g, 1.0, 2.0)
            lhs = p.apply(0.25, p.apply(0.25, f))
            rhs = p.apply(0.5, f)
            eps.append((lhs - rhs).norm_l1())
        assert eps[0] > eps[1] > eps[2]
        assert eps[2] < 0.02

    def test_time_zero_is_identity(self, provider, grid):
        f = GridFunction.indicator(grid, 1.0, 2.0)
        out = provider.apply(0.0, f)
        assert np.array_equal(np.asarray(out.samples), np.asarray(f.samples))
        mn, _witness, definite = provider.positivity_probe(0.0)
        assert mn == 0.0 and definite
        rep = provider.mass_report(0.0)
        assert rep["weight_sum"] == 1.0 and rep["window_deficit"] == 0.0

    def test_off_lattice_time_rejected(self, provider):
        f = GridFunction.indicator(provider.grid, 1.0, 2.0)
        with pytest.raises(ShiftNotOnGrid):
            provider.apply(0.1, f)

    def test_probe_positive_at_positive_times(self, provider):
        mn, _witness, definite = provider.positivity_probe(0.25)
        assert definite
        assert mn >= 0.0

    def test_mass_never_exceeds_one(self, provider):
        for q in (1, 2, 8, 16):
            rep = provider.mass_report(q * provider.grid.h)
            assert rep["weight_sum"] <= 1.0 + 1e-12
            assert rep["weight_sum"] + rep["window_deficit"] == pytest.approx(
                1.0, abs=1e-12
            )

    def test_gamma_shift_apply_agrees_with_manual_convolution(self, grid):
        f = GridFunction.indicator(grid, 1.0, 2.0)
        t = 0.375
        q = grid.steps_of(t)
        weights, _ = gamma_kernel_weights(t, grid, grid.count + q)
        out = gamma_shift_apply(f, t, weights)
        samples = np.asarray(f.samples)
        manual = np.zeros(grid.count)
        for i in range(grid.count):
            acc = 0.0
            for m in range(weights.size):
                j = i + q - m
                if 0 <= j < grid.count:
                    acc += weights[m] * samples[j]
            manual[i] = acc
        assert np.max(np.abs(np.asarray(out.samples) - manual)) <= 1e-14
