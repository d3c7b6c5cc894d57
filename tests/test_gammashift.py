"""Grid carrier driven by the smoothing/left-shift kernel family."""

import dataclasses

import numpy as np
import pytest
import scipy.stats

from evpos.errors import PremiseViolation, ShiftNotOnGrid
from evpos.gammashift import (
    GammaShiftProvider,
    Grid1D,
    GridFunction,
    gamma_kernel_weights,
)
from evpos.irreducibility import classify, weak_conditions_test
from evpos.presets import coupled_demo_system
from sampled_oracles import sampled_conditions_table


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
        assert np.array_equal(provider.to_dense(0.0), np.eye(grid.count))

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
            weights, deficit = provider.weights(q * provider.grid.h)
            assert float(np.sum(weights)) <= 1.0 + 1e-12
            assert float(np.sum(weights)) + deficit == pytest.approx(1.0, abs=1e-12)

    def test_shift_smoothing_agrees_with_manual_convolution(self, provider, grid):
        f = GridFunction.indicator(grid, 1.0, 2.0)
        t = 0.375
        q = grid.steps_of(t)
        weights, _ = gamma_kernel_weights(t, grid, grid.count + q)
        out = provider.apply(t, f)
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


def band_disagreements(provider, f, phi, qs):
    """(q, kind) for each q where the exact support and the computed cell matrix disagree.

    The pairing at q h is nonzero exactly when some entry M_q[i, j], i in
    supp phi, j in supp f, is.  kind "underflow": the support holds q h
    and the band M_q[i, j] = w_q[i + q - j], i + q >= j, reaches those
    cells, but every computed weight there is 0 although the Gamma(qh, 1)
    density is positive on each cell; "mismatch": any other disagreement.
    """
    support = provider.pairing_support(f, phi)
    h = provider.grid.h
    f_cells, phi_cells = np.flatnonzero(f.samples), np.flatnonzero(phi.samples)
    out = []
    for q in qs:
        held = support.first_at_or_after(q * h) == q * h
        computed = bool(provider.to_dense(q * h)[np.ix_(phi_cells, f_cells)].any())
        if held == computed:
            continue
        offsets = (phi_cells[:, None] + q - f_cells[None, :]).ravel()
        band = offsets[offsets >= 0]
        density = scipy.stats.gamma.logpdf((band + 0.5) * h, a=q * h) if q > 0 else []
        underflow = held and band.size > 0 and bool(np.isfinite(density).all())
        out.append((q, "underflow" if underflow else "mismatch"))
    return out


def random_grid_function(rng, grid):
    samples = rng.random(grid.count) * (rng.random(grid.count) < rng.uniform(0.05, 0.5))
    samples[rng.integers(grid.count)] = rng.uniform(0.1, 1.0)
    return GridFunction(grid, samples)


BAND_GRIDS = [
    Grid1D(x_min=-2.0, h=0.25, count=16),
    Grid1D(x_min=-6.0, h=0.125, count=96),
    Grid1D(x_min=0.0, h=0.5, count=40),
]


class TestPairingSupport:
    @pytest.mark.parametrize("grid", BAND_GRIDS, ids=lambda g: f"h={g.h},count={g.count}")
    def test_band_matches_the_dense_pattern(self, grid):
        provider = GammaShiftProvider(grid)
        rng = np.random.default_rng(int(grid.count))
        for _ in range(12):
            f, phi = random_grid_function(rng, grid), random_grid_function(rng, grid)
            assert band_disagreements(provider, f, phi, range(grid.count + 3)) == []

    def test_threshold_one_cell_off_is_caught(self, monkeypatch):
        grid = BAND_GRIDS[1]
        provider = GammaShiftProvider(grid)
        f, phi = provider.cell_indicator(80), provider.cell_indicator(20)
        qs = range(55, 66)
        assert band_disagreements(provider, f, phi, qs) == []
        exact = GammaShiftProvider.pairing_support
        for step in (-1, 1):

            def mutant(self, f, phi, step=step):
                support = exact(self, f, phi)
                lo, hi, lo_in, hi_in = support.spans[-1]
                shifted = (lo + step * self.grid.h, hi, lo_in, hi_in)
                return dataclasses.replace(support, spans=support.spans[:-1] + (shifted,))

            monkeypatch.setattr(GammaShiftProvider, "pairing_support", mutant)
            threshold = 60 if step == 1 else 59
            assert band_disagreements(provider, f, phi, qs) == [(threshold, "mismatch")]

    def test_underflowed_weight_is_reported_as_underflow(self):
        # f at cell 410, phi at cell 10: the support starts at q = 400,
        # where the one banded weight w_400[0] = P(200, 0.5) underflows
        grid = Grid1D(x_min=0.0, h=0.5, count=420)
        provider = GammaShiftProvider(grid)
        f, phi = provider.cell_indicator(410), provider.cell_indicator(10)
        assert provider.pairing_support(f, phi).tail_from == 400 * 0.5
        found = band_disagreements(provider, f, phi, range(398, 403))
        assert found == [(400, "underflow"), (401, "underflow"), (402, "underflow")]

    @pytest.mark.parametrize("grid", BAND_GRIDS, ids=lambda g: f"h={g.h},count={g.count}")
    def test_exact_table_covers_the_sampled_table(self, grid):
        # sampling can only witness: every sampled witness lies in the exact
        # support, no earlier than the exact witness of its row
        provider = GammaShiftProvider(grid)
        rng = np.random.default_rng(7 + int(grid.count))
        for _ in range(4):
            fs = [random_grid_function(rng, grid) for _ in range(2)]
            phis = [random_grid_function(rng, grid) for _ in range(2)]
            exact = weak_conditions_test(provider, test_vectors=fs, test_functionals=phis)
            sampled = sampled_conditions_table(provider, test_vectors=fs, test_functionals=phis)
            supports = dict(zip(exact.pair_labels, exact.supports))
            for entry in exact.entries:
                assert entry.status == "holds" and not entry.violations
                rows = {row[:3]: row[3] for row in entry.witnesses}
                for row in sampled.entries[entry.key].witnesses:
                    t = row[3]
                    assert supports[row[:2]].first_at_or_after(t) == t
                    assert rows[row[:3]] <= t

    def test_demo_carrier_is_certified_at_the_band_threshold(self):
        # f1 is the cell indicator at 38, phi0 the one at 19: 19 cells apart
        rep = classify(coupled_demo_system().provider2)
        assert rep.classification == "PersistentlyIrreducible"
        assert rep.evidence_mode == "certified"
        some = rep.conditions.entry("some-time")
        (row,) = [w for w in some.witnesses if w[:2] == ("f1", "phi0")]
        assert row[3] == 2.375 == 19 * 0.125

    def test_refuses_signed_vectors(self, provider, grid):
        f = GridFunction.indicator(grid, 0.0, 1.0)
        with pytest.raises(PremiseViolation, match="positive"):
            provider.pairing_support(f * -1.0, f)
