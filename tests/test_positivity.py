"""Positivity classification: certificates, grid evidence, and constructions."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from evpos.errors import InputError, PremiseViolation
from evpos.gammashift import GammaShiftProvider, Grid1D, GridFunction
from evpos.positivity import (
    PositivityClass,
    approximate_from_below,
    certify_eventual_strong_positivity,
    classify_on_grid,
    nonempty_spectrum_construction,
    spectral_certificate,
    spr_lower_bound_check,
)
import evpos.positivity as positivity
import evpos.semigroup as semigroup
from evpos.semigroup import MatrixSemigroup, TimeGrid, default_envelope, demo_generator, expm
from evpos.stepfun import PiecewiseConstantFn, ShiftStepProvider

ROTATION = np.array([[0.0, -1.0], [1.0, 0.0]])
METZLER = np.array([[-1.0, 2.0], [3.0, -4.0]])


class TestCertificateRoute:
    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
    def test_unusable_tolerance_refused(self, tol):
        # with tol = inf this matrix read as a certified Positive
        A = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.5], [0.0, 1.0, 1.0]])
        with pytest.raises(InputError, match="tol must be finite and positive"):
            certify_eventual_strong_positivity(A, tol=tol)

    def test_showcase_matrix_certified_strongly_positive(self):
        cert, verdict = certify_eventual_strong_positivity(demo_generator())
        assert verdict.verdict == PositivityClass.UNIFORMLY_EVENTUALLY_STRONGLY_POSITIVE
        assert verdict.certified
        assert verdict.onset_t0 == pytest.approx(2.5802168295923456, rel=1e-9)
        assert cert.dominant_is_real_simple
        assert cert.spectral_bound == pytest.approx(9.0)
        assert cert.spectral_gap == pytest.approx(1.0)
        assert cert.min_entry_outer == pytest.approx(1.0 / 3.0)

    def test_certified_onset_really_works(self):
        A = demo_generator()
        _, verdict = certify_eventual_strong_positivity(A)
        t0 = verdict.onset_t0
        rng = np.random.default_rng(99)
        for t in t0 + rng.uniform(0.0, 30.0, size=25):
            assert float(np.min(expm(A, float(t)))) > 0.0

    def test_onset_invariant_under_diagonal_shifts(self):
        A = demo_generator()
        _, base = certify_eventual_strong_positivity(A)
        # at lam = 31 (s = 40) the raw flow e^{20 A} overflows
        for lam in (-5.0, 0.0, 5.0, 31.0):
            _, shifted = certify_eventual_strong_positivity(A + lam * np.eye(3))
            assert shifted.verdict == base.verdict
            assert shifted.onset_t0 == pytest.approx(base.onset_t0, rel=1e-9)

    def test_metzler_matrix_positive_from_zero(self):
        _, verdict = certify_eventual_strong_positivity(METZLER)
        assert verdict.verdict == PositivityClass.POSITIVE
        assert verdict.onset_t0 == 0.0
        assert verdict.certified

    def test_large_spectral_bound_metzler_needs_no_envelope(self):
        # e^{20 A} overflows at s = 41 and e^{10 A} at s = 81, but the sign
        # criterion never reads the envelope and its probe samples
        # e^{t(A - sI)}; at entries ~4e8 the eigenvector residuals (~1e-7)
        # are judged relative to max|A_ij|
        for A in ([[40.0, 1.0], [1.0, 40.0]], [[80.0, 1.0], [1.0, 80.0]], [[1e8, 2e8], [3e8, 4e8]]):
            cert, verdict = certify_eventual_strong_positivity(np.array(A))
            assert cert.dominant_is_real_simple
            assert verdict.verdict == PositivityClass.POSITIVE
            assert verdict.certified
            assert verdict.onset_t0 == 0.0

    @pytest.mark.parametrize(
        "A, verdict_class, certified",
        [
            (np.array([[-1.0, 2.0, 0.5], [3.0, -4.0, 0.0], [0.0, 1.0, 2.0]]), "Positive", True),
            (demo_generator() + 31.0 * np.eye(3), "UniformlyEventuallyStronglyPositive", True),
            # s = 36.0003, so the raw e^{20 A} of the grid fallback overflows;
            # the (0, 1) entry of e^{t(A - sI)} tends to a negative entry of u phi^T
            (np.array([[1.0, -0.1], [-0.1, 36.0]]), "NotEventuallyPositive", False),
        ],
    )
    def test_evidence_rows_are_entries_of_the_rescaled_flow(self, A, verdict_class, certified):
        cert, verdict = certify_eventual_strong_positivity(A)
        assert verdict.verdict == verdict_class
        assert verdict.certified == certified
        assert verdict.evidence
        B = A - cert.spectral_bound * np.eye(A.shape[0])
        for t, (i, j), value in verdict.evidence:
            E = scipy.linalg.expm(t * B)
            # 1e-9 relative, with a floor for entries at rounding level
            assert abs(value - E[i, j]) <= 1e-9 * max(abs(E[i, j]), 1e-3 * np.max(np.abs(E)))

    @pytest.mark.parametrize(
        "A", [METZLER, demo_generator(), np.array([[1.0, -0.1], [-0.1, 36.0]])]
    )
    def test_certificate_flow_keeps_no_samples(self, monkeypatch, A):
        # one flow per certificate (Metzler, spectral and grid route), and
        # it holds its generator and no evaluated matrices
        flows = []

        class RecordingFlow(MatrixSemigroup):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                flows.append(self)

        monkeypatch.setattr(positivity, "MatrixSemigroup", RecordingFlow)
        certify_eventual_strong_positivity(A)
        assert len(flows) == 1
        assert list(vars(flows[0])) == ["A"]

    def test_spectral_route_builds_no_growth_envelope(self, monkeypatch):
        # C is read from kappa_2(V) of the certificate's eigenbasis and equals
        # the constant the growth envelope M of default_envelope(A) gives
        rng = np.random.default_rng(2016)
        inputs = []
        for n in (3, 4, 5, 6, 8, 12):
            A = rng.uniform(0.5, 1.5, (n, n))
            A[0, n - 1] = -rng.uniform(0.05, 0.2)
            A[n - 1, 1] = -rng.uniform(0.05, 0.2)
            inputs.append(A)
        expected = []
        for A in inputs:
            M, _ = default_envelope(A)
            alone = spectral_certificate(A)
            proj_max = float(np.max(np.abs(np.outer(alone.right_vec, alone.left_vec))))
            expected.append(M * (1.0 + proj_max) * A.shape[0])

        def no_envelope(A):
            raise AssertionError("the certificate built a growth envelope")

        monkeypatch.setattr(semigroup, "default_envelope", no_envelope)
        for A, C in zip(inputs, expected):
            cert, verdict = certify_eventual_strong_positivity(A)
            assert verdict.verdict == PositivityClass.UNIFORMLY_EVENTUALLY_STRONGLY_POSITIVE
            assert verdict.certified
            assert cert.onset_constant == C

    @pytest.mark.parametrize("A", [METZLER, ROTATION, demo_generator()])
    def test_certificate_matches_standalone_certificate(self, A):
        cert, _ = certify_eventual_strong_positivity(A)
        alone = spectral_certificate(A)
        for field in dataclasses.fields(cert):
            if field.name != "onset_constant" and field.name != "notes":
                mine, ref = getattr(cert, field.name), getattr(alone, field.name)
                assert np.array_equal(mine, ref), field.name
        assert cert.notes.startswith(alone.notes)

    def test_rotation_is_not_eventually_positive(self):
        _, verdict = certify_eventual_strong_positivity(ROTATION)
        assert verdict.verdict == PositivityClass.NOT_EVENTUALLY_POSITIVE
        assert not verdict.certified

    def test_ill_conditioned_eigenbasis_names_the_cutoff(self):
        # positive Perron pair (all-ones/6 projection) next to a 5x5 Jordan
        # block, rotated so an off-diagonal entry is negative: V is
        # numerically singular, so M = inf and the grid route decides
        basis = np.column_stack(
            [np.ones(6) / np.sqrt(6), np.random.default_rng(4).normal(size=(6, 5))]
        )
        Q, _ = np.linalg.qr(basis)
        Q[:, 0] = np.abs(Q[:, 0])
        D = np.zeros((6, 6))
        D[0, 0] = 3.0
        for i in range(1, 5):
            D[i, i + 1] = 1.0
        A = Q @ D @ Q.T
        cert, verdict = certify_eventual_strong_positivity(A)
        assert cert.dominant_is_real_simple
        assert cert.min_entry_outer == pytest.approx(1.0 / 6.0)
        assert np.min(A - np.diag(np.diag(A))) < 0
        assert verdict.verdict == PositivityClass.UNIFORMLY_EVENTUALLY_POSITIVE
        assert not verdict.certified
        assert "kappa_2(V)" in verdict.notes and "1e+12" in verdict.notes
        assert "no positive eigenvector certificate" not in verdict.notes

    def test_fitted_constant_does_not_certify(self, monkeypatch):
        # a constant C below a sampled deviation is refused, not inflated:
        # the verdict is the uncertified grid fallback, with the reason
        monkeypatch.setattr(positivity, "eigenbasis_growth_constant", lambda evecs: 1e-3)
        cert, verdict = certify_eventual_strong_positivity(demo_generator())
        assert not verdict.certified
        assert verdict.verdict == PositivityClass.UNIFORMLY_EVENTUALLY_POSITIVE
        assert "sampled deviation exceeded the deviation constant at t = 0.01" in verdict.notes
        assert "inflated" not in verdict.notes + cert.notes
        assert math.isnan(cert.onset_constant)

    def test_metzler_sample_past_the_double_range_is_dropped(self):
        # e^{10 A} overflows; the sign criterion is exact, so the verdict stands
        _, verdict = certify_eventual_strong_positivity(np.array([[0.0, 1e308], [0.0, 0.0]]))
        assert verdict.verdict == PositivityClass.POSITIVE and verdict.certified
        assert [row[0] for row in verdict.evidence] == [0.0, 1.0]

    def test_certificate_reports_outer_projection_data(self):
        cert = spectral_certificate(demo_generator())
        P = np.outer(cert.right_vec, cert.left_vec) / cert.pairing
        assert np.max(np.abs(P - np.ones((3, 3)) / 3.0)) <= 1e-12


class TestGridRoute:
    def test_showcase_matrix_grid_verdict(self):
        v = classify_on_grid(MatrixSemigroup(demo_generator()))
        assert v.verdict == PositivityClass.UNIFORMLY_EVENTUALLY_POSITIVE
        assert not v.certified
        assert 0.0 < v.onset_t0 < 2.6

    def test_grid_onset_sits_after_last_violation(self):
        A = demo_generator()
        v = classify_on_grid(MatrixSemigroup(A))
        grid = TimeGrid.default()
        bad = [t for t in grid if t > 0 and float(np.min(expm(A, float(t)))) < -1e-9]
        assert v.onset_t0 > max(bad)

    def test_rotation_never_settles(self):
        v = classify_on_grid(MatrixSemigroup(ROTATION))
        assert v.verdict == PositivityClass.NOT_EVENTUALLY_POSITIVE
        assert v.onset_t0 is None

    def test_positive_family_classified_positive(self):
        v = classify_on_grid(MatrixSemigroup(METZLER))
        assert v.verdict == PositivityClass.POSITIVE
        assert v.onset_t0 == 0.0

    def test_grid_and_certificate_verdicts_compatible(self):
        # grid evidence can only weaken "strongly positive" to the plain
        # eventually-positive class, never contradict it
        strong = {
            PositivityClass.UNIFORMLY_EVENTUALLY_STRONGLY_POSITIVE,
            PositivityClass.UNIFORMLY_EVENTUALLY_POSITIVE,
            PositivityClass.POSITIVE,
        }
        _, cert_verdict = certify_eventual_strong_positivity(demo_generator())
        grid_verdict = classify_on_grid(MatrixSemigroup(demo_generator()))
        assert cert_verdict.verdict in strong
        assert grid_verdict.verdict in strong


class TestSpectralRadiusBound:
    def test_all_ones_matrix(self):
        rep = spr_lower_bound_check(np.ones((2, 2)), np.ones(2), 2.0, n_max=512)
        assert rep.spectral_radius == pytest.approx(2.0)
        assert rep.margin >= -1e-9 * rep.spectral_radius

    def test_strict_lower_bound(self):
        T = np.array([[2.0, 1.0], [0.5, 2.0]])
        rep = spr_lower_bound_check(T, np.ones(2), 2.0)
        assert rep.spectral_radius >= 2.0 * (1.0 - 1e-9)

    def test_zero_vector_rejected(self):
        with pytest.raises(PremiseViolation):
            spr_lower_bound_check(np.ones((2, 2)), np.zeros(2), 1.0)

    def test_negative_vector_rejected(self):
        with pytest.raises(PremiseViolation):
            spr_lower_bound_check(np.ones((2, 2)), np.array([1.0, -1.0]), 1.0)

    def test_domination_failure_rejected(self):
        T = np.diag([0.5, 0.5])
        with pytest.raises(PremiseViolation):
            spr_lower_bound_check(T, np.ones(2), 1.0)

    def test_delta_must_be_positive(self):
        with pytest.raises(InputError):
            spr_lower_bound_check(np.ones((2, 2)), np.ones(2), 0.0)


class TestSpectrumConstruction:
    def test_showcase_matrix_succeeds(self):
        rep = nonempty_spectrum_construction(MatrixSemigroup(demo_generator()), np.ones(3))
        assert rep.succeeded
        assert rep.delta > 0
        assert rep.support == (0, 1, 2)
        assert rep.radius_report is not None

    def test_each_sampled_time_is_evaluated_once(self, monkeypatch):
        # the onset comes from stacked probes of the grid; the search then
        # evaluates each time it scans once, and its operator sum reuses
        # the operators it scanned
        stacks, singles = [], []
        expm = semigroup.expm

        def recording(A, t=1.0):
            (singles if np.ndim(t) == 0 else stacks).append(t)
            return expm(A, t)

        monkeypatch.setattr(semigroup, "expm", recording)
        rep = nonempty_spectrum_construction(MatrixSemigroup(demo_generator()), np.ones(3))
        assert rep.succeeded
        grid = set(TimeGrid.default().points.tolist())
        assert sum(len(t) for t in stacks) == len(grid)
        assert len(singles) == len(set(singles)) and set(singles) <= grid
        assert set(rep.times_used) <= set(singles)

    def test_rotation_has_no_anchor(self):
        rep = nonempty_spectrum_construction(MatrixSemigroup(ROTATION), np.ones(2))
        assert not rep.succeeded
        assert rep.failures
        assert rep.delta is None

    def test_positive_carriers_succeed(self):
        grid = Grid1D(x_min=-2.0, h=0.25, count=16)
        gp = GammaShiftProvider(grid)
        rep = nonempty_spectrum_construction(gp, GridFunction.indicator(grid, -2.0, 2.0))
        assert rep.succeeded and rep.delta > 0

    def test_nilpotent_carrier_at_sampled_resolution(self):
        # the family is positive, so the search anchors at t = 0 and the
        # identity makes the sampled conclusion trivially true
        rep = nonempty_spectrum_construction(
            ShiftStepProvider(depth=4), PiecewiseConstantFn.constant(1)
        )
        assert rep.succeeded
        assert rep.times_used == (0.0,)

    def test_needs_positive_h(self):
        with pytest.raises(PremiseViolation):
            nonempty_spectrum_construction(
                MatrixSemigroup(demo_generator()), np.array([1.0, -1.0, 1.0])
            )


class TestApproximateFromBelow:
    def test_monotone_increasing_below_target(self):
        prov = MatrixSemigroup(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        g = np.array([1.0, 2.0])
        times = [1.0, 0.5, 0.25, 0.125]
        approx = approximate_from_below(prov, g, times)
        assert len(approx) == len(times)
        for k in range(len(approx) - 1):
            assert np.all(approx[k] <= approx[k + 1] + 1e-12)
        for gn in approx:
            assert np.all(gn >= -1e-12)
            assert np.all(gn <= g + 1e-12)

    def test_rejects_increasing_times(self):
        prov = MatrixSemigroup(METZLER)
        with pytest.raises(InputError):
            approximate_from_below(prov, np.ones(2), [0.1, 0.5])

    def test_rejects_negative_orbit(self):
        prov = MatrixSemigroup(ROTATION)
        with pytest.raises(PremiseViolation):
            approximate_from_below(prov, np.ones(2), [2.0, 1.0, 0.5])
