"""The analyze routes as stacked LAPACK calls, against their per-call references.

The Metzler route probes its three evidence times as one expm stack, the
spectral route streams its deviation and evidence samples as one, and
dominant_projection solves both sides of each inverse-iteration step and
takes its four residual norms in one call each.  The references in
brute_oracles make one call per time, per side and per norm; every
certificate, verdict, projection and report must equal theirs byte for
byte, and an overflowing sample must surface where the per-call route
surfaces it.
"""

import json
import os
import re
import sys
import tracemalloc

import numpy as np
import pytest

import evpos.cli as cli
import evpos.positivity as positivity
import evpos.semigroup as semigroup
from brute_oracles import patch_reference_routes, reference_certify, reference_dominant_projection
from evpos.errors import EvposError, ExpmOverflow
from evpos.positivity import PositivityClass, certify_eventual_strong_positivity
from evpos.semigroup import TimeGrid, demo_generator
from evpos.spectral import dominant_projection

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
import corpus  # noqa: E402

STRATA = {
    "metzler": corpus.metzler,
    "eventually-positive": lambda rng, n: corpus.eventually_positive(rng, n, check=n <= 64),
    "indefinite": corpus.indefinite,
    "reducible": corpus.reducible,
}
# one-matrix expm stacks start at n = 91
SIZES = (1, 2, 3, 8, 16, 64, 91)
# the CI's analyze matrices: two Metzler ones past the double range, two
# spectral-route ones and two grid-route ones
CI_MATRICES = (
    [[0.0, 1e308], [0.0, 0.0]],
    [[80.0, 1.0], [1.0, 80.0]],
    [[38.0, -1.0, 3.0], [-1.0, 38.0, 3.0], [3.0, 3.0, 34.0]],
    [[1.0, -0.1], [-0.1, 36.0]],
    [[1e8, 2e8], [3e8, 4e8]],
    [[1.0, -2.0, 0.5], [2.0, 1.0, -1.0], [0.5, 1.0, -3.0]],
)


def text(value) -> str:
    return cli._json(value, "\n")


def outcome(call, *args, **kwargs) -> str:
    """The report text of call(...)'s result, or the type and message it raised."""
    try:
        result = call(*args, **kwargs)
    except (EvposError, np.linalg.LinAlgError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return text(result)


def analyses(A, certify=certify_eventual_strong_positivity, project=dominant_projection) -> list:
    """Certificate, verdict and the two projection calls the package makes, as report text."""
    cert, verdict = certify(A)
    return [
        text(cert),
        text(verdict),
        outcome(project, A, certificate=cert),
        outcome(project, A, expect_positive_eigenvectors=True),
    ]


REFERENCE = {"certify": reference_certify, "project": reference_dominant_projection}


def draws():
    for stratum, draw in STRATA.items():
        for n in SIZES:
            if n < {"eventually-positive": 3, "indefinite": 2}.get(stratum, 1):
                continue  # no draw of that size has a positive eigenvector pair, or a sign change
            for seed in (0, 1):
                yield pytest.param(stratum, n, seed, id=f"{stratum}-{n}-{seed}")


@pytest.mark.parametrize("stratum, n, seed", draws())
def test_routes_equal_the_per_call_references(stratum, n, seed):
    A = STRATA[stratum](np.random.default_rng([seed, n, len(stratum)]), n)
    assert analyses(A) == analyses(A, **REFERENCE)


def test_routes_reach_their_strata():
    # the property above covers each route: Metzler, spectral, grid fallback
    notes = {}
    for stratum, draw in STRATA.items():
        cert, verdict = certify_eventual_strong_positivity(draw(np.random.default_rng(0), 8))
        notes[stratum] = (verdict.verdict, verdict.certified)
    assert notes == {
        "metzler": (PositivityClass.POSITIVE, True),
        "eventually-positive": (PositivityClass.UNIFORMLY_EVENTUALLY_STRONGLY_POSITIVE, True),
        "indefinite": (notes["indefinite"][0], False),
        "reducible": (PositivityClass.POSITIVE, True),
    }


def analyze_reports(tmp_path, matrices) -> list:
    """The analyze report of each matrix, written as the CLI writes it, timings aside."""
    reports = []
    for i, A in enumerate(matrices):
        src, out = tmp_path / f"in_{i:03d}.json", tmp_path / f"report_{i:03d}.json"
        src.write_text(json.dumps({"matrix": np.asarray(A).tolist()}))
        assert cli.main(["analyze", "--matrix", str(src), "--report-out", str(out)]) == 0
        report = json.loads(out.read_text())
        del report["timings"]
        reports.append(cli._json(report, "\n"))
    return reports


def test_analyze_reports_equal_the_reference_routes(tmp_path, monkeypatch):
    matrices = [op.matrix for op in corpus.build("analyze-ladder", 2, 0)] + list(CI_MATRICES)
    stacked = analyze_reports(tmp_path, matrices)
    patch_reference_routes(monkeypatch)
    assert analyze_reports(tmp_path, matrices) == stacked
    assert len(stacked) == 107


def overflow_at(monkeypatch, bad: float) -> None:
    """semigroup.expm overflows at time `bad`, as it does past the double range."""
    expm = semigroup.expm

    def patched(A, t=1.0):
        times = np.asarray(t, dtype=float)
        hits = np.flatnonzero(times.ravel() == bad)
        if hits.size:
            before = expm(A, times[: hits[0]]) if times.ndim else ()
            raise ExpmOverflow(f"exp(tA) overflowed at t = {bad}", evaluated=before)
        return expm(A, t)

    monkeypatch.setattr(semigroup, "expm", patched)


class TestOverflowOrder:
    def test_past_the_double_range_the_evidence_is_the_per_time_routes(self):
        A = np.array([[0.0, 1e308], [0.0, 0.0]])
        _, verdict = certify_eventual_strong_positivity(A)
        assert verdict.evidence == reference_certify(A)[1].evidence
        assert [row[0] for row in verdict.evidence] == [0.0, 1.0]  # e^{10 A} leaves the double range

    @pytest.mark.parametrize("bad", [0.0, 1.0, 10.0])
    def test_metzler_route_drops_only_the_overflowing_time(self, monkeypatch, bad):
        A = corpus.metzler(np.random.default_rng(3), 3)
        overflow_at(monkeypatch, bad)
        _, verdict = certify_eventual_strong_positivity(A)
        assert [row[0] for row in verdict.evidence] == [t for t in (0.0, 1.0, 10.0) if t != bad]
        assert text(verdict) == text(reference_certify(A)[1])
        assert verdict.certified and verdict.verdict == PositivityClass.POSITIVE

    def onset_time(self, A, bad_index: int) -> float:
        cert, verdict = certify_eventual_strong_positivity(A)
        t0 = verdict.onset_t0
        return float(np.geomspace(max(t0, 1e-3), max(2.0 * t0 + 1.0, t0 + 5.0), 8)[bad_index])

    def test_a_refused_deviation_never_reaches_an_overflowing_evidence_time(self, monkeypatch):
        A = demo_generator()
        # a deviation constant far below the true one: the first deviation sample refuses it,
        # and t0 = 0 puts the evidence times on [1e-3, 5]
        monkeypatch.setattr(positivity, "eigenbasis_growth_constant", lambda evecs: 1e-3)
        bad = float(np.geomspace(1e-3, 5.0, 8)[3])
        assert bad not in TimeGrid.default().points  # the grid fallback never samples it
        overflow_at(monkeypatch, bad)
        cert, verdict = certify_eventual_strong_positivity(A)
        assert not verdict.certified
        assert "sampled deviation exceeded the deviation constant at t = 0.01" in verdict.notes
        assert [text(x) for x in reference_certify(A)] == [text(cert), text(verdict)]

    @pytest.mark.parametrize("bad_index", [0, 5, 7])
    def test_an_accepted_deviation_raises_at_the_evidence_time(self, monkeypatch, bad_index):
        A = demo_generator()
        bad = self.onset_time(A, bad_index)
        overflow_at(monkeypatch, bad)
        with pytest.raises(ExpmOverflow, match=re.escape(f"at t = {bad}")) as stacked:
            certify_eventual_strong_positivity(A)
        with pytest.raises(ExpmOverflow) as reference:
            reference_certify(A)
        assert str(stacked.value) == str(reference.value)


def test_probes_hold_one_stack_at_a_time():
    # at n = 100 every stack is one matrix: probing three times must peak
    # as probing one does, not one held matrix higher
    flow = semigroup.MatrixSemigroup(corpus.metzler(np.random.default_rng(7), 100) - np.eye(100))
    peaks = []
    for times in ((10.0,), (0.5, 1.0, 10.0)):
        tracemalloc.start()
        list(flow.positivity_probes(times))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < peaks[0] + flow.A.nbytes // 2, peaks


def test_projection_solves_and_norms_are_one_call_each(monkeypatch):
    calls = {"solve": [], "svd": []}
    for name in calls:
        real = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name, lambda a, *rest, _real=real, _name=name, **kw: (
                calls[_name].append(np.shape(a)) or _real(a, *rest, **kw)
            )
        )
    A = demo_generator()
    report = dominant_projection(A)
    assert calls == {"solve": [(2, 3, 3)] * 3, "svd": [(4, 3, 3)]}
    assert text(report) == text(reference_dominant_projection(A))


@pytest.mark.parametrize("side", [0, 1])
def test_a_singular_side_moves_only_its_own_shift(monkeypatch, side):
    # solve refuses the right (0) or left (1) matrix at the first shift, as LAPACK
    # refuses an exactly singular one: that side alone moves its shift, as apart
    A = np.array([[1.0, 2.0, 0.5], [0.3, 1.0, 1.0], [1.0, 0.2, 2.0]])  # A^T is another matrix
    cert = positivity.spectral_certificate(A)
    s = cert.spectral_bound
    shifted = [M - (s + 1e-11 * (1.0 + abs(s))) * np.eye(3) for M in (A, A.T)]
    solve, solved = np.linalg.solve, []

    def refusing(a, b):
        if any(np.array_equal(m, shifted[side]) for m in np.reshape(a, (-1, 3, 3))):
            raise np.linalg.LinAlgError("Singular matrix")
        solved.extend(np.reshape(a, (-1, 3, 3)))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", refusing)
    stacked = text(dominant_projection(A, certificate=cert))
    # the other side keeps the first shift for all three steps
    assert sum(np.array_equal(m, shifted[1 - side]) for m in solved) == 3
    assert stacked == text(reference_dominant_projection(A, certificate=cert))


def test_analyze_builds_the_default_grid_only_for_the_grid_fallback(tmp_path, monkeypatch):
    built = []
    logspace = TimeGrid.logspace.__func__
    monkeypatch.setattr(
        TimeGrid, "logspace", classmethod(lambda cls, *a, **kw: built.append(1) or logspace(cls, *a, **kw))
    )
    counts = []
    for A, flags in (
        (CI_MATRICES[0], []),  # Metzler
        (CI_MATRICES[2], []),  # spectral
        (CI_MATRICES[5], []),  # grid fallback
        (CI_MATRICES[2], ["--grid-points", "128"]),  # a grid of its own, built up front
    ):
        src = tmp_path / "in.json"
        src.write_text(json.dumps({"matrix": A}))
        assert cli.main(["analyze", "--matrix", str(src), *flags, "--report-out", str(tmp_path / "r")]) == 0
        counts.append(len(built))
        built.clear()
    assert counts == [0, 0, 1, 1]
