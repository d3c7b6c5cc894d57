"""End-to-end tests of the command-line front door.

All tests call ``evpos.cli.main`` in-process so exit codes, stdout and
stderr can be asserted without spawning subprocesses; the tests of the
import surface alone run a fresh interpreter.
"""

import argparse
import inspect
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import evpos.cli as cli
import evpos.presets as presets
from evpos.cli import main
from evpos.presets import CheckResult, PresetReport
from evpos.semigroup import demo_generator
from evpos.spectral import dominant_projection
from evpos.stepfun import MAX_DEPTH


def write_doc(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def write_demo(tmp_path) -> str:
    return write_doc(tmp_path, "demo.json", {"matrix": demo_generator().tolist()})


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# what an analyze run never needs: the lattice carriers and scipy's special functions
LATTICE_MODULES = {
    "evpos.perturbation",
    "evpos.presets",
    "evpos.gammashift",
    "evpos.stepfun",
    "scipy.special",
}


def fresh_python(*args) -> str:
    """Stdout of a new interpreter run with `args`, the package on its path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout


class TestAnalyze:
    def test_showcase_matrix_full_report(self, tmp_path, capsys):
        rc, out, err = run(capsys, ["analyze", "--matrix", write_demo(tmp_path)])
        assert rc == 0
        assert err == ""
        rep = json.loads(out)
        assert rep["tool"]["name"] == "evpos"
        assert rep["positivity"]["class"] == "UniformlyEventuallyStronglyPositive"
        assert rep["positivity"]["certified"] is True
        assert rep["irreducibility"]["classification"] == "PersistentlyIrreducible"
        assert rep["projection"]["available"] is True
        P = np.array(rep["projection"]["projection"])
        assert np.max(np.abs(P - np.ones((3, 3)) / 3.0)) <= 1e-10
        assert rep["certificate"]["spectral_bound"] == pytest.approx(9.0)
        # settings echo the defaults when no flags are given
        assert rep["input"]["settings"] == {
            "tol": 1e-9,
            "grid_points": 256,
            "t_max": 20.0,
        }

    def test_zero_matrix_positive_reducible(self, tmp_path, capsys):
        path = write_doc(tmp_path, "zero2.json", {"matrix": [[0.0, 0.0], [0.0, 0.0]]})
        rc, out, _ = run(capsys, ["analyze", "--matrix", path])
        assert rc == 0
        rep = json.loads(out)
        assert rep["positivity"]["class"] == "Positive"
        assert rep["irreducibility"]["classification"] == "Reducible"
        assert rep["projection"]["available"] is False

    def test_large_spectral_bound_metzler_analyzed(self, tmp_path, capsys):
        # at s = 81 the raw e^{10 A} of the sign-criterion probe overflows;
        # at entries ~4e8 eigenvector residuals are judged relative to max|A_ij|
        for A in ([[40.0, 1.0], [1.0, 40.0]], [[80.0, 1.0], [1.0, 80.0]], [[1e8, 2e8], [3e8, 4e8]]):
            path = write_doc(tmp_path, "m.json", {"matrix": A})
            rc, out, err = run(capsys, ["analyze", "--matrix", path])
            assert rc == 0, err
            rep = json.loads(out)
            assert rep["positivity"]["class"] == "Positive"
            assert rep["positivity"]["certified"] is True
            assert rep["positivity"]["onset_t0"] == 0.0

    def test_large_spectral_bound_grid_fallback_analyzed(self, tmp_path, capsys):
        # s = 36.0003: the raw e^{20 A} of the grid fallback overflows
        path = write_doc(tmp_path, "g.json", {"matrix": [[1.0, -0.1], [-0.1, 36.0]]})
        rc, out, err = run(capsys, ["analyze", "--matrix", path])
        assert rc == 0, err
        rep = json.loads(out)
        assert rep["positivity"]["class"] == "NotEventuallyPositive"
        assert rep["positivity"]["certified"] is False
        assert max(row[0] for row in rep["positivity"]["evidence"]) == 20.0

    def test_overflow_is_a_one_line_error(self, tmp_path, capsys):
        # e^{t(A - sI)} is a rotation at frequency 1e300, whose squarings overflow
        path = write_doc(tmp_path, "inf.json", {"matrix": [[1e300, -1e300], [1e300, 1e300]]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would print to stderr
            rc, out, err = run(capsys, ["analyze", "--matrix", path])
        assert rc == 1
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("error: exp(tA) overflowed") and err.count("\n") == 1

    def test_metzler_overflow_keeps_the_exact_verdicts(self, tmp_path, capsys):
        # 10 A is not finite, so the sign-criterion sample at t = 10
        # overflows; the criterion is exact, so the sample is dropped
        path = write_doc(tmp_path, "inf.json", {"matrix": [[0.0, 1e308], [0.0, 0.0]]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run(capsys, ["analyze", "--matrix", path])
        assert rc == 0, err
        rep = json.loads(out)
        assert rep["positivity"]["class"] == "Positive"
        assert rep["positivity"]["certified"] is True
        assert [row[0] for row in rep["positivity"]["evidence"]] == [0.0, 1.0]
        assert rep["irreducibility"]["classification"] == "Reducible"
        assert rep["irreducibility"]["evidence_mode"] == "certified"
        assert rep["projection"]["available"] is False
        assert "spectral gap 0.000e+00" in rep["projection"]["notes"]

    def test_large_spectral_bound_eventually_positive_certified(self, tmp_path, capsys):
        # s = 40, so e^{20 A} overflows; the certificate samples e^{t(A - sI)} only
        A = demo_generator() + 31.0 * np.eye(3)
        path = write_doc(tmp_path, "shifted.json", {"matrix": A.tolist()})
        rc, out, err = run(capsys, ["analyze", "--matrix", path])
        assert rc == 0, err
        rep = json.loads(out)
        assert rep["positivity"]["class"] == "UniformlyEventuallyStronglyPositive"
        assert rep["positivity"]["certified"] is True
        assert rep["certificate"]["spectral_bound"] == pytest.approx(40.0)

    def test_grid_flags_reach_the_sampled_fallback(self, tmp_path, capsys):
        # a rotation has no certificate, so its verdict comes from the grid
        path = write_doc(tmp_path, "rot.json", {"matrix": [[0.0, -1.0], [1.0, 0.0]]})
        _, out, _ = run(capsys, ["analyze", "--matrix", path])
        default = json.loads(out)["positivity"]
        _, out, _ = run(
            capsys, ["analyze", "--matrix", path, "--grid-points", "4", "--t-max", "0.5"]
        )
        coarse = json.loads(out)["positivity"]
        assert default["certified"] is False and coarse["certified"] is False
        assert coarse["evidence"] != default["evidence"]
        assert max(row[0] for row in default["evidence"]) == 20.0
        assert max(row[0] for row in coarse["evidence"]) == 0.5

    def test_projection_reuses_the_certificate_decompositions(self, tmp_path, capsys, monkeypatch):
        # eig(A) and eig(A^T) of the positivity certificate also seed the
        # projection, which comes out as from a fresh decomposition
        calls = []
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(a.shape) or eig(a))
        rc, out, _ = run(capsys, ["analyze", "--matrix", write_demo(tmp_path)])
        assert rc == 0
        assert calls == [(3, 3), (3, 3)]
        monkeypatch.undo()
        fresh = dominant_projection(demo_generator())
        projection = json.loads(out)["projection"]
        assert projection["projection"] == fresh.projection.tolist()
        assert projection["residuals"] == fresh.residuals

    def test_report_is_deterministic_apart_from_timings(self, tmp_path, capsys):
        path = write_demo(tmp_path)
        _, out1, _ = run(capsys, ["analyze", "--matrix", path])
        _, out2, _ = run(capsys, ["analyze", "--matrix", path])
        rep1, rep2 = json.loads(out1), json.loads(out2)
        rep1.pop("timings")
        rep2.pop("timings")
        assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)

    def test_report_out_writes_lf_terminated_file(self, tmp_path, capsys):
        path = write_demo(tmp_path)
        out_path = tmp_path / "report.json"
        rc, out, _ = run(
            capsys, ["analyze", "--matrix", path, "--report-out", str(out_path)]
        )
        assert rc == 0
        assert out == ""
        raw = out_path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
        json.loads(raw)

    def test_document_tolerance_used_and_flag_wins(self, tmp_path, capsys):
        path = write_doc(
            tmp_path,
            "with_tol.json",
            {"matrix": demo_generator().tolist(), "tolerances": {"tol": 1e-6}},
        )
        _, out, _ = run(capsys, ["analyze", "--matrix", path])
        assert json.loads(out)["input"]["settings"]["tol"] == 1e-6
        _, out, _ = run(capsys, ["analyze", "--matrix", path, "--tol", "1e-8"])
        assert json.loads(out)["input"]["settings"]["tol"] == 1e-8


class TestAnalyzeInputErrors:
    def test_malformed_json_reports_line_and_column(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"matrix": [[1, 2],\n [3, }')
        rc, _, err = run(capsys, ["analyze", "--matrix", str(path)])
        assert rc == 1
        assert "line" in err and "column" in err

    def test_missing_file(self, capsys, tmp_path):
        rc, _, err = run(capsys, ["analyze", "--matrix", str(tmp_path / "nope.json")])
        assert rc == 1
        assert "cannot read" in err

    def test_unknown_field_rejected(self, tmp_path, capsys):
        path = write_doc(tmp_path, "extra.json", {"matrix": [[1.0]], "tool": "x"})
        rc, _, err = run(capsys, ["analyze", "--matrix", path])
        assert rc == 1
        assert "unknown fields" in err

    def test_non_square_rejected(self, tmp_path, capsys):
        path = write_doc(tmp_path, "rect.json", {"matrix": [[1.0, 2.0]]})
        rc, _, err = run(capsys, ["analyze", "--matrix", path])
        assert rc == 1
        assert "square" in err

    def test_dimension_cap(self, tmp_path, capsys):
        big = np.zeros((cli.MAX_MATRIX_DIM + 1, cli.MAX_MATRIX_DIM + 1))
        path = write_doc(tmp_path, "big.json", {"matrix": big.tolist()})
        rc, _, err = run(capsys, ["analyze", "--matrix", path])
        assert rc == 1
        assert "exceeds the cap" in err

    def test_non_finite_entries_rejected(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"matrix": [[NaN, 0.0], [0.0, 0.0]]}')
        rc, _, err = run(capsys, ["analyze", "--matrix", str(path)])
        assert rc == 1
        assert "finite" in err

    def test_non_numeric_entries_rejected(self, tmp_path, capsys):
        path = write_doc(tmp_path, "str.json", {"matrix": [["a"]]})
        rc, _, err = run(capsys, ["analyze", "--matrix", path])
        assert rc == 1
        assert "numbers" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--tol", "nan"], "positive"),
            (["--t-max", "1e-3"], "t_max"),
            (["--t-max", "inf"], "t_max"),
            (["--grid-points", "1"], "grid points"),
            (["--grid-points", str(cli.MAX_GRID_POINTS + 1)], "cap"),
            (["--depth", "3", "--L", "7", "--grid-h", "0.3"], "unrecognized arguments: --depth"),
            (["--grid-h", "0.3"], "unrecognized arguments: --grid-h"),
            (["--tol", "1e-6", "--L", "7"], "unrecognized arguments: --L"),
            # an infinite tolerance would certify every sampled entry
            (["--tol", "inf"], "positive"),
        ],
    )
    def test_unusable_settings_rejected(self, tmp_path, capsys, flags, message):
        rc, out, err = run(capsys, ["analyze", "--matrix", write_demo(tmp_path), *flags])
        assert (rc, out) == (1, "")
        assert message in err

    def test_infinite_document_tolerance_rejected(self, tmp_path, capsys):
        # JSON reads 1e999 as inf, the value of --tol inf
        path = tmp_path / "inf_tol.json"
        path.write_text(
            '{"matrix": [[1, 2, 0], [2, 1, 0.5], [0, 1, 1]], "tolerances": {"tol": 1e999}}'
        )
        rc, out, err = run(capsys, ["analyze", "--matrix", str(path)])
        assert (rc, out) == (1, "")
        assert err == "error: tol must be finite and positive, got inf\n"

    def test_non_numeric_document_grid_rejected(self, tmp_path, capsys):
        doc = {"matrix": demo_generator().tolist(), "grid": {"points": "many"}}
        rc, _, err = run(capsys, ["analyze", "--matrix", write_doc(tmp_path, "g.json", doc)])
        assert rc == 1
        assert "must be numbers" in err

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"matrix": [["1", "2"], [1, 3]]}, 'matrix entries must be numbers, got "1"'),
            ({"matrix": [[1, 2], [True, "3e0"]]}, "matrix entries must be numbers, got true"),
            ({"matrix": [[1, None], [0, 1]]}, "matrix entries must be numbers, got null"),
            ({"tolerances": {"tol": True}}, "tolerances.tol must be a number, got true"),
            ({"tolerances": {"tol": "1e-6"}}, 'tolerances.tol must be a number, got "1e-6"'),
            ({"grid": {"points": 256.9}}, "grid.points must be an integer, got 256.9"),
            ({"grid": {"points": "300"}}, 'grid.points must be an integer, got "300"'),
            ({"grid": {"points": 300.0}}, "grid.points must be an integer, got 300.0"),
            ({"grid": {"t_max": False}}, "grid.t_max must be a number, got false"),
            ({"tolerances": {"atol": 1e-6}}, "unknown field 'atol' in 'tolerances'"),
            ({"grid": {"tmax": 5}}, "unknown field 'tmax' in 'grid'"),
            ({"grid": {"points": 8, "tol": 1e-6}}, "unknown field 'tol' in 'grid'"),
        ],
    )
    def test_document_fields_are_validated_strictly(self, tmp_path, capsys, fields, message):
        doc = {"matrix": demo_generator().tolist(), **fields}
        rc, out, err = run(capsys, ["analyze", "--matrix", write_doc(tmp_path, "d.json", doc)])
        assert (rc, out) == (1, "")
        assert err.startswith("error: ") and err.endswith(message + "\n"), err
        if "matrix" in fields:
            assert "must be numbers" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"matrix": [[1%s]]}' % ("0" * 400), "matrix entries must be finite"),
            ('{"matrix": [[%s]]}' % ("1" * 5000), "JSON parse error: Exceeds the limit"),
            ('{"matrix": %s}' % ("[" * 100000 + "]" * 100000), "JSON parse error: maximum recursion"),
            # not UTF-8: a decode error, or trailing data where the locale reads the byte
            (b'{"matrix": [[1]]}\xff', "JSON parse error"),
        ],
        ids=["past-float-range", "past-4300-digits", "past-nesting-limit", "not-utf8"],
    )
    def test_documents_past_the_parse_limits_are_one_line_errors(
        self, tmp_path, capsys, text, message
    ):
        path = tmp_path / "huge.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        rc, out, err = run(capsys, ["analyze", "--matrix", str(path)])
        assert (rc, out) == (1, "")
        assert message in err and len(err.splitlines()) == 1, err

    def test_integral_document_numbers_are_accepted(self, tmp_path, capsys):
        doc = {
            "matrix": [[7, -1, 3], [-1, 7, 3], [3, 3, 3]],
            "tolerances": {"tol": 1},
            "grid": {"points": 8, "t_max": 5},
        }
        rc, out, err = run(capsys, ["analyze", "--matrix", write_doc(tmp_path, "d.json", doc)])
        assert (rc, err) == (0, "")
        settings = json.loads(out)["input"]["settings"]
        assert settings == {"tol": 1.0, "grid_points": 8, "t_max": 5.0}

    def test_nonpositive_tolerance_rejected(self, tmp_path, capsys):
        rc, _, err = run(
            capsys, ["analyze", "--matrix", write_demo(tmp_path), "--tol", "-1"]
        )
        assert rc == 1
        assert "positive" in err


class TestExamples:
    def test_matrix_suite_passes(self, capsys):
        rc, out, err = run(capsys, ["examples", "run", "ex5_2"])
        assert rc == 0
        assert err == ""
        rep = json.loads(out)
        assert rep["ok"] is True
        assert rep["preset"] == "ex5_2"
        assert all(c["passed"] for c in rep["checks"] if c["must_pass"])

    def test_matrix_suite_projection_reuses_the_certificate(self, capsys, monkeypatch):
        # the suite's positivity certificate seeds the rank-one projection,
        # so eig(A) and eig(A^T) each run once
        calls = []
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(a.shape) or eig(a))
        rc, _, _ = run(capsys, ["examples", "run", "ex5_2"])
        assert rc == 0
        assert calls == [(3, 3), (3, 3)]

    def test_matrix_suite_passes_at_a_short_horizon(self, capsys):
        # the rescaled limit is a claim about t = 20, whatever the sampled
        # horizon: at --t-max 5 the deviation there would be 3.4e-3
        rc, out, err = run(capsys, ["examples", "run", "ex5_2", "--t-max", "5"])
        assert (rc, err) == (0, "")
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        limit = checks["rescaled limit at t=20"]
        assert limit["passed"] and limit["details"]["max_abs_deviation"] <= 1e-6

    def test_shift_suite_passes(self, capsys):
        rc, out, _ = run(capsys, ["examples", "run", "ex3_10"])
        assert rc == 0
        assert json.loads(out)["ok"] is True

    @pytest.mark.parametrize("depth", [11, 20])
    def test_shift_suite_passes_at_deep_depths(self, capsys, depth):
        rc, out, _ = run(capsys, ["examples", "run", "ex3_10", "--depth", str(depth)])
        assert rc == 0
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["exact pairing witnesses in (0,1)"]["passed"]
        assert checks["classification"]["details"]["mode"] == "certified"

    def test_shift_suite_rejects_depth_past_the_cap(self, capsys):
        rc, out, err = run(capsys, ["examples", "run", "ex3_10", "--depth", "21"])
        assert rc == 1
        assert out == ""
        assert "--depth" in err

    def test_failed_must_pass_check_exits_two_with_witnesses(
        self, capsys, monkeypatch
    ):
        def broken(**kwargs):
            return PresetReport(
                preset="ex5_2",
                ok=False,
                checks=(
                    CheckResult(
                        name="rigged",
                        passed=False,
                        must_pass=True,
                        details={"observed": -1.0},
                    ),
                ),
            )

        monkeypatch.setitem(presets.PRESETS, "ex5_2", broken)
        rc, out, err = run(capsys, ["examples", "run", "ex5_2"])
        assert rc == 2
        assert json.loads(out)["ok"] is False
        payload = json.loads(err)
        assert payload["error"] == "ConsistencyViolation"
        assert payload["witnesses"]
        assert "rigged" in json.dumps(payload["witnesses"])

    def test_coupled_suite_runs_past_the_window(self, capsys):
        # past t = L + 1 the predicted front 1 - t lies left of the window
        rc, out, err = run(capsys, ["examples", "run", "ex5_6", "--t-max", "7.25"])
        assert (rc, err) == (0, "")
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        claim3 = checks["claim 3: support confinement (never quasi-interior)"]
        assert claim3["passed"]
        assert claim3["details"]["front_samples"][-1] == {
            "t": 7.25,
            "support_lo": 0,
            "required_cell": 0,
        }

    def test_second_order_term_sampled_below_the_travel_time(self, capsys):
        # a quarter of --t-max is 3.0, past the travel time 2
        argv = ["examples", "run", "ex5_6", "--L", "12", "--t-max", "12", "--grid-h", "0.25"]
        rc, out, err = run(capsys, argv)
        assert (rc, err) == (0, "")
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        check = checks["second-order term vanishes below the travel time"]
        assert check["passed"]
        assert check["details"] == {"t": 1.75, "terms_alive": 2}

    def test_unknown_suite_is_a_usage_error(self, capsys):
        rc, _, err = run(capsys, ["examples", "run", "nope"])
        assert rc == 1
        assert "invalid choice" in err

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["ex5_2", "--depth", "3"], 1),
            (["ex3_10", "--depth", "3"], 0),
            (["ex5_6", "--t-max", "2"], 0),
        ],
    )
    def test_flags_a_suite_does_not_read_are_rejected(self, capsys, argv, code):
        rc, out, err = run(capsys, ["examples", "run", *argv])
        assert rc == code
        if code:
            assert out == ""
            assert "unrecognized arguments: --depth" in err
        else:
            assert json.loads(out)["ok"] is True

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["ex5_2", "--grid-points", "0"], "grid_points"),
            (["ex5_2", "--t-max", "0"], "t_max"),
            (["ex5_2", "--t-max", "-1"], "t_max"),
            (["ex5_2", "--t-max", "inf"], "t_max"),
            (["ex5_6", "--t-max", "-1"], "t_max"),
            (["ex5_6", "--grid-h", "0"], "cell width"),
            (["ex5_6", "--L", "300"], "4800 cells, past the cap 4096"),
            # 2 x 1601 x 1602 / 2 renewal summands
            (["ex5_6", "--grid-h", "0.03125", "--t-max", "50"], "budget"),
            # the demo matrix flow e^{9t} leaves the double range past t = 78.8
            (["ex5_6", "--t-max", "80"], "overflow"),
            (["ex5_6", "--grid-h", "0.25", "--t-max", "249"], "overflow"),
            (["ex5_2", "--tol", "nan"], "positive"),
            (["ex5_2", "--tol", "inf"], "positive"),
            (["ex5_2", "--tol", "-1"], "positive"),
            (["ex5_6", "--tol", "nan"], "positive"),
            (["ex5_6", "--tol", "-1"], "positive"),
            # np.geomspace allocates every sampled time up front
            (["ex5_2", "--grid-points", str(cli.MAX_GRID_POINTS + 1)], "grid_points"),
            (["ex5_6", "--t-max", "0.01"], "t_max must be finite and reach the first step"),
        ],
    )
    def test_unusable_suite_settings_rejected(self, capsys, argv, message):
        rc, out, err = run(capsys, ["examples", "run", *argv])
        assert rc == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


class TestTimeseries:
    def test_pairing_series_exact_column(self, capsys):
        rc, out, err = run(capsys, ["timeseries", "pairing", "--depth", "3"])
        assert rc == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == "t,pairing_1_1,pairing_1_1_exact"
        assert len(lines) == 1 + (1 << 3) + 1
        cells = dict()
        for line in lines[1:]:
            t, val, exact = line.split(",")
            cells[t] = (val, exact)
        assert cells["0.25"] == ("0.25", "1/4")
        assert cells["1"][1] == "0"

    def test_pairing_rejects_other_inputs(self, capsys):
        rc, _, err = run(capsys, ["timeseries", "pairing", "ex5_2"])
        assert rc == 1
        assert "ex3_10" in err

    def test_support_front_tracks_predicted_front(self, capsys):
        rc, out, _ = run(capsys, ["timeseries", "support-front", "--t-max", "1.0"])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "t,support_front_x,support_lo_cell,predicted_x"
        assert len(lines) == 1 + 8  # q = 1..8 at the default h = 1/8
        for line in lines[1:]:
            _, front, _, predicted = line.split(",")
            assert float(front) == float(predicted)

    def test_support_front_rejects_other_inputs(self, capsys):
        rc, _, err = run(capsys, ["timeseries", "support-front", "ex3_10"])
        assert rc == 1
        assert "ex5_6" in err

    def test_rescaled_distance_decays(self, capsys):
        rc, out, _ = run(
            capsys,
            ["timeseries", "rescaled-distance", "ex5_2", "--grid-points", "16"],
        )
        assert rc == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        dist = [float(r[1]) for r in rows]
        assert dist[-1] < dist[0]
        assert dist[-1] <= 1e-6

    def test_orbit_from_matrix_file(self, tmp_path, capsys):
        path = write_demo(tmp_path)
        rc, out, _ = run(
            capsys, ["timeseries", "orbit", path, "--grid-points", "4", "--t-max", "1"]
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "t,x_0,x_1,x_2"
        assert len(lines) == 5

    def test_orbit_overflow_is_the_scalar_error(self, tmp_path, capsys):
        # e^{41 t} leaves the double range at t = 17.34 of the 256 times; the
        # rows before it are evaluated in the same stack, but only the error shows
        path = write_doc(tmp_path, "big.json", {"matrix": [[40.0, 1.0], [1.0, 40.0]]})
        rc, out, err = run(capsys, ["timeseries", "orbit", path])
        assert rc == 1
        assert out == ""
        assert err == "error: exp(tA) overflowed (|tA|_1 = 7.111e+02, squarings = 8)\n"

    @pytest.mark.parametrize("quantity", ["orbit", "rescaled-distance"])
    @pytest.mark.parametrize(
        "fields",
        [{"grid": {"t_max": 2, "points": 4}}, {"tolerances": {"tol": 1e-6}}, {"grid": {}}],
    )
    def test_series_refuse_document_settings(self, tmp_path, capsys, quantity, fields):
        # the series read --t-max and --grid-points only; a document setting
        # would otherwise be dropped without a word
        doc = {"matrix": demo_generator().tolist(), **fields}
        rc, out, err = run(capsys, ["timeseries", quantity, write_doc(tmp_path, "d.json", doc)])
        assert (rc, out) == (1, "")
        assert f"reads its settings from flags, not from the document fields {sorted(fields)}" in err

    def test_orbit_rejects_non_matrix_presets(self, capsys):
        rc, _, err = run(capsys, ["timeseries", "orbit", "ex3_10"])
        assert rc == 1
        assert "matrix input" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["orbit", "--depth", "3", "--L", "5"], "--depth"),
            (["orbit", "--tol", "1e-6"], "--tol"),
            (["rescaled-distance", "--L", "5"], "--L"),
            (["pairing", "--t-max", "3", "--grid-h", "0.5"], "--t-max"),
            (["pairing", "--grid-h", "0.5"], "--grid-h"),
            (["support-front", "--grid-points", "4"], "--grid-points"),
            (["support-front", "--depth", "3"], "--depth"),
        ],
    )
    def test_flags_a_quantity_does_not_read_are_rejected(self, capsys, argv, flag):
        rc, out, err = run(capsys, ["timeseries", *argv])
        assert rc == 1
        assert out == ""
        assert f"unrecognized arguments: {flag}" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["orbit", "--t-max", "-3"], "t_max"),
            (["orbit", "--t-max", "0"], "t_max"),
            (["orbit", "--t-max", "inf"], "t_max"),
            (["orbit", "--grid-points", "0"], "grid points"),
            (["orbit", "--grid-points", "-5"], "grid points"),
            (["rescaled-distance", "--grid-points", str(cli.MAX_GRID_POINTS + 1)], "grid points"),
            (["support-front", "--grid-h", "0"], "cell width"),
            (["support-front", "--t-max", "-1"], "t_max"),
            (["support-front", "--L", "3"], "window half-length"),
            (["pairing", "--depth", "0"], "depth"),
            (["support-front", "--L", "4", "--grid-h", "0.0001"], "80000 cells"),
            (["support-front", "--grid-h", "0.03125", "--t-max", "50"], "budget"),
            (["support-front", "--t-max", "80"], "overflow"),
            (["support-front", "--grid-h", "0.25", "--t-max", "249"], "overflow"),
            (["pairing", "--depth", str(MAX_DEPTH + 1)], f"--depth must be in 1..{MAX_DEPTH}, got"),
            # below one lattice step, with the message of ex5_6
            (["support-front", "--t-max", "0.01"], "t_max must be finite and reach the first step"),
        ],
    )
    def test_unusable_series_settings_rejected(self, capsys, argv, message):
        rc, out, err = run(capsys, ["timeseries", *argv])
        assert rc == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_csv_is_byte_deterministic_with_lf_endings(self, tmp_path, capsys):
        args = ["timeseries", "pairing", "--depth", "4"]
        out1_path, out2_path = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--report-out", str(out1_path)]) == 0
        assert main(args + ["--report-out", str(out2_path)]) == 0
        capsys.readouterr()
        raw = out1_path.read_bytes()
        assert raw == out2_path.read_bytes()
        assert b"\r" not in raw

    def test_numeric_cells_are_shortest_g17(self, capsys):
        _, out, _ = run(
            capsys,
            ["timeseries", "rescaled-distance", "ex5_2", "--grid-points", "8"],
        )
        for line in out.splitlines()[1:]:
            for cell in line.split(","):
                assert format(float(cell), ".17g") == cell
                assert float(format(float(cell), ".17g")) == float(cell)


class TestUsageAndEnvironment:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["analyze"]) == 1
        capsys.readouterr()

    def test_version_exits_zero(self, capsys):
        rc = main(["--version"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("evpos ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["timeseries", "support-front", "--dp-terms", "8"],
            ["examples", "run", "ex5_6", "--dp-terms", "10"],
        ],
    )
    def test_removed_dp_terms_flag_is_a_usage_error(self, capsys, argv):
        # coupled orbits sum every series term, so no term cap is read
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (1, "")
        assert "unrecognized arguments: --dp-terms" in err

    def test_usage_error_after_a_successful_call(self, capsys):
        # the parser is built once per process and keeps no state between calls
        assert main(["--version"]) == 0
        assert main(["timeseries", "pairing", "--depth", "2"]) == 0
        assert main(["timeseries", "pairing", "--bogus"]) == 1
        assert main(["timeseries"]) == 1
        assert main(["timeseries", "pairing", "--depth", "2"]) == 0
        assert cli.build_parser() is cli.build_parser()
        capsys.readouterr()

    def test_import_loads_no_thread_pool(self):
        # no command fans out over threads, so a fresh interpreter that
        # imports the CLI never loads the pool or its concurrency module
        code = (
            "import sys, evpos.cli; "
            "print(sorted({'evpos.parallel', 'concurrent.futures'} & set(sys.modules)))"
        )
        assert fresh_python("-c", code).strip() == "[]"

    def test_analyze_loads_no_lattice_module(self, tmp_path):
        # all three positivity routes run on the matrix modules alone
        docs = {
            "metzler": [[0.0, 1.0], [2.0, -1.0]],
            "spectral": demo_generator().tolist(),
            "grid": [[1, -2, 0.5], [2, 1, -1], [0.5, 1, -3]],
        }
        paths = [write_doc(tmp_path, f"{route}.json", {"matrix": A}) for route, A in docs.items()]
        code = (
            "import sys, evpos.cli as cli\n"
            "for path in sys.argv[1:]:\n"
            "    assert cli.main(['analyze', '--matrix', path, '--report-out', path + '.out']) == 0\n"
            f"print(sorted(set(sys.modules).intersection({sorted(LATTICE_MODULES)})))\n"
        )
        assert fresh_python("-c", code, *paths).strip() == "[]"
        routes = []
        for route in docs:
            verdict = json.loads((tmp_path / f"{route}.json.out").read_text())["positivity"]
            if not verdict["certified"]:
                routes.append("grid")
            else:
                routes.append("metzler" if verdict["class"] == "Positive" else "spectral")
        assert routes == list(docs)

    @pytest.mark.parametrize(
        "argv", [["examples", "run", "ex3_10"], ["timeseries", "support-front"]]
    )
    def test_lattice_commands_import_on_demand(self, tmp_path, argv):
        # a fresh interpreter loads the lattice modules inside the command
        fresh, here = tmp_path / "fresh.out", tmp_path / "here.out"
        fresh_python("-m", "evpos.cli", *argv, "--report-out", str(fresh))
        assert main([*argv, "--report-out", str(here)]) == 0
        untimed = [re.sub(r'"suite_s": .*', "", p.read_text()) for p in (fresh, here)]
        assert untimed[0] == untimed[1]


def leaf_parsers(parser, path=()):
    """(command words, parser) for each command that runs, walking the subparsers."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, child in action.choices.items():
            yield from leaf_parsers(child, (*path, name))


def declared_flags(leaf) -> dict:
    """dest -> action of each flag a command declares, apart from -h and --report-out."""
    return {
        a.dest: a
        for a in leaf._actions
        if a.option_strings and a.dest not in ("help", "report_out")
    }


QUANTITIES = ("orbit", "rescaled-distance", "pairing", "support-front")
# a usable value, other than every default, for each flag of the table
NON_DEFAULT = {"tol": "1e-6", "grid_points": "8", "t_max": "3", "depth": "3", "h": "0.25", "L": "5"}


class TestFlagContract:
    """Every flag a command accepts reaches what the command runs."""

    LEAVES = dict(leaf_parsers(cli.build_parser()))

    def test_leaves_are_the_commands(self):
        assert set(self.LEAVES) == {
            ("analyze",),
            *(("examples", "run", name) for name in presets.PRESETS),
            *(("timeseries", q) for q in QUANTITIES),
        }

    def test_every_flag_comes_from_the_one_table(self):
        assert set(NON_DEFAULT) == set(cli.FLAGS)
        for path, leaf in self.LEAVES.items():
            for dest, action in declared_flags(leaf).items():
                if path == ("analyze",) and dest == "matrix":
                    assert action.required  # the input document, not a setting
                    continue
                assert (action.option_strings[0], action.type, action.help) == cli.FLAGS[dest]

    def test_analyze_flags_reach_the_echoed_settings(self, tmp_path, capsys):
        path = write_demo(tmp_path)
        other = write_doc(tmp_path, "other.json", {"matrix": [[1.0, 0.0], [0.0, 2.0]]})
        values = dict(NON_DEFAULT, matrix=other)
        for dest, action in declared_flags(self.LEAVES[("analyze",)]).items():
            argv = ["analyze", "--matrix", path, action.option_strings[0], values[dest]]
            rc, out, err = run(capsys, argv)  # a repeated --matrix: the last one wins
            assert rc == 0, err
            echo = json.loads(out)["input"]
            echo = dict(echo["settings"], matrix=echo["matrix"])
            expected = [[1.0, 0.0], [0.0, 2.0]] if dest == "matrix" else action.type(values[dest])
            assert echo[dest] == expected, dest

    @pytest.mark.parametrize("quantity", QUANTITIES)
    def test_series_flags_change_the_csv(self, capsys, quantity):
        rc, default, err = run(capsys, ["timeseries", quantity])
        assert rc == 0, err
        flags = declared_flags(self.LEAVES[("timeseries", quantity)])
        assert flags
        for dest, action in flags.items():
            argv = ["timeseries", quantity, action.option_strings[0], NON_DEFAULT[dest]]
            rc, out, err = run(capsys, argv)
            assert rc == 0, err
            assert out != default, dest

    @pytest.mark.parametrize("suite", sorted(presets.PRESETS))
    def test_suite_flags_reach_the_runner(self, capsys, monkeypatch, suite):
        params = inspect.signature(presets.PRESETS[suite]).parameters
        received = []

        def recorder(**kwargs):
            received.append(kwargs)
            return PresetReport(preset=suite, ok=True, checks=())

        monkeypatch.setitem(presets.PRESETS, suite, recorder)
        assert run(capsys, ["examples", "run", suite])[0] == 0
        assert received.pop() == {}  # unset flags leave the runner's defaults
        flags = declared_flags(self.LEAVES[("examples", "run", suite)])
        assert flags
        for dest, action in flags.items():
            value = action.type(NON_DEFAULT[dest])
            assert dest in params and params[dest].default != value, dest
            argv = ["examples", "run", suite, action.option_strings[0], NON_DEFAULT[dest]]
            assert run(capsys, argv)[0] == 0
            assert received.pop() == {dest: value}
