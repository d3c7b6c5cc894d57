"""End-to-end tests of the command-line front door.

All tests call ``evpos.cli.main`` in-process so exit codes, stdout and
stderr can be asserted without spawning subprocesses.
"""

import json
import warnings

import numpy as np
import pytest

import evpos.cli as cli
from evpos.cli import main
from evpos.presets import CheckResult, PresetReport
from evpos.semigroup import demo_generator


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
        # 10 A is not finite, so the sign-criterion probe at t = 10 overflows;
        # e^{t(A - sI)} of the second is a rotation at frequency 1e300, whose
        # squarings overflow
        for A in ([[0.0, 1e308], [0.0, 0.0]], [[1e300, -1e300], [1e300, 1e300]]):
            path = write_doc(tmp_path, "inf.json", {"matrix": A})
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a warning would print to stderr
                rc, out, err = run(capsys, ["analyze", "--matrix", path])
            assert rc == 1
            assert out == ""
            assert "Traceback" not in err
            assert err.startswith("error: exp(tA) overflowed") and err.count("\n") == 1

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
        ],
    )
    def test_unusable_settings_rejected(self, tmp_path, capsys, flags, message):
        rc, _, err = run(capsys, ["analyze", "--matrix", write_demo(tmp_path), *flags])
        assert rc == 1
        assert message in err

    def test_non_numeric_document_grid_rejected(self, tmp_path, capsys):
        doc = {"matrix": demo_generator().tolist(), "grid": {"points": "many"}}
        rc, _, err = run(capsys, ["analyze", "--matrix", write_doc(tmp_path, "g.json", doc)])
        assert rc == 1
        assert "must be numbers" in err

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

        monkeypatch.setitem(cli.PRESETS, "ex5_2", broken)
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
            (["ex5_6", "--dp-terms", "10"], 0),
        ],
    )
    def test_flags_a_suite_does_not_read_are_rejected(self, capsys, argv, code):
        rc, out, err = run(capsys, ["examples", "run", *argv])
        assert rc == code
        if code:
            assert out == ""
            assert "does not read --depth" in err
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
            (["ex5_6", "--t-max", "40"], "budget"),
            # the demo matrix flow e^{9t} leaves the double range past t = 78.8
            (["ex5_6", "--dp-terms", "8", "--t-max", "80"], "overflow"),
            (["ex5_6", "--dp-terms", "1", "--t-max", "249"], "overflow"),
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

    def test_orbit_rejects_non_matrix_presets(self, capsys):
        rc, _, err = run(capsys, ["timeseries", "orbit", "ex3_10"])
        assert rc == 1
        assert "matrix input" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["orbit", "--depth", "3", "--dp-terms", "5"], "--depth"),
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
        assert f"timeseries {argv[0]} does not read {flag}\n" in err

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
            (["support-front", "--dp-terms", "0"], "max_terms"),
            (["pairing", "--depth", "0"], "depth"),
            (["support-front", "--L", "4", "--grid-h", "0.0001"], "80000 cells"),
            (["support-front", "--t-max", "40"], "budget"),
            (["support-front", "--dp-terms", "8", "--t-max", "80"], "overflow"),
            (["support-front", "--dp-terms", "1", "--t-max", "249"], "overflow"),
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

    def test_thread_cap_must_be_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("EVPOS_THREADS", "abc")
        rc, _, err = run(capsys, ["--version"])
        assert rc == 1
        assert "EVPOS_THREADS" in err

    def test_thread_cap_accepts_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("EVPOS_THREADS", "2")
        assert main(["--version"]) == 0
        capsys.readouterr()
