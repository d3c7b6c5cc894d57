"""Report bytes: the one-pass writer against the reference, and canonical JSON.

The package writes reports and witness dumps in one pass (``cli._json``).
``brute_oracles.reference_report_text`` is the writer as first written:
a JSON-safe copy of the whole value passed to ``json.dumps``.  Both must
give the same text byte for byte, on random nested values and on the
reports the commands write.  Every JSON file the CLI writes must also be
canonical: re-dumping its parsed value gives the same text.
"""

import dataclasses
import json
import os
import sys
from enum import Enum
from fractions import Fraction

import numpy as np
import pytest

import evpos.cli as cli
import evpos.presets as presets
from brute_oracles import reference_report_text
from evpos.cli import main
from evpos.lattice import IdealMask
from evpos.positivity import PositivityClass
from evpos.presets import CheckResult, PresetReport

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
import corpus  # noqa: E402


class Color(Enum):
    RED = 1
    GREEN = "green"


@dataclasses.dataclass
class Leaf:
    zeta: object
    alpha: object


FLOATS = (
    np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, -2.5, 1 / 3, 1e16, 1e308, -1.7976931348623157e308,
    5e-324, 2.2250738585072014e-308, 1e-300, 123456789.125, 0.1 + 0.2,
)
STRINGS = ("", "plain", "Müller ü", "日本語", "\x00\x1f\x7f", 'q"uote\\back\n\t\r', "\U0001f600", "nan")
# "1" and 1 are one key once written; the later value wins in both writers
KEYS = ("a", "b", "nan", "", "é", "1", 0, 1, -3, (1, 2), ("x",), Color.RED, Color.GREEN,
        PositivityClass.POSITIVE, 1.5)


def draw_float(rng) -> float:
    if rng.random() < 0.3:
        return float(rng.normal() * 10.0 ** rng.integers(-20, 20))
    return FLOATS[rng.integers(len(FLOATS))]


def draw_array(rng) -> np.ndarray:
    shape = tuple(int(d) for d in rng.integers(0, 4, size=rng.integers(0, 4)))
    kind = rng.integers(3)
    if kind == 0:
        a = rng.normal(size=shape) * 10.0 ** rng.integers(-5, 5)
        if a.size and rng.random() < 0.4:
            a.flat[rng.integers(a.size)] = FLOATS[rng.integers(3)]
        return a
    if kind == 1:
        return rng.integers(-(2**40), 2**40, size=shape)
    return rng.random(shape) < 0.5


def draw_scalar(rng):
    k = rng.integers(13)
    if k == 0:
        return draw_float(rng)
    if k == 1:
        return np.float64(draw_float(rng))
    if k == 2:
        return np.int64(rng.integers(-(2**62), 2**62))
    if k == 3:
        return np.bool_(rng.random() < 0.5)
    if k == 4:
        return int(rng.integers(-1000, 1000)) * 10 ** int(rng.integers(0, 30))
    if k == 5:
        return bool(rng.random() < 0.5)
    if k == 6:
        return None
    if k == 7:
        return STRINGS[rng.integers(len(STRINGS))]
    if k == 8:
        return list(PositivityClass)[rng.integers(len(PositivityClass))]
    if k == 9:
        return list(Color)[rng.integers(2)]
    if k == 10:
        return Fraction(int(rng.integers(-50, 50)), int(rng.integers(1, 50)))
    if k == 11:
        dim = int(rng.integers(1, 6))
        return IdealMask.of([i for i in range(dim) if rng.random() < 0.5], dim)
    return draw_array(rng)


def draw_value(rng, depth: int):
    """A random report value: scalars, arrays and containers nested `depth` deep."""
    if depth == 0 or rng.random() < 0.3:
        return draw_scalar(rng)
    size = int(rng.integers(0, 4))
    k = rng.integers(6)
    if k == 0:
        return {KEYS[rng.integers(len(KEYS))]: draw_value(rng, depth - 1) for _ in range(size)}
    if k == 1:
        return [draw_value(rng, depth - 1) for _ in range(size)]
    if k == 2:
        return tuple(draw_value(rng, depth - 1) for _ in range(size))
    if k == 3:
        pool = STRINGS if rng.random() < 0.5 else range(-5, 5)
        members = {pool[i] for i in rng.integers(len(pool), size=size)}
        return frozenset(members) if rng.random() < 0.5 else members
    if k == 4:
        return Leaf(zeta=draw_value(rng, depth - 1), alpha=draw_value(rng, depth - 1))
    return {}


class TestReferenceWriter:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_values_are_written_as_the_reference_writes_them(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(60):
            value = draw_value(rng, 4)
            assert cli._json(value, "\n") + "\n" == reference_report_text(value), value

    @pytest.mark.parametrize(
        "value",
        [{}, [], (), set(), frozenset(), np.zeros(0), np.zeros((2, 0)), np.zeros((0, 3)), {"a": {}}],
    )
    def test_empty_containers(self, value):
        assert cli._json(value, "\n") + "\n" == reference_report_text(value)

    def test_non_finite_floats_are_strings(self):
        value = [np.nan, np.float64(-np.inf), np.array([1.0, np.inf]), np.array(np.nan)]
        assert cli._json(value, "\n") == '[\n  "nan",\n  "-inf",\n  [\n    1.0,\n    "inf"\n  ],\n  "nan"\n]'

    def test_analyze_ladder_reports(self, tmp_path, monkeypatch):
        """Every analyze report of the benchmark's seed 1, round 0."""
        reports = []
        dump = cli._dump_report
        monkeypatch.setattr(cli, "_dump_report", lambda r, out: reports.append(r) or dump(r, out))
        ops = corpus.build("analyze-ladder", 1, 0)
        for i, op in enumerate(ops):
            src, out = tmp_path / f"in_{i:03d}.json", tmp_path / f"report_{i:03d}.json"
            src.write_text(json.dumps({"matrix": op.matrix.tolist()}))
            assert main(["analyze", "--matrix", str(src), "--report-out", str(out)]) == 0
            assert out.read_text() == reference_report_text(reports[-1]), i
        assert len(reports) == len(ops) == 101

    @pytest.mark.parametrize("suite", ["ex5_2", "ex3_10", "ex5_6"])
    def test_suite_reports(self, tmp_path, monkeypatch, suite):
        reports = []
        dump = cli._dump_report
        monkeypatch.setattr(cli, "_dump_report", lambda r, out: reports.append(r) or dump(r, out))
        out = tmp_path / "report.json"
        assert main(["examples", "run", suite, "--report-out", str(out)]) == 0
        assert out.read_text() == reference_report_text(reports[0])


def broken_suite(**kwargs):
    details = {"observed": -1.0, "gap": np.nan, "v": np.array([1.0, -np.inf]), "members": {3, 1}}
    check = CheckResult(name="rigged", passed=False, must_pass=True, details=details)
    return PresetReport(preset="ex5_2", ok=False, checks=(check,))


def assert_canonical(text: str) -> None:
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


class TestCanonicalReports:
    @pytest.mark.parametrize(
        "matrix",
        [
            [[7.0, -1.0, 3.0], [-1.0, 7.0, 3.0], [3.0, 3.0, 3.0]],
            # indefinite: the certificate's onset_constant is NaN
            [[1, -2, 0.5], [2, 1, -1], [0.5, 1, -3]],
            [[0, 1e308], [0, 0]],
            [[1e8, 2e8], [3e8, 4e8]],
        ],
    )
    def test_analyze(self, tmp_path, matrix):
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"matrix": matrix}))
        out = tmp_path / "report.json"
        assert main(["analyze", "--matrix", str(path), "--report-out", str(out)]) == 0
        assert_canonical(out.read_text())

    def test_a_nan_onset_constant_is_written(self, tmp_path):
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"matrix": [[1, -2, 0.5], [2, 1, -1], [0.5, 1, -3]]}))
        out = tmp_path / "report.json"
        assert main(["analyze", "--matrix", str(path), "--report-out", str(out)]) == 0
        assert json.loads(out.read_text())["certificate"]["onset_constant"] == "nan"

    @pytest.mark.parametrize("suite", ["ex5_2", "ex3_10", "ex5_6"])
    def test_suites(self, tmp_path, suite):
        out = tmp_path / "report.json"
        assert main(["examples", "run", suite, "--report-out", str(out)]) == 0
        assert_canonical(out.read_text())

    def test_witness_dump(self, capsys, monkeypatch):
        monkeypatch.setitem(presets.PRESETS, "ex5_2", broken_suite)
        assert main(["examples", "run", "ex5_2"]) == 2
        captured = capsys.readouterr()
        assert_canonical(captured.out)
        assert_canonical(captured.err)
        payload = json.loads(captured.err)
        assert captured.err == reference_report_text(payload)
        assert payload["witnesses"][0][1]["gap"] == "nan"
