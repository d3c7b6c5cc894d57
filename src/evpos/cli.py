"""Command-line front door: analyses, scripted examples, and time series.

Three subcommands:

* ``analyze --matrix FILE``    full positivity/irreducibility/projection
  analysis of a matrix generator described by a JSON document.
* ``examples run NAME``        scripted verification suites; NAME is one
  of ``ex5_2``, ``ex3_10``, ``ex5_6``.
* ``timeseries QUANTITY [INPUT]`` plot-ready CSV series; QUANTITY is one
  of ``orbit``, ``pairing``, ``rescaled-distance``, ``support-front``.

Each command, down to each suite and each quantity, has its own parser
that declares only the flags the command reads, taken from the one table
``FLAGS``: ``--help`` lists them, and any other flag is a usage error.

Exit codes: 0 all asserted claims hold, 1 usage or input error, 2 an
internal-consistency violation or a failed must-pass claim (always with
a witness dump on stderr).  Reports are byte-identical across runs for
identical inputs and flags, apart from the wall-clock timing block.
"""

import argparse
import dataclasses
import functools
import json
import math
import sys
import time
from enum import Enum
from fractions import Fraction

import numpy as np

from . import __version__
from .errors import ConsistencyViolation, EvposError, InputError, check_tol
from .irreducibility import classify
from .lattice import IdealMask
from .perturbation import CoupledProvider, ProductVector
from .positivity import certify_eventual_strong_positivity
from .presets import MAX_GRID_POINTS, PRESETS, check_depth, coupled_demo_system, lattice_steps
from .semigroup import MatrixSemigroup, TimeGrid, demo_generator
from .spectral import dominant_projection
from .stepfun import rademacher, shifted_pairing

MAX_MATRIX_DIM = 400

# Each flag once, by argparse dest (the suite runners' keyword): spelling,
# type and help.  A command lists the ones it reads.
FLAGS = {
    "tol": ("--tol", float, "verdict tolerance"),
    "grid_points": ("--grid-points", int, "number of sampled times"),
    "t_max": ("--t-max", float, "largest sampled time"),
    "depth": ("--depth", int, "dyadic depth for exact scans"),
    "h": ("--grid-h", float, "cell width for lattice carriers"),
    "L": ("--L", float, "window half-length for lattice carriers"),
}


# --------------------------------------------------------------------------
# serialization helpers


def _jsonable(obj):
    """Recursively convert report objects to JSON-safe values.

    Floats that JSON cannot carry (NaN, infinities) become strings so
    the document still round-trips losslessly.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return repr(obj)
        return obj
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return _jsonable(obj.item())
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, IdealMask):
        return {"members": obj.sorted_members(), "dim": obj.dim}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [_jsonable(v) for v in items]
    return str(obj)


def _dump_report(report: dict, out_path: str | None) -> None:
    text = json.dumps(_jsonable(report), sort_keys=True, indent=2, allow_nan=False)
    if out_path:
        with open(out_path, "w", newline="\n") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(rows: list, header: list, out_path: str | None) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(c if isinstance(c, str) else _g17(c) for c in row))
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _witness_dump(exc: Exception) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    witnesses = getattr(exc, "witnesses", None)
    if witnesses:
        payload["witnesses"] = _jsonable(witnesses)
    sys.stderr.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


# --------------------------------------------------------------------------
# input loading


def _load_matrix_document(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise InputError(f"{path}: expected an object with a 'matrix' field")
    known = {"matrix", "tolerances", "grid"}
    extra = set(doc) - known
    if extra:
        raise InputError(f"{path}: unknown fields {sorted(extra)}")
    try:
        A = np.array(doc["matrix"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: matrix entries must be numbers") from exc
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
        raise InputError(f"{path}: matrix must be square and nonempty")
    if A.shape[0] > MAX_MATRIX_DIM:
        raise InputError(
            f"{path}: matrix dimension {A.shape[0]} exceeds the cap {MAX_MATRIX_DIM}"
        )
    if not np.all(np.isfinite(A)):
        raise InputError(f"{path}: matrix entries must be finite")
    doc["matrix"] = A
    doc.setdefault("tolerances", {})
    doc.setdefault("grid", {})
    if not isinstance(doc["tolerances"], dict) or not isinstance(doc["grid"], dict):
        raise InputError(f"{path}: 'tolerances' and 'grid' must be objects")
    return doc


def _effective_settings(doc: dict, args) -> dict:
    """Flag > document > default, echoed verbatim in the report."""
    tols = doc.get("tolerances", {})
    grid = doc.get("grid", {})
    try:
        tol = args.tol if args.tol is not None else float(tols.get("tol", 1e-9))
        points = (
            args.grid_points
            if args.grid_points is not None
            else int(grid.get("points", 256))
        )
        t_max = args.t_max if args.t_max is not None else float(grid.get("t_max", 20.0))
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"tolerance and grid settings must be numbers: {exc}") from exc
    check_tol(tol)
    if points < 2:
        raise InputError(f"grid points must be at least 2, got {points}")
    if points > MAX_GRID_POINTS:
        raise InputError(f"grid points {points} exceed the cap {MAX_GRID_POINTS}")
    if not 1e-3 < t_max < math.inf:
        # the sampled grid is log-spaced from t = 1e-3
        raise InputError(f"t_max must be finite and exceed 1e-3, got {t_max:g}")
    return {"tol": tol, "grid_points": points, "t_max": t_max}


# --------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> int:
    doc = _load_matrix_document(args.matrix)
    settings = _effective_settings(doc, args)
    A = doc["matrix"]
    timings = {}

    tic = time.perf_counter()
    grid = TimeGrid.logspace(t_max=settings["t_max"], n=settings["grid_points"])
    cert, verdict = certify_eventual_strong_positivity(A, grid=grid, tol=settings["tol"])
    timings["positivity_s"] = time.perf_counter() - tic

    tic = time.perf_counter()
    irr = classify(A=A, tol=settings["tol"])
    timings["irreducibility_s"] = time.perf_counter() - tic

    tic = time.perf_counter()
    try:
        proj = dominant_projection(A, certificate=cert)
        projection = {
            "available": True,
            "eigenvalue": proj.eigenvalue,
            "rank": proj.rank,
            "projection": proj.projection,
            "residuals": proj.residuals,
            "notes": proj.notes,
        }
    except EvposError as exc:
        projection = {"available": False, "notes": str(exc)}
    timings["projection_s"] = time.perf_counter() - tic

    report = {
        "tool": {"name": "evpos", "version": __version__},
        "input": {
            "matrix": A,
            "tolerances": doc["tolerances"],
            "grid": doc["grid"],
            "settings": settings,
        },
        "positivity": {
            "class": verdict.verdict,
            "onset_t0": verdict.onset_t0,
            "certified": verdict.certified,
            "evidence": verdict.evidence,
            "notes": verdict.notes,
        },
        "certificate": cert,
        "irreducibility": {
            "classification": irr.classification,
            "witness_ideal": irr.witness_ideal,
            "witness_onset": irr.witness_onset,
            "evidence_mode": irr.evidence_mode,
            "diagram_consistent": irr.diagram_consistent,
            "notes": irr.notes,
        },
        "projection": projection,
        "timings": timings,
    }
    _dump_report(report, args.report_out)
    return 0


# --------------------------------------------------------------------------
# examples


def cmd_examples(args) -> int:
    # a suite's parser leaves unset flags out, so the runner's defaults hold
    kwargs = {k: v for k, v in vars(args).items() if k in FLAGS}
    tic = time.perf_counter()
    rep = PRESETS[args.name](**kwargs)
    elapsed = time.perf_counter() - tic
    report = {
        "tool": {"name": "evpos", "version": __version__},
        "preset": rep.preset,
        "ok": rep.ok,
        "notes": rep.notes,
        "checks": rep.to_dict()["checks"],
        "timings": {"suite_s": elapsed},
    }
    _dump_report(report, args.report_out)
    if not rep.ok:
        failed = [c for c in rep.checks if c.must_pass and not c.passed]
        _witness_dump(
            ConsistencyViolation(
                f"preset {rep.preset}: must-pass checks failed",
                witnesses=[(c.name, c.details) for c in failed],
            )
        )
        return 2
    return 0


# --------------------------------------------------------------------------
# timeseries


def _positive_t_max(t_max: float) -> float:
    if not 0.0 < t_max < math.inf:
        raise InputError(f"t_max must be finite and positive, got {t_max:g}")
    return t_max


def _times_linear(args) -> np.ndarray:
    """grid-points equally spaced times on (0, t-max]."""
    t_max, points = _positive_t_max(args.t_max), args.grid_points
    if not 1 <= points <= MAX_GRID_POINTS:
        raise InputError(f"grid points must lie in 1..{MAX_GRID_POINTS}, got {points}")
    return np.linspace(t_max / points, t_max, points)


def _matrix_input(args) -> np.ndarray:
    if args.input in (None, "ex5_2"):
        return demo_generator()
    if args.input in PRESETS:
        raise InputError(
            f"the {args.quantity} series needs a matrix input (a JSON file or ex5_2)"
        )
    return _load_matrix_document(args.input)["matrix"]


def _series_orbit(args) -> tuple:
    """Coordinates of e^{tA} 1 at grid-points times on (0, t-max]."""
    A = _matrix_input(args)
    seed = np.ones(A.shape[0])
    header = ["t"] + [f"x_{i}" for i in range(A.shape[0])]
    times = _times_linear(args)
    rows = []
    for t, E in zip(times, MatrixSemigroup(A).matrices(times)):
        v = E @ seed
        rows.append([float(t), *(float(x) for x in v)])
    return header, rows


def _series_rescaled_distance(args) -> tuple:
    """Largest entry of e^{t(A - sI)} - P, P the dominant projection."""
    A = _matrix_input(args)
    times = _times_linear(args)
    proj = dominant_projection(A)
    s = proj.eigenvalue
    header = ["t", "rescaled_distance"]
    flow = MatrixSemigroup(A - s * np.eye(A.shape[0]))
    rows = []
    for t, E in zip(times, flow.matrices(times)):
        D = E - proj.projection
        rows.append([float(t), float(np.max(np.abs(D)))])
    return header, rows


def _series_pairing(args) -> tuple:
    """Exact pairings of r_1 with its shifts at the dyadic knots of --depth."""
    if args.input not in (None, "ex3_10"):
        raise InputError("the pairing series is defined for the ex3_10 preset")
    depth = check_depth(args.depth)
    header = ["t", "pairing_1_1", "pairing_1_1_exact"]
    r1 = rademacher(1)
    rows = []
    for m in range(0, (1 << depth) + 1):
        t = Fraction(m, 1 << depth)
        val = shifted_pairing(r1, r1, t)
        rows.append([float(t), float(val), str(val)])
    return header, rows


def _series_support_front(args) -> tuple:
    """Support floor of the coupled ex5_6 orbit against the front 1 - t."""
    if args.input not in (None, "ex5_6"):
        raise InputError("the support-front series is defined for the ex5_6 preset")
    h = args.h
    system = coupled_demo_system(L=args.L, h=h)
    q_max = lattice_steps(args.t_max, h)
    provider = CoupledProvider(system)
    provider.check_orbit(q_max)
    grid = system.provider2.grid
    seed = ProductVector(np.ones(3), system.provider2.zero_vector())
    header = ["t", "support_front_x", "support_lo_cell", "predicted_x"]
    rows = []
    for q in range(1, q_max + 1):
        t = q * h
        out = provider.apply(t, seed)
        lo = int(out.second.support_lo)
        rows.append([float(t), float(grid.left_edge(lo)), str(lo), float(1.0 - t)])
    return header, rows


def _csv_command(series):
    """The timeseries command writing `series(args)`, a (header, rows) pair, as CSV."""

    def command(args) -> int:
        header, rows = series(args)
        _write_csv(rows, header, args.report_out)
        return 0

    return command


# --------------------------------------------------------------------------
# parser


def _leaf(sub, name: str, text: str, func, flags: dict) -> argparse.ArgumentParser:
    """A command reading `flags` (dest -> default) and --report-out, and no other flag."""
    p = sub.add_parser(name, help=text)
    for dest, default in flags.items():
        spelling, kind, flag_help = FLAGS[dest]
        p.add_argument(spelling, dest=dest, type=kind, default=default, help=flag_help)
    p.add_argument(
        "--report-out", default=None, help="write the report/CSV here instead of stdout"
    )
    p.set_defaults(func=func)
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="evpos",
        description="Positivity and irreducibility analysis of operator semigroups.",
    )
    parser.add_argument("--version", action="version", version=f"evpos {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # None defaults: a flag wins over the document, which wins over the default
    settings = dict.fromkeys(("tol", "grid_points", "t_max"))
    p_an = _leaf(sub, "analyze", "analyze a matrix generator", cmd_analyze, settings)
    p_an.add_argument("--matrix", required=True, help="JSON document with the matrix")

    p_ex = sub.add_parser("examples", help="scripted verification suites")
    ex_sub = p_ex.add_subparsers(dest="examples_command", required=True)
    suites = ex_sub.add_parser("run", help="run one suite").add_subparsers(
        dest="name", required=True
    )
    for name, text, flags in (
        ("ex5_2", "the 3x3 showcase matrix", ("tol", "grid_points", "t_max")),
        ("ex3_10", "the nilpotent shift on step functions", ("depth",)),
        ("ex5_6", "the coupled matrix and lattice system", ("L", "h", "t_max", "tol")),
    ):
        _leaf(suites, name, text, cmd_examples, dict.fromkeys(flags, argparse.SUPPRESS))

    p_ts = sub.add_parser("timeseries", help="plot-ready CSV series")
    quantities = p_ts.add_subparsers(dest="quantity", required=True)
    sampled = {"t_max": 20.0, "grid_points": 256}
    lattice = {"L": 6.0, "h": 0.125, "t_max": 4.0}
    matrix_input = "ex5_2 (the default) or a JSON matrix file"
    for name, series, flags, source in (
        ("orbit", _series_orbit, sampled, matrix_input),
        ("rescaled-distance", _series_rescaled_distance, sampled, matrix_input),
        ("pairing", _series_pairing, {"depth": 8}, "ex3_10, the default and only input"),
        ("support-front", _series_support_front, lattice, "ex5_6, the default and only input"),
    ):
        p = _leaf(quantities, name, series.__doc__, _csv_command(series), flags)
        # no choices=: argparse would take the value of an undeclared flag
        # ("pairing --t-max 3") as INPUT and name the value, not the flag
        p.add_argument("input", nargs="?", default=None, help=source)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract reserves 2 for
        # consistency violations, so remap usage problems to 1
        code = exc.code if isinstance(exc.code, int) else 0
        return 1 if code else 0
    try:
        return args.func(args)
    except ConsistencyViolation as exc:
        _witness_dump(exc)
        return 2
    except EvposError as exc:  # InputError and the typed refusals
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
