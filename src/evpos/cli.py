"""Command-line front door: analyses, scripted examples, and time series.

Three subcommands:

* ``analyze --matrix FILE``    full positivity/irreducibility/projection
  analysis of a matrix generator described by a JSON document.
* ``examples run NAME``        scripted verification suites; NAME is one
  of ``ex5_2``, ``ex3_10``, ``ex5_6``.
* ``timeseries QUANTITY INPUT`` plot-ready CSV series; QUANTITY is one
  of ``orbit``, ``pairing``, ``rescaled-distance``, ``support-front``
  and INPUT is a preset name or a JSON matrix file.

Exit codes: 0 all asserted claims hold, 1 usage or input error, 2 an
internal-consistency violation or a failed must-pass claim (always with
a witness dump on stderr).  Reports are byte-identical across runs for
identical inputs and flags, apart from the wall-clock timing block.
The environment variable EVPOS_THREADS caps worker threads.
"""

import argparse
import dataclasses
import inspect
import json
import math
import os
import sys
import time
from enum import Enum
from fractions import Fraction

import numpy as np

from . import __version__
from .errors import ConsistencyViolation, EvposError, InputError
from .irreducibility import classify
from .lattice import IdealMask
from .perturbation import CoupledProvider, DysonPhillipsConfig, ProductVector
from .positivity import certify_eventual_strong_positivity
from .presets import MAX_GRID_POINTS, PRESETS, coupled_demo_system
from .semigroup import TimeGrid, demo_generator, expm
from .spectral import dominant_projection
from .stepfun import pairing

MAX_MATRIX_DIM = 400

# Flags each timeseries quantity reads; any other set flag is rejected.
TIMESERIES_FLAGS = {
    "orbit": ("t_max", "grid_points"),
    "pairing": ("depth",),
    "rescaled-distance": ("t_max", "grid_points"),
    "support-front": ("L", "grid_h", "t_max", "dp_terms"),
}
TIMESERIES_QUANTITIES = tuple(TIMESERIES_FLAGS)

# Shared flags, by argparse attribute name.
_COMMON_FLAGS = ("tol", "grid_points", "t_max", "depth", "grid_h", "L", "dp_terms")


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
    if not tol > 0 or points < 2:
        raise InputError("tolerance must be positive and grid points at least 2")
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
        proj = dominant_projection(A)
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


def _reject_unread_flags(args, what: str, read) -> None:
    """InputError naming the first set flag that `what` does not read."""
    for attr in _COMMON_FLAGS:
        if getattr(args, attr) is not None and attr not in read:
            raise InputError(f"{what} does not read --{attr.replace('_', '-')}")


def _preset_kwargs(args, runner) -> dict:
    """Keyword arguments for a suite; a set flag the suite does not read is rejected."""
    params = inspect.signature(runner).parameters
    names = {"grid_h": "h", "dp_terms": "config"}
    read = [attr for attr in _COMMON_FLAGS if names.get(attr, attr) in params]
    _reject_unread_flags(args, f"suite {args.name}", read)
    kwargs = {names.get(a, a): getattr(args, a) for a in read if getattr(args, a) is not None}
    if "config" in kwargs:
        kwargs["config"] = DysonPhillipsConfig(max_terms=kwargs["config"])
    return kwargs


def cmd_examples(args) -> int:
    runner = PRESETS[args.name]
    kwargs = _preset_kwargs(args, runner)
    tic = time.perf_counter()
    rep = runner(**kwargs)
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


def _positive_t_max(args, default: float) -> float:
    t_max = args.t_max if args.t_max is not None else default
    if not 0.0 < t_max < math.inf:
        raise InputError(f"t_max must be finite and positive, got {t_max:g}")
    return t_max


def _times_linear(args) -> np.ndarray:
    """grid-points equally spaced times on (0, t-max]."""
    t_max = _positive_t_max(args, 20.0)
    points = args.grid_points if args.grid_points is not None else 256
    if not 1 <= points <= MAX_GRID_POINTS:
        raise InputError(f"grid points must lie in 1..{MAX_GRID_POINTS}, got {points}")
    return np.linspace(t_max / points, t_max, points)


def _series_orbit(A: np.ndarray, args) -> tuple:
    seed = np.ones(A.shape[0])
    header = ["t"] + [f"x_{i}" for i in range(A.shape[0])]
    rows = []
    for t in _times_linear(args):
        v = expm(A, float(t)) @ seed
        rows.append([float(t), *(float(x) for x in v)])
    return header, rows


def _series_rescaled_distance(A: np.ndarray, args) -> tuple:
    times = _times_linear(args)
    proj = dominant_projection(A)
    s = proj.eigenvalue
    header = ["t", "rescaled_distance"]
    rows = []
    for t in times:
        D = expm(A - s * np.eye(A.shape[0]), float(t)) - proj.projection
        rows.append([float(t), float(np.max(np.abs(D)))])
    return header, rows


def _series_pairing(args) -> tuple:
    depth = args.depth if args.depth is not None else 8
    if depth < 1 or depth > 20:
        raise InputError("depth must be in 1..20")
    header = ["t", "pairing_1_1", "pairing_1_1_exact"]
    rows = []
    for m in range(0, (1 << depth) + 1):
        t = Fraction(m, 1 << depth)
        val = pairing(1, 1, t)
        rows.append([float(t), float(val), str(val)])
    return header, rows


def _series_support_front(args) -> tuple:
    L = args.L if args.L is not None else 6.0
    h = args.grid_h if args.grid_h is not None else 0.125
    t_max = _positive_t_max(args, 4.0)
    system = coupled_demo_system(L=L, h=h)
    provider = CoupledProvider(
        system,
        DysonPhillipsConfig(max_terms=args.dp_terms) if args.dp_terms is not None else None,
    )
    q_max = int(round(t_max / h))
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


def cmd_timeseries(args) -> int:
    quantity = args.quantity
    source = args.input
    _reject_unread_flags(args, f"timeseries {quantity}", TIMESERIES_FLAGS[quantity])
    if quantity == "pairing":
        if source not in (None, "ex3_10"):
            raise InputError("the pairing series is defined for the ex3_10 preset")
        header, rows = _series_pairing(args)
    elif quantity == "support-front":
        if source not in (None, "ex5_6"):
            raise InputError("the support-front series is defined for the ex5_6 preset")
        header, rows = _series_support_front(args)
    elif quantity in ("orbit", "rescaled-distance"):
        if source in (None, "ex5_2"):
            A = demo_generator()
        elif source in PRESETS:
            raise InputError(
                f"the {quantity} series needs a matrix input (a JSON file or ex5_2)"
            )
        else:
            A = _load_matrix_document(source)["matrix"]
        if quantity == "orbit":
            header, rows = _series_orbit(A, args)
        else:
            header, rows = _series_rescaled_distance(A, args)
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown quantity {quantity!r}")
    _write_csv(rows, header, args.report_out)
    return 0


# --------------------------------------------------------------------------
# parser


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=None, help="verdict tolerance")
    p.add_argument(
        "--grid-points", type=int, default=None, help="number of sampled times"
    )
    p.add_argument("--t-max", type=float, default=None, help="largest sampled time")
    p.add_argument(
        "--depth", type=int, default=None, help="dyadic depth for exact scans"
    )
    p.add_argument(
        "--grid-h", type=float, default=None, help="cell width for lattice carriers"
    )
    p.add_argument(
        "--L", type=float, default=None, help="window half-length for lattice carriers"
    )
    p.add_argument(
        "--dp-terms", type=int, default=None, help="series term cap for perturbations"
    )
    p.add_argument(
        "--report-out", default=None, help="write the report/CSV here instead of stdout"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evpos",
        description="Positivity and irreducibility analysis of operator semigroups.",
        epilog="EVPOS_THREADS caps worker threads (default 1).",
    )
    parser.add_argument("--version", action="version", version=f"evpos {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="analyze a matrix generator")
    p_an.add_argument("--matrix", required=True, help="JSON document with the matrix")
    _add_common_flags(p_an)
    p_an.set_defaults(func=cmd_analyze)

    p_ex = sub.add_parser("examples", help="scripted verification suites")
    ex_sub = p_ex.add_subparsers(dest="examples_command", required=True)
    p_run = ex_sub.add_parser("run", help="run one suite")
    p_run.add_argument("name", choices=sorted(PRESETS))
    _add_common_flags(p_run)
    p_run.set_defaults(func=cmd_examples)

    p_ts = sub.add_parser("timeseries", help="plot-ready CSV series")
    p_ts.add_argument("quantity", choices=TIMESERIES_QUANTITIES)
    p_ts.add_argument(
        "input",
        nargs="?",
        default=None,
        help="preset name or JSON matrix file (defaults per quantity)",
    )
    _add_common_flags(p_ts)
    p_ts.set_defaults(func=cmd_timeseries)
    return parser


def main(argv=None) -> int:
    if os.environ.get("EVPOS_THREADS"):
        # modules read the variable themselves; validate early for a clean error
        try:
            int(os.environ["EVPOS_THREADS"])
        except ValueError:
            sys.stderr.write("EVPOS_THREADS must be an integer\n")
            return 1
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
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except EvposError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
