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

Importing this module loads the matrix modules only; ``analyze``,
``orbit`` and ``rescaled-distance`` run on them.  The lattice modules
(``presets``, ``perturbation``, ``stepfun``, with ``gammashift``) are
imported inside the commands that use them: ``examples`` and the
``pairing`` and ``support-front`` series.

Exit codes: 0 all asserted claims hold, 1 usage or input error, 2 an
internal-consistency violation or a failed must-pass claim (always with
a witness dump on stderr).  Reports are byte-identical across runs for
identical inputs and flags, apart from the wall-clock timing block.

Reports and witness dumps share one byte format, written in one pass:
keys sorted, two-space indent with one item per line, strings with
json's ASCII escapes, floats as ``repr`` with NaN and +-inf as the
strings "nan", "inf" and "-inf", and a trailing newline.  The text is
canonical: ``json.dumps(json.loads(text), sort_keys=True, indent=2)``
gives it back, the trailing newline aside.
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
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from . import __version__
from .errors import ConsistencyViolation, EvposError, InputError, check_tol
from .irreducibility import classify
from .lattice import IdealMask
from .positivity import certify_eventual_strong_positivity
from .semigroup import MAX_GRID_POINTS, MatrixSemigroup, TimeGrid, demo_generator
from .spectral import dominant_projection

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

# The example suites by name (the keys of presets.PRESETS): help text and
# the flags each reads.
SUITES = {
    "ex5_2": ("the 3x3 showcase matrix", ("tol", "grid_points", "t_max")),
    "ex3_10": ("the nilpotent shift on step functions", ("depth",)),
    "ex5_6": ("the coupled matrix and lattice system", ("L", "h", "t_max", "tol")),
}


# --------------------------------------------------------------------------
# serialization helpers


def _json(obj, nl: str) -> str:
    """`obj` as report JSON text (module docstring), nested below line prefix `nl`."""
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return text if math.isfinite(obj) else f'"{text}"'
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = nl + "  "
    kind = type(obj)  # the common containers first, by exact type
    if kind is dict:
        keyed = {str(k): v for k, v in obj.items()}
        return _block("{}", [f"{_quote(k)}: {_json(keyed[k], inner)}" for k in sorted(keyed)], nl)
    if kind is list or kind is tuple:
        return _block("[]", [_json(v, inner) for v in obj], nl)
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return _json(obj.item(), nl)
    if isinstance(obj, np.ndarray):
        if obj.ndim in (1, 2) and obj.size and obj.dtype == np.float64 and np.isfinite(obj).all():
            if obj.ndim == 1:
                return _block("[]", map(float.__repr__, obj.tolist()), nl)
            rows = [_block("[]", map(float.__repr__, row), inner) for row in obj.tolist()]
            return _block("[]", rows, nl)
        return _json(obj.tolist(), nl)
    if isinstance(obj, Fraction):
        return _quote(str(obj))
    if isinstance(obj, Enum):
        return _json(obj.value, nl)
    if isinstance(obj, IdealMask):
        return _json({"members": obj.sorted_members(), "dim": obj.dim}, nl)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _json({name: getattr(obj, name) for name in _field_names(type(obj))}, nl)
    if isinstance(obj, dict):
        return _json(dict(obj), nl)
    if isinstance(obj, (set, frozenset)):
        return _json(sorted(obj), nl)
    if isinstance(obj, (list, tuple)):
        return _json(list(obj), nl)
    return _quote(str(obj))


def _block(brackets: str, texts, nl: str) -> str:
    """A JSON array or object ("[]" or "{}") of the item `texts`, one per line."""
    inner = nl + "  "
    body = ("," + inner).join(texts)
    return f"{brackets[0]}{inner}{body}{nl}{brackets[1]}" if body else brackets


@functools.cache
def _field_names(cls) -> tuple:
    return tuple(f.name for f in dataclasses.fields(cls))


def _dump_report(report: dict, out_path: str | None) -> None:
    text = _json(report, "\n") + "\n"
    if out_path:
        with open(out_path, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
        payload["witnesses"] = witnesses
    sys.stderr.write(_json(payload, "\n") + "\n")


# --------------------------------------------------------------------------
# input loading


# The setting objects a matrix document may hold, with the JSON numbers
# each field takes; a boolean is no number.
NUMBER, INTEGER = (int, float), (int,)
DOC_SETTINGS = {"tolerances": {"tol": NUMBER}, "grid": {"points": INTEGER, "t_max": NUMBER}}


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
    except (ValueError, RecursionError) as exc:  # past the digit or nesting limits, not UTF-8
        raise InputError(f"{path}: JSON parse error: {exc}") from exc
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise InputError(f"{path}: expected an object with a 'matrix' field")
    extra = set(doc) - {"matrix", *DOC_SETTINGS}
    if extra:
        raise InputError(f"{path}: unknown fields {sorted(extra)}")
    try:
        A = np.array(doc["matrix"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: matrix entries must be numbers") from exc
    except OverflowError as exc:  # an integer past the float range
        raise InputError(f"{path}: matrix entries must be finite: {exc}") from exc
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
        raise InputError(f"{path}: matrix must be square and nonempty")
    if A.shape[0] > MAX_MATRIX_DIM:
        raise InputError(
            f"{path}: matrix dimension {A.shape[0]} exceeds the cap {MAX_MATRIX_DIM}"
        )
    # np.array reads the strings "1" and "3e0" and the boolean true as numbers
    bad = [x for row in doc["matrix"] for x in row if type(x) not in NUMBER]
    if bad:
        raise InputError(f"{path}: matrix entries must be numbers, got {json.dumps(bad[0])}")
    if not np.all(np.isfinite(A)):
        raise InputError(f"{path}: matrix entries must be finite")
    doc["matrix"] = A
    for name, kinds in DOC_SETTINGS.items():
        section = doc.get(name, {})
        if not isinstance(section, dict):
            raise InputError(f"{path}: 'tolerances' and 'grid' must be objects")
        for key, value in section.items():
            if key not in kinds:
                raise InputError(f"{path}: unknown field '{key}' in '{name}'")
            if type(value) not in kinds[key]:
                raise InputError(
                    f"{path}: tolerance and grid settings must be numbers: {name}.{key} "
                    f"must be {'an integer' if kinds[key] is INTEGER else 'a number'}, "
                    f"got {json.dumps(value)}"
                )
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
    except OverflowError as exc:  # an integer past the float range
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
            "tolerances": doc.get("tolerances", {}),
            "grid": doc.get("grid", {}),
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
    from .presets import PRESETS

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
    if args.input in SUITES:
        raise InputError(
            f"the {args.quantity} series needs a matrix input (a JSON file or ex5_2)"
        )
    doc = _load_matrix_document(args.input)
    if DOC_SETTINGS.keys() & doc.keys():
        raise InputError(
            f"{args.input}: the {args.quantity} series reads its settings from flags, "
            f"not from the document fields {sorted(DOC_SETTINGS.keys() & doc.keys())}"
        )
    return doc["matrix"]


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
    from .presets import check_depth
    from .stepfun import rademacher, shifted_pairing

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
    from .perturbation import CoupledProvider, ProductVector
    from .presets import coupled_demo_system, lattice_steps

    if args.input not in (None, "ex5_6"):
        raise InputError("the support-front series is defined for the ex5_6 preset")
    h = args.h
    system = coupled_demo_system(L=args.L, h=h)
    q_max = lattice_steps(args.t_max, h)
    grid = system.provider2.grid
    seed = ProductVector(np.ones(3), system.provider2.zero_vector())
    header = ["t", "support_front_x", "support_lo_cell", "predicted_x"]
    rows = []
    for q, (_, _, floors) in enumerate(CoupledProvider(system).orbit([seed], q_max), 1):
        t = q * h
        lo = int(floors[0, 1])
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
    for name, (text, flags) in SUITES.items():
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
