"""Benchmark for evpos: one seeded workload per run, closed loop, one client.

    python3 perfbench/run.py --workload analyze-ladder --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ./src.
BLAS is pinned to one thread and EVPOS_THREADS to the package default of
1, the plain single-threaded baseline.  A run

1. pins itself to one core and imports the package;
2. sets up five times over: imports the package in a fresh interpreter,
   builds the seeded batch, writes its input files and runs one warm-up
   operation;
3. runs the whole batch, one operation after the other, round after
   round while another round still fits in --seconds (at least one),
   each round on fresh inputs drawn from the seed;
4. checks every stored output with the independent oracles;
5. runs the two known overflow inputs once, untimed;
6. prints the run context as one JSON line, then the result line.

Every time is rescaled to a reference speed (see Speed).

With --trace 1 the first half of --seconds runs untraced and the second
half under the per-layer tracer; the result then holds the per-layer
metrics, per batch, and the tracing overhead.  Full results and the
spans go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["EVPOS_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
NPROC = len(os.sched_getaffinity(0))  # read before the run pins itself to one core
SETUP_REPEATS = 5
BLAS_THREADS = 1
# Typical best-of-three time of the calibration kernel on the 2-core
# reference host when it runs at full speed; see Speed.
KERNEL_REF_S = 1.5e-3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "pass_frac": "frac",
    "certified_frac": "frac",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import evpos from ./src of this checkout; an error text, or None."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import evpos
        import evpos.cli  # noqa: F401
    except ImportError as exc:
        return f"cannot import evpos from {ROOT / 'src'}: {exc}"
    if Path(evpos.__file__).resolve().parent != ROOT / "src" / "evpos":
        return f"evpos was imported from {evpos.__file__}, not from {ROOT / 'src'}"
    return None


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Speed:
    """Calibration kernel timed around every measurement.

    The shared host's speed drifts by 30-60% over tens of seconds, in
    interpreter and BLAS code alike.  Each measured interval is rescaled
    by KERNEL_REF_S / (kernel time around it), which converts it to the
    time it takes at the reference speed; the raw times go to the detail
    file.  Like the operations it calibrates, the kernel mixes
    interpreter work, small-array numpy calls and small matrix products;
    a sample is the best of three.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.B = rng.normal(size=(64, 64)) / 8.0
        self.v = rng.normal(size=96)
        self.w = rng.uniform(size=40)
        self._kernel()  # the first call pays one-time numpy set-up

    def _kernel(self):
        x = 0
        for i in range(12000):
            x += i * i
        for _ in range(150):
            (np.convolve(self.v, self.w)[:96] * 0.5 + self.v).any()
        for _ in range(15):
            self.B @ self.B

    def sample(self) -> float:
        best = math.inf
        for _ in range(3):
            tic = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - tic)
        return best

    @staticmethod
    def scale(before: float, after: float) -> float:
        return KERNEL_REF_S / (0.5 * (before + after))


class Run:
    def __init__(self, args, workdir: str):
        import corpus
        import ops

        self.args = args
        self.workdir = workdir
        self.corpus, self.ops = corpus, ops
        self.batch = []
        self.records = []  # (op, record, error) for every timed operation
        self.speed = Speed()
        self.raw_rounds = []  # unscaled latencies per round
        self.report_bytes = 0
        self.stratum_s = {}  # untraced latencies per stratum, for the detail file

    def setup(self) -> tuple:
        """Median set-up time over repeats, and whether the corpus repeated byte for byte.

        Each repeat imports the package in a fresh interpreter, then
        builds the corpus, writes the input files and runs one warm-up
        operation in this process.
        """
        times, digests = [], set()
        for rep in range(SETUP_REPEATS):
            before = self.speed.sample()
            tic = time.perf_counter()
            subprocess.run(
                [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import evpos.cli"],
                check=True,
                cwd=ROOT,
            )
            batch = self.corpus.build(self.args.workload, self.args.seed)
            self.ops.write_inputs(batch, self.workdir)
            _, err = self.ops.run(batch[0], os.path.join(self.workdir, f"warmup_{rep}"))
            elapsed = time.perf_counter() - tic
            times.append(elapsed * self.speed.scale(before, self.speed.sample()))
            if err:
                raise RuntimeError(f"warm-up operation failed: {err}")
            digests.add(self.corpus.digest(batch))
        self.batch = batch
        return statistics.median(times), len(digests) == 1, digests.pop()

    def timed(self, budget: float, tag: str, tracer=None, fresh: bool = False) -> list:
        """Whole batches while another one fits in `budget` seconds; latencies per round.

        With `fresh`, every round after the first draws a fresh batch from
        the seed (same strata and counts), so no round repeats an input.
        The traced and untraced halves of a traced run share the first
        batch, which makes their ratio the tracing overhead.
        """
        rounds = []
        phase = time.perf_counter()
        while True:
            batch = self.batch
            if rounds and fresh:
                batch = self.corpus.build(self.args.workload, self.args.seed, len(rounds))
                self.ops.write_inputs(batch, self.workdir)
            latencies, raw = [], []
            start = time.perf_counter()
            before = self.speed.sample()
            for i, op in enumerate(batch):
                out = os.path.join(self.workdir, f"{tag}{len(rounds)}_{i:03d}")
                if tracer is not None:
                    tracer.op = len(self.records)
                tic = time.perf_counter()
                record, err = self.ops.run(op, out)
                raw.append(time.perf_counter() - tic)
                after = self.speed.sample()
                latencies.append(raw[-1] * self.speed.scale(before, after))
                before = after
                self.records.append((op, record, err))
                if tracer is None:
                    self.stratum_s.setdefault(f"{op.stratum}/n={op.n}", []).append(latencies[-1])
                elif record and "out" in record:
                    self.report_bytes += os.path.getsize(record["out"])
            wall = time.perf_counter() - start
            rounds.append(latencies)
            self.raw_rounds.append(raw)
            if time.perf_counter() - phase + wall > budget:
                return rounds

    def verify(self) -> dict:
        failed, verdicts, certified, problems = 0, 0, 0, []
        for op, record, err in self.records:
            found = [err] if err else []
            if record is not None:
                p, v, c = self.ops.verify(op, record)
                found += p
                verdicts += v
                certified += c
            if found:
                failed += 1
                problems.append({"kind": op.kind, "stratum": op.stratum, "n": op.n, "problems": found})
        return {
            "attempted": len(self.records),
            "failed": failed,
            "verdicts": verdicts,
            "certified": certified,
            "problems": problems[:20],
        }


def overflow_probe(seed: int) -> list:
    """The generators that overflow e^{tA} at t <= 20 today; one outcome per input."""
    from evpos import positivity

    rng = np.random.default_rng([seed, 80])
    inputs = {
        "metzler-2x2-s41": np.array([[40.0, 1.0], [1.0, 40.0]]),
        "uniform-positive-n80": rng.uniform(0.0, 1.0, (80, 80)),
    }
    outcomes = []
    for name, A in inputs.items():
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                positivity.certify_eventual_strong_positivity(A)
            outcomes.append({"input": name, "failed": False})
        except Exception as exc:  # any failure is what this probe counts
            outcomes.append({"input": name, "failed": True, "error": type(exc).__name__})
    return outcomes


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "evpos").glob("*.py")))


def run_context(args, run: Run, rounds: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = NPROC
    evpos_threads = int(os.environ["EVPOS_THREADS"])
    if max(BLAS_THREADS, evpos_threads) > nproc:
        raise RuntimeError(f"thread counts exceed the {nproc} available cores")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one client, one process",
        "nproc": nproc,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "evpos_threads": evpos_threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "src_evpos_lines": src_lines(),
        "ops_per_batch": len(run.batch),
        "strata": run.corpus.stratum_counts(run.batch),
        "rounds": {k: len(v) for k, v in rounds.items()},
        "round_wall_s": {k: [sum(lat) for lat in v] for k, v in rounds.items()},
        "round_raw_wall_s": [sum(lat) for lat in run.raw_rounds],
        "ops_timed": len(run.records),
    }


def end_to_end(setup_s, rounds, peak_rss_mb, check) -> dict:
    """Batch metrics from each batch position's best latency over the rounds.

    Round r draws position i afresh from the same stratum, so the best of
    the rounds is the cost of that stratum with as little of the host's
    leftover noise as the run allows; noise only ever adds time.
    """
    best = [min(column) for column in zip(*rounds)]
    latencies = [x * 1e3 for x in best]
    values = {
        "setup_s": setup_s,
        "wall_s": sum(best),
        "op_p50_ms": percentile(latencies, 0.50),
        "op_p90_ms": percentile(latencies, 0.90),
        "pass_frac": 1.0 - check["failed"] / check["attempted"],
        "certified_frac": check["certified"] / check["verdicts"] if check["verdicts"] else 1.0,
        "peak_rss_mb": peak_rss_mb,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(tracer, traced_rounds, untraced_rounds, report_bytes, overflow) -> dict:
    k = len(traced_rounds)
    c, tot = tracer.calls, tracer.total_s
    self_s = tracer.self_s

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    traced_wall = statistics.median(sum(lat) for lat in traced_rounds)
    plain_wall = statistics.median(sum(lat) for lat in untraced_rounds)
    counts = {
        "cli.calls": c["cli.main"],
        "cli.report_bytes": report_bytes,
        "irreducibility.classify_calls": c["irreducibility.classify"],
        "irreducibility.probe_calls": c["irreducibility.probe"],
        "positivity.certify_calls": c["positivity.certify"],
        "positivity.probe_calls": c["positivity.probe"],
        "positivity.route_metzler": c["positivity.route_metzler"],
        "positivity.route_spectral": c["positivity.route_spectral"],
        "positivity.route_grid": c["positivity.route_grid"],
        "spectral.projection_calls": c["spectral.projection"],
        "semigroup.expm_calls": c["semigroup.expm"],
        "semigroup.envelope_calls": c["semigroup.envelope"],
        "semigroup.expm_work_n3": c["semigroup.expm_work_n3"],
        "linalg.eig_calls": c["linalg.eig"],
        "linalg.schur_calls": c["linalg.schur"],
        "lattice.as_vector_calls": c["lattice.as_vector"],
        "lattice.as_matrix_calls": c["lattice.as_matrix"],
        "stepfun.product_calls": c["stepfun.product"],
        "stepfun.shift_apply_calls": c["stepfun.shift_apply"],
        "gammashift.kernel_weights_calls": c["gammashift.kernel_weights"],
        "gammashift.apply_calls": c["gammashift.apply"],
        "perturbation.coupled_apply_calls": c["perturbation.coupled_apply"],
        "perturbation.dp_sum_calls": c["perturbation.dp_sum"],
        "presets.calls": c["presets.call"],
        "parallel.map_calls": c["parallel.map"],
        "parallel.map_items": c["parallel.map_items"],
    }
    seconds = {
        "cli.self_s": self_s["cli"],
        "irreducibility.classify_s": tot["irreducibility.classify"],
        "irreducibility.self_s": self_s["irreducibility"],
        "positivity.certify_s": tot["positivity.certify"],
        "positivity.self_s": self_s["positivity"],
        "spectral.projection_s": tot["spectral.projection"],
        "semigroup.expm_s": tot["semigroup.expm"],
        "semigroup.envelope_s": tot["semigroup.envelope"],
        "linalg.eig_s": tot["linalg.eig"],
        "linalg.schur_s": tot["linalg.schur"],
        "stepfun.product_s": tot["stepfun.product"],
        "stepfun.witness_search_s": tot["stepfun.irreducibility_witness_search"],
        "gammashift.kernel_weights_s": tot["gammashift.kernel_weights"],
        "gammashift.apply_s": tot["gammashift.apply"],
        "perturbation.coupled_apply_s": tot["perturbation.coupled_apply"],
        "perturbation.dp_sum_s": tot["perturbation.dp_sum"],
        "perturbation.self_s": self_s["perturbation"],
        "presets.self_s": self_s["presets"],
    }
    fractions = {
        "irreducibility.certified_frac": ratio("irreducibility.certified", "irreducibility.classify"),
        "semigroup.matrix_hit_frac": ratio("semigroup.matrix_hit", "semigroup.matrix"),
        "perturbation.finite_tail_frac": ratio("perturbation.finite_tail", "perturbation.coupled_apply"),
        "trace.overhead_frac": traced_wall / plain_wall - 1.0,
    }
    out = {name: {"value": v / k, "unit": "count"} for name, v in counts.items()}
    out["cli.report_bytes"]["unit"] = "bytes"
    out["semigroup.expm_work_n3"]["unit"] = "n3"
    out.update({name: {"value": v / k, "unit": "s"} for name, v in seconds.items()})
    out.update({name: {"value": v, "unit": "frac"} for name, v in fractions.items()})
    out["semigroup.overflow_probe_failures"] = {
        "value": sum(o["failed"] for o in overflow),
        "unit": "count",
    }
    return out


def pin_cpu():
    """Keep this process and its children on one core; migrations add noise."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def main(argv=None) -> int:
    args = parse_args(argv)
    cpu = pin_cpu()
    err = import_package()
    if err:
        sys.stderr.write(f"error: {err}\n")
        return 1
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import corpus

    if args.workload not in corpus.WORKLOADS or args.seconds <= 0:
        sys.stderr.write(f"error: workloads are {sorted(corpus.WORKLOADS)}, seconds > 0\n")
        return 1
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        run = Run(args, workdir)
        setup_s, repeatable, digest = run.setup()
        rounds = {}
        tracer = None
        if args.trace:
            from tracing import Tracer

            rounds["untraced"] = run.timed(args.seconds / 2, "u")
            tracer = Tracer()
            tracer.install()
            try:
                rounds["traced"] = run.timed(args.seconds / 2, "t", tracer)
            finally:
                tracer.uninstall()
        else:
            rounds["timed"] = run.timed(args.seconds, "r", fresh=True)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check = run.verify()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    overflow = overflow_probe(args.seed)
    context = run_context(args, run, rounds)
    context.update(
        cpu=cpu, corpus_sha256=digest, corpus_repeatable=repeatable, overflow_probe=overflow
    )

    if tracer is not None:
        metrics = per_layer(tracer, rounds["traced"], rounds["untraced"], run.report_bytes, overflow)
    else:
        metrics = end_to_end(setup_s, rounds["timed"], peak_rss_mb, check)
    result = {
        "correct": check["failed"] == 0 and repeatable,
        "attempted": check["attempted"],
        "failed": check["failed"],
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "context": context,
        "check": check,
        "result": result,
        "stratum_median_ms": {k: statistics.median(v) * 1e3 for k, v in sorted(run.stratum_s.items())},
    }
    if tracer is not None:
        detail["layers"] = tracer.layer_table()
        tracer.write_spans(OUT / f"{stem}-spans.csv")
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
