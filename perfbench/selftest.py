"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks that the corpus is byte-identical for a given seed, that stratum
counts do not depend on the seed, that each stratum takes the route it
was built for (Metzler criterion, spectral certificate, grid fallback,
Reducible), and that two `analyze` reports of one input are identical
byte for byte apart from the `timings` block.  Exits 1 on any failure.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import re  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus  # noqa: E402
from tracing import route_of  # noqa: E402

from evpos import cli, positivity  # noqa: E402

SEEDS = (1, 2, 3)
ROUTES = {
    "metzler": ("metzler", "PersistentlyIrreducible"),
    "eventually-positive": ("spectral", "PersistentlyIrreducible"),
    "indefinite": ("grid", "PersistentlyIrreducible"),
    "reducible": ("metzler", "Reducible"),
}
_TIMINGS = re.compile(r'\n  "timings": \{[^}]*\}')


def check_corpus() -> list:
    problems = []
    for name in corpus.WORKLOADS:
        digests = [corpus.digest(corpus.build(name, s)) for s in SEEDS]
        if corpus.digest(corpus.build(name, SEEDS[0])) != digests[0]:
            problems.append(f"{name}: corpus differs between two builds with one seed")
        if len(set(digests)) != len(SEEDS):
            problems.append(f"{name}: different seeds gave the same corpus")
        counts = {json.dumps(corpus.stratum_counts(corpus.build(name, s))) for s in SEEDS}
        if len(counts) != 1:
            problems.append(f"{name}: stratum counts depend on the seed")
    return problems


def _analyze(matrix, workdir: str, tag: str) -> str:
    src = os.path.join(workdir, f"{tag}.in.json")
    out = os.path.join(workdir, f"{tag}.out.json")
    with open(src, "w") as fh:
        json.dump({"matrix": matrix.tolist()}, fh)
    if cli.main(["analyze", "--matrix", src, "--report-out", out]) != 0:
        raise RuntimeError(f"analyze failed on {tag}")
    with open(out) as fh:
        return fh.read()


def check_routes(workdir: str) -> list:
    problems = []
    seen = set()
    for op in corpus.build("analyze-ladder", SEEDS[0]):
        if op.n > 8 or (op.stratum, op.n) in seen:
            continue
        seen.add((op.stratum, op.n))
        tag = f"{op.stratum}-{op.n}"
        first = _analyze(op.matrix, workdir, tag + "-a")
        second = _analyze(op.matrix, workdir, tag + "-b")
        if _TIMINGS.sub("", first) != _TIMINGS.sub("", second):
            problems.append(f"{tag}: reports differ outside the timings block")
        rep = json.loads(first)
        _, verdict = positivity.certify_eventual_strong_positivity(op.matrix)
        got = (route_of(verdict), rep["irreducibility"]["classification"])
        if got != ROUTES[op.stratum]:
            problems.append(f"analyze {tag}: route {got}, expected {ROUTES[op.stratum]}")
    seen.clear()
    for op in corpus.build("certify-large", SEEDS[0]):
        if op.n != 64 or op.stratum in seen:
            continue
        seen.add(op.stratum)
        _, verdict = positivity.certify_eventual_strong_positivity(op.matrix)
        if route_of(verdict) != ROUTES[op.stratum][0]:
            problems.append(f"certify {op.stratum}/64: route {route_of(verdict)}")
    return problems


def main() -> int:
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as workdir:
        results = {"corpus": check_corpus(), "routes and report bytes": check_routes(workdir)}
    for name, problems in results.items():
        print(f"{'PASS' if not problems else 'FAIL'} {name}")
        for p in problems:
            print(f"  {p}")
    return 0 if not any(results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
