"""Seeded inputs for the three workloads.

Every workload is a fixed list of strata with a fixed count per stratum.
The seed only draws matrix entries and indices inside a stratum, so the
amount of work per batch is the same for every seed.  Inputs are built
with numpy alone; nothing here calls the package under test.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

# Spectral bounds are drawn from this range so that e^{20 s} stays finite:
# the package samples raw e^{tA} up to t = 20 and overflows beyond s ~ 35.
S_RANGE = (-0.5, 1.0)

# Counts are chosen so that, in latency order, the batch median and 90th
# percentile fall well inside one stratum's block, never on the border of
# two, where they would jump between seeds.
#
# analyze-ladder: (n, ops per stratum), weighted toward small n.  The
# single n = 40 operation costs about as much as the rest of the batch.
ANALYZE_STRATA = ("metzler", "eventually-positive", "indefinite", "reducible")
ANALYZE_LADDER = ((3, 21), (8, 3), (16, 1))
ANALYZE_LARGE = (40, "eventually-positive")

# certify-large: (n, {stratum: ops}).  An indefinite input takes the grid
# fallback (257 expm calls), so it appears only at the two smaller sizes.
CERTIFY_PLAN = (
    (64, {"metzler": 30, "eventually-positive": 30, "indefinite": 18}),
    (128, {"metzler": 8, "eventually-positive": 8, "indefinite": 2}),
    (256, {"metzler": 2, "eventually-positive": 2}),
    (400, {"metzler": 1}),
)

# function-carriers: CLI suites and series run with the flags they use.
CARRIER_CLI = (
    ("suite-ex3_10", ["examples", "run", "ex3_10"], 1),
    ("suite-ex5_6", ["examples", "run", "ex5_6"], 1),
    ("series-pairing", ["timeseries", "pairing", "--depth", "8"], 5),
    ("series-support-front", ["timeseries", "support-front"], 1),
)
# seeded library calls: witness searches at fixed depths, orbit sweeps on
# fixed coupled systems (L, h, number of lattice steps).
WITNESS_PLAN = ((10, 12), (11, 24))
WITNESS_INDEX_MAX = 6
ORBIT_PLAN = (((6.0, 0.125, 16), 28), ((4.0, 0.25, 12), 28))


@dataclass
class Op:
    """One operation of a batch: what to run and what the oracles need."""

    kind: str
    stratum: str
    n: int = 0
    matrix: np.ndarray | None = None
    argv: list = field(default_factory=list)
    params: dict = field(default_factory=dict)
    input_path: str = ""  # the matrix document written for a CLI operation

    def digest_bytes(self) -> bytes:
        head = json.dumps(
            [self.kind, self.stratum, self.n, self.argv, self.params], sort_keys=True
        ).encode()
        body = b"" if self.matrix is None else self.matrix.tobytes()
        return head + body


def _rng(seed: int, rnd: int, *path: str) -> np.random.Generator:
    salt = [int.from_bytes(hashlib.sha256(p.encode()).digest()[:4], "big") for p in path]
    return np.random.default_rng([int(seed), int(rnd), *salt])


def _shift_to(A: np.ndarray, s: float) -> np.ndarray:
    top = float(np.max(np.linalg.eigvals(A).real))
    return A + (s - top) * np.eye(A.shape[0])


def _dominant_pair(A: np.ndarray):
    """(gap, right vector, left vector) of the dominant eigenvalue, unit-signed."""
    evals, right = np.linalg.eig(A)
    order = np.argsort(evals.real)[::-1]
    i0 = order[0]
    gap = float(evals[i0].real - evals[order[1]].real) if A.shape[0] > 1 else np.inf
    evals_t, left = np.linalg.eig(A.T)
    j0 = int(np.argmin(np.abs(evals_t - evals[i0])))
    u = np.real(right[:, i0])
    w = np.real(left[:, j0])
    return gap, u * np.sign(u[np.argmax(np.abs(u))]), w * np.sign(w[np.argmax(np.abs(w))])


def metzler(rng, n: int) -> np.ndarray:
    A = rng.uniform(0.1, 1.0, (n, n)) / n
    A[np.diag_indices(n)] = rng.uniform(-1.0, 0.0, n)
    return _shift_to(A, rng.uniform(*S_RANGE))


def eventually_positive(rng, n: int, check: bool = True) -> np.ndarray:
    """Positive matrix with a few negative off-diagonal entries.

    The Perron pair survives the small negative perturbation, so the
    dominant eigenvalue is real and simple with positive eigenvectors.
    For small n the draw is re-checked with numpy and redrawn if not.
    """
    off = [k for k in range(n * n) if k // n != k % n]
    while True:
        A = rng.uniform(0.5, 1.5, (n, n)) / n
        picks = rng.choice(len(off), size=max(1, n // 4), replace=False)
        for p in picks:
            A.flat[off[p]] = -rng.uniform(0.05, 0.2) / n
        A = _shift_to(A, rng.uniform(*S_RANGE))
        if not check:
            return A
        gap, u, w = _dominant_pair(A)
        if gap > 1e-3 and u.min() > 1e-3 * u.max() and w.min() > 1e-3 * w.max():
            return A


def indefinite(rng, n: int) -> np.ndarray:
    """Symmetric matrix whose dominant eigenvector changes sign.

    Real spectrum, so the dominant projection exists, but no positive
    eigenvector certificate: positivity goes to the grid fallback.
    """
    while True:
        G = rng.normal(0.0, 1.0, (n, n))
        A = _shift_to((G + G.T) / (2.0 * np.sqrt(n)), rng.uniform(*S_RANGE))
        off = A[~np.eye(n, dtype=bool)]
        gap, u, _ = _dominant_pair(A)
        if off.min() < 0 and gap > 1e-3 and u.min() < -1e-3 * u.max():
            return A


def reducible(rng, n: int) -> np.ndarray:
    """Metzler block upper-triangular matrix: the leading block is invariant."""
    k = max(1, n // 3)
    A = rng.uniform(0.1, 1.0, (n, n)) / n
    A[k:, :k] = 0.0
    A[np.diag_indices(n)] = rng.uniform(-1.0, 0.0, n)
    return _shift_to(A, rng.uniform(*S_RANGE))


def _draw(stratum: str, rng, n: int) -> np.ndarray:
    if stratum == "metzler":
        return metzler(rng, n)
    if stratum == "eventually-positive":
        return eventually_positive(rng, n, check=n <= 64)
    if stratum == "indefinite":
        return indefinite(rng, n)
    return reducible(rng, n)


def analyze_ladder(seed: int, rnd: int) -> list:
    plan = [(n, s, c) for n, c in ANALYZE_LADDER for s in ANALYZE_STRATA]
    plan.append((ANALYZE_LARGE[0], ANALYZE_LARGE[1], 1))
    ops = []
    for n, stratum, count in plan:
        rng = _rng(seed, rnd, "analyze", stratum, str(n))
        ops += [Op("analyze", stratum, n, _draw(stratum, rng, n)) for _ in range(count)]
    return _interleave(ops)


def certify_large(seed: int, rnd: int) -> list:
    ops = []
    for n, counts in CERTIFY_PLAN:
        for stratum, count in counts.items():
            rng = _rng(seed, rnd, "certify", stratum, str(n))
            ops += [Op("certify", stratum, n, _draw(stratum, rng, n)) for _ in range(count)]
    return _interleave(ops)


def function_carriers(seed: int, rnd: int) -> list:
    ops = []
    for depth, count in WITNESS_PLAN:
        rng = _rng(seed, rnd, "witness", str(depth))
        for _ in range(count):
            k, j = (int(x) for x in rng.integers(1, WITNESS_INDEX_MAX + 1, size=2))
            ops.append(Op("witness", f"witness-d{depth}", params={"k": k, "j": j, "depth": depth}))
    for (L, h, steps), count in ORBIT_PLAN:
        rng = _rng(seed, rnd, "orbit", f"{L}/{h}/{steps}")
        for _ in range(count):
            z = [float(x) for x in rng.uniform(0.1, 1.0, 3)]
            ops.append(
                Op("orbit", f"orbit-L{L:g}-h{h:g}", params={"L": L, "h": h, "steps": steps, "z": z})
            )
    for stratum, argv, count in CARRIER_CLI:
        ops += [Op("cli", stratum, argv=list(argv)) for _ in range(count)]
    return _interleave(ops)


def _interleave(ops: list) -> list:
    """Round-robin over strata in a seed-independent order."""
    groups = {}
    for op in ops:
        groups.setdefault((op.stratum, op.n), []).append(op)
    out = []
    queues = list(groups.values())
    while any(queues):
        for q in queues:
            if q:
                out.append(q.pop(0))
    return out


WORKLOADS = {
    "analyze-ladder": analyze_ladder,
    "certify-large": certify_large,
    "function-carriers": function_carriers,
}


def build(workload: str, seed: int, rnd: int = 0) -> list:
    """The batch of round `rnd`: fresh draws, same strata and counts."""
    return WORKLOADS[workload](seed, rnd)


def digest(ops: list) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(op.digest_bytes())
    return h.hexdigest()


def stratum_counts(ops: list) -> dict:
    counts = {}
    for op in ops:
        key = f"{op.stratum}/n={op.n}" if op.n else op.stratum
        counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))
