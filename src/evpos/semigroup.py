"""Matrix semigroups t -> e^{tA}: evaluation and growth envelopes.

e^{tA} is computed by scaling and squaring with the degree-13 Pade
approximant (norm-gated squaring count); diagonalization is deliberately
not used for evaluation, only as a cross-check oracle in the test suite.
expm takes one time or a 1-D array of times.  An array is evaluated as
one (k, n, n) stack, each time with its own squaring count, and every
slice is bit for bit the single-time call, which runs the same code on
an n x n array.  MatrixSemigroup.stacks streams a time list through
expm in stacks of at most _CHUNK_BYTES (64 KB), one stack at a time,
and raises a time's overflow only when the caller reaches that time;
matrices yields their slices, and positivity_probes reads the smallest
entry of every matrix of a stack with one argmin.
Every sample is evaluated from t = 0, never by stepping, so per-sample
error does not accumulate along a trajectory.

A MatrixSemigroup holds its generator and nothing else: no evaluated
e^{tA} is kept, and matrix(t) is expm(A, t).  Its growth envelope is
read on each use from one eigendecomposition, with no exponential:
(1.1 kappa_2(V), s + 1e-8) when the eigenbasis V has kappa_2(V) <= 1e12,
s the spectral bound, otherwise the log-norm pair (1, mu_2(A)).  Both
are theorems, not samples.  The perturbation series reads the
envelope, the positivity certificate never does; every route of the
certificate samples a rescaled flow e^{t(A - cI)}, c at the spectral
bound, which keeps the signs of e^{tA} and stays in range for any
finite spectral bound.  A |tA| that is not finite, or a result that
leaves the double range, raises ExpmOverflow.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificateMissing, ExpmOverflow, PremiseViolation
from .lattice import as_matrix, as_vector

__all__ = [
    "expm",
    "TimeGrid",
    "PairingSupport",
    "SemigroupProvider",
    "MatrixSemigroup",
    "default_envelope",
    "log_norm_envelope",
    "eigenbasis_growth_constant",
    "demo_generator",
    "demo_eigensystem",
    "power_formula_matrix",
    "matrix_power_formula_check",
]

# Degree-13 Pade coefficients and the standard theta_13 switching radius.
_B13 = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
_THETA13 = 5.371920351148152

# Largest usable eigenbasis condition number, and the safety factor on it.
_KAPPA_CUTOFF = 1e12
_ENVELOPE_SAFETY = 1.1

# Array bytes of one stack that MatrixSemigroup.matrices evaluates at once:
# the whole default grid of 257 times up to n = 5, one matrix from n = 65.
_CHUNK_BYTES = 64 << 10


def _pade13(M: np.ndarray):
    # M is one n x n matrix or a C-contiguous (k, n, n) stack.  Terms
    # accumulate in place, in the order of the textbook sums: fewer
    # temporaries are alive at once, and the bits are the same.  The
    # diagonal shifts go through a strided view, which costs a single-time
    # call less than an index array would.
    b = _B13
    n = M.shape[-1]
    flat = M.shape[:-2] + (n * n,)  # a matrix as one row: its diagonal is every (n+1)-th entry
    M2 = M @ M
    M4 = M2 @ M2
    M6 = M4 @ M2
    W = b[13] * M6
    W += b[11] * M4
    W += b[9] * M2
    U = M6 @ W
    U += b[7] * M6
    U += b[5] * M4
    U += b[3] * M2
    U.reshape(flat)[..., :: n + 1] += b[1]
    U = M @ U
    W = b[12] * M6
    W += b[10] * M4
    W += b[8] * M2
    V = M6 @ W
    del W
    V += b[6] * M6
    V += b[4] * M4
    V += b[2] * M2
    V.reshape(flat)[..., :: n + 1] += b[0]
    return U, V


def expm(A, t=1.0) -> np.ndarray:
    """e^{tA} by Pade-13 scaling and squaring, for one time or a 1-D array of times.

    An array of k times gives the C-contiguous (k, n, n) stack of
    e^{t_i A}, evaluated together: one Pade-13 on the stack of scaled
    t_i A, then each slice squared its own number of times.  One time is
    the same arithmetic on an n x n array, so every slice is bit for bit
    the call at its single time.  t = 0 gives the exact identity.

    Raises ExpmOverflow when some t_i A or its exponential leaves the
    double range, with the single-time message of the first such time;
    the exception's `evaluated` is the stack of the times before it.
    """
    A = as_matrix(A)
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError("times must be a scalar or a 1-d array")
    k, n = times.size, A.shape[0]
    # overflow is reported once, as ExpmOverflow, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        M = A * times[..., None, None]
        norms = np.abs(M).sum(axis=-2).max(axis=-1).ravel().tolist()  # induced 1-norms
        # t_i A = 0 gives the identity, and a norm that is not finite is refused
        live, s = [], []
        for i, x in enumerate(norms):
            if 0.0 < x < math.inf:
                live.append(i)
                s.append(max(0, math.ceil(math.log2(x / _THETA13))) if x > _THETA13 else 0)
        if live:
            if len(live) < k:
                M = M[live]
            fewest, most = min(s), max(s)
            # dividing by 2^0 would change no bit, and equal counts share one divisor
            if most > fewest:
                M /= np.array([2.0**x for x in s])[:, None, None]
            elif most > 0:
                M /= 2.0**most
            U, V = _pade13(M)
            del M
            W = V + U
            V -= U
            del U  # the solve's own LU copy and result come on top
            R = np.linalg.solve(V, W)
            for _ in range(fewest):
                R = R @ R
            for i in range(fewest, most):  # only a stack has unequal counts
                sel = np.array(s) > i
                part = R[sel]
                R[sel] = part @ part
        if not live or len(live) < k:
            out = np.zeros(times.shape + (n, n))
            out.reshape(-1, n * n)[:, :: n + 1] = 1.0
            if live:
                out[live] = R
            R = out
    refused = len(live) + norms.count(0.0) < k
    if refused or not np.isfinite(R).all():
        finite = np.isfinite(R).reshape(k, -1).all(axis=1).tolist()
        i = next(i for i, x in enumerate(norms) if not (x < math.inf and finite[i]))
        if norms[i] < math.inf:
            squarings = s[live.index(i)]
            msg = f"exp(tA) overflowed (|tA|_1 = {norms[i]:.3e}, squarings = {squarings})"
        else:
            msg = "exp(tA) overflowed: |tA|_1 is not finite"
        raise ExpmOverflow(msg, evaluated=R[:i] if times.ndim else ())
    return R


# Grids (sampled times or window cells) are allocated up front; the cap
# keeps a typo from exhausting memory.
MAX_GRID_POINTS = 4096


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing sample times inside [t_start, t_end]."""

    points: np.ndarray
    t_start: float
    t_end: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 1:
            raise ValueError("grid needs at least one point")
        if np.any(np.diff(pts) <= 0):
            raise ValueError("grid points must be strictly increasing")
        if not (self.t_start <= pts[0] and pts[-1] <= self.t_end):
            raise ValueError("points must lie inside [t_start, t_end]")
        object.__setattr__(self, "points", pts)

    @classmethod
    def logspace(cls, t_max: float = 20.0, n: int = 256) -> "TimeGrid":
        """t = 0 and n log-spaced points on [1e-3, t_max]."""
        if not (1e-3 < t_max) or n < 2:
            raise ValueError("need t_max > 1e-3 and n >= 2")
        pts = np.concatenate(([0.0], np.geomspace(1e-3, t_max, n)))
        return cls(points=pts, t_start=float(pts[0]), t_end=float(pts[-1]))

    @classmethod
    def default(cls) -> "TimeGrid":
        # 256 log-spaced points on [1e-3, 20] plus t = 0.
        return cls.logspace()

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return self.points.size


@dataclass(frozen=True)
class PairingSupport:
    """The exact set of times t >= 0 at which a pairing <phi, T(t) f> is nonzero.

    `spans` are sorted intervals (lo, hi, lo_in, hi_in) meeting at most at
    an end; each holds one of its ends, and only the last may be unbounded
    (hi = inf, closed at lo).  With `step` set, the set is the lattice
    times q * step in the spans.  `reason` names what it was read from.
    """

    spans: tuple
    reason: str
    step: float | None = None

    @functools.cached_property
    def _ends(self) -> list:
        return [span[1] for span in self.spans]

    def first_at_or_after(self, t0):
        """t0 (snapped up to the lattice) if the set holds it, else the least
        time of the next span (its right end if the left is open), or None.

        A span that ends before t0 holds no time >= t0, snapped or not, so
        the walk starts at the first span ending at or after t0, found by
        bisection on the sorted span ends."""
        spans = self.spans
        for i in range(bisect.bisect_left(self._ends, t0), len(spans)):
            lo, hi, lo_in, hi_in = spans[i]
            t = t0 if t0 > lo or (t0 == lo and lo_in) else lo if lo_in else hi
            if self.step is not None:
                t = math.ceil(t / self.step - 1e-9) * self.step
            if t < hi or (t == hi and hi_in):
                return t
        return None

    @property
    def tail_from(self):
        """Start of the unbounded last span, or None when the set is bounded."""
        return self.spans[-1][0] if self.spans and self.spans[-1][1] == math.inf else None

    def __str__(self):
        return " u ".join(
            f"{'[' if a_in else '('}{a}, {b}{']' if b_in else ')'}" for a, b, a_in, b_in in self.spans
        ) or "no time"


class SemigroupProvider:
    """Base contract for a time-indexed operator family T(t), t >= 0.

    Subclasses fill in apply() and carrier plumbing.  `envelope` is a
    proved growth pair (M, omega) with |T(t)| <= M e^{omega t} for every
    t >= 0; T(0) must act as the identity and the composition law
    T(s)T(t) = T(s+t) must hold up to carrier tolerance.
    """

    envelope: tuple = (1.0, 0.0)
    nilpotent_time = None  # exact time past which T(t) = 0, if any
    exact_arithmetic: bool = False  # pairings are exact rationals
    positive_by_construction: bool = False  # every T(t) maps the positive cone into itself

    def apply(self, t, f):
        raise NotImplementedError

    def pair(self, phi, f):
        """Duality pairing <phi, f> in the carrier."""
        raise NotImplementedError

    def apply_adjoint(self, t, phi):
        raise NotImplementedError

    @property
    def carrier_dim(self):
        return None

    def zero_vector(self):
        raise NotImplementedError

    def vec_norm(self, f) -> float:
        raise NotImplementedError

    def default_test_vectors(self):
        """Positive vectors used for grid-limited positivity probes."""
        raise NotImplementedError

    def condition_basis(self):
        """Positive carrier vectors spanning enough directions for duality tests."""
        raise NotImplementedError

    def condition_probe(self, t, f, phi):
        """Duality sample <phi, T(t) f>."""
        return self.pair(phi, self.apply(t, f))

    def pairing_support(self, f, phi) -> PairingSupport:
        """The exact set of times at which <phi, T(t) f> is nonzero.

        It decides every weak condition exactly.  A carrier that cannot
        give it raises CertificateMissing; its pairings are not sampled.
        """
        raise CertificateMissing(
            f"{type(self).__name__} gives no exact pairing support; "
            "a matrix generator is decided by classify(A=...)"
        )

    def vanishing_time(self, f, adjoint: bool):
        """The exact least t with T(t) f = 0 (T(t)' f = 0 if `adjoint`), None if none.

        A carrier that cannot give it raises CertificateMissing; orbits are not sampled.
        """
        raise CertificateMissing(f"{type(self).__name__} gives no exact vanishing time")

    def check_positive(self, f, label: str = "vector"):
        """Raise PremiseViolation unless f is positive and nonzero in the carrier lattice."""
        raise NotImplementedError

    def admissible_times(self, candidates):
        """Snap candidate times onto whatever lattice the carrier can evaluate.

        Dense carriers accept any t >= 0; exact carriers override this to
        round onto their rational/grid lattice.  Returns a sorted, deduped
        list.
        """
        out = sorted({float(t) for t in candidates if float(t) >= 0.0})
        return out

    def positivity_probe(self, t):
        """(min entry of T(t) in its natural basis, witness index, exact?)."""
        raise NotImplementedError

    def positivity_probes(self, times):
        """positivity_probe at each of `times`, in order, each when it is reached."""
        return (self.positivity_probe(t) for t in times)


def eigenbasis_growth_constant(evecs: np.ndarray) -> float:
    """M = 1.1 max(1, kappa_2(V)), so |e^{tA}|_2 <= M e^{st} for A = V D V^-1.

    inf when kappa_2(V) is not finite or exceeds the cutoff 1e12.
    """
    kappa = float(np.linalg.cond(evecs, 2))
    return max(1.0, kappa) * _ENVELOPE_SAFETY if kappa <= _KAPPA_CUTOFF else math.inf


def log_norm_envelope(A) -> tuple:
    """(1, mu_2(A)): |e^{tA}|_2 <= e^{mu_2(A) t}, mu_2(A) the top eigenvalue of (A + A^T) / 2.

    A theorem for every A, defective ones included (Soederlind, BIT 46, 2006).
    The halves are taken before the sum, so entries near the double range
    do not overflow.
    """
    A = as_matrix(A)
    return (1.0, float(np.linalg.eigvalsh(0.5 * A + 0.5 * A.T)[-1]))


def default_envelope(A) -> tuple:
    """Proved growth pair (M, omega) with |e^{tA}|_2 <= M e^{omega t} for t >= 0, from one eig.

    (eigenbasis_growth_constant(V), s + 1e-8), s the spectral bound, when
    the eigenbasis V of A = V D V^-1 has kappa_2(V) <= 1e12; otherwise,
    defective A included, the log-norm pair (1, mu_2(A)).  No exponential
    is evaluated.
    """
    A = as_matrix(A)
    evals, evecs = np.linalg.eig(A)
    M = eigenbasis_growth_constant(evecs)
    if M == math.inf:
        return log_norm_envelope(A)
    return (M, float(np.max(evals.real)) + 1e-8)


class MatrixSemigroup(SemigroupProvider):
    """Provider for t -> e^{tA} on R^n; it holds A and nothing else.

    matrix(t) is expm(A, t), evaluated afresh on every call.  `envelope`
    is default_envelope(A), read on each use without an exponential; the
    positivity certificate never reads it.
    """

    def __init__(self, A):
        self.A = as_matrix(A)

    @property
    def envelope(self) -> tuple:
        return default_envelope(self.A)

    @property
    def carrier_dim(self):
        return self.A.shape[0]

    def matrix(self, t) -> np.ndarray:
        return expm(self.A, float(t))

    def apply(self, t, f):
        return self.matrix(t) @ as_vector(f)

    def apply_adjoint(self, t, phi):
        return self.matrix(t).T @ as_vector(phi)

    def to_dense(self, t) -> np.ndarray:
        return self.matrix(t)

    def zero_vector(self):
        return np.zeros(self.carrier_dim)

    def vec_norm(self, f) -> float:
        """Euclidean norm, as max|f| |f / max|f|| where squares would leave the double range.

        A finite nonzero vector therefore never reads inf or 0.
        """
        x = np.asarray(f, dtype=float)
        top = float(np.max(np.abs(x), initial=0.0))
        if 1e-150 < top < 1e150:
            return float(np.linalg.norm(x))
        if top == 0.0 or not math.isfinite(top):
            return top
        return top * float(np.linalg.norm(x / top))

    def pair(self, phi, f):
        return float(np.dot(as_vector(phi), as_vector(f)))

    def vanishing_time(self, f, adjoint: bool):
        """None for f != 0 (0.0 for f = 0): e^{tA} is invertible, so no orbit vanishes."""
        return None if as_vector(f).any() else 0.0

    def default_test_vectors(self):
        return [np.eye(self.carrier_dim)[i] for i in range(self.carrier_dim)]

    def condition_basis(self):
        return self.default_test_vectors()

    def check_positive(self, f, label: str = "vector"):
        v = as_vector(f)
        if v.size != self.carrier_dim:
            raise PremiseViolation(f"{label} has dimension {v.size}, expected {self.carrier_dim}")
        if np.min(v) < 0.0 or not np.any(v != 0.0):
            raise PremiseViolation(
                f"{label} must be positive and nonzero", witnesses=[v.tolist()]
            )

    def is_metzler(self) -> bool:
        off = self.A - np.diag(np.diag(self.A))
        return bool(np.min(off) >= 0.0)

    def stacks(self, times):
        """e^{tA} of `times` as expm stacks of at most _CHUNK_BYTES, each when the last is used.

        A stack that overflows is cut to the times before the first
        overflowing one, and expm's ExpmOverflow is raised once the caller
        asks for the stack after it.
        """
        times = np.asarray(times, dtype=float)
        step = max(1, _CHUNK_BYTES // self.A.nbytes)
        for lo in range(0, times.size, step):
            try:  # yielded unnamed, so no stack is held while the next is evaluated
                yield expm(self.A, times[lo : lo + step])
            except ExpmOverflow as exc:
                yield exc.evaluated
                raise

    def matrices(self, times):
        """e^{tA} for each of `times`, in order, bit for bit matrix(t).

        The times are evaluated by expm in stacks of at most _CHUNK_BYTES,
        the next one only once the caller has taken every matrix of the
        last.  A time whose e^{tA} overflows raises expm's ExpmOverflow
        when the caller reaches it, after the matrices of the times before
        it.
        """
        for stack in self.stacks(times):
            yield from stack

    def positivity_probe(self, t):
        return _min_entry(self.matrix(t))

    def positivity_probes(self, times):
        """positivity_probe at each of `times`, in order: one argmin per stack of matrices.

        An overflow is raised as matrices raises it, after the probes of
        the times before it.
        """
        for probes in map(_min_entries, self.stacks(times)):
            yield from probes


def _min_entries(stack: np.ndarray) -> list:
    """(value, (i, j), True) per matrix of a (k, n, n) stack: its first smallest entry, row-major."""
    k, n, _ = stack.shape
    flat = stack.reshape(k, n * n)
    cells = flat.argmin(axis=1)
    values = flat[np.arange(k), cells].tolist()
    return [(value, divmod(cell, n), True) for value, cell in zip(values, cells.tolist())]


def _min_entry(m: np.ndarray):
    return _min_entries(m[None])[0]


# ---------------------------------------------------------------------------
# Bundled 3x3 showcase generator.  Symmetric, eigenvalues {0, 8, 9}; the
# semigroup it generates has sign changes for small t yet a positive third
# row and column, and converges after rescaling to the rank-one projection
# onto the constant vector.  Used by the CLI presets and the test suite.

_SQ2 = math.sqrt(2.0)
_SQ3 = math.sqrt(3.0)
_SQ6 = math.sqrt(6.0)


def demo_generator() -> np.ndarray:
    return np.array([[7.0, -1.0, 3.0], [-1.0, 7.0, 3.0], [3.0, 3.0, 3.0]])


def demo_eigensystem():
    """(eigenvalues, orthonormal eigenvector columns) of demo_generator()."""
    evals = np.array([0.0, 8.0, 9.0])
    U = np.column_stack(
        [
            np.array([-1.0, -1.0, 2.0]) / _SQ6,
            np.array([1.0, -1.0, 0.0]) / _SQ2,
            np.array([1.0, 1.0, 1.0]) / _SQ3,
        ]
    )
    return evals, U


def power_formula_matrix(n: int) -> np.ndarray:
    """Closed form for demo_generator()**n, valid for integer n >= 1.

    At n = 0 the formula deliberately does NOT reproduce the identity:
    the rank-one piece belonging to the zero eigenvalue is dropped.
    """
    a = 8.0**n / 2.0
    c = 9.0**n / 3.0
    return np.array([[a + c, -a + c, c], [-a + c, a + c, c], [c, c, c]])


def matrix_power_formula_check(n: int):
    """(formula value, repeated-multiplication value) for the showcase matrix."""
    if not (1 <= int(n) <= 12):
        raise ValueError("n must lie in 1..12")
    A = demo_generator()
    direct = np.eye(3)
    for _ in range(int(n)):
        direct = direct @ A
    return power_formula_matrix(int(n)), direct
