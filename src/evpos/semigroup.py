"""Matrix semigroups t -> e^{tA}: evaluation, growth envelopes, orbits.

e^{tA} is computed by scaling and squaring with the degree-13 Pade
approximant (norm-gated squaring count); diagonalization is deliberately
not used for evaluation, only as a cross-check oracle in the test suite.
Orbits are always evaluated from t = 0, never by stepping, so per-sample
error does not accumulate along a trajectory.

A MatrixSemigroup builds its growth envelope on first read, so routes
that never read it (the Metzler criterion, grid sampling) pay neither
its eigendecomposition nor its spot-check exponentials.  Evaluated
e^{tA} are cached per provider up to a fixed byte budget.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ExpmOverflow
from .lattice import as_matrix, as_vector
from .parallel import parallel_map

__all__ = [
    "expm",
    "TimeGrid",
    "SemigroupProvider",
    "MatrixSemigroup",
    "default_envelope",
    "orbit",
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

# Array bytes a MatrixSemigroup keeps of evaluated e^{tA}: 64 matrices at
# n = 128, 6 at n = 400, and every sample of a small generator.
_CACHE_BUDGET_BYTES = 8 << 20


def _pade13(M: np.ndarray):
    n = M.shape[0]
    ident = np.eye(n)
    M2 = M @ M
    M4 = M2 @ M2
    M6 = M4 @ M2
    b = _B13
    U = M @ (
        M6 @ (b[13] * M6 + b[11] * M4 + b[9] * M2)
        + b[7] * M6
        + b[5] * M4
        + b[3] * M2
        + b[1] * ident
    )
    V = (
        M6 @ (b[12] * M6 + b[10] * M4 + b[8] * M2)
        + b[6] * M6
        + b[4] * M4
        + b[2] * M2
        + b[0] * ident
    )
    return U, V


def expm(A, t: float = 1.0) -> np.ndarray:
    """e^{tA} by Pade-13 scaling and squaring.

    Raises ExpmOverflow when the result leaves the double range.
    """
    A = as_matrix(A)
    M = A * float(t)
    norm = float(np.max(np.sum(np.abs(M), axis=0)))  # induced 1-norm
    if norm == 0.0:
        return np.eye(A.shape[0])
    s = max(0, int(math.ceil(math.log2(norm / _THETA13)))) if norm > _THETA13 else 0
    scaled = M / (2.0**s)
    U, V = _pade13(scaled)
    R = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        R = R @ R
    if not np.isfinite(R).all():
        raise ExpmOverflow(f"exp(tA) overflowed (|tA|_1 = {norm:.3e}, squarings = {s})")
    return R


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
    def from_points(cls, points) -> "TimeGrid":
        pts = np.asarray(sorted(set(float(p) for p in points)), dtype=float)
        return cls(points=pts, t_start=float(pts[0]), t_end=float(pts[-1]))

    @classmethod
    def logspace(
        cls, t_min: float = 1e-3, t_max: float = 20.0, n: int = 256, include_zero: bool = True
    ) -> "TimeGrid":
        if not (0 < t_min < t_max) or n < 2:
            raise ValueError("need 0 < t_min < t_max and n >= 2")
        pts = np.geomspace(t_min, t_max, n)
        if include_zero:
            pts = np.concatenate(([0.0], pts))
        return cls(points=pts, t_start=float(pts[0]), t_end=float(pts[-1]))

    @classmethod
    def default(cls) -> "TimeGrid":
        # 256 log-spaced points on [1e-3, 20] plus t = 0.
        return cls.logspace()

    def tail(self, fraction: float = 0.25) -> np.ndarray:
        """The last `fraction` of the positive sample times."""
        pos = self.points[self.points > 0]
        k = max(1, int(math.ceil(fraction * pos.size)))
        return pos[-k:]

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return self.points.size


class SemigroupProvider:
    """Base contract for a time-indexed operator family T(t), t >= 0.

    Subclasses fill in apply() and carrier plumbing.  `envelope` is a
    validated growth pair (M, omega) with |T(t)| <= M e^{omega t} spot-
    checked on a coarse grid; T(0) must act as the identity and the
    composition law T(s)T(t) = T(s+t) must hold up to carrier tolerance.
    """

    envelope: tuple = (1.0, 0.0)
    nilpotent_time = None  # exact time past which T(t) = 0, if any
    is_positive_family: bool = False  # certified T(t) >= 0 for every t
    exact_arithmetic: bool = False  # pairings are exact rationals

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


def default_envelope(A, safety: float = 1.1, check_times=None) -> tuple:
    """Growth pair (M, omega) for e^{tA}.

    omega is the spectral bound plus 1e-8; M starts from the eigenvector
    condition number times `safety` and is inflated if a spot check on a
    coarse grid finds a larger ratio |e^{tA}| / e^{omega t}.
    """
    A = as_matrix(A)
    evals, evecs = np.linalg.eig(A)
    omega = float(np.max(evals.real)) + 1e-8
    try:
        kappa = float(np.linalg.cond(evecs, 2))
    except np.linalg.LinAlgError:  # pragma: no cover - defensive
        kappa = np.inf
    if not np.isfinite(kappa) or kappa > 1e12:
        kappa = 1.0  # defective case: rely on the spot check below
    M = max(1.0, kappa) * safety
    if check_times is None:
        check_times = np.geomspace(1e-2, 20.0, 16)
    worst = 1.0
    for t in check_times:
        ratio = float(np.linalg.norm(expm(A, t), 2)) / math.exp(omega * t)
        worst = max(worst, ratio)
    if worst > M:
        M = worst * safety
    return (M, omega)


class MatrixSemigroup(SemigroupProvider):
    """Provider for t -> e^{tA} on R^n with a validated growth envelope.

    An explicit `envelope` is stored as given; otherwise default_envelope(A)
    runs on the first read of `envelope` and may raise ExpmOverflow there.
    matrix(t) keeps evaluated e^{tA} while their array bytes stay within
    a fixed budget; later times are evaluated afresh on every call.
    """

    def __init__(self, A, envelope: tuple | None = None):
        self.A = as_matrix(A)
        if envelope is not None:
            self.envelope = envelope
        self._cache = {}
        # every e^{tA} has the shape and dtype of A
        self._cache_slots = _CACHE_BUDGET_BYTES // self.A.nbytes

    @functools.cached_property
    def envelope(self) -> tuple:
        return default_envelope(self.A)

    @property
    def carrier_dim(self):
        return self.A.shape[0]

    def matrix(self, t) -> np.ndarray:
        t = float(t)
        hit = self._cache.get(t)
        if hit is None:
            hit = expm(self.A, t)
            if len(self._cache) < self._cache_slots:
                self._cache[t] = hit
        return hit

    def apply(self, t, f):
        return self.matrix(t) @ as_vector(f)

    def apply_adjoint(self, t, phi):
        return self.matrix(t).T @ as_vector(phi)

    def to_dense(self, t) -> np.ndarray:
        return self.matrix(t)

    def zero_vector(self):
        return np.zeros(self.carrier_dim)

    def vec_norm(self, f) -> float:
        return float(np.linalg.norm(f))

    def pair(self, phi, f):
        return float(np.dot(as_vector(phi), as_vector(f)))

    def default_test_vectors(self):
        return [np.eye(self.carrier_dim)[i] for i in range(self.carrier_dim)]

    def condition_basis(self):
        return self.default_test_vectors()

    def check_positive(self, f, label: str = "vector"):
        from .errors import PremiseViolation

        v = as_vector(f)
        if v.size != self.carrier_dim:
            raise PremiseViolation(f"{label} has dimension {v.size}, expected {self.carrier_dim}")
        if np.min(v) < 0.0 or not np.any(v != 0.0):
            raise PremiseViolation(
                f"{label} must be positive and nonzero", witnesses=[v.tolist()]
            )

    def is_metzler(self, tol: float = 0.0) -> bool:
        off = self.A - np.diag(np.diag(self.A))
        return bool(np.min(off) >= -tol)

    def positivity_probe(self, t):
        m = self.matrix(t)
        idx = np.unravel_index(int(np.argmin(m)), m.shape)
        return float(m[idx]), (int(idx[0]), int(idx[1])), True


def orbit(provider, f, grid: TimeGrid):
    """[(t, T(t)f)] with each sample evaluated independently from t = 0."""
    times = list(grid)
    vals = parallel_map(lambda t: provider.apply(t, f), times)
    return list(zip(times, vals))


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
