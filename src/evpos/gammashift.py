"""Grid model of a shift composed with Gamma-kernel smoothing on L^1.

The time-t operator convolves with the Gamma(t, 1) density and then
shifts left by t, discretized on a uniform cell grid over [x_min,
x_min + count*h).  Cell weights are differences of the regularized lower
incomplete gamma function P(a, x), scipy.special.gammainc.  A provider
keeps each step's kernel once evaluated, and fills the kernels of a block
of steps with one gammainc call on the 2-D broadcast of their times and
the cell edges, each row bit for bit the single-time evaluation.  Every
application goes through one convolution path, apply_steps: apply(t, f)
is its one-step, one-vector case, and a coupled lattice orbit hands it a
whole block of steps.  Mass leaving the right edge is dropped; the
kernel deficit beyond the window is returned with the weights.

Support bookkeeping is exact: every grid function carries an integer
`support_lo` below which all samples are bitwise zero, maintained through
convolution (+0 cells) and shifting (-q cells), never inferred from
floating-point magnitudes.  This is what turns "the support front moves
left at unit speed" into a checkable integer statement.  Time arguments
must be whole multiples of the cell width, because a fractional-cell
shift would destroy that bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PremiseViolation, ShiftNotOnGrid
from .semigroup import PairingSupport, SemigroupProvider

__all__ = [
    "Grid1D",
    "GridFunction",
    "gamma_kernel_weights",
    "GammaShiftProvider",
]


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell grid: cell m covers [x_min + m*h, x_min + (m+1)*h)."""

    x_min: float
    h: float
    count: int

    def __post_init__(self):
        if self.h <= 0 or self.count < 1:
            raise ValueError("need h > 0 and count >= 1")

    @property
    def x_max(self) -> float:
        return self.x_min + self.h * self.count

    def left_edge(self, m: int) -> float:
        return self.x_min + m * self.h

    def cell_of(self, x: float) -> int:
        """Index of the cell containing x (boundary points open a new cell)."""
        m = math.floor((x - self.x_min) / self.h + 1e-9)
        if not (0 <= m < self.count):
            raise ValueError(f"{x} lies outside the grid window")
        return int(m)

    def steps_of(self, t: float) -> int:
        """t as a whole number of cells; raises ShiftNotOnGrid otherwise."""
        q = round(t / self.h)
        if abs(t - q * self.h) > 1e-9 * self.h or q < 0:
            raise ShiftNotOnGrid(f"time {t} is not a nonnegative multiple of h = {self.h}")
        return int(q)


class GridFunction:
    """Dense cell values plus an exact integer support floor.

    All samples with index < support_lo are bitwise zero.  The floor is
    maintained arithmetically through every operation; a support_lo equal
    to `count` marks the zero function.
    """

    __slots__ = ("grid", "samples", "support_lo")

    def __init__(self, grid: Grid1D, samples, support_lo: int | None = None):
        samples = np.asarray(samples, dtype=float)
        if samples.shape != (grid.count,):
            raise ValueError("sample array does not match the grid")
        if support_lo is None:
            nz = np.flatnonzero(samples)
            support_lo = int(nz[0]) if nz.size else grid.count
        if not (0 <= support_lo <= grid.count):
            raise ValueError("support_lo out of range")
        if samples[:support_lo].any():
            raise ValueError("nonzero sample below the declared support floor")
        self.grid = grid
        self.samples = samples
        self.support_lo = int(support_lo)

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, grid: Grid1D) -> "GridFunction":
        return cls(grid, np.zeros(grid.count), grid.count)

    @classmethod
    def indicator(cls, grid: Grid1D, a: float, b: float) -> "GridFunction":
        """Indicator of [a, b): value 1 on every cell contained in it."""
        if not (grid.x_min <= a < b <= grid.x_max):
            raise ValueError("interval outside the grid window")
        lo = grid.cell_of(a)
        hi = lo
        samples = np.zeros(grid.count)
        for m in range(lo, grid.count):
            if grid.left_edge(m + 1) <= b + 1e-9 * grid.h:
                samples[m] = 1.0
                hi = m
            else:
                break
        if not samples.any():
            return cls.zero(grid)
        return cls(grid, samples, lo)

    # -- queries ----------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return self.support_lo >= self.grid.count or not self.samples.any()

    def norm_l1(self) -> float:
        return float(self.grid.h * np.sum(np.abs(self.samples)))

    def min_value(self) -> float:
        return float(np.min(self.samples))

    def assert_support_sound(self):
        assert not self.samples[: self.support_lo].any(), "support floor violated"

    # -- arithmetic -------------------------------------------------------
    def _like(self, other):
        if self.grid != other.grid:
            raise ValueError("grid mismatch")

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._like(other)
        return GridFunction(
            self.grid,
            self.samples + other.samples,
            min(self.support_lo, other.support_lo),
        )

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._like(other)
        return GridFunction(
            self.grid,
            self.samples - other.samples,
            min(self.support_lo, other.support_lo),
        )

    def scale(self, c: float) -> "GridFunction":
        if c == 0.0:
            return GridFunction.zero(self.grid)
        return GridFunction(self.grid, self.samples * float(c), self.support_lo)

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

    def copy(self) -> "GridFunction":
        return GridFunction(self.grid, self.samples.copy(), self.support_lo)


def gamma_kernel_weights(t, grid: Grid1D, n_cells=None):
    """(cell weights of the Gamma(t,1) density over [0, n_cells*h), deficit).

    weights[m] = P(t, (m+1)h) - P(t, m*h); tiny negative differences from
    rounding are clipped to zero so positivity of the discrete operator
    is exact.  The deficit 1 - P(t, n_cells*h) is the kernel mass beyond
    the covered offsets.  n_cells defaults to the grid cell count
    (offsets spanning one window length).  A 1-D array of times, with
    n_cells one count or one per time, gives the list of their pairs
    from one gammainc call on the times against the longest edge vector;
    each is bit for bit its single-time pair.
    """
    # imported here, not with the package: on its own scipy.special costs
    # about 25 MB resident and 0.3 s, and only a Gamma kernel needs it
    from scipy.special import gammainc

    times = np.asarray(t, dtype=float)
    if (times <= 0).any():
        raise ValueError("kernel shape (= time) must be positive")
    counts = np.ones(times.shape, int).ravel() * (grid.count if n_cells is None else n_cells)
    edges = gammainc(times.reshape(-1, 1), np.arange(counts.max() + 1) * grid.h)
    weights = np.maximum(edges[:, 1:] - edges[:, :-1], 0.0)
    deficits = (1.0 - edges[np.arange(len(edges)), counts]).tolist()
    pairs = [(w[:n], d) for w, n, d in zip(weights, counts.tolist(), deficits)]
    return pairs if times.ndim else pairs[0]


class GammaShiftProvider(SemigroupProvider):
    """Semigroup provider for the discretized shift/Gamma-smoothing family.

    The window is a viewport on the line dynamics: each operator reads the
    full causal convolution at post-shift positions, so only mass whose
    final position leaves the window is dropped.  L^1 contraction
    (M, omega) = (1, 0): weights are nonnegative with total at most 1.
    Positivity of every operator in the family is a construction-level
    certificate, not a sample.
    """

    envelope = (1.0, 0.0)
    nilpotent_time = None
    positive_by_construction = True

    def __init__(self, grid: Grid1D):
        self.grid = grid
        self._weight_cache = {}

    @property
    def carrier_dim(self):
        return self.grid.count

    def weights(self, t: float):
        q = self.grid.steps_of(t)
        return self._kernels([q])[q]

    def _kernels(self, steps) -> dict:
        """The kept (weights, deficit) pairs by step, holding every step q >= 1 of steps.

        The steps not yet kept are evaluated with one gamma_kernel_weights
        call at the times q * h.
        """
        cache = self._weight_cache
        missing = [q for q in steps if q not in cache]
        if missing:
            qs = np.array(missing)
            pairs = gamma_kernel_weights(qs * self.grid.h, self.grid, self.grid.count + qs)
            cache.update(zip(missing, pairs))
        return cache

    def apply(self, t, f: GridFunction) -> GridFunction:
        """The time-t operator on f, written by apply_steps for the one step t / h."""
        samples, floors = np.empty((1, 1, self.grid.count)), np.empty((1, 1), int)
        self.apply_steps([self.grid.steps_of(t)], [f], samples, floors)
        return GridFunction(self.grid, samples[0, 0], floors[0, 0])

    def apply_steps(self, steps, fs, samples: np.ndarray, floors: np.ndarray) -> None:
        """Write the time-m h operator on f for each step m of steps and each f of fs.

        Row r, column j of samples (len(steps), len(fs), count) takes the
        cells of step steps[r] applied to fs[j], and of floors its integer
        support floor, set arithmetically.  Step 0 copies f.  Past it, the
        Gamma(m h, 1) convolution, over count + m offset cells, is read at
        offsets i + m for output cell i, so kernel mass that crosses the
        window top and is pulled back by the shift re-enters, and only
        mass whose final position lies outside the window is dropped; the
        floor is max(lo(f) - m, 0), and a zero f (is_zero) gives the zero
        function, floor count.  The kernels come from _kernels, one
        gamma_kernel_weights call for the steps not yet kept, and each
        (step, nonzero f) past step 0 is one np.convolve.
        """
        count = self.grid.count
        samples[...], floors[...] = 0.0, count
        live = [(j, f) for j, f in enumerate(fs) if not f.is_zero]
        kernels = self._kernels([m for m in steps if m]) if live else {}
        for row, m in enumerate(steps):
            if m == 0:
                for j, f in enumerate(fs):
                    samples[row, j], floors[row, j] = f.samples, f.support_lo
                continue
            for j, f in live:
                samples[row, j] = np.convolve(f.samples, kernels[m][0])[m : m + count]
                floors[row, j] = max(f.support_lo - m, 0)

    def apply_adjoint(self, t, phi: GridFunction) -> GridFunction:
        """Transpose of the cell-basis matrix M[i, j] = w[i + q - j]."""
        q = self.grid.steps_of(t)
        if q == 0:
            return phi.copy()
        weights, _ = self.weights(t)
        count = self.grid.count
        c = np.convolve(phi.samples[::-1], weights)
        vals = c[count - 1 + q - np.arange(count)]
        return GridFunction(self.grid, vals)

    def to_dense(self, t) -> np.ndarray:
        q = self.grid.steps_of(t)
        count = self.grid.count
        if q == 0:
            return np.eye(count)
        weights, _ = self.weights(t)
        idx = np.arange(count)[:, None] + q - np.arange(count)[None, :]
        return np.where(idx >= 0, weights[np.clip(idx, 0, weights.size - 1)], 0.0)

    def pairing_support(self, f: GridFunction, phi: GridFunction) -> PairingSupport:
        """Exact support of q -> <phi, T(q h) f> for f, phi >= 0, read from the band.

        M_q[i, j] = w_q[i + q - j] > 0 for i + q >= j (the Gamma(qh, 1)
        density is positive; an underflowed weight does not count), so at
        q >= 1 the pairing is nonzero exactly when q >= lo(f) - hi(phi),
        and at q = 0 exactly when the supports meet.
        """
        self.check_positive(f, "f")
        self.check_positive(phi, "phi")
        f_cells, phi_cells = np.flatnonzero(f.samples), np.flatnonzero(phi.samples)
        q = max(1, int(f_cells[0] - phi_cells[-1]))
        meet = ((0.0, 0.0, True, True),) if np.intersect1d(f_cells, phi_cells).size else ()
        reason = f"band of T(q h): lo(f) = {f_cells[0]}, hi(phi) = {phi_cells[-1]}"
        return PairingSupport(meet + ((q * self.grid.h, math.inf, True, False),), reason, self.grid.h)

    def vanishing_time(self, f: GridFunction, adjoint: bool):
        """None for positive f: every band weight of the Gamma(qh, 1) density is
        positive, so T(qh) f is nonzero in the top cell and T(qh)' f in the bottom one."""
        self.check_positive(f, "f")
        return None

    def zero_vector(self):
        return GridFunction.zero(self.grid)

    def vec_norm(self, f: GridFunction) -> float:
        return f.norm_l1()

    def pair(self, phi: GridFunction, f: GridFunction) -> float:
        return float(self.grid.h * np.dot(phi.samples, f.samples))

    def default_test_vectors(self):
        mid = self.grid.x_min + 0.5 * (self.grid.x_max - self.grid.x_min)
        return [
            GridFunction.indicator(self.grid, 1.0, 2.0)
            if self.grid.x_min <= 1.0 < self.grid.x_max
            else GridFunction.indicator(self.grid, self.grid.x_min, mid),
            GridFunction.indicator(self.grid, self.grid.x_min, self.grid.x_max - self.grid.h),
        ]

    def cell_indicator(self, i: int) -> GridFunction:
        if not (0 <= i < self.grid.count):
            raise ValueError("cell index out of range")
        samples = np.zeros(self.grid.count)
        samples[i] = 1.0
        return GridFunction(self.grid, samples, i)

    def condition_basis(self):
        """Four single-cell indicators spread across the window (fewer on a short one)."""
        n = self.grid.count
        cells = sorted({(n * k) // 5 for k in range(1, 5)})
        return [self.cell_indicator(i) for i in cells]

    def admissible_times(self, candidates):
        """Snap each candidate to the nearest whole-cell time q*h."""
        out = set()
        for t in candidates:
            q = int(round(float(t) / self.grid.h))
            if q >= 0:
                out.add(q * self.grid.h)
        return sorted(out)

    def check_positive(self, f, label: str = "vector"):
        if not isinstance(f, GridFunction):
            raise PremiseViolation(f"{label} must be a grid function")
        if f.is_zero or f.min_value() < 0.0:
            raise PremiseViolation(f"{label} must be positive and nonzero")

    def positivity_probe(self, t):
        q = self.grid.steps_of(t)
        if q == 0:
            # identity operator: off-diagonal entries are exact zeros
            return 0.0, ("identity-offdiag", 0, 1), True
        weights, _ = self.weights(t)
        m = int(np.argmin(weights))
        wmin = float(weights[m])
        if q + 1 < self.grid.count and wmin > 0.0:
            # below-band entries M[i, j] with j > i + q are structural zeros
            return 0.0, ("below-band", 0, q + 1), True
        return wmin, ("kernel-cell", m), True
