"""Exact rational step functions on [0,1) and the left-shift semigroup.

Everything here runs over fractions.Fraction, so pairings, norms and
vanishing times are exact certificates rather than float approximations.
The square-wave family r_1, r_2, ... (sign flips at k/2^n) is orthonormal
but NOT complete in L^2(0,1); the product family w_0, w_1, ... (binary
products of square waves) is the complete orthonormal extension.  Both are
exposed: completeness-style checks should use the product family, raw
pairing diagnostics the square waves.

The left shift (S(t)f)(x) = f(x+t), truncated at 1, is nilpotent: S(t) = 0
for t >= 1 exactly.

Pairings <phi, S(t)f> are read off the lattice of the two functions rather
than built from a shifted product.  With L the lcm of all breakpoint
denominators of f and phi, both are constant on the cells [c/L, (c+1)/L),
and t -> <phi, S(t)f> is piecewise linear with knots on (1/L)Z, zero for
t >= 1.  Its knot values are the integer correlations
sum_c f_{c+m} phi_c of the two cell vectors (scaled by L and the value
denominators).  Each function builds its cell vector once; after that a
pairing costs one or two integer correlations and one exact interpolation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice
from operator import mul

import numpy as np

from .errors import DepthExceeded, PremiseViolation
from .semigroup import PairingSupport, SemigroupProvider

__all__ = [
    "PiecewiseConstantFn",
    "rademacher",
    "walsh",
    "shift_apply",
    "shifted_pairing",
    "pairing",
    "irreducibility_witness_search",
    "vanishing_time",
    "ShiftStepProvider",
    "MAX_DEPTH",
]

MAX_DEPTH = 20

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        fr = Fraction(x)  # exact binary expansion
        if fr.denominator > (1 << 40):
            raise TypeError(f"float {x!r} is not a small dyadic rational; pass a Fraction")
        return fr
    raise TypeError(f"exact rational expected, got {type(x).__name__}")


class PiecewiseConstantFn:
    """Canonical step function on [0,1): rational breakpoints, rational values.

    breakpoints[0] = 0 and breakpoints[-1] = 1 always; adjacent intervals
    with equal values are merged, so equality of representations is
    equality of functions.
    """

    __slots__ = ("breakpoints", "values", "_cells")

    def __init__(self, breakpoints, values):
        bps = [_frac(b) for b in breakpoints]
        vals = [_frac(v) for v in values]
        if len(bps) != len(vals) + 1:
            raise ValueError("need one more breakpoint than values")
        if bps[0] != 0 or bps[-1] != 1:
            raise ValueError("domain must be exactly [0,1]")
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        # canonical merge of equal neighbours
        mb = [bps[0]]
        mv = []
        for b, v in zip(bps[1:], vals):
            if mv and v == mv[-1]:
                mb[-1] = b
            else:
                mv.append(v)
                mb.append(b)
        self.breakpoints = tuple(mb)
        self.values = tuple(mv)
        self._cells = None

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls) -> "PiecewiseConstantFn":
        return cls([0, 1], [0])

    @classmethod
    def constant(cls, c) -> "PiecewiseConstantFn":
        return cls([0, 1], [c])

    # -- basic queries ------------------------------------------------
    def value_at(self, x) -> Fraction:
        x = _frac(x)
        if not (0 <= x < 1):
            raise ValueError("argument outside [0,1)")
        lo, hi = 0, len(self.values) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.breakpoints[mid] <= x:
                lo = mid
            else:
                hi = mid - 1
        return self.values[lo]

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    def pieces(self):
        for i, v in enumerate(self.values):
            yield self.breakpoints[i], self.breakpoints[i + 1], v

    # -- arithmetic ---------------------------------------------------
    def _zip(self, other):
        bps = sorted(set(self.breakpoints) | set(other.breakpoints))
        for a, b in zip(bps, bps[1:]):
            yield a, b, self.value_at(a), other.value_at(a)

    def __add__(self, other):
        bps, vals = [], []
        for a, b, u, v in self._zip(other):
            bps.append(a)
            vals.append(u + v)
        bps.append(_ONE)
        return PiecewiseConstantFn(bps, vals)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "PiecewiseConstantFn":
        c = _frac(c)
        return PiecewiseConstantFn(self.breakpoints, [c * v for v in self.values])

    def product(self, other) -> "PiecewiseConstantFn":
        bps, vals = [], []
        for a, b, u, v in self._zip(other):
            bps.append(a)
            vals.append(u * v)
        bps.append(_ONE)
        return PiecewiseConstantFn(bps, vals)

    def integral(self) -> Fraction:
        total = _ZERO
        for a, b, v in self.pieces():
            total += v * (b - a)
        return total

    def inner(self, other) -> Fraction:
        return self.product(other).integral()

    def l2_norm_sq(self) -> Fraction:
        return self.inner(self)

    def cells(self):
        """(L, D, nums): the values times D on the L cells of width 1/L.

        L is the lcm of the breakpoint denominators and D that of the
        values, so nums is a tuple of integers.  nums is None when L
        exceeds 2^MAX_DEPTH cells.  Computed once per instance.
        """
        if self._cells is None:
            L = math.lcm(*(b.denominator for b in self.breakpoints))
            D = math.lcm(*(v.denominator for v in self.values))
            nums = None
            if L <= 1 << MAX_DEPTH:
                nums = []
                for a, b, v in self.pieces():
                    nums.extend([int(v * D)] * int((b - a) * L))
                nums = tuple(nums)
            self._cells = (L, D, nums)
        return self._cells

    def support_sup(self) -> Fraction:
        """sup of the support; 0 for the zero function."""
        for i in range(len(self.values) - 1, -1, -1):
            if self.values[i] != 0:
                return self.breakpoints[i + 1]
        return _ZERO

    def __eq__(self, other):
        if not isinstance(other, PiecewiseConstantFn):
            return NotImplemented
        return self.breakpoints == other.breakpoints and self.values == other.values

    def __hash__(self):
        return hash((self.breakpoints, self.values))

    def __repr__(self):
        parts = ", ".join(f"[{a},{b}):{v}" for a, b, v in self.pieces())
        return f"PiecewiseConstantFn({parts})"


def rademacher(n: int) -> PiecewiseConstantFn:
    """Square wave with sign flips at k/2^n: +1 on [0, 2^-n), then alternating."""
    if n < 1:
        raise ValueError("index must be >= 1")
    if n > MAX_DEPTH:
        raise DepthExceeded(f"index {n} exceeds depth cap {MAX_DEPTH}")
    pieces = 1 << n
    bps = [Fraction(k, pieces) for k in range(pieces + 1)]
    vals = [Fraction(1) if k % 2 == 0 else Fraction(-1) for k in range(pieces)]
    return PiecewiseConstantFn(bps, vals)


def walsh(n: int) -> PiecewiseConstantFn:
    """Binary-product family: bit i of n (value 2^i) contributes factor r_{i+1}."""
    if n < 0:
        raise ValueError("index must be >= 0")
    out = PiecewiseConstantFn.constant(1)
    bit = 0
    m = n
    while m:
        if m & 1:
            out = out.product(rademacher(bit + 1))
        m >>= 1
        bit += 1
    return out


def shift_apply(f: PiecewiseConstantFn, t) -> PiecewiseConstantFn:
    """(S(t)f)(x) = f(x+t) for x < 1-t, zero beyond; exactly zero for t >= 1."""
    t = _frac(t)
    if t < 0:
        raise ValueError("shift time must be >= 0")
    if t >= 1:
        return PiecewiseConstantFn.zero()
    if t == 0:
        return f
    bps = [_ZERO]
    vals = []
    for a, b, v in f.pieces():
        if b <= t:
            continue
        lo = max(a, t) - t
        hi = b - t
        if bps[-1] != lo:  # should not happen, pieces are contiguous
            bps.append(lo)
        vals.append(v)
        bps.append(hi)
    # tail of zeros on [1-t, 1)
    if bps[-1] != _ONE:
        vals.append(_ZERO)
        bps.append(_ONE)
    if not vals:
        return PiecewiseConstantFn.zero()
    return PiecewiseConstantFn(bps, vals)


def _on_lattice(fn: PiecewiseConstantFn, L: int):
    """Cell numerators of fn on the finer lattice of L cells (L a multiple of fn's)."""
    own, _, nums = fn.cells()
    if own == L:
        return nums
    r = L // own
    return [v for v in nums for _ in range(r)]


def shifted_pairing(f: PiecewiseConstantFn, phi: PiecewiseConstantFn, t) -> Fraction:
    """Exact <phi, S(t) f> from the correlation of the two cell vectors.

    On the joint lattice of L cells the pairing at the knot m/L is
    sum_c f_{c+m} phi_c / L, and between knots it is linear; it vanishes
    for t >= 1.  Equals shift_apply(f, t).inner(phi), which is used when
    the joint lattice is finer than 2^MAX_DEPTH cells.
    """
    t = _frac(t)
    if t < 0:
        raise ValueError("shift time must be >= 0")
    if t >= 1:
        return _ZERO
    Lf, Df, _ = f.cells()
    Lp, Dp, _ = phi.cells()
    L = math.lcm(Lf, Lp)
    if L > 1 << MAX_DEPTH:
        return shift_apply(f, t).inner(phi)
    F, P = _on_lattice(f, L), _on_lattice(phi, L)

    def knot(m: int) -> int:
        return sum(map(mul, islice(F, m, None), P))

    x = t * L
    m = math.floor(x)
    theta = x - m
    value = knot(m) if theta == 0 else (1 - theta) * knot(m) + theta * knot(m + 1)
    return Fraction(value) / (L * Df * Dp)


def pairing(k: int, j: int, t) -> Fraction:
    """Exact <S(t) r_k, r_j> over the square-wave family, from the lattice correlation."""
    return shifted_pairing(rademacher(k), rademacher(j), t)


def irreducibility_witness_search(k: int, j: int, depth: int):
    """First t in (0,1) from the dyadic scan with pairing(k, j, t) != 0.

    Scans m/2^depth for m = 1 .. 2^depth - 1 in increasing order, which
    includes the near-1 points 1 - 1/2^i for i <= depth.  Returns the
    exact witness time, or None when the scan is exhausted.
    """
    if depth < 1 or depth > MAX_DEPTH:
        raise DepthExceeded(f"depth {depth} outside 1..{MAX_DEPTH}")
    f, phi = rademacher(k), rademacher(j)
    den = 1 << depth
    for m in range(1, den):
        t = Fraction(m, den)
        if shifted_pairing(f, phi, t) != 0:
            return t
    return None


def vanishing_time(f: PiecewiseConstantFn) -> Fraction:
    """Exact time at which the shifted function becomes identically zero.

    Equals sup(support f): S(t)f = 0 iff t >= that value.  Every g with
    |g| <= c|f| inherits the same uniform vanishing time.
    """
    return f.support_sup()


class ShiftStepProvider(SemigroupProvider):
    """Left-shift semigroup on step functions; nilpotent at t = 1 exactly.

    Ideal/irreducibility analysis for this model lives on the coefficient
    sequence side: expanding along an orthonormal wave family turns the
    shift into a semigroup on sequences, where the standard basis vectors
    are positive even though the waves themselves change sign.  Each
    element of condition_basis() therefore *represents* a positive
    sequence-side basis vector, and condition_probe() returns the exact
    rational matrix entry <e_j, T(t) e_k> of the conjugated semigroup,
    read from the lattice correlation of the two waves (shifted_pairing);
    pairing_support() reads each pair's nonzero times from its knots.
    `depth` sets the dense cell matrices and admissible_times().
    """

    envelope = (1.0, 0.0)
    nilpotent_time = _ONE
    exact_arithmetic = True

    def __init__(self, depth: int = 6):
        if depth < 1 or depth > MAX_DEPTH:
            raise DepthExceeded(f"depth {depth} outside 1..{MAX_DEPTH}")
        self.depth = depth

    @property
    def carrier_dim(self):
        return 1 << self.depth

    def apply(self, t, f: PiecewiseConstantFn) -> PiecewiseConstantFn:
        return shift_apply(f, t)

    def apply_adjoint(self, t, phi: PiecewiseConstantFn) -> PiecewiseConstantFn:
        """Right shift: (S(t)' phi)(x) = phi(x-t) on [t,1), zero before."""
        t = _frac(t)
        if t < 0:
            raise ValueError("shift time must be >= 0")
        if t >= 1:
            return PiecewiseConstantFn.zero()
        if t == 0:
            return phi
        bps = [_ZERO, t]
        vals = [_ZERO]
        for a, b, v in phi.pieces():
            if a + t >= 1:
                break
            vals.append(v)
            bps.append(min(b + t, _ONE))
        return PiecewiseConstantFn(bps, vals)

    def zero_vector(self):
        return PiecewiseConstantFn.zero()

    def vec_norm(self, f) -> float:
        return math.sqrt(float(f.l2_norm_sq()))

    def pair(self, phi: PiecewiseConstantFn, f: PiecewiseConstantFn) -> Fraction:
        """Exact L2 pairing <phi, f> as a Fraction."""
        return f.inner(phi)

    def condition_probe(self, t, f, phi) -> Fraction:
        """Exact <phi, S(t) f> from the lattice correlation of f and phi."""
        return shifted_pairing(f, phi, t)

    def pairing_support(self, f, phi) -> PairingSupport:
        """Exact support of t -> <phi, S(t) f>, read from its knot values.

        The pairing is linear between its knots, the differences in [0, 1]
        of a breakpoint of f and one of phi, and zero from t = 1 on.
        """
        knots = sorted({a - b for a in f.breakpoints for b in phi.breakpoints if 0 <= a - b <= 1})
        values = [self.condition_probe(t, f, phi) for t in knots]
        spans = []
        for a, b, va, vb in zip(knots, knots[1:], values, values[1:]):
            if va and vb and (va > 0) != (vb > 0):  # one zero inside, where the sign changes
                c = a + (b - a) * va / (va - vb)
                spans += [(a, c, True, False), (c, b, False, True)]
            elif va or vb:
                spans.append((a, b, va != 0, vb != 0))
        return PairingSupport(tuple(spans), "exact knot values of a pairing linear between knots")

    def vanishing_time(self, f: PiecewiseConstantFn, adjoint: bool) -> Fraction:
        """sup supp f; 1 - inf supp f for the adjoint right shift; 0 for f = 0."""
        if not adjoint or f.is_zero:
            return vanishing_time(f)
        return _ONE - next(a for a, _b, v in f.pieces() if v)

    def admissible_times(self, candidates):
        """Round each candidate to the nearest dyadic t = m / 2**depth."""
        den = 1 << self.depth
        out = set()
        for t in candidates:
            q = Fraction(round(float(t) * den), den)
            if q >= 0:
                out.add(q)
        return sorted(out)

    def check_positive(self, f, label: str = "vector"):
        """Positive = nonnegative step function, or a wave standing for a
        positive sequence-side basis vector (see class docstring)."""
        if not isinstance(f, PiecewiseConstantFn):
            raise PremiseViolation(f"{label} must be a step function")
        if f.is_zero:
            raise PremiseViolation(f"{label} must be nonzero")
        if all(v >= 0 for v in f.values):
            return
        for k in range(1, min(self.depth, 12) + 1):
            if f == rademacher(k):
                return
        for n in range(min(1 << self.depth, 64)):
            if f == walsh(n):
                return
        raise PremiseViolation(
            f"{label} is sign-changing and not a recognized basis wave"
        )

    def cell_indicator(self, i: int) -> PiecewiseConstantFn:
        cells = 1 << self.depth
        if not (0 <= i < cells):
            raise ValueError("cell index out of range")
        bps = [_ZERO]
        vals = []
        a = Fraction(i, cells)
        b = Fraction(i + 1, cells)
        if a > 0:
            vals.append(_ZERO)
            bps.append(a)
        vals.append(_ONE)
        bps.append(b)
        if b < 1:
            vals.append(_ZERO)
            bps.append(_ONE)
        return PiecewiseConstantFn(bps, vals)

    def to_dense(self, t):
        """Shift matrix on the 2^depth dyadic cells; t must be a multiple of the cell width."""
        t = _frac(t)
        cells = 1 << self.depth
        steps = t * cells
        if steps.denominator != 1:
            raise ValueError("time is not a multiple of the cell width")
        p = int(steps)
        M = np.zeros((cells, cells))
        for i in range(cells):
            if 0 <= i + p < cells:
                M[i, i + p] = 1.0
        return M

    def default_test_vectors(self):
        return [self.cell_indicator(0), PiecewiseConstantFn.constant(1)]

    def condition_basis(self):
        """The first four square waves, the weak conditions' test vectors."""
        return [rademacher(k) for k in range(1, 5)]

    def positivity_probe(self, t):
        # The shift maps nonnegative step functions to nonnegative ones by
        # construction; probe over the dyadic cell matrix when available.
        t = _frac(t)
        cells = 1 << self.depth
        if (t * cells).denominator == 1:
            M = self.to_dense(t)
            idx = np.unravel_index(int(np.argmin(M)), M.shape)
            return float(M[idx]), (int(idx[0]), int(idx[1])), True
        return 0.0, None, True
