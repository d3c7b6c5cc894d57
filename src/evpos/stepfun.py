"""Exact rational step functions on [0,1) and the left-shift semigroup.

A step function lives on its integer lattice: the cell edges 0 = e_0 <
... < e_k = L of its merged pieces, L the lcm of its breakpoint
denominators, and the numerators D v_i of its values, D their lcm
denominator.  Sums, products, shifts, pairings, pairing supports and wave
checks are integer run-length merges, so pairings, norms and vanishing
times are exact certificates; a Fraction is built only for a returned
value, and breakpoints, values and pieces() are Fraction views.
The square-wave family r_1, r_2, ... (sign flips at k/2^n) is orthonormal
but NOT complete in L^2(0,1); the product family w_0, w_1, ... (binary
products of square waves) is the complete orthonormal extension.  Both are
exposed: completeness-style checks should use the product family, raw
pairing diagnostics the square waves.

The left shift (S(t)f)(x) = f(x+t), truncated at 1, is nilpotent: S(t) = 0
for t >= 1 exactly.  On the joint lattice of L cells, t -> <phi, S(t)f> is
linear between the knots m/L and zero for t >= 1.  A knot value is the sum
of u_i v_j |overlap| over the runs of f shifted by m cells and the runs of
phi that they overlap: one sweep of the two run lists.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import chain, repeat

import numpy as np

from .errors import DepthExceeded, InputError, PremiseViolation
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


def check_depth(depth: int) -> int:
    """`depth` if it lies in 1..MAX_DEPTH; an InputError otherwise."""
    if not 1 <= depth <= MAX_DEPTH:
        raise InputError(f"--depth must be in 1..{MAX_DEPTH}, got {depth}")
    return depth


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


def _time(t) -> Fraction:
    t = _frac(t)
    if t.numerator < 0:
        raise ValueError("shift time must be >= 0")
    return t


class PiecewiseConstantFn:
    """Canonical step function on [0,1): rational breakpoints, rational values.

    Piece i is [edges[i]/lattice, edges[i+1]/lattice) with value nums[i]/den.
    Equal neighbours are merged and lattice and den are least, so equality
    of representations is equality of functions.
    """

    def __init__(self, breakpoints, values):
        bps = [_frac(b) for b in breakpoints]
        vals = [_frac(v) for v in values]
        if len(bps) != len(vals) + 1:
            raise ValueError("need one more breakpoint than values")
        if bps[0] != 0 or bps[-1] != 1:
            raise ValueError("domain must be exactly [0,1]")
        L = math.lcm(*(b.denominator for b in bps))
        D = math.lcm(*(v.denominator for v in vals))
        edges = [b.numerator * (L // b.denominator) for b in bps]
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        fn = _merged(L, edges, D, [v.numerator * (D // v.denominator) for v in vals])
        self._set(fn.lattice, fn.edges, fn.den, fn.nums)

    def _set(self, L: int, edges, D: int, nums) -> None:
        self.lattice, self.edges, self.den, self.nums = L, tuple(edges), D, tuple(nums)
        self._cells = None

    @classmethod
    def _of(cls, L: int, edges, D: int, nums) -> "PiecewiseConstantFn":
        """The function of integer data already in canonical form (see _merged)."""
        fn = cls.__new__(cls)
        fn._set(L, edges, D, nums)
        return fn

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls) -> "PiecewiseConstantFn":
        return cls._of(1, (0, 1), 1, (0,))

    @classmethod
    def constant(cls, c) -> "PiecewiseConstantFn":
        c = _frac(c)
        return cls._of(1, (0, 1), c.denominator, (c.numerator,))

    # -- Fraction views -----------------------------------------------
    @functools.cached_property
    def breakpoints(self) -> tuple:
        return tuple(Fraction(e, self.lattice) for e in self.edges)

    @functools.cached_property
    def values(self) -> tuple:
        return tuple(Fraction(n, self.den) for n in self.nums)

    def pieces(self):
        bps = self.breakpoints
        return zip(bps, bps[1:], self.values)

    # -- basic queries ------------------------------------------------
    def value_at(self, x) -> Fraction:
        x = _frac(x)
        if not (0 <= x < 1):
            raise ValueError("argument outside [0,1)")
        cell = x.numerator * self.lattice // x.denominator
        return Fraction(self.nums[bisect_right(self.edges, cell) - 1], self.den)

    @property
    def is_zero(self) -> bool:
        return self.nums == (0,)

    def _on(self, L: int) -> tuple:
        """The cell edges on the finer lattice of L cells (L a multiple of `lattice`)."""
        r = L // self.lattice
        return self.edges if r == 1 else tuple(e * r for e in self.edges)

    # -- arithmetic ---------------------------------------------------
    def _refine(self, other):
        """(L, edges, pairs): the common refinement on the joint lattice, (u, v) per piece."""
        L = math.lcm(self.lattice, other.lattice)
        fe, ge, fv, gv = self._on(L), other._on(L), self.nums, other.nums
        edges, pairs = [0], []
        i = j = 0
        while i < len(fv):
            a, b = fe[i + 1], ge[j + 1]
            edges.append(min(a, b))
            pairs.append((fv[i], gv[j]))
            i += a <= b
            j += b <= a
        return L, edges, pairs

    def __add__(self, other):
        L, edges, pairs = self._refine(other)
        D = math.lcm(self.den, other.den)
        a, b = D // self.den, D // other.den
        return _merged(L, edges, D, [u * a + v * b for u, v in pairs])

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "PiecewiseConstantFn":
        c = _frac(c)
        nums = [c.numerator * n for n in self.nums]
        return _merged(self.lattice, self.edges, c.denominator * self.den, nums)

    def product(self, other) -> "PiecewiseConstantFn":
        L, edges, pairs = self._refine(other)
        return _merged(L, edges, self.den * other.den, [u * v for u, v in pairs])

    def integral(self) -> Fraction:
        return self.inner(PiecewiseConstantFn.constant(1))

    def inner(self, other) -> Fraction:
        L = math.lcm(self.lattice, other.lattice)
        total = _knot(self._on(L), self.nums, other._on(L), other.nums, 0)
        return Fraction(total, L * self.den * other.den)

    def l2_norm_sq(self) -> Fraction:
        return self.inner(self)

    def cells(self):
        """(L, D, nums): the values times D on the L cells of width 1/L.

        L is the lcm of the breakpoint denominators and D that of the
        values, so nums is a tuple of integers.  nums is None when L
        exceeds 2^MAX_DEPTH cells.  Computed once per instance.
        """
        if self._cells is None:
            e = self.edges
            runs = (repeat(n, e[i + 1] - e[i]) for i, n in enumerate(self.nums))
            nums = tuple(chain.from_iterable(runs)) if self.lattice <= 1 << MAX_DEPTH else None
            self._cells = (self.lattice, self.den, nums)
        return self._cells

    def support_sup(self) -> Fraction:
        """sup of the support; 0 for the zero function."""
        nonzero = [i for i, n in enumerate(self.nums) if n]
        return Fraction(self.edges[nonzero[-1] + 1], self.lattice) if nonzero else _ZERO

    def __eq__(self, other):
        if not isinstance(other, PiecewiseConstantFn):
            return NotImplemented
        a, b = self, other
        return (a.lattice, a.den, a.edges, a.nums) == (b.lattice, b.den, b.edges, b.nums)

    def __hash__(self):
        return hash((self.lattice, self.den, self.edges, self.nums))

    def __repr__(self):
        parts = ", ".join(f"[{a},{b}):{v}" for a, b, v in self.pieces())
        return f"PiecewiseConstantFn({parts})"


def _merged(L: int, edges, D: int, nums) -> PiecewiseConstantFn:
    """The function with integer edges on L cells and values nums/D, in canonical
    form: equal neighbours merged, L and D least."""
    me, mv = [0], []
    for e, v in zip(edges[1:], nums):
        if mv and v == mv[-1]:
            me[-1] = e
        else:
            mv.append(v)
            me.append(e)
    g, h = math.gcd(L, *me), math.gcd(D, *mv)
    return PiecewiseConstantFn._of(L // g, [e // g for e in me], D // h, [v // h for v in mv])


def _knot(fe, fv, pe, pv, m: int) -> int:
    """sum over cells c of F_{c+m} P_c for F, P given by runs on one lattice.

    fe, pe are the run edges (both ending at the cell count N), fv, pv the
    run numerators; F is read as zero past N.  One sweep over the runs of F
    from cell m on and those of P from cell 0 on.
    """
    end = fe[-1] - m
    i = bisect_right(fe, m) - 1
    j = lo = total = 0
    while lo < end:
        a, b = fe[i + 1] - m, pe[j + 1]
        hi = a if a < b else b
        total += fv[i] * pv[j] * (hi - lo)
        lo = hi
        i += a == hi
        j += b == hi
    return total


def rademacher(n: int) -> PiecewiseConstantFn:
    """Square wave with sign flips at k/2^n: +1 on [0, 2^-n), then alternating."""
    if n < 1:
        raise ValueError("index must be >= 1")
    if n > MAX_DEPTH:
        raise DepthExceeded(f"index {n} exceeds depth cap {MAX_DEPTH}")
    pieces = 1 << n
    return PiecewiseConstantFn._of(pieces, range(pieces + 1), 1, (1, -1) * (pieces >> 1))


def walsh(n: int) -> PiecewiseConstantFn:
    """Binary-product family: bit i of n (value 2^i) contributes factor r_{i+1}."""
    if n < 0:
        raise ValueError("index must be >= 0")
    if n.bit_length() > MAX_DEPTH:
        raise DepthExceeded(f"index {n.bit_length()} exceeds depth cap {MAX_DEPTH}")
    # each bit halves every cell; a set bit i multiplies the halves by r_{i+1} = +1, -1
    signs = [1]
    for i in range(n.bit_length()):
        signs = [x for v in signs for x in (v, -v if n >> i & 1 else v)]
    return _merged(len(signs), range(len(signs) + 1), 1, signs)


def shift_apply(f: PiecewiseConstantFn, t) -> PiecewiseConstantFn:
    """(S(t)f)(x) = f(x+t) for x < 1-t, zero beyond; exactly zero for t >= 1."""
    t = _time(t)
    if t >= 1:
        return PiecewiseConstantFn.zero()
    if t == 0:
        return f
    L = math.lcm(f.lattice, t.denominator)
    s = t.numerator * (L // t.denominator)
    edges = f._on(L)
    i = bisect_right(edges, s) - 1
    return _merged(L, [0, *(e - s for e in edges[i + 1 :]), L], f.den, [*f.nums[i:], 0])


def shifted_pairing(f: PiecewiseConstantFn, phi: PiecewiseConstantFn, t) -> Fraction:
    """Exact <phi, S(t) f> from the runs of the two functions.

    On the joint lattice of L cells the pairing at the knot m/L is
    sum_c f_{c+m} phi_c / L, and between knots it is linear; it vanishes
    for t >= 1.  Equals shift_apply(f, t).inner(phi).
    """
    t = _time(t)
    n, d = t.numerator, t.denominator
    if n >= d:
        return _ZERO
    L = math.lcm(f.lattice, phi.lattice)
    fe, pe = f._on(L), phi._on(L)
    scale = L * f.den * phi.den
    m, r = divmod(n * L, d)
    lo = _knot(fe, f.nums, pe, phi.nums, m)
    hi = _knot(fe, f.nums, pe, phi.nums, m + 1) if r else 0
    return Fraction((d - r) * lo + r * hi, d * scale)


def pairing(k: int, j: int, t) -> Fraction:
    """Exact <S(t) r_k, r_j> over the square-wave family, from the runs of the two waves."""
    return shifted_pairing(rademacher(k), rademacher(j), t)


def irreducibility_witness_search(k: int, j: int, depth: int):
    """First t in (0,1) from the dyadic scan with pairing(k, j, t) != 0.

    Scans m/2^depth for m = 1 .. 2^depth - 1 in increasing order, which
    includes the near-1 points 1 - 1/2^i for i <= depth.  Returns the
    exact witness time, or None when the scan is exhausted.  Every scan
    time is a knot of the joint lattice, so each step is one integer knot.
    """
    if depth < 1 or depth > MAX_DEPTH:
        raise DepthExceeded(f"depth {depth} outside 1..{MAX_DEPTH}")
    f, phi = rademacher(k), rademacher(j)
    den = 1 << depth
    L = max(f.lattice, phi.lattice, den)
    fe, pe, step = f._on(L), phi._on(L), L // den
    for m in range(1, den):
        if _knot(fe, f.nums, pe, phi.nums, m * step):
            return Fraction(m, den)
    return None


def vanishing_time(f: PiecewiseConstantFn) -> Fraction:
    """Exact time at which the shifted function becomes identically zero.

    Equals sup(support f): S(t)f = 0 iff t >= that value.  Every g with
    |g| <= c|f| inherits the same uniform vanishing time.
    """
    return f.support_sup()


def _is_wave(f: PiecewiseConstantFn) -> bool:
    """f = walsh(n) for some n < 2^MAX_DEPTH (r_k is walsh(2^(k-1))); at x = 2^-(i+1)
    only the factor r_{i+1} is -1, so f(x) < 0 there sets bit i of n."""
    K = f.lattice.bit_length() - 1
    if f.den != 1 or f.lattice != 1 << K or K > MAX_DEPTH or set(f.nums) - {1, -1}:
        return False
    return f == walsh(sum(1 << i for i in range(K) if f.value_at(Fraction(1, 2 << i)) < 0))


class ShiftStepProvider(SemigroupProvider):
    """Left-shift semigroup on step functions; nilpotent at t = 1 exactly.

    Ideal/irreducibility analysis for this model lives on the coefficient
    sequence side: expanding along an orthonormal wave family turns the
    shift into a semigroup on sequences, where the standard basis vectors
    are positive even though the waves themselves change sign.  Each
    element of condition_basis() therefore *represents* a positive
    sequence-side basis vector, and condition_probe() returns the exact
    rational matrix entry <e_j, T(t) e_k> of the conjugated semigroup,
    read from the runs of the two waves (shifted_pairing);
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
        t = _time(t)
        if t >= 1:
            return PiecewiseConstantFn.zero()
        if t == 0:
            return phi
        L = math.lcm(phi.lattice, t.denominator)
        s = t.numerator * (L // t.denominator)
        edges = phi._on(L)
        keep = bisect_left(edges, L - s)  # the pieces that start before 1 - t
        return _merged(L, [0, *(e + s for e in edges[:keep]), L], phi.den, [0, *phi.nums[:keep]])

    def zero_vector(self):
        return PiecewiseConstantFn.zero()

    def vec_norm(self, f) -> float:
        return math.sqrt(float(f.l2_norm_sq()))

    def pair(self, phi: PiecewiseConstantFn, f: PiecewiseConstantFn) -> Fraction:
        """Exact L2 pairing <phi, f> as a Fraction."""
        return f.inner(phi)

    def condition_probe(self, t, f, phi) -> Fraction:
        """Exact <phi, S(t) f> from the runs of f and phi."""
        return shifted_pairing(f, phi, t)

    def pairing_support(self, f, phi) -> PairingSupport:
        """Exact support of t -> <phi, S(t) f>, read from its knot values.

        The pairing is linear between its knots, the differences in [0, 1]
        of a breakpoint of f and one of phi, and zero from t = 1 on.  On
        the joint lattice of L cells the knots are the integer edge
        differences m in [0, L], and their values the integer knot sums,
        positive multiples of the pairing that keep its signs and zeros.
        """
        L = math.lcm(f.lattice, phi.lattice)
        fe, pe = f._on(L), phi._on(L)
        knots = sorted({a - b for a in fe for b in pe if a >= b})
        values = [_knot(fe, f.nums, pe, phi.nums, m) for m in knots]
        times = [Fraction(m, L) for m in knots]
        spans = []
        for i, (va, vb) in enumerate(zip(values, values[1:])):
            if va and vb and (va > 0) != (vb > 0):  # one zero inside, where the sign changes
                c = Fraction(knots[i + 1] * va - knots[i] * vb, (va - vb) * L)
                spans += [(times[i], c, True, False), (c, times[i + 1], False, True)]
            elif va or vb:
                spans.append((times[i], times[i + 1], va != 0, vb != 0))
        return PairingSupport(tuple(spans), "exact knot values of a pairing linear between knots")

    def vanishing_time(self, f: PiecewiseConstantFn, adjoint: bool) -> Fraction:
        """sup supp f; 1 - inf supp f for the adjoint right shift; 0 for f = 0."""
        if not adjoint or f.is_zero:
            return vanishing_time(f)
        return _ONE - Fraction(f.edges[next(i for i, n in enumerate(f.nums) if n)], f.lattice)

    def admissible_times(self, candidates):
        """Round each candidate to the nearest dyadic t = m / 2**depth."""
        den = 1 << self.depth
        return sorted({q for t in candidates if (q := Fraction(round(float(t) * den), den)) >= 0})

    def check_positive(self, f, label: str = "vector"):
        """Positive = nonnegative step function, or a wave r_k or w_n with
        factors up to r_MAX_DEPTH standing for a positive sequence-side
        basis vector (see class docstring)."""
        if not isinstance(f, PiecewiseConstantFn):
            raise PremiseViolation(f"{label} must be a step function")
        if f.is_zero:
            raise PremiseViolation(f"{label} must be nonzero")
        if min(f.nums) >= 0 or _is_wave(f):
            return
        raise PremiseViolation(
            f"{label} is sign-changing and not a recognized basis wave"
        )

    def cell_indicator(self, i: int) -> PiecewiseConstantFn:
        cells = 1 << self.depth
        if not (0 <= i < cells):
            raise ValueError("cell index out of range")
        edges = sorted({0, i, i + 1, cells})
        return PiecewiseConstantFn._of(cells, edges, 1, [int(e == i) for e in edges[:-1]])

    def to_dense(self, t):
        """Shift matrix on the 2^depth dyadic cells; t must be a multiple of the cell width."""
        t = _frac(t)
        cells = 1 << self.depth
        steps = t * cells
        if steps.denominator != 1:
            raise ValueError("time is not a multiple of the cell width")
        return np.eye(cells, k=int(steps))

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
