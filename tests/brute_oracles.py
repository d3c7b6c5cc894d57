"""Brute-force and frozen oracles.

Invariant ideals: the package reads them as the unions of the columns of
one reachability matrix of the entry digraph.  brute_force_ideals instead
tests every one of the 2^n coordinate subsets against the zero-pattern
criterion (ideal_leak), sharing no reachability code with the production
route.

Coupled lattice orbits: ListOrbitProvider is the lattice path of
CoupledProvider as first written, with every range orbit, seed flow and
coefficient kept as a Python list of carrier vectors and every sum taken
componentwise over product vectors.  The package keeps the same numbers
in stacked arrays; its values, support floors and gauges must equal
these bit for bit.

Pairing supports: linear_first_at_or_after walks every span of a
PairingSupport from the first, as first_at_or_after was first written;
the package bisects on the span ends and must return the same time.

Step functions: FractionStepFn is the step-function arithmetic as first
written, with every breakpoint and value a fractions.Fraction, products
and sums over the merged breakpoint set, and a pairing <phi, S(t) f> as
the integral of the shifted function times phi.  The package computes on
integer lattices; its Fraction views and results must equal these.

Report JSON: reference_report_text is the report writer as first
written, a copy of the whole value into JSON-safe types followed by
json.dumps(sort_keys=True, indent=2).  The package writes in one pass;
its text must equal this byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
import math
from enum import Enum
from fractions import Fraction

import numpy as np

from evpos.errors import ExpmOverflow, PremiseViolation
from evpos.gammashift import GridFunction
from evpos.irreducibility import ideal_leak
from evpos.lattice import IdealMask, as_matrix
from evpos.perturbation import ProductVector


def brute_force_ideals(A, tol: float = 0.0) -> list:
    """Every invariant coordinate ideal of A, sorted by size and then members."""
    A = as_matrix(A)
    n = A.shape[0]
    found = []
    for bits in range(1 << n):
        mask = IdealMask.of([i for i in range(n) if bits >> i & 1], n)
        if ideal_leak(A, mask, tol) is None:
            found.append(mask)
    return sorted(found, key=lambda m: (len(m), m.sorted_members()))


def linear_first_at_or_after(support, t0):
    """support.first_at_or_after(t0) from a walk over every span, the first one first."""
    for lo, hi, lo_in, hi_in in support.spans:
        t = t0 if t0 > lo or (t0 == lo and lo_in) else lo if lo_in else hi
        if support.step is not None:
            t = math.ceil(t / support.step - 1e-9) * support.step
        if t < hi or (t == hi and hi_in):
            return t
    return None


# --------------------------------------------------------------------------
# coupled lattice orbits from per-step vector lists
# --------------------------------------------------------------------------


def _lattice_weights(q: int, h: float) -> np.ndarray:
    """Simpson weights for even q, Simpson plus a 3/8 tail for odd q >= 3, trapezoid at q = 1."""
    if q < 1:
        return np.zeros(max(q + 1, 1))
    if q == 1:
        return np.array([0.5, 0.5]) * h
    w = np.zeros(q + 1)
    if q % 2 == 0:
        w[0] = w[q] = 1.0 / 3.0
        w[1:q:2] = 4.0 / 3.0
        w[2 : q - 1 : 2] = 2.0 / 3.0
        return w * h
    if q == 3:
        return np.array([3.0, 9.0, 9.0, 3.0]) / 8.0 * h
    w[: q - 2] = _lattice_weights(q - 3, 1.0)
    w[q - 3 :] += np.array([3.0, 9.0, 9.0, 3.0]) / 8.0
    return w * h


def _renewal_rules(q: int, h: float) -> np.ndarray:
    """Rows: the lattice weights of step q, and their distance to a plain trapezoid."""
    w = _lattice_weights(q, h)
    trap = np.full(q + 1, h)
    trap[0] = trap[q] = 0.5 * h
    return np.stack([w, w - trap])


def list_weighted_sums(vectors: list, rules: np.ndarray) -> list:
    """[sum_j w[j] vectors[j] for w in rules], reduced component by component.

    Product vectors are summed per carrier, grid functions keep the
    smallest support floor of their summands, and each array component is
    stacked and reduced over its first axis from -0.0 (one-entry rows by
    the sequential accumulate).
    """
    head = vectors[0]
    if isinstance(head, ProductVector):
        firsts = list_weighted_sums([v.first for v in vectors], rules)
        seconds = list_weighted_sums([v.second for v in vectors], rules)
        return [ProductVector(a, b) for a, b in zip(firsts, seconds)]
    if isinstance(head, GridFunction):
        floor = min(v.support_lo for v in vectors)
        sums = list_weighted_sums([v.samples for v in vectors], rules)
        return [GridFunction(head.grid, x, floor) for x in sums]
    stack = np.stack(vectors).reshape(len(vectors), -1)
    out = []
    for w in rules:
        scaled = stack * w[:, None]
        if stack.shape[1] < 2:
            total = np.add.accumulate(scaled, axis=0)[-1]
        else:
            total = np.add.reduce(scaled, axis=0, initial=-0.0)
        out.append(total.reshape(head.shape))
    return out


def _all_finite(v) -> bool:
    if isinstance(v, ProductVector):
        return _all_finite(v.first) and _all_finite(v.second)
    if isinstance(v, GridFunction):
        return bool(np.isfinite(v.samples).all())
    return bool(np.isfinite(v).all())


class ListFiniteRange:
    """B = U Phi through its range: orbits [T(m h) u_k] as one list per step."""

    def __init__(self, range_step, coefficients, rank: int):
        self.range_step = range_step
        self.coefficients = coefficients
        self.rank = rank
        self.orbits = []
        self._kernel = np.zeros((0, rank, rank))
        self._inverses = {}

    def orbit(self, m: int) -> list:
        while len(self.orbits) <= m:
            self.orbits.append(self.range_step(len(self.orbits)))
        return self.orbits[m]

    def kernel(self, p: int) -> np.ndarray:
        done = len(self._kernel)
        if done <= p:
            r = self.rank
            new = [
                np.array([self.coefficients(v) for v in self.orbit(m)]).reshape(r, r).T
                for m in range(done, p + 1)
            ]
            self._kernel = np.concatenate([self._kernel, new])
        return self._kernel[: p + 1]

    def step_inverse(self, w: float) -> np.ndarray:
        inv = self._inverses.get(w)
        if inv is None:
            wk = w * self.kernel(0)[0]
            rho = float(np.max(np.abs(np.linalg.eigvals(wk)), initial=0.0))
            if rho >= 1.0:
                raise PremiseViolation(f"w K(0) has spectral radius {rho:.6g} >= 1")
            inv = np.linalg.inv(np.eye(self.rank) - wk)
            self._inverses[w] = inv
        return inv

    def next_coefficients(self, coeffs: np.ndarray, h: float) -> np.ndarray:
        q = len(coeffs) - 1
        kernel = self.kernel(q)
        out = np.zeros_like(coeffs)
        for p in range(1, q + 1):
            weighted = _lattice_weights(p, h)[:, None, None] * kernel[p::-1]
            out[p] = np.tensordot(weighted, coeffs[: p + 1], axes=([0, 2], [0, 1]))
        return out


class ListSeedOrbit:
    """One seed's renewal c(p) = Phi S(p h) f, solved step by step, and its values.

    The flows are a list of product vectors, and the history is re-stacked
    from a list at every step.
    """

    def __init__(self, apply_t, finite_range: ListFiniteRange, seed, h: float):
        self.apply_t, self.seed = apply_t, seed
        self.range = finite_range
        self.h = h
        self.flows, self.base, self.coeffs = [], [], []

    def _flow(self, p: int):
        while len(self.flows) <= p:
            self.flows.append(self.apply_t(len(self.flows), self.seed))
        return self.flows[p]

    def fill(self, q: int) -> None:
        for p in range(len(self.coeffs), q + 1):
            b = self.range.coefficients(self._flow(p))
            c = b
            if p:
                w = _lattice_weights(p, self.h)
                history = np.array(self.coeffs)
                kernel = self.range.kernel(p)[p:0:-1]
                c = b + np.einsum("j,jab,jb...->a...", w[:p], kernel, history)
                c = self.range.step_inverse(float(w[p])) @ c
            if not np.isfinite(c).all():
                raise ExpmOverflow(f"coupling coefficients at t = {p * self.h:g} overflowed")
            self.base.append(b)
            self.coeffs.append(c)

    def at(self, q: int):
        """(S(q h) f, its gap to the trapezoid rule), the gap None at q = 0."""
        self.fill(q)
        if q == 0:
            return self.flows[0].copy(), None
        C = np.array(self.coeffs[: q + 1])
        nodes, ks = np.nonzero(C)
        vectors = [self.flows[q]] + [
            self.range.orbit(q - j)[k] for j, k in zip(nodes.tolist(), ks.tolist())
        ]
        rules = np.hstack([[[1.0], [0.0]], _renewal_rules(q, self.h)[:, nodes] * C[nodes, ks]])
        total, gap = list_weighted_sums(vectors, rules)
        if not _all_finite(total):
            raise ExpmOverflow(f"the orbit at t = {q * self.h:g} overflowed")
        return total, gap


class ListOrbitProvider:
    """The lattice evaluations of CoupledProvider(system), kept in lists.

    apply(t, f) and to_dense(t) return (value, quadrature gauge);
    terms_alive(f, t) counts the surviving series terms.  The carriers
    of `system` are applied directly.  The dense operator is the column
    stack of the list orbits of the stacked unit vectors, and its gauge
    the largest |entry| of their gaps.
    """

    def __init__(self, system):
        self.system = system
        self.h = system.provider2.grid.h if hasattr(system.provider2, "grid") else system.provider1.grid.h
        b12, b21 = system.b12, system.b21
        self.range = ListFiniteRange(
            self._range_step,
            lambda v: np.concatenate([b12.coefficients(v.second), b21.coefficients(v.first)]),
            len(b12.range_vectors) + len(b21.range_vectors),
        )
        self.orbits = {}

    def _apply_steps(self, m, v):
        p1, p2 = self.system.provider1, self.system.provider2
        return ProductVector(p1.apply(m * self.h, v.first), p2.apply(m * self.h, v.second))

    def _range_step(self, m):
        t = m * self.h
        p1, p2 = self.system.provider1, self.system.provider2
        z1, z2 = p1.zero_vector(), p2.zero_vector()
        return [ProductVector(p1.apply(t, u), z2) for u in self.system.b12.range_vectors] + [
            ProductVector(z1, p2.apply(t, u)) for u in self.system.b21.range_vectors
        ]

    def _vec_norm(self, f):
        return max(self.system.provider1.vec_norm(f.first), self.system.provider2.vec_norm(f.second))

    def _stack(self, f):
        parts = [x.samples if isinstance(x, GridFunction) else np.asarray(x) for x in (f.first, f.second)]
        return np.concatenate(parts)

    def _orbit(self, f):
        key = (self._stack(f).tobytes(),)
        if key not in self.orbits:
            self.orbits[key] = ListSeedOrbit(self._apply_steps, self.range, f.copy(), self.h)
        return self.orbits[key]

    def apply(self, t, f):
        total, gap = self._orbit(f).at(int(round(t / self.h)))
        return total, 0.0 if gap is None else self._vec_norm(gap)

    def terms_alive(self, f, t):
        q = int(round(t / self.h))
        orbit = self._orbit(f)
        orbit.fill(q)
        c = np.array(orbit.base[: q + 1])
        for alive in range(1, c.size + 2):
            if not c.any():
                return alive
            c = self.range.next_coefficients(c, self.h)
        return None

    def _unit(self, j: int, dim: int):
        """The j-th stacked unit vector as a product vector."""
        row = np.eye(dim)[j]
        n1 = self.system.dim1
        carriers = (self.system.provider1, self.system.provider2)
        parts = [
            GridFunction(p.grid, x) if hasattr(p, "grid") else x
            for p, x in zip(carriers, (row[:n1], row[n1:]))
        ]
        return ProductVector(*parts)

    def to_dense(self, t):
        q = int(round(t / self.h))
        dim = self.system.dim1 + self.system.dim2
        dense, gauge = np.empty((dim, dim)), 0.0
        for j in range(dim):
            total, gap = self._orbit(self._unit(j, dim)).at(q)
            dense[:, j] = self._stack(total)
            if gap is not None:
                gauge = max(gauge, float(np.max(np.abs(self._stack(gap)), initial=0.0)))
        return dense, gauge


# --------------------------------------------------------------------------
# step functions in Fraction arithmetic
# --------------------------------------------------------------------------


class FractionStepFn:
    """Step function on [0,1) as merged Fraction breakpoints and values."""

    def __init__(self, breakpoints, values):
        bps, vals = [Fraction(b) for b in breakpoints], [Fraction(v) for v in values]
        assert len(bps) == len(vals) + 1 and bps[0] == 0 and bps[-1] == 1
        assert all(b2 > b1 for b1, b2 in zip(bps, bps[1:]))
        mb, mv = [bps[0]], []
        for b, v in zip(bps[1:], vals):
            if mv and v == mv[-1]:
                mb[-1] = b
            else:
                mv.append(v)
                mb.append(b)
        self.breakpoints, self.values = tuple(mb), tuple(mv)

    def __eq__(self, other):
        return (self.breakpoints, self.values) == (other.breakpoints, other.values)

    def pieces(self):
        for i, v in enumerate(self.values):
            yield self.breakpoints[i], self.breakpoints[i + 1], v

    def value_at(self, x) -> Fraction:
        return next(v for a, b, v in self.pieces() if a <= x < b)

    def _zip(self, other, op) -> "FractionStepFn":
        bps = sorted(set(self.breakpoints) | set(other.breakpoints))
        vals = [op(self.value_at(a), other.value_at(a)) for a in bps[:-1]]
        return FractionStepFn(bps, vals)

    def __add__(self, other) -> "FractionStepFn":
        return self._zip(other, lambda u, v: u + v)

    def product(self, other) -> "FractionStepFn":
        return self._zip(other, lambda u, v: u * v)

    def scale(self, c) -> "FractionStepFn":
        return FractionStepFn(self.breakpoints, [c * v for v in self.values])

    def integral(self) -> Fraction:
        return sum((v * (b - a) for a, b, v in self.pieces()), Fraction(0))

    def inner(self, other) -> Fraction:
        return self.product(other).integral()

    def cells(self):
        """(L, D, nums) on the L cells of the breakpoint lattice; nums None past 2^20 cells."""
        L = math.lcm(*(b.denominator for b in self.breakpoints))
        D = math.lcm(*(v.denominator for v in self.values))
        if L > 1 << 20:
            return L, D, None
        nums = []
        for a, b, v in self.pieces():
            nums.extend([int(v * D)] * int((b - a) * L))
        return L, D, tuple(nums)

    def shift(self, t) -> "FractionStepFn":
        """x -> f(x + t) on [0, 1 - t), zero beyond."""
        if t >= 1:
            return FractionStepFn([0, 1], [0])
        bps, vals = [Fraction(0)], []
        for a, b, v in self.pieces():
            if b > t:
                vals.append(v)
                bps.append(b - t)
        if bps[-1] != 1:
            vals.append(Fraction(0))
            bps.append(Fraction(1))
        return FractionStepFn(bps, vals)

    def shifted_pairing(self, phi, t) -> Fraction:
        """<phi, S(t) f> as the integral of the shifted function times phi."""
        return self.shift(t).inner(phi)

    def pairing_support_spans(self, phi) -> tuple:
        """Spans of the nonzero times of t -> <phi, S(t) f>, read from its values at
        the breakpoint differences in [0, 1], between which it is linear."""
        knots = sorted({a - b for a in self.breakpoints for b in phi.breakpoints if 0 <= a - b <= 1})
        values = [self.shifted_pairing(phi, t) for t in knots]
        spans = []
        for a, b, va, vb in zip(knots, knots[1:], values, values[1:]):
            if va and vb and (va > 0) != (vb > 0):
                c = a + (b - a) * va / (va - vb)
                spans += [(a, c, True, False), (c, b, False, True)]
            elif va or vb:
                spans.append((a, b, va != 0, vb != 0))
        return tuple(spans)


# --------------------------------------------------------------------------
# report JSON through a JSON-safe copy and json.dumps
# --------------------------------------------------------------------------


def _jsonable(obj):
    """Recursively convert report objects to JSON-safe values.

    Floats that JSON cannot carry (NaN, infinities) become strings so
    the document still round-trips losslessly.  Numpy scalars are
    unwrapped before the float check, and an array through its tolist()
    value whatever its rank: first written the other way round, a
    non-finite np.float64 became "np.float64(nan)" and a rank-0 array
    raised TypeError.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return _jsonable(obj.item())
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return repr(obj)
        return obj
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
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


def reference_report_text(obj) -> str:
    """The report text of obj, trailing newline included."""
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"
