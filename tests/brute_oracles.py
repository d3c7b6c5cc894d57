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

Analyze routes: the positivity certificate and the dominant projection
as first written, with one LAPACK call per sampled time, per side and
per norm.  reference_certify probes the Metzler times t = 0, 1, 10 one
at a time, and streams the spectral route's deviation samples and then,
once t0 is known, its evidence probes; reference_dominant_projection
refines the right and left eigenvectors apart and takes each residual
2-norm from its own SVD.  The package evaluates each route's samples,
solves and norms as stacks; its certificates, verdicts, projections and
reports must equal these bit for bit.  patch_reference_routes puts them
in the CLI.
"""

from __future__ import annotations

import dataclasses
import json
import math
from enum import Enum
from fractions import Fraction

import numpy as np

from evpos import positivity
from evpos.errors import (
    CertificateMissing,
    ConsistencyViolation,
    EigenSolverFailure,
    ExpmOverflow,
    PremiseViolation,
    check_tol,
)
from evpos.gammashift import GridFunction
from evpos.irreducibility import ideal_leak
from evpos.lattice import IdealMask, as_matrix
from evpos.perturbation import ProductVector
from evpos.positivity import PositivityClass, PositivityVerdict, spectral_certificate
from evpos.semigroup import MatrixSemigroup, TimeGrid
from evpos.spectral import ProjectionReport


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


# --------------------------------------------------------------------------
# the analyze routes with one LAPACK call per time, per side and per norm
# --------------------------------------------------------------------------


def reference_certify(A, grid=None, tol: float = 1e-9):
    """certify_eventual_strong_positivity as first written: the Metzler
    route probes t = 0, 1, 10 one at a time, and the spectral route streams
    its deviation samples and then, once t0 is known, its evidence probes."""
    check_tol(tol)
    A = as_matrix(A)
    n = A.shape[0]
    evals, evecs = np.linalg.eig(A)
    cert = positivity._certificate_from_eig(A, evals, evecs)
    flow = MatrixSemigroup(A - cert.spectral_bound * np.eye(n))
    if flow.is_metzler():
        evidence = []
        for t in (0.0, 1.0, 10.0):
            try:
                mn, idx, _ = flow.positivity_probe(t)
            except ExpmOverflow:
                continue  # the sign criterion is exact; a sample past the double range is dropped
            if mn < -1e-12 * (1.0 + abs(mn)):
                raise ConsistencyViolation(
                    "off-diagonal sign criterion contradicts a sampled operator",
                    witnesses=[(t, idx, mn)],
                )
            evidence.append((t, idx, mn))
        verdict = PositivityVerdict(
            verdict=PositivityClass.POSITIVE,
            onset_t0=0.0,
            evidence=tuple(evidence),
            certified=True,
            notes="off-diagonal entries are nonnegative, so every operator"
            " in the family is positive",
        )
        return cert, verdict

    M = positivity.eigenbasis_growth_constant(evecs)
    positive_pair = cert.dominant_is_real_simple and cert.min_entry_outer > 0.0
    if positive_pair and M < math.inf:
        certified = _reference_strong_verdict(flow, cert, M, n)
        if not isinstance(certified, str):
            return certified
        reason = certified
    elif positive_pair:
        reason = (
            "condition number kappa_2(V) of the eigenbasis is above the cutoff "
            f"{positivity._KAPPA_CUTOFF:g} or not finite, so no deviation constant"
        )
    else:
        reason = cert.notes or "no positive eigenvector certificate"
    sampled = positivity.classify_on_grid(flow, grid=grid, tol=tol)
    sampled = dataclasses.replace(
        sampled,
        notes=(sampled.notes + "; " if sampled.notes else "")
        + f"certificate path inconclusive ({reason})",
    )
    return cert, sampled


def _reference_strong_verdict(flow, cert, M, n):
    gap = cert.spectral_gap
    proj = np.outer(cert.right_vec, cert.left_vec)
    proj_max = float(np.max(np.abs(proj)))
    m_outer = cert.min_entry_outer
    C = M * (1.0 + proj_max) * n
    floor = 1e-12 * (1.0 + proj_max)
    if math.isfinite(gap) and gap > 0:
        t_hi = min(20.0, math.log(max(C / floor, 2.0)) / gap)
    else:
        t_hi = 20.0
    times = np.geomspace(1e-2, max(t_hi, 2e-2), 16)
    for t, m in zip(times, flow.matrices(times)):
        dev = float(np.max(np.abs(m - proj)))
        if dev > max(C * math.exp(-gap * float(t)), floor):
            return f"sampled deviation exceeded the deviation constant at t = {t:.4g}"

    t0 = max(0.0, math.log(C / m_outer) / gap) if math.isfinite(gap) else 0.0
    evidence = []
    times = np.geomspace(max(t0, 1e-3), max(2.0 * t0 + 1.0, t0 + 5.0), 8)
    for t, (mn, idx, _) in zip(times, flow.positivity_probes(times)):
        if mn < -1e-12 * (1.0 + proj_max):
            raise ConsistencyViolation(
                "certified onset contradicted by a sampled rescaled operator",
                witnesses=[(float(t), idx, mn)],
            )
        evidence.append((float(t), idx, mn))

    cert = dataclasses.replace(
        cert,
        onset_constant=C,
        notes=(cert.notes + "; " if cert.notes else "")
        + f"deviation constant C = envelope {M:.6g} * (1 + projection max"
        f" {proj_max:.6g}) * dimension {n}",
    )
    verdict = PositivityVerdict(
        verdict=PositivityClass.UNIFORMLY_EVENTUALLY_STRONGLY_POSITIVE,
        onset_t0=t0,
        evidence=tuple(evidence[:3]),
        certified=True,
        notes=f"rank-one limit certificate: gap {gap:.6g}, min projection"
        f" entry {m_outer:.6g}, onset bound {t0:.6g}",
    )
    return cert, verdict


def reference_inverse_iteration(A: np.ndarray, s: float, v0: np.ndarray) -> np.ndarray:
    """One side's inverse iteration as first written: one solve per step."""
    n = A.shape[0]
    shift = s + 1e-11 * (1.0 + abs(s))
    v = v0 / float(np.linalg.norm(v0))
    for _ in range(3):
        try:
            w = np.linalg.solve(A - shift * np.eye(n), v)
        except np.linalg.LinAlgError:
            shift = shift + 1e-9 * (1.0 + abs(s))
            continue
        nrm = float(np.linalg.norm(w))
        if nrm == 0.0:
            break
        v = w / nrm
    if float(np.dot(v, v0)) < 0.0:
        v = -v
    return v


def reference_dominant_projection(A, expect_positive_eigenvectors=False, certificate=None):
    """dominant_projection as first written: the two sides refined apart,
    and the five 2-norms one SVD each."""
    A = as_matrix(A)
    cert = spectral_certificate(A) if certificate is None else certificate
    if not cert.dominant_is_real_simple:
        raise CertificateMissing(
            "dominant eigenvalue is not certified real and simple"
            + (f": {cert.notes}" if cert.notes else "")
        )
    s = cert.spectral_bound
    u = reference_inverse_iteration(A, s, cert.right_vec)
    phi = reference_inverse_iteration(A.T, s, cert.left_vec)
    scale = 1.0 + float(np.linalg.norm(A, 2)) + abs(s)
    for vec, mat, side in ((u, A, "right"), (phi, A.T, "left")):
        resid = float(np.linalg.norm(mat @ vec - s * vec))
        if resid > 1e-8 * scale:
            raise EigenSolverFailure(f"{side} eigenvector residual {resid:.3e} after refinement")
    k = int(np.argmax(np.abs(u)))
    if u[k] < 0:
        u = -u
        phi = -phi
    pairing = float(np.dot(phi, u))
    if abs(pairing) < 1e-12:
        raise EigenSolverFailure("left/right pairing vanished during refinement")
    phi = phi / pairing
    P = np.outer(u, phi)
    residuals = {
        "idempotent": float(np.linalg.norm(P @ P - P, 2)),
        "eigen_commute": max(
            float(np.linalg.norm(A @ P - s * P, 2)),
            float(np.linalg.norm(P @ A - s * P, 2)),
        ),
        "outer_form": float(np.linalg.norm(P - np.outer(cert.right_vec, cert.left_vec), 2)),
    }
    bad = {k_: v for k_, v in residuals.items() if not (v <= 1e-8 * scale)}
    if bad:
        raise EigenSolverFailure(f"projection residuals exceed tolerance: {bad}")
    notes = f"dominant eigenvalue {s:.9g}, spectral gap {cert.spectral_gap:.6g}"
    if expect_positive_eigenvectors:
        mn_u, mn_phi = float(np.min(u)), float(np.min(phi))
        if mn_u <= 0.0 or mn_phi <= 0.0:
            raise ConsistencyViolation(
                "eigenvectors are not strictly positive although the input was"
                " declared persistently irreducible and eventually positive",
                witnesses=[("min right entry", mn_u), ("min left entry", mn_phi)],
            )
        notes += "; both eigenvectors strictly positive"
    return ProjectionReport(
        eigenvalue=s,
        projection=P,
        rank=1,
        right_vec=u,
        left_vec=phi,
        residuals=residuals,
        notes=notes,
    )


def patch_reference_routes(monkeypatch) -> None:
    """Put the reference routes in the CLI, with its default grid built eagerly as first written."""
    import evpos.cli as cli

    def eager_grid(A, grid=None, tol=1e-9):
        return reference_certify(A, TimeGrid.logspace(t_max=20.0, n=256) if grid is None else grid, tol)

    monkeypatch.setattr(cli, "certify_eventual_strong_positivity", eager_grid)
    monkeypatch.setattr(cli, "dominant_projection", reference_dominant_projection)
