"""Additive bounded perturbations of semigroup generators.

The perturbed family e^{t(A+B)} is evaluated as the series of iterated
convolution terms around the unperturbed flow,

    V_0(t) = T(t),    V_{n+1}(t) = integral_0^t T(t-s) B V_n(s) ds,

with a certified truncation tail from the growth envelope.  Two
quadrature backends share the recursion: an exact-moment panel
collocation scheme for dense matrix carriers, and a positive-weight
composite rule on the carrier's own time lattice for providers that can
only be evaluated at whole grid steps.  The lattice backend computes
each (term, step) of an orbit once and fills later steps as they are
asked for, so its results do not depend on the order of the calls.
It sees the perturbation through its range, B = U Phi, and stores the
coefficients Phi(V_n(p)) of each term.  A finite-rank coupling keeps the
orbits T(m h) u_k of its r range vectors once per step, shared by every
seed, so term n + 1 at step p is one weighted reduction over those
orbits with weights w_j Phi_k(V_n(j)), and an orbit to step q applies
the carrier at most (r + 1)(q + 1) times whatever its term count.  A
dense B takes the identity factorisation (range orbit T(m h),
coefficients B V), whose sums are bit for bit the term-by-term fold.
A series past the node budget is refused before any work, and a term
that leaves the double range raises ExpmOverflow.  The term count reads
each envelope term once.  The only series setting is the term cap,
DysonPhillipsConfig.max_terms; the quadrature density, tail target and
node budget are module constants.
On top of the series sit an order-theoretic domination check, the
transfer of eventually invariant coordinate ideals to the perturbed
family, and a two-carrier coupling constructor whose off-diagonal
blocks feed each component into the other.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConsistencyViolation,
    CouplingPremiseWarning,
    ExpmOverflow,
    InputError,
    PremiseViolation,
    QuadratureBudgetExceeded,
    TransferViolation,
    WitnessSearchFailure,
)
from .gammashift import Grid1D, GridFunction
from .lattice import IdealMask, as_matrix, as_vector
from .semigroup import MatrixSemigroup, SemigroupProvider, TimeGrid, expm


# Series constants: the composite Gauss-Legendre panels of the matrix
# backend, the tail target that fixes the term count, and the abort
# threshold on recursion depth times node count.
NODES_PER_UNIT = 16
GL_ORDER = 8
TAIL_TOLERANCE = 1e-10
NODE_BUDGET = 2_000_000


@dataclass(frozen=True)
class DysonPhillipsConfig:
    """Term cap for the series evaluation.

    The actual count is the smallest one whose envelope tail bound meets
    TAIL_TOLERANCE, auto-increased up to max_terms, after which the
    larger tail is simply reported.
    """

    max_terms: int = 40

    def __post_init__(self):
        if self.max_terms < 1:
            raise InputError("max_terms must be >= 1")


class _EnvelopeSeries:
    """Terms M^{n+1} e^{omega t} (|B| M t)^n / n! of the envelope bound, each computed once.

    (M, omega) is the growth pair; a term whose logarithm reaches 700
    reads inf, the bound having left floating range.
    """

    def __init__(self, envelope, norm_b: float, t: float):
        M, omega = float(envelope[0]), float(envelope[1])
        self.x = norm_b * M * t
        self._log_m = math.log(M) if M > 0 else float("-inf")
        self._base = omega * t
        self._log_x = math.log(self.x)
        self._terms = []

    def term(self, n: int) -> float:
        while len(self._terms) <= n:
            k = len(self._terms)
            log_term = (k + 1) * self._log_m + self._base + k * self._log_x - math.lgamma(k + 1)
            self._terms.append(math.inf if log_term >= 700.0 else math.exp(log_term))
        return self._terms[n]

    def tail(self, n_terms: int) -> float:
        """Sum of the terms past n_terms, stopped once they no longer move it."""
        total = 0.0
        n = n_terms + 1
        while True:
            term = self.term(n)
            if term == math.inf:
                return math.inf
            total += term
            if n > self.x and (term == 0.0 or term <= total * 1e-18):
                return total
            n += 1
            if n > n_terms + 200_000:  # pragma: no cover - defensive
                return math.inf


def perturbation_tail_bound(envelope, norm_b: float, t: float, n_terms: int) -> float:
    """Certified bound on the dropped series remainder past n_terms.

    Sums M^{n+1} e^{omega t} (|B| M t)^n / n! over n > n_terms for the
    growth pair (M, omega).  Conservative by construction; returns inf
    when the bound itself leaves floating range.
    """
    t = float(t)
    if t <= 0.0 or norm_b <= 0.0:
        return 0.0
    return _EnvelopeSeries(envelope, norm_b, t).tail(n_terms)


def choose_terms(config: DysonPhillipsConfig, envelope, norm_b: float, t: float):
    """(term count, certified tail) meeting TAIL_TOLERANCE, capped at max_terms.

    The smallest passing count, as a scan of perturbation_tail_bound over
    n = 0, 1, ... finds it; each series term is computed once, and only a
    count whose first dropped term meets the tolerance is summed, since a
    sum of nonnegative terms is at least its first.
    """
    t = float(t)
    if t <= 0.0 or norm_b <= 0.0:
        return 0, 0.0
    series = _EnvelopeSeries(envelope, norm_b, t)
    for n in range(config.max_terms + 1):
        if series.term(n + 1) <= TAIL_TOLERANCE:
            tail = series.tail(n)
            if tail <= TAIL_TOLERANCE:
                return n, tail
    return config.max_terms, series.tail(config.max_terms)


# --------------------------------------------------------------------------
# matrix backend: exact-moment panel collocation
# --------------------------------------------------------------------------


def _reference_nodes(order: int) -> np.ndarray:
    x, _ = np.polynomial.legendre.leggauss(order)
    return (x + 1.0) * 0.5


def _lagrange_monomial_coeffs(nodes: np.ndarray) -> np.ndarray:
    """Row j holds the ascending monomial coefficients of the j-th cardinal."""
    m = nodes.size
    coeffs = np.zeros((m, m))
    for j in range(m):
        others = np.delete(nodes, j)
        denom = float(np.prod(nodes[j] - others))
        coeffs[j] = np.polynomial.polynomial.polyfromroots(others).real / denom
    return coeffs


def _panel_operators(A: np.ndarray, width: float, order: int):
    """Propagators and exact Lagrange moments for one panel width.

    For each target offset d (the panel's collocation nodes plus the
    width itself) this returns e^{dA} together with the stacked moment
    block [L_1(d) ... L_m(d)], where L_j(d) = integral_0^d e^{(d-s)A}
    ell_j(s) ds is computed exactly from a block-exponential whose
    nilpotent chain generates the monomials.  Interpolating the
    integrand at the nodes is then the only approximation in the level
    recursion.
    """
    n = A.shape[0]
    m = order
    nodes = _reference_nodes(order) * width
    coeffs = _lagrange_monomial_coeffs(nodes)
    eye = np.eye(n)
    G = np.zeros(((m + 1) * n, (m + 1) * n))
    G[:n, :n] = A
    for b in range(m):
        G[b * n : (b + 1) * n, (b + 1) * n : (b + 2) * n] = eye
    factorials = [math.factorial(k) for k in range(m)]
    prop, lam = [], []
    for d in list(nodes) + [width]:
        top = expm(G, float(d))[:n]
        prop.append(np.ascontiguousarray(top[:, :n]))
        thetas = [top[:, (k + 1) * n : (k + 2) * n] for k in range(m)]
        blocks = []
        for j in range(m):
            lam_j = np.zeros((n, n))
            for k in range(m):
                lam_j += coeffs[j, k] * factorials[k] * thetas[k]
            blocks.append(lam_j)
        lam.append(np.ascontiguousarray(np.hstack(blocks)))
    return nodes, prop, lam


def _matrix_terms_fixed(A, B, t, n_terms, panels, order):
    """Series terms at time t with a fixed panel count (no error estimate)."""
    n = A.shape[0]
    width = t / panels
    _, prop, lam = _panel_operators(A, width, order)
    step = prop[order]
    lefts = [np.eye(n)]
    for _ in range(1, panels):
        lefts.append(step @ lefts[-1])
    v_nodes = [[prop[i] @ lefts[p] for i in range(order)] for p in range(panels)]
    terms = [step @ lefts[-1]]
    zero = np.zeros((n, n))
    for _ in range(n_terms):
        cur_nodes = []
        left = zero
        alive = False
        for p in range(panels):
            bv = np.vstack([B @ v_nodes[p][j] for j in range(order)])
            if bv.any():
                alive = True
                panel_vals = [prop[i] @ left + lam[i] @ bv for i in range(order)]
                left = prop[order] @ left + lam[order] @ bv
            else:
                panel_vals = [prop[i] @ left for i in range(order)]
                left = prop[order] @ left
            cur_nodes.append(panel_vals)
        terms.append(left)
        v_nodes = cur_nodes
        if not alive and not left.any():
            # a vanished level makes every later term exactly zero
            break
    while len(terms) < n_terms + 1:
        terms.append(zero)
    return terms


def _matrix_dp(A: np.ndarray, B: np.ndarray, t: float, n_terms: int):
    """(terms, quadrature estimate) for a dense matrix carrier.

    Runs the panel recursion at the configured density and at twice the
    density; the finer terms are returned and the per-term differences,
    summed in the 2-norm, serve as the reported quadrature gauge.
    """
    n = A.shape[0]
    if t == 0.0:
        return [np.eye(n)] + [np.zeros((n, n))] * n_terms, 0.0
    panels = max(1, math.ceil(t * NODES_PER_UNIT / GL_ORDER))
    node_count = n_terms * 3 * panels * GL_ORDER
    if node_count > NODE_BUDGET:
        raise QuadratureBudgetExceeded(
            f"series depth {n_terms} x {3 * panels * GL_ORDER} nodes exceeds "
            f"the budget of {NODE_BUDGET}"
        )
    coarse = _matrix_terms_fixed(A, B, t, n_terms, panels, GL_ORDER)
    fine = _matrix_terms_fixed(A, B, t, n_terms, 2 * panels, GL_ORDER)
    est = float(sum(np.linalg.norm(f - c, 2) for f, c in zip(fine, coarse)))
    return fine, est


# --------------------------------------------------------------------------
# lattice backend: positive-weight composite rule on whole grid steps
# --------------------------------------------------------------------------


def _lattice_weights(q: int, h: float) -> np.ndarray:
    """Positive quadrature weights on the nodes 0..q of a step-h lattice.

    Composite Simpson for even q, Simpson plus a 3/8 tail for odd
    q >= 3, plain trapezoid at q = 1.  Positivity of every weight is
    what lets sampled operator positivity flow through the recursion.
    """
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


def check_node_budget(n_terms: int, q: int) -> None:
    """Refuse a lattice series of n_terms terms to step q past NODE_BUDGET nodes.

    Term n at step p reads the p + 1 nodes 0..p, so the series fills
    n_terms (q + 1)(q + 2) / 2 nodes at most.
    """
    if n_terms * (q + 1) * (q + 2) // 2 > NODE_BUDGET:
        raise QuadratureBudgetExceeded(
            f"series depth {n_terms} over {q + 1} lattice nodes exceeds "
            f"the budget of {NODE_BUDGET}"
        )


def _weighted_sums(vectors: list, rules: np.ndarray) -> list:
    """[sum_j w[j] vectors[j] for w in rules], each bitwise the left fold w[0] v_0 + w[1] v_1 + ...

    The summands are stacked once and every rule reduces the stack over
    its first axis, which numpy adds row after row.  The sum starts at
    -0.0 so that an entry that is -0.0 in every summand keeps its sign, and
    one-entry rows go through the sequential accumulate, because numpy
    sums a lone contiguous axis pairwise.  Grid functions keep the
    smallest support floor of their summands; product vectors are summed
    componentwise.
    """
    head = vectors[0]
    if isinstance(head, ProductVector):
        firsts = _weighted_sums([v.first for v in vectors], rules)
        seconds = _weighted_sums([v.second for v in vectors], rules)
        return [ProductVector(a, b) for a, b in zip(firsts, seconds)]
    if isinstance(head, GridFunction):
        floor = min(v.support_lo for v in vectors)
        sums = _weighted_sums([v.samples for v in vectors], rules)
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


class _FiniteRange:
    """A finite-rank perturbation B = U Phi seen through its range.

    B v is the sum of Phi_k(v) u_k over r range vectors u_k in the
    carrier's own types; coefficients(v) is the length-r array Phi(v)
    and range_step(m) the list [T(m h) u_k].  The range orbits are
    computed once per step m and shared by every series that holds this
    object, so a series needs no carrier work beyond its own seed orbit:
    T(m h) B v is the sum of Phi_k(v) T(m h) u_k.  zero is the carrier's
    zero vector.
    """

    def __init__(self, range_step, coefficients, zero):
        self.range_step = range_step
        self.coefficients = coefficients
        self._zero = zero
        self._orbits = []

    def orbit(self, m: int) -> list:
        """[T(m h) u_k for each k], filling the steps up to m once."""
        while len(self._orbits) <= m:
            self._orbits.append(self.range_step(len(self._orbits)))
        return self._orbits[m]

    def convolve(self, coeffs: list, rules: np.ndarray) -> list:
        """[sum_j w[j] T((p - j) h) U coeffs[j] for w in rules], p = len(coeffs) - 1.

        One weighted reduction over the range orbits per rule, weights
        w[j] coeffs[j][k]; zero coefficients are skipped, so a support
        floor only counts the range orbits that enter the sum.
        """
        p = len(coeffs) - 1
        table = np.array(coeffs)
        nodes, ks = np.nonzero(table)
        if not nodes.size:
            return [self._zero.copy() for _ in rules]
        vectors = [self.orbit(p - j)[k] for j, k in zip(nodes.tolist(), ks.tolist())]
        return _weighted_sums(vectors, rules[:, nodes] * table[nodes, ks])

    def zero(self, c):
        """A term at step 0: the integral over [0, 0] vanishes."""
        return self._zero.copy()


class _DenseRange:
    """Identity factorisation of a dense B: the range orbit is the operator itself.

    step_dense(m) is the unperturbed operator at m steps, built once when
    first read; the coefficients of V are the image B V, so each summand
    is the product T(m h) (B V) and the sums are the term-by-term ones.
    """

    def __init__(self, step_dense, B: np.ndarray):
        self.step_dense = step_dense
        self.B = B
        self._ops = {}

    def orbit(self, m: int) -> np.ndarray:
        if m not in self._ops:
            self._ops[m] = self.step_dense(m)
        return self._ops[m]

    def apply_t(self, m: int, x: np.ndarray) -> np.ndarray:
        return self.orbit(m) @ x

    def coefficients(self, v: np.ndarray) -> np.ndarray:
        return self.B @ v

    def convolve(self, coeffs: list, rules: np.ndarray) -> list:
        p = len(coeffs) - 1
        return _weighted_sums([self.orbit(p - j) @ c for j, c in enumerate(coeffs)], rules)

    def zero(self, c: np.ndarray) -> np.ndarray:
        return c * 0.0


class _LatticeSeries:
    """Series terms of one orbit on a step-h lattice, each (term, step) computed once.

    values[n][q] is the n-th term at time q*h applied to the seed;
    norms, coeffs (the range coefficients Phi(values[n][q]) of the
    perturbation), live (B of the value is nonzero) and gaps run
    parallel to it, gaps[n][q] being the distance at step q between the
    used rule and a plain trapezoid on the same samples.  Term n + 1 at
    step p is perturbation.convolve of the coefficients of term n at
    steps 0..p, one weighted reduction over the range orbits; a term
    n >= 1 at step 0 is perturbation.zero.  Steps are filled in order as
    later times are asked for, so no result depends on earlier requests.
    apply_t(m, v) applies the unperturbed family at m steps; it is
    called for the seed orbit only.
    """

    def __init__(self, apply_t, perturbation, seed, h: float, norm):
        self.apply_t = apply_t
        self.perturbation = perturbation
        self.seed = seed
        self.h = h
        self.norm = norm
        self.values, self.norms, self.coeffs, self.live, self.gaps = [], [], [], [], []

    def _fill(self, n: int, q: int) -> None:
        """Extend term n through step q; term n - 1 already reaches step q."""
        if n == len(self.values):
            for rows in (self.values, self.norms, self.coeffs, self.live, self.gaps):
                rows.append([])
        values = self.values[n]
        for p in range(len(values), q + 1):
            gap = 0.0
            if n == 0:
                v = self.apply_t(p, self.seed)
            elif p == 0:
                v = self.perturbation.zero(self.coeffs[n - 1][0])
            else:
                trap = np.full(p + 1, self.h)
                trap[0] = trap[p] = 0.5 * self.h
                rules = np.stack([_lattice_weights(p, self.h), trap])
                v, tz = self.perturbation.convolve(self.coeffs[n - 1][: p + 1], rules)
                gap = self.norm(v - tz)
            norm = self.norm(v)
            # a nonfinite entry makes the norm nonfinite, so only such norms need the scan
            if not math.isfinite(norm) and not _all_finite(v):
                raise ExpmOverflow(
                    f"the series overflowed: term {n} at t = {p * self.h:g} left the double range"
                )
            c = self.perturbation.coefficients(v)
            values.append(v)
            self.norms[n].append(norm)
            self.coeffs[n].append(c)
            self.live[n].append(bool(np.any(c)))
            self.gaps[n].append(gap)

    def at(self, q: int, n_terms: int):
        """(terms at step q, quadrature gauge) of the series truncated at n_terms.

        The series ends early, judged on steps 0..q only, at a term whose
        range coefficients all vanish (every later term is then identically zero)
        or after two consecutive terms below the floating floor relative
        to the unperturbed orbit.  The gauge sums the kept terms' gaps at
        step q.  A series past NODE_BUDGET is refused before any work.
        """
        check_node_budget(n_terms, q)
        self._fill(0, q)
        floor = 1e-16 * max(max(self.norms[0][: q + 1]), 1e-300)
        terms = [self.values[0][q]]
        gauge = 0.0
        tiny_streak = 0
        for n in range(1, n_terms + 1):
            if not any(self.live[n - 1][: q + 1]):
                break
            self._fill(n, q)
            terms.append(self.values[n][q])
            gauge += self.gaps[n][q]
            if max(self.norms[n][: q + 1]) <= floor:
                tiny_streak += 1
                if tiny_streak >= 2:
                    break
            else:
                tiny_streak = 0
        return terms, gauge


def _dense_lattice_terms(step_dense, B: np.ndarray, h: float, q: int, n_terms: int):
    """(dense terms at step q, gauge); step_dense(m) is the unperturbed operator at m steps.

    Each operator is built once, when the series first reads it.
    """
    dense = _DenseRange(step_dense, B)
    series = _LatticeSeries(
        dense.apply_t,
        dense,
        np.eye(B.shape[0]),
        h,
        lambda x: float(np.max(np.abs(x))) if x.size else 0.0,
    )
    return series.at(q, n_terms)


def _lattice_dp_dense(provider, B: np.ndarray, t: float, n_terms: int):
    """(dense terms, gauge) for a provider restricted to a time lattice."""
    h = provider.grid.h
    q = provider.grid.steps_of(t)
    terms, gauge = _dense_lattice_terms(lambda m: provider.to_dense(m * h), B, h, q, n_terms)
    terms += [np.zeros_like(terms[0])] * (n_terms + 1 - len(terms))
    return terms, gauge


@dataclass(frozen=True)
class DysonPhillipsResult:
    """Summed series with its certificates."""

    total: object
    terms: tuple
    tail_bound: float
    quadrature_estimate: float
    n_terms: int
    notes: str = ""


def _as_provider(providerA) -> SemigroupProvider:
    if isinstance(providerA, SemigroupProvider):
        return providerA
    return MatrixSemigroup(as_matrix(providerA))


def _perturbation_dense(B, dim: int) -> np.ndarray:
    raw = B.to_dense() if hasattr(B, "to_dense") and not isinstance(B, np.ndarray) else B
    mat = as_matrix(raw)
    if mat.shape != (dim, dim):
        raise InputError(f"perturbation must be {dim}x{dim}, got {mat.shape}")
    return mat


def dyson_phillips_terms(providerA, B, t, config: DysonPhillipsConfig | None = None):
    """(series terms V_0(t)..V_N(t), certified truncation tail bound).

    The terms and tail of dyson_phillips_sum; the tail bound comes from
    the provider's growth envelope and covers every dropped term.
    """
    res = dyson_phillips_sum(providerA, B, t, config)
    return list(res.terms), res.tail_bound


def dyson_phillips_sum(providerA, B, t, config: DysonPhillipsConfig | None = None) -> DysonPhillipsResult:
    """Summed series evaluation with tail and quadrature certificates.

    Matrix carriers use the exact-moment panel scheme; carriers locked
    to a time lattice use the positive-weight composite rule on their
    own grid.
    """
    if float(t) < 0.0:
        raise InputError("time must be nonnegative")
    config = config or DysonPhillipsConfig()
    provider = _as_provider(providerA)
    Bd = _perturbation_dense(B, provider.carrier_dim)
    t = float(t)
    n_terms, tail = choose_terms(config, provider.envelope, float(np.linalg.norm(Bd, 2)), t)
    if isinstance(provider, MatrixSemigroup):
        terms, est = _matrix_dp(provider.A, Bd, t, n_terms)
    elif hasattr(provider, "grid"):
        terms, est = _lattice_dp_dense(provider, Bd, t, n_terms)
    else:
        raise InputError("carrier supports neither dense nor lattice evaluation")
    total = terms[0].copy()
    for term in terms[1:]:
        total = total + term
    notes = ""
    if tail > TAIL_TOLERANCE:
        notes = (
            f"envelope tail {tail:.3g} exceeds the requested tolerance at the "
            f"term cap; comparisons should budget for it"
        )
    return DysonPhillipsResult(
        total=total,
        terms=tuple(terms),
        tail_bound=tail,
        quadrature_estimate=est,
        n_terms=len(terms) - 1,
        notes=notes,
    )


# --------------------------------------------------------------------------
# domination and invariance transfer
# --------------------------------------------------------------------------


def premise_times(samples: int = 32, t_lo: float = 1e-3, t_hi: float = 10.0):
    """Log-spaced premise sample times plus the zero axis."""
    return [0.0] + [float(x) for x in np.geomspace(t_lo, t_hi, samples)]


def _sandwich_min(left: dict, B: np.ndarray, right: dict):
    """(value, t, s, row, col) of the smallest entry of L(t) B R(s) over every sampled pair.

    left and right map sample times to dense operators; ties keep the
    first pair in sampling order, and t is None when nothing was sampled.
    """
    best = (math.inf, None, None, None, None)
    for t, lt in left.items():
        lb = lt @ B
        for s, rs in right.items():
            prod = lb @ rs
            idx = np.unravel_index(int(np.argmin(prod)), prod.shape)
            val = float(prod[idx])
            if val < best[0]:
                best = (val, float(t), float(s), int(idx[0]), int(idx[1]))
    return best


def _premise_scan(provider, Bd: np.ndarray, tol: float, samples: int = 32):
    """Minimum entry of T(t) B T(s) over the sampled (s, t) square.

    Returns (times, min_entry, witness) and raises PremiseViolation when
    the minimum drops below -tol, witness = (s, t, row, col, value).
    """
    times = provider.admissible_times(premise_times(samples))
    dense = {t: provider.to_dense(t) for t in times}
    worst, t, s, row, col = _sandwich_min(dense, Bd, dense)
    witness = None if t is None else (s, t, row, col, worst)
    if worst < -tol:
        raise PremiseViolation(
            f"T(t) B T(s) has entry {worst:.3e} < -{tol:.1e} at (s, t) = "
            f"({witness[0]:.6g}, {witness[1]:.6g})",
            witnesses=[witness],
        )
    return times, worst, witness


@dataclass(frozen=True)
class DominationReport:
    """Sampled premise and conclusion of the order comparison."""

    premise_min: float
    premise_witness: tuple
    conclusion_min: float
    conclusion_witness: tuple
    times: tuple
    tol: float
    tail_bound: float = 0.0
    notes: str = ""


def domination_check(
    providerA,
    B,
    grid: TimeGrid | None = None,
    config: DysonPhillipsConfig | None = None,
    tol: float = 1e-9,
) -> DominationReport:
    """Sample T(t) B T(s) >= -tol; if it holds, assert e^{t(A+B)} >= e^{tA} - tol.

    The premise is scanned on a log-spaced square plus its axes; a
    violation raises PremiseViolation with the offending (s, t) pair.
    When the premise holds, the conclusion is checked at every grid time
    (dense matrix carriers via the exponential, lattice carriers via the
    truncated series with its tail folded into the tolerance); a failed
    conclusion would contradict the theory and raises
    ConsistencyViolation.
    """
    config = config or DysonPhillipsConfig()
    provider = _as_provider(providerA)
    Bd = _perturbation_dense(B, provider.carrier_dim)
    _, premise_min, premise_witness = _premise_scan(provider, Bd, tol)
    grid = grid or TimeGrid.default()
    times = provider.admissible_times(list(grid.points))
    matrix_case = isinstance(provider, MatrixSemigroup)
    worst = math.inf
    worst_witness = None
    max_tail = 0.0
    for t in times:
        base = provider.to_dense(t)
        if matrix_case:
            perturbed = expm(provider.A + Bd, float(t))
            budget = tol
        else:
            res = dyson_phillips_sum(provider, Bd, t, config)
            perturbed = res.total
            budget = tol + res.tail_bound + res.quadrature_estimate
            max_tail = max(max_tail, res.tail_bound)
        diff = perturbed - base
        idx = np.unravel_index(int(np.argmin(diff)), diff.shape)
        val = float(diff[idx])
        if val < worst:
            worst = val
            worst_witness = (float(t), int(idx[0]), int(idx[1]), val)
        if val < -budget:
            raise ConsistencyViolation(
                "perturbed semigroup fails to dominate the unperturbed one "
                f"at t = {t:.6g} despite a clean premise (entry {val:.3e})",
                witnesses=[worst_witness],
            )
    return DominationReport(
        premise_min=premise_min,
        premise_witness=premise_witness,
        conclusion_min=worst,
        conclusion_witness=worst_witness,
        times=tuple(float(t) for t in times),
        tol=tol,
        tail_bound=max_tail,
    )


def _leak(mat: np.ndarray, mask: IdealMask) -> float:
    """Largest magnitude routed from the masked coordinates to the rest."""
    if mask.is_trivial:
        return 0.0
    rows = mask.complement().sorted_members()
    cols = mask.sorted_members()
    return float(np.max(np.abs(mat[np.ix_(rows, cols)])))


def _eventual_onset(times, values, tol: float):
    """First sampled time after the last violation; None when violations persist."""
    bad = [t for t, v in zip(times, values) if v > tol]
    if not bad:
        return 0.0
    later = [t for t in times if t > bad[-1]]
    return float(later[0]) if later else None


@dataclass(frozen=True)
class TransferReport:
    """Onsets past which the ideal stays invariant for every checked family."""

    ideal: IdealMask
    perturbed_onset: float
    unperturbed_onset: float
    family_onset: tuple
    max_leak_past_onset: float
    tol: float
    notes: str = ""


def invariance_transfer_check(
    providerA,
    B,
    ideal,
    grid: TimeGrid | None = None,
    tol: float = 1e-9,
) -> TransferReport:
    """Invariance of a coordinate ideal transfers from e^{t(A+B)} back to A.

    Premises checked on the grid: T(t) B T(s) >= -tol on the sampled
    square, and the ideal eventually invariant under the perturbed
    family.  The asserted conclusions are eventual invariance under the
    unperturbed family and under T(t) B T(s) jointly past a product-order
    onset; a conclusion failure raises TransferViolation, which must
    never fire on sound inputs.
    """
    provider = _as_provider(providerA)
    if not isinstance(provider, MatrixSemigroup):
        raise InputError("coordinate-ideal transfer requires a dense matrix carrier")
    n = provider.carrier_dim
    mask = ideal if isinstance(ideal, IdealMask) else IdealMask.of(ideal, n)
    if mask.dim != n:
        raise InputError("ideal mask dimension does not match the carrier")
    Bd = _perturbation_dense(B, n)
    grid = grid or TimeGrid.default()
    times = [float(t) for t in grid.points]

    perturbed_leaks = [_leak(expm(provider.A + Bd, t), mask) for t in times]
    perturbed_onset = _eventual_onset(times, perturbed_leaks, tol)
    if perturbed_onset is None:
        worst = max(zip(perturbed_leaks, times))
        raise PremiseViolation(
            "ideal is not eventually invariant under the perturbed family "
            f"on the sampled grid (leak {worst[0]:.3e} at t = {worst[1]:.6g})",
            witnesses=[(worst[1], worst[0])],
        )

    sq_times, _, _ = _premise_scan(provider, Bd, tol)

    unperturbed_leaks = [_leak(provider.to_dense(t), mask) for t in times]
    unperturbed_onset = _eventual_onset(times, unperturbed_leaks, tol)
    if unperturbed_onset is None:
        worst = max(zip(unperturbed_leaks, times))
        raise TransferViolation(
            "ideal fails to become invariant under the unperturbed family "
            f"(leak {worst[0]:.3e} at t = {worst[1]:.6g})",
            witnesses=[(worst[1], worst[0])],
        )

    cache = {t: provider.to_dense(t) for t in sq_times}
    k = len(sq_times)
    leaks = np.zeros((k, k))
    for i, t in enumerate(sq_times):
        left = cache[t] @ Bd
        for j, s in enumerate(sq_times):
            leaks[i, j] = _leak(left @ cache[s], mask)
    ok = leaks <= tol
    corner = np.zeros((k + 1, k + 1), dtype=bool)
    corner[k, :] = True
    corner[:, k] = True
    for i in range(k - 1, -1, -1):
        for j in range(k - 1, -1, -1):
            corner[i, j] = ok[i, j] and corner[i + 1, j] and corner[i, j + 1]
    family_onset = None
    best = math.inf
    for i in range(k):
        for j in range(k):
            if corner[i, j]:
                score = max(sq_times[i], sq_times[j])
                if score < best:
                    best = score
                    family_onset = (float(sq_times[i]), float(sq_times[j]))
    if family_onset is None:
        i, j = np.unravel_index(int(np.argmax(leaks)), leaks.shape)
        raise TransferViolation(
            "operator family T(t) B T(s) never becomes jointly invariant on "
            f"the ideal (leak {leaks[i, j]:.3e} at t = {sq_times[i]:.6g}, "
            f"s = {sq_times[j]:.6g})",
            witnesses=[(sq_times[i], sq_times[j], float(leaks[i, j]))],
        )
    i0 = sq_times.index(family_onset[0])
    j0 = sq_times.index(family_onset[1])
    residual = float(np.max(leaks[i0:, j0:])) if leaks[i0:, j0:].size else 0.0
    residual = max(
        residual,
        max((v for t, v in zip(times, perturbed_leaks) if t >= perturbed_onset), default=0.0),
        max((v for t, v in zip(times, unperturbed_leaks) if t >= unperturbed_onset), default=0.0),
    )
    return TransferReport(
        ideal=mask,
        perturbed_onset=perturbed_onset,
        unperturbed_onset=unperturbed_onset,
        family_onset=family_onset,
        max_leak_past_onset=residual,
        tol=tol,
    )


# --------------------------------------------------------------------------
# couplings between two carriers
# --------------------------------------------------------------------------


class GridFunctional:
    """f |-> integral of a grid function over the window [a, b)."""

    def __init__(self, grid: Grid1D, a: float, b: float):
        if not (a < b):
            raise InputError("window must have positive length")
        self.grid = grid
        self.a = float(a)
        self.b = float(b)
        lo = max(0, grid.cell_of(a))
        hi = min(grid.count, int(round((b - grid.x_min) / grid.h)))
        if lo >= hi:
            raise InputError("window does not meet the grid")
        self._cells = (lo, hi)
        self.norm = 1.0  # |integral over a window| <= L^1 norm
        self.nonneg = True

    def __call__(self, f: GridFunction) -> float:
        lo, hi = self._cells
        if f.support_lo >= hi:
            return 0.0  # exact: every window cell sits below the support floor
        return float(self.grid.h * np.sum(f.samples[lo:hi]))

    def row(self) -> np.ndarray:
        out = np.zeros(self.grid.count)
        lo, hi = self._cells
        out[lo:hi] = self.grid.h
        return out


class CoordinateFunctional:
    """z |-> z[index] on a dense coordinate carrier."""

    def __init__(self, index: int, dim: int):
        if not (0 <= index < dim):
            raise InputError("coordinate index out of range")
        self.index = index
        self.dim = dim
        self.norm = 1.0
        self.nonneg = True

    def __call__(self, z) -> float:
        return float(as_vector(z)[self.index])

    def row(self) -> np.ndarray:
        out = np.zeros(self.dim)
        out[self.index] = 1.0
        return out


def _vector_norm_for(value) -> float:
    if isinstance(value, GridFunction):
        return value.norm_l1()
    return float(np.linalg.norm(as_vector(value)))


def _vector_array(value) -> np.ndarray:
    if isinstance(value, GridFunction):
        return value.samples
    return as_vector(value)


def _zero_like_output(output):
    if isinstance(output, GridFunction):
        return GridFunction.zero(output.grid)
    return np.zeros_like(as_vector(output))


class RankOneCoupling:
    """f |-> functional(f) * output, between possibly different carriers.

    Seen through its range, the block is U Phi with the one range vector
    output and the one coefficient functional; a zero output has rank 0.
    """

    def __init__(self, output, functional):
        self.output = output
        self.functional = functional
        self.norm_bound = _vector_norm_for(output) * float(functional.norm)
        out_arr = _vector_array(output)
        self.nonneg = bool(np.min(out_arr) >= 0.0) and bool(getattr(functional, "nonneg", False))
        self.shape = (out_arr.size, functional.row().size)
        self.range_vectors = (output,) if out_arr.any() else ()

    def coefficients(self, f) -> np.ndarray:
        """Phi(f): the coefficient of each range vector in the image of f."""
        return np.array([self.functional(f) for _ in self.range_vectors])

    def apply(self, f):
        c = self.functional(f)
        if c == 0.0:
            return _zero_like_output(self.output)
        return self.output * c

    def to_dense(self) -> np.ndarray:
        return np.outer(_vector_array(self.output), self.functional.row())

    @property
    def is_zero(self) -> bool:
        return not self.to_dense().any()


class DenseCoupling:
    """Plain matrix block between two dense coordinate carriers.

    Seen through its range, the block is U Phi with the unit vectors of
    its nonzero rows as range vectors and those rows as functionals.
    """

    def __init__(self, matrix):
        self.matrix = as_matrix(np.atleast_2d(np.asarray(matrix, dtype=float)))
        self.norm_bound = float(np.linalg.norm(self.matrix, 2))
        self.nonneg = bool(np.min(self.matrix) >= 0.0)
        self.shape = self.matrix.shape
        rows = np.flatnonzero(self.matrix.any(axis=1))
        self._rows = self.matrix[rows]
        self.range_vectors = tuple(np.eye(self.shape[0])[rows])

    def coefficients(self, f) -> np.ndarray:
        """Phi(f): the nonzero rows applied to f."""
        return self._rows @ as_vector(f)

    def apply(self, f):
        return self.matrix @ as_vector(f)

    def to_dense(self) -> np.ndarray:
        return self.matrix

    @property
    def is_zero(self) -> bool:
        return not self.matrix.any()


class ProductVector:
    """Pair of carrier vectors moved around by the coupled family."""

    __slots__ = ("first", "second")

    def __init__(self, first, second):
        self.first = first
        self.second = second

    def __add__(self, other: "ProductVector") -> "ProductVector":
        return ProductVector(self.first + other.first, self.second + other.second)

    def __sub__(self, other: "ProductVector") -> "ProductVector":
        return ProductVector(self.first - other.first, self.second - other.second)

    def __mul__(self, c) -> "ProductVector":
        return ProductVector(self.first * float(c), self.second * float(c))

    __rmul__ = __mul__

    def copy(self) -> "ProductVector":
        return ProductVector(
            self.first.copy() if hasattr(self.first, "copy") else self.first,
            self.second.copy() if hasattr(self.second, "copy") else self.second,
        )


def _carrier_dim(provider) -> int:
    dim = provider.carrier_dim
    if dim is None:
        raise InputError("coupled carriers must have finite dimension")
    return int(dim)


@dataclass(frozen=True)
class CoupledSystem:
    """Two carriers tied together by off-diagonal blocks.

    b12 maps the second carrier into the first, b21 the other way.  An
    optional factorization (B, G, C) for either block records a
    gain-style decomposition; when supplied, the dense product must
    reproduce the block to 1e-12.
    """

    provider1: SemigroupProvider
    provider2: SemigroupProvider
    b12: object
    b21: object
    factorization12: tuple | None = None
    factorization21: tuple | None = None

    def __post_init__(self):
        n1 = _carrier_dim(self.provider1)
        n2 = _carrier_dim(self.provider2)
        d12 = self.b12.to_dense()
        d21 = self.b21.to_dense()
        if d12.shape != (n1, n2):
            raise InputError(f"b12 must be {n1}x{n2}, got {d12.shape}")
        if d21.shape != (n2, n1):
            raise InputError(f"b21 must be {n2}x{n1}, got {d21.shape}")
        for name, fac, target in (
            ("factorization12", self.factorization12, d12),
            ("factorization21", self.factorization21, d21),
        ):
            if fac is None:
                continue
            if len(fac) != 3:
                raise InputError(f"{name} must be a (B, G, C) triple")
            prod = as_matrix(fac[0]) @ as_matrix(fac[1]) @ as_matrix(fac[2])
            if prod.shape != target.shape or float(np.max(np.abs(prod - target))) > 1e-12:
                raise InputError(f"{name} does not reproduce the block to 1e-12")

    @property
    def dim1(self) -> int:
        return _carrier_dim(self.provider1)

    @property
    def dim2(self) -> int:
        return _carrier_dim(self.provider2)

    def perturbation_norm(self) -> float:
        return max(float(self.b12.norm_bound), float(self.b21.norm_bound))

    def block_dense(self) -> np.ndarray:
        n1, n2 = self.dim1, self.dim2
        out = np.zeros((n1 + n2, n1 + n2))
        out[:n1, n1:] = self.b12.to_dense()
        out[n1:, :n1] = self.b21.to_dense()
        return out

    def diag_envelope(self) -> tuple:
        m1, w1 = self.provider1.envelope
        m2, w2 = self.provider2.envelope
        return (max(float(m1), float(m2)), max(float(w1), float(w2)))


@dataclass(frozen=True)
class PremiseSampleReport:
    """Outcome of sampling both mixed premise families on a log square."""

    ok: bool
    min_entry: float
    witness: tuple
    pairs_checked: int
    tol: float


def coupling_premise_check(
    system: CoupledSystem, tol: float = 1e-9, samples: int = 32, t_hi: float = 10.0
) -> PremiseSampleReport:
    """Sample T1(t) B12 T2(s) and T2(t) B21 T1(s) for entries below -tol.

    The witness is (direction, t, s, row, col, value); on a tie the "12"
    direction wins.
    """
    base = premise_times(samples, t_hi=t_hi)
    d1 = {t: system.provider1.to_dense(t) for t in system.provider1.admissible_times(base)}
    d2 = {t: system.provider2.to_dense(t) for t in system.provider2.admissible_times(base)}
    m12 = _sandwich_min(d1, system.b12.to_dense(), d2)
    m21 = _sandwich_min(d2, system.b21.to_dense(), d1)
    label, (worst, t, s, row, col) = ("21", m21) if m21[0] < m12[0] else ("12", m12)
    return PremiseSampleReport(
        ok=bool(worst >= -tol),
        min_entry=worst,
        witness=None if t is None else (label, t, s, row, col, worst),
        pairs_checked=2 * len(d1) * len(d2),
        tol=tol,
    )


class CoupledProvider(SemigroupProvider):
    """Provider for the coupled family on the product carrier.

    Evaluation always goes through the perturbation series around the
    block-diagonal unperturbed family; orbits on mixed carriers run on
    the shared time lattice with native vector types so that support
    bookkeeping stays exact, while dense assembly flattens to the
    stacked cell/coordinate basis.  The off-diagonal part is held as
    U Phi through the blocks' range vectors, whose orbits every seed's
    series shares, and the term count is chosen once per lattice step.
    """

    nilpotent_time = None

    def __init__(self, system: CoupledSystem, config: DysonPhillipsConfig | None = None):
        self.system = system
        self.config = config or DysonPhillipsConfig()
        g1 = getattr(system.provider1, "grid", None)
        g2 = getattr(system.provider2, "grid", None)
        lattices = [g for g in (g1, g2) if isinstance(g, Grid1D)]
        if len(lattices) == 2 and abs(lattices[0].h - lattices[1].h) > 0:
            raise InputError("coupled carriers disagree on the time lattice step")
        self.lattice_h = lattices[0].h if lattices else None
        m, w = system.diag_envelope()
        self.envelope = (m, w + m * system.perturbation_norm())
        self._orbit_cache = {}
        self._dense_cache = {}
        self._last_series = {}
        self._term_counts = {}
        if self.lattice_h is not None:
            b12, b21 = system.b12, system.b21
            self._range = _FiniteRange(
                self._range_step,
                lambda v: np.concatenate([b12.coefficients(v.second), b21.coefficients(v.first)]),
                self.zero_vector(),
            )

    # -- carrier plumbing -------------------------------------------------

    @property
    def carrier_dim(self):
        return self.system.dim1 + self.system.dim2

    def zero_vector(self):
        return ProductVector(self.system.provider1.zero_vector(), self.system.provider2.zero_vector())

    def vec_norm(self, f: ProductVector) -> float:
        return max(
            self.system.provider1.vec_norm(f.first),
            self.system.provider2.vec_norm(f.second),
        )

    def pair(self, phi: ProductVector, f: ProductVector) -> float:
        return float(
            self.system.provider1.pair(phi.first, f.first)
            + self.system.provider2.pair(phi.second, f.second)
        )

    def stack(self, f: ProductVector) -> np.ndarray:
        return np.concatenate([_vector_array(f.first), _vector_array(f.second)])

    def default_test_vectors(self):
        u1 = self.system.provider1.default_test_vectors()[0]
        u2 = self.system.provider2.default_test_vectors()[0]
        z1 = self.system.provider1.zero_vector()
        z2 = self.system.provider2.zero_vector()
        return [ProductVector(u1, z2), ProductVector(z1, u2), ProductVector(u1, u2)]

    def condition_basis(self):
        z1 = self.system.provider1.zero_vector()
        z2 = self.system.provider2.zero_vector()
        out = [ProductVector(v, z2) for v in self.system.provider1.condition_basis()]
        out += [ProductVector(z1, w) for w in self.system.provider2.condition_basis()]
        return out

    def check_positive(self, f, label: str = "vector"):
        if not isinstance(f, ProductVector):
            raise PremiseViolation(f"{label} must be a product vector")
        first = _vector_array(f.first)
        second = _vector_array(f.second)
        if (first.size and float(np.min(first)) < 0.0) or (
            second.size and float(np.min(second)) < 0.0
        ):
            raise PremiseViolation(f"{label} must be positive")
        if not (first.any() or second.any()):
            raise PremiseViolation(f"{label} must be nonzero")

    def admissible_times(self, candidates):
        if self.lattice_h is None:
            return super().admissible_times(candidates)
        out = set()
        for t in candidates:
            q = int(round(float(t) / self.lattice_h))
            if q >= 0:
                out.add(q * self.lattice_h)
        return sorted(out)

    # -- series evaluation -------------------------------------------------

    def _steps_of(self, t: float) -> int:
        from .errors import ShiftNotOnGrid

        q = int(round(float(t) / self.lattice_h))
        if abs(q * self.lattice_h - float(t)) > 1e-9 * max(1.0, abs(float(t))) or q < 0:
            raise ShiftNotOnGrid(f"time {t} is not a whole number of lattice steps")
        return q

    def _apply_diag(self, t: float, v: ProductVector) -> ProductVector:
        return ProductVector(
            self.system.provider1.apply(t, v.first),
            self.system.provider2.apply(t, v.second),
        )

    def _apply_steps(self, m: int, v: ProductVector) -> ProductVector:
        return self._apply_diag(m * self.lattice_h, v)

    def _range_step(self, m: int) -> list:
        """T(m h) of each off-diagonal range vector, flowed in its own carrier only."""
        t = m * self.lattice_h
        p1, p2 = self.system.provider1, self.system.provider2
        z1, z2 = p1.zero_vector(), p2.zero_vector()
        return [ProductVector(p1.apply(t, u), z2) for u in self.system.b12.range_vectors] + [
            ProductVector(z1, p2.apply(t, u)) for u in self.system.b21.range_vectors
        ]

    def check_orbit(self, q: int) -> None:
        """Refuse lattice orbits to step q before any series work.

        Refused are a series past the node budget at the term cap and a
        matrix carrier whose flow e^{tA} leaves the double range by step q.
        """
        check_node_budget(self.config.max_terms, q)
        t = q * self.lattice_h
        for carrier in (self.system.provider1, self.system.provider2):
            if isinstance(carrier, MatrixSemigroup):
                try:
                    carrier.matrix(t)
                except ExpmOverflow as exc:
                    raise ExpmOverflow(f"the orbit to t = {t:g} overflows: {exc}") from None

    def _term_count(self, q: int) -> tuple:
        """(term count, certified tail) of the series at step q, chosen once per step."""
        hit = self._term_counts.get(q)
        if hit is None:
            hit = choose_terms(
                self.config,
                self.system.diag_envelope(),
                self.system.perturbation_norm(),
                q * self.lattice_h,
            )
            self._term_counts[q] = hit
        return hit

    def _fingerprint(self, f: ProductVector):
        return (
            _vector_array(f.first).tobytes(),
            _vector_array(f.second).tobytes(),
        )

    def orbit_terms(self, f: ProductVector, t: float):
        """Per-term orbit values at time t (native types, exact supports)."""
        if self.lattice_h is None:
            raise InputError("per-term orbits are exposed on lattice carriers only")
        q = self._steps_of(t)
        key = self._fingerprint(f)
        series = self._orbit_cache.get(key)
        if series is None:
            series = _LatticeSeries(
                self._apply_steps, self._range, f.copy(), self.lattice_h, self.vec_norm
            )
            if len(self._orbit_cache) < 64:
                self._orbit_cache[key] = series
        n_terms, tail = self._term_count(q)
        terms, gauge = series.at(q, n_terms)
        self._last_series[("orbit", key)] = {
            "n_terms": len(terms) - 1,
            "tail_bound": tail,
            "quadrature_estimate": gauge,
        }
        return terms

    def apply(self, t, f: ProductVector) -> ProductVector:
        if self.lattice_h is not None:
            terms = self.orbit_terms(f, t)
            total = terms[0]
            for term in terms[1:]:
                total = total + term
            return total
        dense = self.to_dense(t)
        stacked = dense @ self.stack(f)
        n1 = self.system.dim1
        return ProductVector(stacked[:n1], stacked[n1:])

    def apply_adjoint(self, t, phi: ProductVector) -> ProductVector:
        dense = self.to_dense(t).T
        n1 = self.system.dim1
        if self.lattice_h is not None:
            # the grid pairing carries the cell width, so the adjoint of
            # the mixed blocks is the weighted conjugation D^-1 T^T D
            d = np.concatenate(
                [np.ones(n1), np.full(self.carrier_dim - n1, self.lattice_h)]
            )
            dense = dense * d[None, :] / d[:, None]
        stacked = dense @ self.stack(phi)
        if isinstance(phi.second, GridFunction):
            second = GridFunction(phi.second.grid, stacked[n1:])
        else:
            second = stacked[n1:]
        return ProductVector(stacked[:n1], second)

    def _dense_diag(self, t: float) -> np.ndarray:
        n1 = self.system.dim1
        out = np.zeros((self.carrier_dim, self.carrier_dim))
        out[:n1, :n1] = self.system.provider1.to_dense(t)
        out[n1:, n1:] = self.system.provider2.to_dense(t)
        return out

    def to_dense(self, t) -> np.ndarray:
        t = float(t)
        hit = self._dense_cache.get(t)
        if hit is not None:
            return hit
        Bd = self.system.block_dense()
        if self.lattice_h is None:
            # both carriers dense: series around the block diagonal generator
            A1 = self.system.provider1.A
            A2 = self.system.provider2.A
            blockA = np.zeros((self.carrier_dim, self.carrier_dim))
            n1 = self.system.dim1
            blockA[:n1, :n1] = A1
            blockA[n1:, n1:] = A2
            diag_provider = MatrixSemigroup(blockA, envelope=self.system.diag_envelope())
            res = dyson_phillips_sum(diag_provider, Bd, t, self.config)
            dense = res.total
            self._last_series[("dense", t)] = {
                "n_terms": res.n_terms,
                "tail_bound": res.tail_bound,
                "quadrature_estimate": res.quadrature_estimate,
            }
        else:
            q = self._steps_of(t)
            n_terms, tail = self._term_count(q)
            h = self.lattice_h
            terms, gauge = _dense_lattice_terms(lambda m: self._dense_diag(m * h), Bd, h, q, n_terms)
            dense = terms[0].copy()
            for term in terms[1:]:
                dense += term
            self._last_series[("dense", t)] = {
                "n_terms": len(terms) - 1,
                "tail_bound": tail,
                "quadrature_estimate": gauge,
            }
        if len(self._dense_cache) < 256:
            self._dense_cache[t] = dense
        return dense

    def series_report(self, t=None) -> dict:
        if t is not None:
            return dict(self._last_series.get(("dense", float(t)), {}))
        merged = {"n_terms": 0, "tail_bound": 0.0, "quadrature_estimate": 0.0}
        for rec in self._last_series.values():
            merged["n_terms"] = max(merged["n_terms"], rec["n_terms"])
            merged["tail_bound"] = max(merged["tail_bound"], rec["tail_bound"])
            merged["quadrature_estimate"] = max(
                merged["quadrature_estimate"], rec["quadrature_estimate"]
            )
        return merged

    def positivity_probe(self, t):
        dense = self.to_dense(t)
        idx = np.unravel_index(int(np.argmin(dense)), dense.shape)
        return float(dense[idx]), (int(idx[0]), int(idx[1])), False


def couple(
    system: CoupledSystem,
    t,
    config: DysonPhillipsConfig | None = None,
    tol: float = 1e-9,
    check_premise: bool = True,
) -> np.ndarray:
    """Dense product-carrier operator of the coupled family at time t.

    Samples the two mixed premise families first; a violation is
    surfaced as a CouplingPremiseWarning (the order conclusions are then
    not asserted) and evaluation proceeds regardless.
    """
    provider = CoupledProvider(system, config)
    if check_premise:
        report = coupling_premise_check(system, tol=tol)
        if not report.ok:
            warnings.warn(
                "coupling premise fails on samples "
                f"(entry {report.min_entry:.3e} at {report.witness[:3]}); "
                "order conclusions are not asserted",
                CouplingPremiseWarning,
                stacklevel=2,
            )
    return provider.to_dense(t)


@dataclass(frozen=True)
class CouplingIrreducibilityReport:
    """Witness-based exclusion of the two mixed product ideals."""

    asserted: bool
    sub_classifications: tuple
    positivity_classes: tuple
    witness_12: dict | None
    witness_21: dict | None
    notes: str = ""


def _mixed_witness(src_provider, block, tgt_provider, tgt_norm, grid, tol: float):
    """(t0, s) with block(T_src(s) f) nonzero and still nonzero after T_tgt(t0)."""
    seeds = src_provider.default_test_vectors()
    s_candidates = [s for s in src_provider.admissible_times(list(grid.points)) if s > 0.0]
    t0_candidates = [u for u in tgt_provider.admissible_times(list(grid.points)) if u > 0.0][:3]
    for fi, f in enumerate(seeds):
        f_norm = src_provider.vec_norm(f)
        ztol = tol * max(1.0, f_norm)
        for t0 in t0_candidates:
            for s in s_candidates:
                if s < t0:
                    continue
                y = block.apply(src_provider.apply(s, f))
                ny = tgt_norm(y)
                if ny <= ztol:
                    continue
                z = tgt_provider.apply(t0, y)
                nz = tgt_norm(z)
                if nz > ztol:
                    return {
                        "seed_index": fi,
                        "s": float(s),
                        "t0": float(t0),
                        "block_output_norm": ny,
                        "flowed_norm": nz,
                    }
    raise WitnessSearchFailure(
        "no witness on the sampled grid for the mixed product ideal "
        "(grid-limited; extend the time grid or the seed set)"
    )


def coupling_irreducibility_check(
    system: CoupledSystem,
    grid: TimeGrid | None = None,
    tol: float = 1e-9,
) -> CouplingIrreducibilityReport:
    """Exclude both mixed product ideals of the coupled family by witnesses.

    The premises (both sub-families persistently irreducible and
    eventually positive, both off-diagonal blocks nonzero) are verified
    first; a failed premise yields a report with asserted=False rather
    than an exception.  Each mixed ideal (all of one carrier paired with
    zero in the other) is then excluded by a sampled witness: a seed
    whose image under the off-diagonal block is nonzero at some time s
    and stays nonzero after flowing in the target carrier.
    """
    from .irreducibility import PERSISTENTLY_IRREDUCIBLE, classify
    from .positivity import PositivityClass, classify_on_grid

    grid = grid or TimeGrid.default()
    notes = []
    eligible = True
    if system.b12.is_zero or system.b21.is_zero:
        notes.append("an off-diagonal block vanishes; refusing to assert irreducibility")
        eligible = False
    sub_classes = []
    pos_classes = []
    if eligible:
        for provider in (system.provider1, system.provider2):
            rep = classify(provider, grid=grid, tol=tol)
            sub_classes.append(rep.classification)
            verdict = classify_on_grid(provider, grid=grid, tol=tol)
            pos_classes.append(verdict.verdict.value)
        eventually_positive = {
            PositivityClass.POSITIVE.value,
            PositivityClass.UNIFORMLY_EVENTUALLY_STRONGLY_POSITIVE.value,
            PositivityClass.UNIFORMLY_EVENTUALLY_POSITIVE.value,
        }
        if any(c != PERSISTENTLY_IRREDUCIBLE for c in sub_classes):
            notes.append("a sub-family is not persistently irreducible")
            eligible = False
        if any(c not in eventually_positive for c in pos_classes):
            notes.append("a sub-family is not eventually positive on the grid")
            eligible = False
    if not eligible:
        return CouplingIrreducibilityReport(
            asserted=False,
            sub_classifications=tuple(sub_classes),
            positivity_classes=tuple(pos_classes),
            witness_12=None,
            witness_21=None,
            notes="; ".join(notes),
        )
    witness_21 = _mixed_witness(
        system.provider1,
        system.b21,
        system.provider2,
        lambda v: system.provider2.vec_norm(v),
        grid,
        tol,
    )
    witness_12 = _mixed_witness(
        system.provider2,
        system.b12,
        system.provider1,
        lambda v: system.provider1.vec_norm(v),
        grid,
        tol,
    )
    return CouplingIrreducibilityReport(
        asserted=True,
        sub_classifications=tuple(sub_classes),
        positivity_classes=tuple(pos_classes),
        witness_12=witness_12,
        witness_21=witness_21,
        notes="witnesses are sampled evidence on the given grid",
    )
