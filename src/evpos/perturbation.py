"""Additive bounded perturbations of semigroup generators.

The perturbed family e^{t(A+B)} is compared with e^{tA} through the
Dyson-Phillips series

    V_0(t) = T(t),    V_{n+1}(t) = integral_0^t T(t-s) B V_n(s) ds,

truncated after N terms with a certified tail from the growth envelope.
The series is a matrix-carrier tool: V_0(t)..V_N(t) are the first block
row of e^{tG}, G the block upper-bidiagonal matrix with A on the
diagonal and B above it (Van Loan's block exponential); a block past
BLOCK_BUDGET is refused before any work, and any other carrier is
refused with InputError.  The series has no settings: the term cap is
the most terms the block holds, and the tail target, the block budget
and the premise sample times are module constants.

Coupled lattice carriers need no term count.  Their coupling has finite
rank, B = U Phi, so the coefficients c(p) = Phi S(p h) f of a perturbed
orbit solve the r x r renewal equation

    (I - w_p K(0)) c(p) = Phi T(p h) f + sum_{j<p} w_j K(p - j) c(j).

Its solution is the sum of every term of the lattice series, on the
lattice's own weights w with the kernel K(m) = Phi T(m h) U; an orbit
past NODE_BUDGET is refused before any work, and
S(p h) f = T(p h) f + sum_j w_j T((p - j) h) U c(j) is one weighted
reduction over the seed flow and the range orbits T(m h) u_k, which
every seed shares.  Range orbits, seed flows and coefficients are kept
as rows of arrays that grow by doubling, in the stacked coordinates of
CoupledProvider.stack with an integer support floor per carrier; a
value gathers its summands with one index and adds them in one
reduction, bit for bit the componentwise sum of the carrier vectors.
Its quadrature gauge, the norm of its distance to the trapezoid sum,
is taken when series_report reads it.  The range orbits, their kernel
and each seed's flows are filled in doubling blocks of steps (0..1,
2..3, 4..7, ...): each carrier applies a whole block at once, a matrix
carrier as one product of its stack of flows e^{m h A}, kept in
doubling stacks of one expm call each, and the Gamma-shift carrier
with one kernel evaluation per block; no other carrier is flowed on a
lattice.  The flows, kernels and range orbits depend on the system
alone, and one engine holds them for every provider of an equal system
(the last four systems flowed keep theirs).  The renewal is solved one
step at a time, on demand.  The dense operator S(q h) is its basis
orbits: column j is the orbit of the j-th stacked unit vector.
Two coupled dense carriers are one exponential of the block generator.
On top of the series sit an order-theoretic domination check of matrix
carriers, the transfer of coordinate-ideal invariance from the perturbed
family back to A and B, decided from the generators' zero patterns
because matrix semigroups are analytic, and two-carrier coupled systems
whose off-diagonal blocks feed each component into the other.
"""

import copy
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CertificateMissing,
    ConsistencyViolation,
    ExpmOverflow,
    InputError,
    PremiseViolation,
    QuadratureBudgetExceeded,
    ShiftNotOnGrid,
    TransferViolation,
    WitnessSearchFailure,
)
from .gammashift import GammaShiftProvider, Grid1D, GridFunction
from .irreducibility import ideal_leak, structural_threshold
from .lattice import IdealMask, as_matrix, as_vector
from .semigroup import MatrixSemigroup, SemigroupProvider, TimeGrid, expm, log_norm_envelope


# Series constants: the tail target that fixes the term count, the
# largest block generator (N + 1) n of a matrix carrier, and the abort
# threshold on coupling rank times node count of a lattice renewal.
TAIL_TOLERANCE = 1e-10
BLOCK_BUDGET = 1024
NODE_BUDGET = 2_000_000


class _EnvelopeSeries:
    """Terms M^{n+1} |B|^n t^n e^{omega t} / n! of the envelope bound, each computed once.

    (M, omega) is the growth pair, so |V_n(t)| is at most term n: n + 1
    flows of norm M e^{omega s} and n factors B over the simplex of
    volume t^n / n!.  A term whose logarithm reaches 700 reads inf, the
    bound having left floating range.
    """

    def __init__(self, envelope, norm_b: float, t: float):
        M, omega = float(envelope[0]), float(envelope[1])
        self.x = norm_b * M * t  # ratio of consecutive terms, times n + 1
        self._head = math.log(M) + omega * t
        self._log_x = math.log(self.x)
        self._terms = []

    def term(self, n: int) -> float:
        while len(self._terms) <= n:
            k = len(self._terms)
            log_term = self._head + k * self._log_x - math.lgamma(k + 1)
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

    Sums M^{n+1} |B|^n t^n e^{omega t} / n! over n > n_terms for the
    growth pair (M, omega).  Conservative by construction; returns inf
    when the bound itself leaves floating range.
    """
    t = float(t)
    if t <= 0.0 or norm_b <= 0.0:
        return 0.0
    return _EnvelopeSeries(envelope, norm_b, t).tail(n_terms)


def choose_terms(cap: int, envelope, norm_b: float, t: float):
    """(term count, certified tail) meeting TAIL_TOLERANCE, capped at cap terms.

    The smallest passing count, as a scan of perturbation_tail_bound over
    n = 0, 1, ... finds it; each series term is computed once, and only a
    count whose first dropped term meets the tolerance is summed, since a
    sum of nonnegative terms is at least its first.  Past the cap, the
    capped tail is reported.
    """
    t = float(t)
    if t <= 0.0 or norm_b <= 0.0:
        return 0, 0.0
    series = _EnvelopeSeries(envelope, norm_b, t)
    for n in range(cap + 1):
        if series.term(n + 1) <= TAIL_TOLERANCE:
            tail = series.tail(n)
            if tail <= TAIL_TOLERANCE:
                return n, tail
    return cap, series.tail(cap)


def _block_terms(A: np.ndarray, B: np.ndarray, t: float, n_terms: int) -> list:
    """V_0(t)..V_N(t) as the first block row of e^{tG}, refused past BLOCK_BUDGET.

    G has A in every diagonal block and B in every block just above it, so
    block (0, k) of e^{tG} is the k-th series term (Van Loan, IEEE TAC
    23, 1978).
    """
    n = A.shape[0]
    size = (n_terms + 1) * n
    if size > BLOCK_BUDGET:
        raise QuadratureBudgetExceeded(
            f"the block generator of {n_terms + 1} terms of a {n}x{n} carrier has "
            f"dimension {size}, past the budget of {BLOCK_BUDGET}"
        )
    G = np.kron(np.eye(n_terms + 1), A) + np.kron(np.eye(n_terms + 1, k=1), B)
    row = expm(G, t)[:n]
    return [row[:, k * n : (k + 1) * n].copy() for k in range(n_terms + 1)]


# --------------------------------------------------------------------------
# lattice backend: positive-weight composite rule on whole grid steps
# --------------------------------------------------------------------------


def _unit_weights(q: int) -> list:
    """The lattice weights of step q on a unit lattice, as floats.

    Composite Simpson for even q, Simpson plus a 3/8 tail for odd
    q >= 3, plain trapezoid at q = 1.  Positivity of every weight is
    what lets sampled operator positivity flow through the recursion.
    """
    if q < 1:
        return [0.0]
    if q == 1:
        return [0.5, 0.5]
    simpson = q - 3 if q % 2 else q  # Simpson covers the nodes 0..simpson
    w = []
    if simpson:
        w = [1.0 / 3.0] + [4.0 / 3.0, 2.0 / 3.0] * (simpson // 2 - 1) + [4.0 / 3.0, 1.0 / 3.0]
    if q % 2:
        tail = [3.0 / 8.0, 9.0 / 8.0, 9.0 / 8.0, 3.0 / 8.0]
        if w:
            tail[0] += w.pop()
        w += tail
    return w


def check_node_budget(width: int, q: int) -> None:
    """Refuse a lattice sum of width summands per node to step q past NODE_BUDGET.

    Step p reads the p + 1 nodes 0..p, so steps 0..q read
    width (q + 1)(q + 2) / 2 summands: width is the rank r of a
    renewal's coupling.
    """
    if width * (q + 1) * (q + 2) // 2 > NODE_BUDGET:
        raise QuadratureBudgetExceeded(
            f"{width} x {(q + 1) * (q + 2) // 2} summands over {q + 1} lattice "
            f"nodes exceed the budget of {NODE_BUDGET}"
        )


def _weighted_sums(stack, rules: np.ndarray) -> np.ndarray:
    """[sum_j w[j] stack[j] for w in rules], each bitwise the left fold w[0] s_0 + w[1] s_1 + ...

    One product holds every rule's weighted summands, and one reduction
    over the summand axis adds them row after row, one column at a
    time.  The sum starts at -0.0 so that an entry that is -0.0 in every
    summand keeps its sign, and one-entry rows go through the sequential
    accumulate, because numpy sums a lone contiguous axis pairwise.  A
    list of equal-shape arrays is stacked first.
    """
    stack = np.asarray(stack)
    flat = stack.reshape(len(stack), -1)
    scaled = rules[:, :, None] * flat
    if flat.shape[1] < 2:
        sums = np.add.accumulate(scaled, axis=1)[:, -1]
    else:
        sums = np.add.reduce(scaled, axis=1, initial=-0.0)
    return sums.reshape((len(rules), *stack.shape[1:]))


def _renewal_rules(q: int, h: float) -> np.ndarray:
    """Rows: the lattice weights of step q on a step-h lattice, and their distance to a plain trapezoid."""
    w = np.array(_unit_weights(q)) * h
    gap = w - h
    gap[0], gap[-1] = w[0] - 0.5 * h, w[-1] - 0.5 * h
    return np.array([w, gap])


class _Rows:
    """Rows of one shape kept in order in an array whose capacity doubles when full.

    reserve(k) hands out the next k rows to be written in place and
    commit(k) keeps the first k of them; push() does both for one row.
    `rows` views the rows kept so far.
    """

    __slots__ = ("_buf", "size", "rows")

    def __init__(self, shape: tuple, dtype=float):
        self._buf = np.empty((8, *shape), dtype)
        self.size = 0
        self.rows = self._buf[:0]

    def reserve(self, k: int) -> np.ndarray:
        if self.size + k > len(self._buf):
            shape = (max(self.size + k, 2 * len(self._buf)), *self._buf.shape[1:])
            grown = np.empty(shape, self._buf.dtype)
            grown[: self.size] = self.rows
            self._buf = grown
        return self._buf[self.size : self.size + k]

    def commit(self, k: int) -> None:
        self.size += k
        self.rows = self._buf[: self.size]

    def push(self) -> np.ndarray:
        row = self.reserve(1)[0]
        self.commit(1)
        return row


def _fill_blocks(block, stores: tuple, m: int, ahead: int) -> None:
    """Extend the stores to step m in doubling blocks of steps: 0..1, 2..3, 4..7, ...

    ahead >= m is the step the caller is heading for; the block from the
    kept size lo ends at max(ahead, 2 lo - 1), at least step 1.
    block(lo, hi, *rows) writes the steps lo, lo + 1, ... straight into
    rows reserved in each store and returns how many it wrote: every step
    before hi, or the steps before the first one a step-by-step
    evaluation would refuse; when that step is the first, block raises
    its error, so a refusal is raised only when its step is needed.
    """
    while stores[0].size <= m:
        lo = stores[0].size
        hi = max(ahead + 1, 2 * lo, 2)
        k = block(lo, hi, *(store.reserve(hi - lo) for store in stores))
        for store in stores:
            store.commit(k)


class _FiniteRange:
    """A finite-rank perturbation B = U Phi seen through its range.

    B v is the sum of Phi_k(v) u_k over the r range vectors u_k.
    range_block(lo, hi, orbits, floors, kernel) evaluates a block of
    steps m at once, as _fill_blocks asks, writing the r x D range orbits
    T(m h) u_k in stacked coordinates, their r x 2 integer support
    floors, one per carrier, and the kernel K(m) = Phi T(m h) U, column
    k being Phi of T(m h) u_k.
    Each step is computed once, when fill first reaches its block, and
    kept as one row of `orbits`, `floors` and `kernel`.  The rules of
    each step and the inverses (I - w K(0))^-1 are formed once.  One
    object is held by the _LatticeEngine of each lattice system, so every
    orbit of every provider of an equal system shares all of them.
    """

    def __init__(self, range_block, rank: int, h: float, dim: int):
        self.range_block = range_block
        self.rank, self.h, self.dim = rank, h, dim
        self.orbits = _Rows((rank, dim))
        self.floors = _Rows((rank, 2), int)
        self.kernel = _Rows((rank, rank))
        self._rules = []
        self._inverses = {}
        self._radius = None

    def fill(self, m: int, ahead: int = 0) -> None:
        """Compute the steps up to m not yet kept, in doubling blocks heading for step ahead."""
        if self.kernel.size <= m:
            stores = (self.orbits, self.floors, self.kernel)
            _fill_blocks(self.range_block, stores, m, max(m, ahead))

    def rules(self, p: int) -> np.ndarray:
        """_renewal_rules(p, h), built once per step; row 0 is the lattice weights of step p."""
        while len(self._rules) <= p:
            self._rules.append(_renewal_rules(len(self._rules), self.h))
        return self._rules[p]

    def step_inverse(self, w: float) -> np.ndarray:
        """(I - w K(0))^-1, formed once per last lattice weight w.

        The lattice series sums the powers of w K(0), so it diverges
        unless their spectral radius |w| rho(K(0)) is below one; that case
        is refused.  rho(K(0)) is computed once.
        """
        inv = self._inverses.get(w)
        if inv is None:
            self.fill(0)
            if self._radius is None:
                eigs = np.linalg.eigvals(self.kernel.rows[0])
                self._radius = float(np.max(np.abs(eigs), initial=0.0))
            rho = abs(w) * self._radius
            if rho >= 1.0:
                raise PremiseViolation(
                    f"the lattice series diverges: w K(0) has spectral radius {rho:.6g} >= 1 "
                    f"at the weight w = {w:g}"
                )
            inv = np.linalg.inv(np.eye(self.rank) - w * self.kernel.rows[0])
            self._inverses[w] = inv
        return inv

    def next_coefficients(self, coeffs: np.ndarray) -> np.ndarray:
        """C_{n+1} from C_n on steps 0..q by the coefficient recursion.

        C_{n+1}(0) = 0 and C_{n+1}(p) = sum_{j<=p} w_j K(p - j) C_n(j).
        coeffs stacks C_n(0..q) on its first axis: r numbers per step for
        an orbit's term, an r x k block per step for k histories at once.
        w are the lattice weights of step p; the kernel enters at K(0).
        """
        q = len(coeffs) - 1
        self.fill(q)
        kernel = self.kernel.rows
        out = np.zeros_like(coeffs)
        for p in range(1, q + 1):
            weighted = self.rules(p)[0][:, None, None] * kernel[p::-1]
            out[p] = np.tensordot(weighted, coeffs[: p + 1], axes=([0, 2], [0, 1]))
        return out


# the weight of the seed flow T(q h) f in an orbit's sum and in its trapezoid gap
_FLOW_WEIGHTS = np.array([[1.0], [0.0]])


class _SeedOrbit:
    """One seed's orbit: its range coefficients c(p) = Phi S(p h) f and its values S(p h) f.

    c(0) = Phi f and, for p >= 1,
    (I - w_p K(0)) c(p) = Phi T(p h) f + sum_{j<p} w_j K(p - j) c(j),
    w the lattice weights of step p.  flow_block(lo, hi, flows, floors,
    base) evaluates a block of steps as _fill_blocks asks, writing the
    seed flows T(p h) f in stacked coordinates, their support floors,
    one per carrier, and the base coefficients Phi T(p h) f into rows of
    `flows`, `flow_floors` and `base`.  The flows are filled in doubling
    blocks, the renewal is solved one step at a time, in order, as later
    times are asked for, each step once, into a row of `coeffs`, so no
    result depends on earlier requests.  unstack(row, floors) rebuilds a
    value's carrier vectors.  The seeds of apply and the stacked unit
    vectors whose values are the columns of a dense operator have orbits
    of this one kind.
    """

    def __init__(self, flow_block, finite_range: _FiniteRange, unstack):
        self.range = finite_range
        self.flow_block, self.unstack = flow_block, unstack
        self.flows = _Rows((finite_range.dim,))
        self.flow_floors = _Rows((2,), int)
        self.base = _Rows((finite_range.rank,))
        self.coeffs = _Rows((finite_range.rank,))

    def fill(self, q: int) -> None:
        rng = self.range
        for p in range(self.coeffs.size, q + 1):
            if self.base.size <= p:
                _fill_blocks(self.flow_block, (self.flows, self.flow_floors, self.base), p, q)
            c = b = self.base.rows[p]
            if p:
                rng.fill(p, q)
                w = rng.rules(p)[0]
                kernel = rng.kernel.rows[p:0:-1]  # K(p - j) for j = 0..p-1
                c = b + np.einsum("j,jab,jb->a", w[:p], kernel, self.coeffs.rows)
                c = rng.step_inverse(float(w[p])) @ c
            if not np.isfinite(c).all():
                raise ExpmOverflow(
                    f"the orbit overflowed: its coupling coefficients at t = {p * rng.h:g} "
                    "left the double range"
                )
            self.coeffs.push()[...] = c

    def at(self, q: int):
        """(S(q h) f, (gap, floors)): the value and its gap to the trapezoid rule.

        One weighted reduction over the stack of T(q h) f and the range
        orbits T((q - j) h) u_k, gathered by one index, with weights
        w_j c_k(j); zero coefficients are skipped, so the support floor,
        the least floor of the gathered rows, only counts the orbits that
        enter the sum.  The gap is the same sum with the trapezoid rule's
        distance as weights, in stacked coordinates with the value's
        floors; the norm of its vector is the quadrature gauge.
        """
        self.fill(q)
        rng = self.range
        flow, floors = self.flows.rows[q], self.flow_floors.rows[q]
        if q == 0:
            return self.unstack(flow.copy(), floors), (np.zeros_like(flow), floors)
        C = self.coeffs.rows[: q + 1]
        nodes, ks = C.nonzero()
        steps = q - nodes
        stack = np.concatenate((flow[None], rng.orbits.rows[steps, ks]))
        floors = np.concatenate((floors[None], rng.floors.rows[steps, ks])).min(axis=0)
        weights = np.concatenate((_FLOW_WEIGHTS, rng.rules(q)[:, nodes] * C[nodes, ks]), axis=1)
        total, gap = _weighted_sums(stack, weights)
        if not np.isfinite(total).all():
            raise ExpmOverflow(
                f"the orbit overflowed: its value at t = {q * rng.h:g} left the double range"
            )
        return self.unstack(total, floors), (gap, floors)


@dataclass(frozen=True)
class DysonPhillipsResult:
    """Summed series with its certificates."""

    total: object
    terms: tuple
    tail_bound: float
    n_terms: int
    notes: str = ""


def _matrix_carrier(providerA, what: str) -> MatrixSemigroup:
    """A generator matrix or MatrixSemigroup as a MatrixSemigroup; other carriers are refused."""
    if not isinstance(providerA, SemigroupProvider):
        return MatrixSemigroup(as_matrix(providerA))
    if not isinstance(providerA, MatrixSemigroup):
        raise InputError(f"{what} requires a dense matrix carrier")
    return providerA


def _perturbation_dense(B, dim: int) -> np.ndarray:
    raw = B.to_dense() if hasattr(B, "to_dense") and not isinstance(B, np.ndarray) else B
    mat = as_matrix(raw)
    if mat.shape != (dim, dim):
        raise InputError(f"perturbation must be {dim}x{dim}, got {mat.shape}")
    return mat


def dyson_phillips_sum(providerA, B, t) -> DysonPhillipsResult:
    """Summed series evaluation of a matrix carrier with its tail certificate.

    Matrix carriers only: any other carrier is refused with InputError
    before any work.  The term count is the smallest whose envelope tail
    meets TAIL_TOLERANCE, up to a cap past which the capped tail is
    reported.  An n x n carrier is capped at BLOCK_BUDGET // n - 1 terms,
    the most its block generator holds, and takes the count of whichever
    of its two envelopes passes first: the provider's growth pair and the
    log-norm pair (1, mu_2(A)), tried once when they are the same pair.
    Its terms are the first block row of one block exponential, exact up
    to rounding; when every envelope's tail is inf at the cap, no count
    certifies anything and ExpmOverflow is raised before the block is
    formed, and a block past BLOCK_BUDGET raises QuadratureBudgetExceeded
    likewise.
    """
    if float(t) < 0.0:
        raise InputError("time must be nonnegative")
    provider = _matrix_carrier(providerA, "the Dyson-Phillips series")
    Bd = _perturbation_dense(B, provider.carrier_dim)
    t = float(t)
    envelopes = {"growth": provider.envelope}
    cap = max(1, BLOCK_BUDGET // provider.carrier_dim - 1)
    # default_envelope's eigenbasis pair has M >= 1.1, so M = 1 means
    # the growth pair already is the log-norm pair
    if envelopes["growth"][0] == 1.0:
        envelopes = {"log-norm": envelopes["growth"]}
    else:
        envelopes["log-norm"] = log_norm_envelope(provider.A)
    norm_b = float(np.linalg.norm(Bd, 2))
    n_terms, tail = min(choose_terms(cap, env, norm_b, t) for env in envelopes.values())
    if tail == math.inf:
        pairs = " and ".join(
            f"the {name} pair ({M:.6g}, {w:.6g})" for name, (M, w) in envelopes.items()
        )
        raise ExpmOverflow(
            f"the series at t = {t:g} has no certified term count: the envelope tail "
            f"is inf at the cap of {cap} terms for {pairs}"
        )
    terms = _block_terms(provider.A, Bd, t, n_terms)
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
        n_terms=len(terms) - 1,
        notes=notes,
    )


# --------------------------------------------------------------------------
# domination and invariance transfer
# --------------------------------------------------------------------------


# Premise sample times: 32 log-spaced points on [1e-3, 10] plus the zero axis.
PREMISE_TIMES = (0.0,) + tuple(float(x) for x in np.geomspace(1e-3, 10.0, 32))
# The transfer check's entry tolerance, for its premise and its structural thresholds.
TRANSFER_TOL = 1e-9


def _premise_flow(provider):
    """(times, stack): T(t) at each premise sample time the carrier admits, one (k, n, n) array.

    A matrix carrier evaluates the times as stacked lists; the stack is
    filled in place, so no second copy of the operators is held.
    """
    times = provider.admissible_times(PREMISE_TIMES)
    if isinstance(provider, MatrixSemigroup):
        flow = provider.matrices(times)
    else:
        flow = map(provider.to_dense, times)
    n = provider.carrier_dim
    stack = np.empty((len(times), n, n))
    for row, m in zip(stack, flow):
        row[...] = m
    return times, stack


def _sandwich_min(left, B: np.ndarray, right):
    """(value, t, s, row, col) of the smallest entry of L(t) B R(s) over every sampled pair.

    left and right are (times, stack) pairs of _premise_flow; ties keep
    the first pair in sampling order, and t is None when nothing was
    sampled.
    """
    best = (math.inf, None, None, None, None)
    right_times, rights = right
    if not right_times:
        return best
    for t, lt in zip(*left):
        prod = (lt @ B) @ rights
        idx = np.unravel_index(int(np.argmin(prod)), prod.shape)
        val = float(prod[idx])
        if val < best[0]:
            best = (val, float(t), float(right_times[idx[0]]), int(idx[1]), int(idx[2]))
    return best


def _premise_scan(provider, Bd: np.ndarray, tol: float):
    """Minimum entry of T(t) B T(s) over the sampled (s, t) square.

    Returns (min_entry, witness) and raises PremiseViolation when the
    minimum drops below -tol, witness = (s, t, row, col, value).
    """
    flow = _premise_flow(provider)
    worst, t, s, row, col = _sandwich_min(flow, Bd, flow)
    witness = None if t is None else (s, t, row, col, worst)
    if worst < -tol:
        raise PremiseViolation(
            f"T(t) B T(s) has entry {worst:.3e} < -{tol:.1e} at (s, t) = "
            f"({witness[0]:.6g}, {witness[1]:.6g})",
            witnesses=[witness],
        )
    return worst, witness


@dataclass(frozen=True)
class DominationReport:
    """Sampled premise and conclusion of the order comparison."""

    premise_min: float
    premise_witness: tuple
    conclusion_min: float
    conclusion_witness: tuple
    times: tuple
    tol: float
    notes: str = ""


def domination_check(providerA, B, tol: float = 1e-9) -> DominationReport:
    """Sample T(t) B T(s) >= -tol; if it holds, assert e^{t(A+B)} >= e^{tA} - tol.

    Matrix carriers only: any other carrier is refused with InputError
    before any work.  The premise is scanned on a log-spaced square plus
    its axes; a violation raises PremiseViolation with the offending
    (s, t) pair.  When the premise holds, the conclusion is checked at
    every time of TimeGrid.default(), both exponentials read from stacked
    time lists; a failed conclusion would contradict the theory and
    raises ConsistencyViolation.
    """
    provider = _matrix_carrier(providerA, "the domination check")
    Bd = _perturbation_dense(B, provider.carrier_dim)
    premise_min, premise_witness = _premise_scan(provider, Bd, tol)
    times = provider.admissible_times(list(TimeGrid.default().points))
    flows = [MatrixSemigroup(M) for M in (provider.A, provider.A + Bd)]
    worst = math.inf
    worst_witness = None
    for t, base, perturbed in zip(times, *(flow.matrices(times) for flow in flows)):
        diff = perturbed - base
        idx = np.unravel_index(int(np.argmin(diff)), diff.shape)
        val = float(diff[idx])
        if val < worst:
            worst = val
            worst_witness = (float(t), int(idx[0]), int(idx[1]), val)
        if val < -tol:
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
    )


@dataclass(frozen=True)
class TransferReport:
    """Onsets past which the ideal stays invariant for every checked family.

    Matrix semigroups are analytic, so each onset is 0.0.
    """

    ideal: IdealMask
    perturbed_onset: float
    unperturbed_onset: float
    family_onset: tuple
    tol: float
    notes: str = ""


def invariance_transfer_check(providerA, B, ideal) -> TransferReport:
    """Invariance of a coordinate ideal transfers from e^{t(A+B)} back to A.

    Matrix carriers only (InputError otherwise).  Each entry of e^{tM} is
    real-analytic in t, so a coordinate ideal I is eventually invariant
    under e^{tM} exactly when M[I^c, I] = 0, and then invariant from t = 0:
    every invariance below is decided by ideal_leak on the generator at
    structural_threshold(M, TRANSFER_TOL), the threshold of classify, and
    every onset is 0.0.  Premises: the ideal is invariant under A + B
    (PremiseViolation with the leaking entry (i, j, value) otherwise), and
    T(t) B T(s) >= -TRANSFER_TOL on the sampled square.  Conclusions: the
    ideal is invariant under A, and under B, which is the whole family
    T(t) B T(s): once A[I^c, I] = 0, (T(t) B T(s))[I^c, I] =
    T(t)[I^c, I^c] B[I^c, I] T(s)[I, I] with both outer factors invertible.  A failed conclusion
    raises TransferViolation with its entry; it must never fire on sound
    inputs.
    """
    provider = _matrix_carrier(providerA, "coordinate-ideal transfer")
    tol = TRANSFER_TOL
    n = provider.carrier_dim
    mask = ideal if isinstance(ideal, IdealMask) else IdealMask.of(ideal, n)
    if mask.dim != n:
        raise InputError("ideal mask dimension does not match the carrier")
    Bd = _perturbation_dense(B, n)
    perturbed = provider.A + Bd
    leak = ideal_leak(perturbed, mask, structural_threshold(perturbed, tol))
    if leak is not None:
        raise PremiseViolation(
            f"(A + B)[{leak[0]}, {leak[1]}] = {leak[2]:.3e} carries the ideal into its "
            "complement, so it is invariant under e^{t(A+B)} on no interval of times",
            witnesses=[leak],
        )
    _premise_scan(provider, Bd, tol)
    for name, M in (("A", provider.A), ("B", Bd)):
        leak = ideal_leak(M, mask, structural_threshold(M, tol))
        if leak is not None:
            raise TransferViolation(
                f"{name}[{leak[0]}, {leak[1]}] = {leak[2]:.3e} carries the ideal into "
                "its complement although A + B leaves it invariant",
                witnesses=[leak],
            )
    return TransferReport(
        ideal=mask,
        perturbed_onset=0.0,
        unperturbed_onset=0.0,
        family_onset=(0.0, 0.0),
        tol=tol,
    )


# --------------------------------------------------------------------------
# couplings between two carriers
# --------------------------------------------------------------------------


class GridFunctional:
    """f |-> integral of a grid function over the window [a, b); key is (grid, cells)."""

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
        self.key = (grid, lo, hi)
        self.norm = 1.0  # |integral over a window| <= L^1 norm

    def __call__(self, f: GridFunction) -> float:
        lo, hi = self._cells
        if f.support_lo >= hi:
            return 0.0  # exact: every window cell sits below the support floor
        return float(self.grid.h * f.samples[lo:hi].sum())

    def values(self, samples: np.ndarray, floors: np.ndarray) -> np.ndarray:
        """This functional on each grid function of a (steps, vectors, count) stack, bit for bit.

        floors holds their support floors; a window below a floor reads 0.0.
        """
        lo, hi = self._cells
        return np.where(floors >= hi, 0.0, self.grid.h * samples[..., lo:hi].sum(axis=-1))

    def row(self) -> np.ndarray:
        out = np.zeros(self.grid.count)
        lo, hi = self._cells
        out[lo:hi] = self.grid.h
        return out

    def indicator(self) -> GridFunction:
        """The window's cell indicator, whose grid pairing with f is this functional's value."""
        return GridFunction(self.grid, self.row() / self.grid.h)


class CoordinateFunctional:
    """z |-> z[index] on a dense coordinate carrier; key is (index, dim)."""

    def __init__(self, index: int, dim: int):
        if not (0 <= index < dim):
            raise InputError("coordinate index out of range")
        self.index = index
        self.dim = dim
        self.key = (index, dim)
        self.norm = 1.0

    def __call__(self, z) -> float:
        return float(as_vector(z)[self.index])

    def values(self, samples: np.ndarray, floors: np.ndarray) -> np.ndarray:
        """This functional on each vector of a (steps, vectors, dim) stack, step by step.

        floors is unread: a coordinate vector has none.  The steps end
        before the first one holding a vector with an entry that is not
        finite, which __call__ refuses; when that step is the first, it is
        refused here with the same error.
        """
        if not np.isfinite(samples).all():
            refused = ~np.isfinite(samples).all(axis=-1)
            step = int(refused.any(axis=1).argmax())
            if step == 0:
                as_vector(samples[0, refused[0].argmax()])
            samples = samples[:step]
        return samples[..., self.index]

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


def _is_zero_function(value) -> bool:
    """None, or a grid function bitwise GridFunction.zero: samples all +0.0, floor at the top."""
    return value is None or (
        isinstance(value, GridFunction)
        and value.support_lo == value.grid.count
        and not np.signbit(value.samples).any()
    )


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
        self.shape = (out_arr.size, functional.row().size)
        self.range_vectors = (output,) if out_arr.any() else ()

    def coefficients(self, f) -> np.ndarray:
        """Phi(f): the coefficient of each range vector in the image of f."""
        return np.array([self.functional(f)] if self.range_vectors else [])

    def block_coefficients(self, samples: np.ndarray, floors: np.ndarray) -> np.ndarray:
        """coefficients() of each vector of a (steps, vectors, n) stack, as (steps, vectors, r).

        floors holds the vectors' support floors.  The steps may end early
        where the functional's values() stops.
        """
        if not self.range_vectors:
            return np.zeros((*samples.shape[:2], 0))
        return self.functional.values(samples, floors)[..., None]

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

    Its range vectors are the unit vectors of its nonzero rows.
    """

    def __init__(self, matrix):
        self.matrix = as_matrix(np.atleast_2d(np.asarray(matrix, dtype=float)))
        self.norm_bound = float(np.linalg.norm(self.matrix, 2))
        self.shape = self.matrix.shape
        rows = np.flatnonzero(self.matrix.any(axis=1))
        self.range_vectors = tuple(np.eye(self.shape[0])[rows])

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

    b12 maps the second carrier into the first, b21 the other way.
    """

    provider1: SemigroupProvider
    provider2: SemigroupProvider
    b12: object
    b21: object

    def __post_init__(self):
        n1 = _carrier_dim(self.provider1)
        n2 = _carrier_dim(self.provider2)
        d12 = self.b12.to_dense()
        d21 = self.b21.to_dense()
        if d12.shape != (n1, n2):
            raise InputError(f"b12 must be {n1}x{n2}, got {d12.shape}")
        if d21.shape != (n2, n1):
            raise InputError(f"b21 must be {n2}x{n1}, got {d21.shape}")

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


def coupling_premise_check(system: CoupledSystem, tol: float = 1e-9) -> PremiseSampleReport:
    """Sample T1(t) B12 T2(s) and T2(t) B21 T1(s) for entries below -tol.

    The witness is (direction, t, s, row, col, value); on a tie the "12"
    direction wins.
    """
    p1, p2 = system.provider1, system.provider2
    d1, d2 = _premise_flow(p1), _premise_flow(p2)
    m12 = _sandwich_min(d1, system.b12.to_dense(), d2)
    m21 = _sandwich_min(d2, system.b21.to_dense(), d1)
    label, (worst, t, s, row, col) = ("21", m21) if m21[0] < m12[0] else ("12", m12)
    return PremiseSampleReport(
        ok=bool(worst >= -tol),
        min_entry=worst,
        witness=None if t is None else (label, t, s, row, col, worst),
        pairs_checked=2 * len(d1[0]) * len(d2[0]),
        tol=tol,
    )


class _MatrixFlows:
    """e^{m h A} of one matrix carrier by lattice step m, evaluated in doubling stacks.

    The first read of steps lo..hi - 1 past the `size` kept ones
    evaluates steps size..max(hi - 1, 2 size - 1) with one
    carrier.matrices call at the times m * h, so each is bit for bit
    carrier.matrix(m * h).
    A stack that overflows keeps the steps before its first overflowing
    one, and every step from there on is carrier.matrix's, which raises
    the single-time ExpmOverflow.  Every evaluated step is kept, n x n
    doubles each, in one array, so a block of steps is one slice.  A
    _LatticeEngine holds one per matrix carrier for every equal system.
    """

    def __init__(self, carrier: MatrixSemigroup, h: float):
        self.carrier, self.h = carrier, h
        self.kept = _Rows(carrier.A.shape)
        self.overflow = None  # the first step whose flow overflowed

    def block(self, lo: int, hi: int) -> np.ndarray:
        """e^{m h A} for the steps m = lo..hi - 1 as one (k, n, n) stack, k < hi - lo past an overflow."""
        size = self.kept.size
        if hi > size and self.overflow is None:
            times = [k * self.h for k in range(size, max(hi, 2 * size))]
            try:
                for flow in self.carrier.matrices(times):
                    self.kept.push()[...] = flow
            except ExpmOverflow:
                self.overflow = self.kept.size
        if lo < self.kept.size:
            return self.kept.rows[lo:hi]
        return self.carrier.matrix(lo * self.h)[None]

    def at(self, m: int) -> np.ndarray:
        return self.block(m, m + 1)[0]


def _frozen(u):
    """A read-only copy of a matrix or a carrier vector; a grid function keeps its support floor."""
    arr = np.array(u.samples if isinstance(u, GridFunction) else u, dtype=float)
    arr.flags.writeable = False
    return GridFunction(u.grid, arr, u.support_lo) if isinstance(u, GridFunction) else arr


class _LatticeEngine:
    """What a lattice system computes whatever the seed: its flows, Gamma kernels and range orbits.

    Its own carriers and couplings flow read-only copies of the system's
    data; it holds a _MatrixFlows per matrix carrier, the _FiniteRange
    and the last step check_orbit passed, and no provider.
    """

    def __init__(self, h: float, system: CoupledSystem):
        self.h = h
        self.carriers = [
            MatrixSemigroup(_frozen(p.A)) if isinstance(p, MatrixSemigroup) else GammaShiftProvider(p.grid)
            for p in (system.provider1, system.provider2)
        ]
        self.n1 = self.carriers[0].carrier_dim
        self.flows = [_MatrixFlows(p, h) if isinstance(p, MatrixSemigroup) else None for p in self.carriers]
        # the support floor of each carrier's zero vector: a grid's top, 0 for coordinates
        self.zero_floors = [p.grid.count if f is None else 0 for p, f in zip(self.carriers, self.flows)]
        blocks = (system.b12, system.b21)
        b12, b21 = (RankOneCoupling(_frozen(b.output), copy.copy(b.functional)) for b in blocks)
        # b12 reads the second carrier into coefficients 0..r12 - 1, b21 the first into the rest
        r12 = len(b12.range_vectors)
        self.readers = ((b12, slice(0, r12), 1), (b21, slice(r12, None), 0))
        # each range vector u_k flows in its own carrier; the other component stays zero
        pairs = [(u, None) for u in b12.range_vectors] + [(None, u) for u in b21.range_vectors]
        ranges = self.block_plan(pairs)
        self.range = _FiniteRange(
            lambda lo, hi, orbits, floors, kernel: self.flow_block(
                ranges, lo, hi, orbits, floors, kernel.transpose(0, 2, 1)
            ),
            len(pairs),
            h,
            self.n1 + self.carriers[1].carrier_dim,
        )
        self.sweep_end = -1

    def block_plan(self, pairs: list) -> tuple:
        """What flow_block flows for a list of J (first, second) carrier vector pairs.

        (zero floors, parts): the J x 2 support floors of zero vector
        pairs, and for each carrier the slice of the pairs whose
        components it flows (None for none), with those components.  None
        marks a zero component that is not flowed; so does a grid function
        that is bitwise the zero function, whose flow is that function at
        every step.  The flowed pairs of a carrier are consecutive, as a
        seed's one pair and the range pairs (b12's, then b21's) are.  A
        matrix carrier's vectors pass as_vector once here.
        """
        parts = []
        for i, flows in enumerate(self.flows):
            js = [j for j, pair in enumerate(pairs) if not _is_zero_function(pair[i])]
            vs = [pairs[j][i] if flows is None else as_vector(pairs[j][i]) for j in js]
            parts.append((slice(js[0], js[-1] + 1) if js else None, vs))
        return np.full((len(pairs), 2), self.zero_floors), parts

    def flow_block(self, plan: tuple, lo: int, hi: int, values, floors, coeffs) -> int:
        """Write T(m h) f for each pair f of a block plan and the steps m = lo, lo + 1, ...

        values (k, J, D) takes the flows in stacked coordinates, floors
        (k, J, 2) their integer support floors (a grid function's
        support_lo, 0 for a coordinate vector) and coeffs (k, J, r) Phi of
        each; the number of steps written is returned.  Each carrier
        applies the block at once: a matrix carrier is one product of its
        flow stack per vector, a Gamma-shift carrier its apply_steps.  The
        block holds every step before hi, or ends before the first step
        that a step-by-step evaluation refuses (a matrix flow past the
        double range, a vector a coupling refuses), refused itself when it
        is the first.  A block that starts before the last step passed to
        check_orbit ends there.
        """
        zero_floors, parts = plan
        carrier_cols = (slice(0, self.n1), slice(self.n1, None))
        if lo <= self.sweep_end:
            hi = min(hi, self.sweep_end + 1)
        stacks = [None if flows is None else flows.block(lo, hi) for flows in self.flows]
        k = min([hi - lo] + [len(stack) for stack in stacks if stack is not None])
        values, floors, coeffs = values[:k], floors[:k], coeffs[:k]
        values[...], floors[...], coeffs[...] = 0.0, zero_floors, 0.0
        for i, (carrier, stack, (js, vs)) in enumerate(zip(self.carriers, stacks, parts)):
            if js is None:
                continue
            cols = carrier_cols[i]
            if stack is not None:
                for j, v in enumerate(vs, js.start):
                    values[:, j, cols] = stack[:k] @ v
            else:
                carrier.apply_steps(range(lo, lo + k), vs, values[:, js, cols], floors[:, js, i])
        # each coupling reads its carrier's flowed components; a zero one reads 0.0
        for coupling, out, i in self.readers:
            js = parts[i][0]
            if js is not None:
                cols = carrier_cols[i]
                part = coupling.block_coefficients(values[:k, js, cols], floors[:k, js, i])
                k = len(part)
                coeffs[:k, js, out] = part
        return k

    def check_orbit(self, q: int) -> None:
        """Refuse lattice orbits to step q before any renewal work.

        Refused are a renewal past the node budget and a matrix carrier
        whose flow e^{tA} leaves the double range by step q.  The check
        fills each matrix carrier's flow store to step q in one stacked
        call, and the blocks of steps that start before q end at q, so an
        orbit sweep to q evaluates no further exponential or kernel.
        """
        check_node_budget(self.range.rank, q)
        for flows in self.flows:
            if flows is not None:
                try:
                    flows.at(q)
                except ExpmOverflow as exc:
                    raise ExpmOverflow(f"the orbit to t = {q * self.h:g} overflows: {exc}") from None
        self.sweep_end = max(q, self.sweep_end)


# The engines of the lattice systems flowed last, the least recently used
# first: a command flows one system, the benchmark's batch two.
_ENGINES = {}
_KEPT_ENGINES = 4


def _lattice_engine(h: float, system: CoupledSystem) -> _LatticeEngine:
    """The engine of a lattice system from _ENGINES, keyed by the exact data it flows: h, each
    carrier's generator (shape and bytes) or grid, each block's functional key and range vectors
    (samples and support floor).  Past _KEPT_ENGINES the least recently used is dropped."""
    carriers = [
        (p.A.shape, p.A.tobytes()) if isinstance(p, MatrixSemigroup) else p.grid
        for p in (system.provider1, system.provider2)
    ]
    ranges = [
        tuple((_vector_array(u).tobytes(), getattr(u, "support_lo", None)) for u in b.range_vectors)
        for b in (system.b12, system.b21)
    ]
    key = (h, *carriers, system.b12.functional.key, system.b21.functional.key, *ranges)
    engine = _ENGINES.pop(key, None) or _LatticeEngine(h, system)
    _ENGINES[key] = engine
    if len(_ENGINES) > _KEPT_ENGINES:
        del _ENGINES[next(iter(_ENGINES))]
    return engine


class CoupledProvider(SemigroupProvider):
    """Provider for the coupled family on the product carrier.

    Two dense carriers, MatrixSemigroups both, are one exponential of
    the block generator, diag(A1, A2) plus the off-diagonal blocks.  When
    a carrier is locked to a time lattice, each carrier must be a
    MatrixSemigroup or a GammaShiftProvider, the off-diagonal part is
    held as U Phi through the blocks' range vectors (anything else, a
    DenseCoupling included, is refused with InputError), and every orbit
    solves the r x r lattice renewal equation for its coefficients
    c(p) = Phi S(p h) f: the sum of every series term, with no term
    count and no truncation tail.  Range orbits and seed flows are kept
    as rows in the stacked coordinates of stack(), each with one integer
    support floor per carrier, and unstack() rebuilds a value's native
    vectors with the least floor of its summands.  They are filled in
    doubling blocks of steps (0..1, 2..3, 4..7, ...) by the engine's
    flow_block, which applies each carrier to a whole block at once.
    What depends on the system alone, the flows e^{m h A}, the Gamma
    kernels, the range orbits and K(m) = Phi T(m h) U, is held by the
    _LatticeEngine shared by every provider of an equal system: a sweep
    to step q takes at most ceil(log2(q + 1)) + 1 expm calls and as many
    kernel evaluations for a system not yet flowed that far, none for
    one that was.  What depends on a provider's calls stays with it: the
    seed orbits, the gauges and the dense operators.  Column j of
    to_dense(q h) is the orbit of the j-th stacked unit vector at step
    q, bit for bit stack(apply(q h, e_j)); those D basis orbits are kept
    once per provider, apart from the seeds' cache and from
    series_report's orbit gauges.  The growth envelope is computed on
    its first read; no evaluation reads it.
    """

    nilpotent_time = None

    def __init__(self, system: CoupledSystem):
        self.system = system
        g1 = getattr(system.provider1, "grid", None)
        g2 = getattr(system.provider2, "grid", None)
        lattices = [g for g in (g1, g2) if isinstance(g, Grid1D)]
        if len(lattices) == 2 and abs(lattices[0].h - lattices[1].h) > 0:
            raise InputError("coupled carriers disagree on the time lattice step")
        self.lattice_h = lattices[0].h if lattices else None
        self._grids = tuple(g if isinstance(g, Grid1D) else None for g in (g1, g2))
        self._n1 = system.dim1
        self._orbit_cache = {}
        self._dense_cache = {}
        self._gauges = {}  # ("dense", t): gauge, ("orbit", fingerprint): (gap, floors)
        lattice = self.lattice_h is not None
        kinds = (MatrixSemigroup, GammaShiftProvider) if lattice else (MatrixSemigroup,)
        for name, carrier in (("provider1", system.provider1), ("provider2", system.provider2)):
            if not isinstance(carrier, kinds):
                where = "a lattice system" if lattice else "a system off a lattice"
                flowed = " and ".join(kind.__name__ for kind in kinds)
                kind = type(carrier).__name__
                raise InputError(f"{name} is a {kind}; {where} flows only {flowed} carriers")
        if lattice:
            for name, block in (("b12", system.b12), ("b21", system.b21)):
                if not isinstance(block, RankOneCoupling):
                    kind = type(block).__name__
                    raise InputError(f"{name} is a {kind}; a lattice carrier needs a RankOneCoupling")
            self._engine = _lattice_engine(self.lattice_h, system)
            self._range = self._engine.range
            self._basis = None  # the orbits of the stacked unit vectors, built on the first dense read

    @functools.cached_property
    def envelope(self) -> tuple:
        """(M, omega + M |B|), the growth bound of the bounded perturbation."""
        m, w = self.system.diag_envelope()
        return (m, w + m * self.system.perturbation_norm())

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

    def unstack(self, row: np.ndarray, floors) -> ProductVector:
        """The product vector with stacked coordinates row and the given support floors.

        A grid floor of None is read off the samples, as GridFunction reads it."""
        (g1, g2), n1 = self._grids, self._n1
        first, second = row[:n1], row[n1:]
        return ProductVector(
            first if g1 is None else GridFunction(g1, first, floors[0]),
            second if g2 is None else GridFunction(g2, second, floors[1]),
        )

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

    def vanishing_time(self, f: ProductVector, adjoint: bool):
        """None for f != 0 on two dense carriers, whose family is one invertible exponential.

        A lattice orbit has no exact vanishing time here (CertificateMissing)."""
        if self.lattice_h is not None:
            return super().vanishing_time(f, adjoint)
        return None if self.stack(f).any() else 0.0

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
        q = int(round(float(t) / self.lattice_h))
        if abs(q * self.lattice_h - float(t)) > 1e-9 * max(1.0, abs(float(t))) or q < 0:
            raise ShiftNotOnGrid(f"time {t} is not a whole number of lattice steps")
        return q

    def check_orbit(self, q: int) -> None:
        """Refuse lattice orbits to step q before any renewal work, as _LatticeEngine.check_orbit does."""
        self._engine.check_orbit(q)

    def _fingerprint(self, f: ProductVector):
        return (
            _vector_array(f.first).tobytes(),
            _vector_array(f.second).tobytes(),
        )

    def _seed_orbit(self, f: ProductVector, t: float, key=None):
        """(orbit of f, step of t), refused past the node budget before any work.

        key is f's fingerprint, when the caller has it.
        """
        if self.lattice_h is None:
            raise InputError("lattice orbits need a carrier locked to a time lattice")
        q = self._steps_of(t)
        check_node_budget(self._range.rank, q)
        if key is None:
            key = self._fingerprint(f)
        orbit = self._orbit_cache.get(key)
        if orbit is None:
            orbit = self._new_orbit(f.copy())
            if len(self._orbit_cache) < 64:
                self._orbit_cache[key] = orbit
        return orbit, q

    def _new_orbit(self, seed: ProductVector) -> _SeedOrbit:
        """The orbit of seed, its flows written by the engine's flow_block from a one-pair plan."""
        engine = self._engine
        plan = engine.block_plan([(seed.first, seed.second)])
        return _SeedOrbit(
            lambda lo, hi, flows, floors, base: engine.flow_block(
                plan, lo, hi, flows[:, None], floors[:, None], base[:, None]
            ),
            self._range,
            self.unstack,
        )

    def terms_alive(self, f: ProductVector, t: float):
        """How many leading series terms V_0, V_1, ... of the orbit of f survive to time t.

        Term n + 1 is identically zero on steps 0..q exactly when the
        range coefficients c_n of term n vanish there; they follow the
        r-dimensional recursion c_0(p) = Phi T(p h) f,
        c_{n+1}(p) = sum_{j<=p} w_j K(p - j) c_n(j) with c_{n+1}(0) = 0.
        That recursion is a linear map on the (q + 1) x r history, so a
        history still nonzero after r (q + 1) steps never vanishes: the
        count is then None.
        """
        orbit, q = self._seed_orbit(f, t)
        orbit.fill(q)
        c = np.array(orbit.base.rows[: q + 1])
        for alive in range(1, c.size + 2):
            if not c.any():
                return alive
            c = self._range.next_coefficients(c)
        return None

    def apply(self, t, f: ProductVector) -> ProductVector:
        if self.lattice_h is not None:
            key = self._fingerprint(f)
            orbit, q = self._seed_orbit(f, t, key)
            total, self._gauges[("orbit", key)] = orbit.at(q)
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

    def _dense_lattice(self, q: int):
        """(S(q h) in the stacked basis, quadrature gauge) from the basis orbits.

        Column j is the value at step q of the orbit of the j-th stacked
        unit vector e_j, and the gauge is the largest |entry| of the
        trapezoid gaps of those values.  The D orbits are built once per
        provider and share the range orbits with every seed.
        """
        check_node_budget(self._range.rank, q)
        dim = self.carrier_dim
        if self._basis is None:
            self._basis = [self._new_orbit(self.unstack(e, (None, None))) for e in np.eye(dim)]
        dense, gauge = np.empty((dim, dim)), 0.0
        for j, orbit in enumerate(self._basis):
            value, (gap, _) = orbit.at(q)
            dense[:, j] = self.stack(value)
            gauge = max(gauge, float(np.max(np.abs(gap), initial=0.0)))
        return dense, gauge

    def to_dense(self, t) -> np.ndarray:
        t = float(t)
        hit = self._dense_cache.get(t)
        if hit is not None:
            return hit
        if self.lattice_h is None:
            n1 = self.system.dim1
            generator = self.system.block_dense()
            generator[:n1, :n1] += self.system.provider1.A
            generator[n1:, n1:] += self.system.provider2.A
            dense, gauge = expm(generator, t), 0.0
        else:
            dense, gauge = self._dense_lattice(self._steps_of(t))
        self._gauges[("dense", t)] = gauge
        if len(self._dense_cache) < 256:
            self._dense_cache[t] = dense
        return dense

    def series_report(self, t=None) -> dict:
        """n_terms, tail_bound and quadrature_estimate of the dense operator at t.

        Every evaluation is exact in the series: lattice ones sum every
        term and two dense carriers take one exponential, so n_terms and
        tail_bound are 0 by construction and only gauges are kept.  A
        lattice gauge is the distance to the trapezoid rule at the
        evaluated step; a dense one is 0.0.  An orbit keeps the gap of its
        last value, and its gauge, the norm of the gap's vector, is taken
        here.  Without t, the gauge is the largest over every evaluation;
        a t never evaluated gives an empty dict.
        """
        if t is None:
            gauges = [
                gauge if kind == "dense" else self.vec_norm(self.unstack(*gauge))
                for (kind, _), gauge in self._gauges.items()
            ]
            gauge = max([0.0, *gauges])
        else:
            gauge = self._gauges.get(("dense", float(t)))
            if gauge is None:
                return {}
        return {"n_terms": 0, "tail_bound": 0.0, "quadrature_estimate": gauge}

    def positivity_probe(self, t):
        dense = self.to_dense(t)
        idx = np.unravel_index(int(np.argmin(dense)), dense.shape)
        return float(dense[idx]), (int(idx[0]), int(idx[1])), False


@dataclass(frozen=True)
class CouplingIrreducibilityReport:
    """Certificate-based exclusion of the two mixed product ideals."""

    asserted: bool
    sub_classifications: tuple
    positivity_classes: tuple
    witness_12: dict | None
    witness_21: dict | None
    notes: str = ""


def _krylov_order(A, B, f, tol: float):
    """Least k < n with B A^k f != 0, or None: then B e^{sA} f = 0 for every s.

    By Cayley-Hamilton every A^k f, k >= n, is a combination of the first
    n.  A value below tol times |B| |A|^k |f| (entrywise), which bounds
    its rounding, counts as zero.
    """
    v, w = as_vector(f), np.abs(as_vector(f))
    for k in range(A.shape[0]):
        if np.max(np.abs(B @ v)) > tol * np.max(np.abs(B) @ w):
            return k
        v, w = A @ v, np.abs(A) @ w
    return None


def _block_witness(src, block, tgt, tol: float):
    """A seed f of src with block(T_src(s) f) nonzero under T_tgt(t0) for all
    s >= s_from and t0 >= t0_from, as a dict; None when no seed has one."""
    if isinstance(tgt, MatrixSemigroup):
        t0_from, target = 0.0, "e^(t0 A) is invertible"
    elif len(block.range_vectors) == 1:
        (u,) = block.range_vectors
        support = tgt.pairing_support(u, u)
        t0_from, target = support.tail_from, f"<u, T(t0) u> != 0 on {support}, so T(t0) u != 0"
        if t0_from is None:
            return None
    else:
        raise CertificateMissing("a block into a lattice carrier needs one range vector")
    window = getattr(getattr(block, "functional", None), "indicator", None)
    for fi, f in enumerate(src.default_test_vectors()):
        if isinstance(src, MatrixSemigroup):
            k = _krylov_order(src.A, block.to_dense(), f, tol)
            s_from = None if k is None else 0.0
            source = f"B A^{k} f != 0, {k} < n = {src.carrier_dim}: B e^(sA) f is analytic"
            source += ", so zero at isolated s only"
        elif window is not None:
            support = src.pairing_support(f, window())
            s_from = support.tail_from
            source = f"the window pairs with T(s) f nonzero exactly on {support} ({support.reason})"
        else:
            raise CertificateMissing("a block out of a lattice carrier needs a window functional")
        if s_from is not None:
            ranges = {"s_from": float(s_from), "t0_from": float(t0_from)}
            return {"seed_index": fi, **ranges, "source": source, "target": target}
    return None


def _positivity_class(provider, tol: float) -> str:
    """Certified positivity class of a sub-family, else Inconclusive."""
    from .positivity import PositivityClass, certify_eventual_strong_positivity

    if isinstance(provider, MatrixSemigroup):
        verdict = certify_eventual_strong_positivity(provider.A, tol=tol)[1]
        if verdict.certified:
            return verdict.verdict.value
    elif provider.positive_by_construction:
        return PositivityClass.POSITIVE.value
    return PositivityClass.INCONCLUSIVE.value


def coupling_irreducibility_check(
    system: CoupledSystem,
    tol: float = 1e-9,
) -> CouplingIrreducibilityReport:
    """Exclude both mixed product ideals of the coupled family by exact witnesses.

    The premises (both sub-families persistently irreducible and
    certified eventually positive, both off-diagonal blocks nonzero) are
    verified first; a failed premise yields a report with asserted=False
    rather than an exception.  A matrix sub-family's positivity is its
    certified certify_eventual_strong_positivity verdict, a Gamma-shift's
    its construction.  Each mixed ideal (all of one carrier paired with
    zero in the other) is then excluded by a seed whose block image is
    nonzero on a range of times s and stays so under the target flow:
    from the Krylov vectors B A^k f of a matrix source, from the exact
    pairing support against the block's window of a lattice source.
    """
    from .irreducibility import PERSISTENTLY_IRREDUCIBLE, classify
    from .positivity import _ONSET_CLASSES  # the (eventually) positive classes

    notes = []
    eligible = True
    if system.b12.is_zero or system.b21.is_zero:
        notes.append("an off-diagonal block vanishes; refusing to assert irreducibility")
        eligible = False
    sub_classes = []
    pos_classes = []
    if eligible:
        for provider in (system.provider1, system.provider2):
            sub_classes.append(classify(provider, tol=tol).classification)
            pos_classes.append(_positivity_class(provider, tol))
        if any(c != PERSISTENTLY_IRREDUCIBLE for c in sub_classes):
            notes.append("a sub-family is not persistently irreducible")
            eligible = False
        if any(c not in _ONSET_CLASSES for c in pos_classes):
            notes.append("a sub-family is not certified eventually positive")
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
    witness_21 = _block_witness(system.provider1, system.b21, system.provider2, tol)
    witness_12 = _block_witness(system.provider2, system.b12, system.provider1, tol)
    if witness_12 is None or witness_21 is None:
        raise WitnessSearchFailure(
            "no default seed's block image stays nonzero: a mixed product ideal is not excluded"
        )
    return CouplingIrreducibilityReport(
        asserted=True,
        sub_classifications=tuple(sub_classes),
        positivity_classes=tuple(pos_classes),
        witness_12=witness_12,
        witness_21=witness_21,
        notes="witnesses are exact: Krylov vectors of a matrix carrier, "
        "pairing supports of a lattice carrier",
    )
