"""Invariant coordinate ideals and (persistent) irreducibility classification.

In R^n with the entrywise order, closed ideals are exactly the coordinate
spans, so a subset S of indices stands for the ideal span{e_i : i in S}.
Invariance of that ideal under e^{tA} for every t >= 0 reduces, for matrix
generators, to a zero pattern of A: no entry may carry mass from S into its
complement.  One reachability matrix of the entry digraph answers both
matrix questions: irreducibility is every coordinate reaching every
other, and the invariant ideals are the unions of its columns, each
column the coordinates reachable from one index.  A brute-force subset
scan is the test suite's oracle for that enumeration.

For function-space carriers the module tabulates duality pairings
<phi, T(t) f> over positive test pairs and increasing time thresholds.
Three nested conditions are tracked:

  * some-time:            exists t >= 0 with <phi, T(t) f> != 0
  * large-times-or-zero:  for every threshold t0 there is such a t in
                          {0} union [t0, inf)
  * large-times:          for every threshold t0 there is such a t >= t0

(the third implies the second implies the first).  Each carrier gives
the exact set of times at which a pair is nonzero (pairing_support): the
step shift from the knot values of a pairing that is linear between
knots and zero from t = 1 on, the Gamma-shift from the band of its cell
matrices.  Every status, witness and violation is read from that set,
so each condition is decided, never sampled; a carrier without one is
refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    ConsistencyViolation,
    DimensionTooLarge,
    InputError,
    PremiseViolation,
    SpectralBoundNotNegative,
    check_tol,
)
from .lattice import IdealMask, as_matrix, as_vector
from .semigroup import MatrixSemigroup, TimeGrid

__all__ = [
    "structural_threshold",
    "near_threshold_entries",
    "ideal_leak",
    "enumerate_invariant_ideals",
    "ConditionEntry",
    "ConditionsTable",
    "weak_conditions_test",
    "IrreducibilityReport",
    "classify",
    "PrincipalIdealReport",
    "eventual_invariance_of_principal_ideal",
    "build_super_fixed_vector",
    "NonvanishingReport",
    "strict_nonvanishing_check",
    "COND_SOME_TIME",
    "COND_LARGE_TIMES_OR_ZERO",
    "COND_LARGE_TIMES",
]

COND_SOME_TIME = "some-time"
COND_LARGE_TIMES_OR_ZERO = "large-times-or-zero"
COND_LARGE_TIMES = "large-times"

PERSISTENTLY_IRREDUCIBLE = "PersistentlyIrreducible"
IRREDUCIBLE_NOT_PERSISTENT = "IrreducibleNotPersistent"
REDUCIBLE = "Reducible"

# The thresholds t0 of the two large-times conditions in every table.
THRESHOLDS = (0.0, 1.0, 5.0)
# The principal-ideal checks' relative rounding slack and structural-threshold tolerance.
PRINCIPAL_TOL = 1e-9


# ---------------------------------------------------------------------------
# Sign-pattern digraph


def structural_threshold(A, tol: float) -> float:
    """Magnitude below which an entry counts as structurally zero."""
    A = as_matrix(A)
    return float(tol) * (1.0 + float(np.max(np.abs(A))))


def near_threshold_entries(A, threshold: float):
    """Off-diagonal entries within a factor 10 of the structural-zero cutoff.

    These are the entries whose presence/absence in the sign pattern is
    fragile; reports list them so a borderline classification is visible.
    """
    A = as_matrix(A)
    mag = np.abs(A)
    near = (mag > 0.0) & (threshold / 10.0 <= mag) & (mag <= threshold * 10.0)
    np.fill_diagonal(near, False)
    return tuple((int(i), int(j), float(A[i, j])) for i, j in np.argwhere(near))


def _reach(A, threshold: float) -> np.ndarray:
    """R[i, j] iff i is reachable from j in the entry digraph, every j reaching itself.

    Edge j -> i iff |A_ij| > threshold: mass can flow from coordinate j to
    coordinate i.  The 0/1 matrix is squared as floats until it stops
    changing, at most ceil(log2 n) + 1 products; every count stays <= n,
    so each product is exact.
    """
    A = as_matrix(A)
    R = ((np.abs(A) > threshold) | np.eye(A.shape[0], dtype=bool)).astype(float)
    while True:
        step = (R @ R > 0.0).astype(float)
        if np.array_equal(step, R):
            return R > 0.0
        R = step


# ---------------------------------------------------------------------------
# Invariant ideals of a matrix generator


def _as_mask(S, dim: int) -> IdealMask:
    if isinstance(S, IdealMask):
        if S.dim != dim:
            raise ValueError(f"ideal mask dimension {S.dim} != matrix dimension {dim}")
        return S
    return IdealMask.of(S, dim)


def ideal_leak(A, S, threshold: float = 0.0):
    """(i, j, A_ij) of the largest |A_ij| with i outside S and j in S, or None.

    None when no such entry exceeds `threshold`, which is always the case
    for a trivial S.  Each entry t -> (e^{tA})_ij is real-analytic, so the
    coordinate ideal S is invariant under every e^{tA}, and eventually
    invariant, exactly when this is None at threshold 0; callers pass
    structural_threshold(A, tol), as classify does.
    """
    A = as_matrix(A)
    mask = _as_mask(S, A.shape[0])
    if mask.is_trivial:
        return None
    rows = mask.complement().sorted_members()
    cols = mask.sorted_members()
    block = np.abs(A[np.ix_(rows, cols)])
    r, c = np.unravel_index(int(np.argmax(block)), block.shape)
    if block[r, c] <= threshold:
        return None
    i, j = rows[r], cols[c]
    return (i, j, float(A[i, j]))


def _ideal_sort_key(mask: IdealMask):
    return (len(mask), mask.sorted_members())


def enumerate_invariant_ideals(A, tol: float = 1e-9):
    """All invariant coordinate ideals of A, as sorted IdealMasks.

    An ideal is invariant exactly when it is closed under reachability in
    the entry digraph that classify reads (edge j -> i iff |A_ij| exceeds
    structural_threshold(A, tol)), that is, a union of columns of its one
    reachability matrix; column j is the least invariant ideal holding j,
    and its distinct columns are the strong components' closures.  Each
    distinct column is folded into the set of unions, bitmasks over the
    coordinates; the trivial ideals (empty, full) are included.  Refused
    past dimension 24 or 20 components, and for a `tol` that is not
    finite and positive.
    """
    check_tol(tol)
    A = as_matrix(A)
    n = A.shape[0]
    if n > 24:
        raise DimensionTooLarge(f"dimension {n} exceeds the enumeration cap of 24")
    R = _reach(A, structural_threshold(A, tol))
    columns = {sum(1 << int(i) for i in np.flatnonzero(col)) for col in R.T}
    k = len(columns)
    if k > 20:
        raise DimensionTooLarge(
            f"{k} strongly connected components; closed-set enumeration capped at 20"
        )
    unions = {0}
    for col in columns:
        unions |= {u | col for u in unions}
    found = [IdealMask.of([i for i in range(n) if bits >> i & 1], n) for bits in unions]
    return sorted(found, key=_ideal_sort_key)


# ---------------------------------------------------------------------------
# Weak duality conditions


@dataclass(frozen=True)
class ConditionEntry:
    """Aggregated outcome of one duality condition over all test pairs."""

    key: str
    status: str  # "holds" | "violated"
    witnesses: tuple = ()  # (f_label, phi_label, t0, t, value)
    violations: tuple = ()  # (f_label, phi_label, t0, certificate)


@dataclass(frozen=True)
class ConditionsTable:
    entries: tuple  # ConditionEntry for some-time, large-times-or-zero, large-times
    diagram_consistent: bool
    pair_labels: tuple
    t0_list: tuple
    supports: tuple  # PairingSupport of each pair, in pair_labels order

    def entry(self, key: str) -> ConditionEntry:
        for e in self.entries:
            if e.key == key:
                return e
        raise KeyError(key)


def weak_conditions_test(provider, test_vectors=None, test_functionals=None) -> ConditionsTable:
    """Decide the three weak duality conditions over positive test pairs.

    Each pair is read from the carrier's exact pairing_support(): the
    first time of the support at or after a threshold is the witness,
    with its value <phi, T(t) f>, and a threshold without one is a
    violation that the support certifies (CertificateMissing for a
    carrier without one); the thresholds are THRESHOLDS.  The table also
    re-checks the implication chain large-times => large-times-or-zero =>
    some-time on its rows.
    """
    defaults_used = test_vectors is None and test_functionals is None
    if test_vectors is None:
        test_vectors = list(provider.condition_basis())
    if test_functionals is None:
        test_functionals = list(test_vectors)
    if not defaults_used:
        for i, f in enumerate(test_vectors):
            provider.check_positive(f, label=f"f{i}")
        for j, phi in enumerate(test_functionals):
            provider.check_positive(phi, label=f"phi{j}")

    # thresholds in the number type of the probes, converted once per table
    num = Fraction if provider.exact_arithmetic else float
    lows = [num(t0) for t0 in THRESHOLDS]

    pair_labels, supports = [], []
    rows = {key: ([], []) for key in (COND_SOME_TIME, COND_LARGE_TIMES_OR_ZERO, COND_LARGE_TIMES)}
    for i, f in enumerate(test_vectors):
        for j, phi in enumerate(test_functionals):
            label = (f"f{i}", f"phi{j}")
            support = provider.pairing_support(f, phi)
            pair_labels.append(label)
            supports.append(support)
            first = support.first_at_or_after(num(0))
            checks = [(COND_SOME_TIME, None, first, "at no time")]
            for t0, lo in zip(THRESHOLDS, lows):
                t = support.first_at_or_after(lo)
                checks.append((COND_LARGE_TIMES, t0, t, f"at no t >= {t0}"))
                # large-times-or-zero: t = 0 also qualifies
                where = f"neither at t = 0 nor at any t >= {t0}"
                checks.append((COND_LARGE_TIMES_OR_ZERO, t0, first if first == 0 else t, where))
            values = {}
            for key, t0, t, where in checks:
                wit, vio = rows[key]
                if t is None:
                    vio.append(label + (t0, f"{support.reason}; the pairing is nonzero {where}"))
                    continue
                if t not in values:
                    values[t] = provider.condition_probe(t, f, phi)
                wit.append(label + (t0, t, values[t]))

    entries = tuple(
        ConditionEntry(key, "violated" if vio else "holds", tuple(wit), tuple(vio))
        for key, (wit, vio) in rows.items()
    )

    # implication chain on the table's rows: every large-times witness row
    # must also be witnessed for large-times-or-zero, and every witnessed
    # row of that condition must have a some-time witness for its pair.
    witnessed_orzero = {r[:3] for r in rows[COND_LARGE_TIMES_OR_ZERO][0]}
    witnessed_some = {r[:2] for r in rows[COND_SOME_TIME][0]}
    diagram = all(r[:3] in witnessed_orzero for r in rows[COND_LARGE_TIMES][0]) and all(
        r[:2] in witnessed_some for r in witnessed_orzero
    )
    by_key = {e.key: e for e in entries}
    if (
        by_key[COND_LARGE_TIMES].status == "holds"
        and by_key[COND_LARGE_TIMES_OR_ZERO].status == "violated"
    ):
        raise ConsistencyViolation(
            "aggregation asserts the large-times condition while refuting "
            "the weaker large-times-or-zero condition"
        )
    return ConditionsTable(
        entries=entries,
        diagram_consistent=diagram,
        pair_labels=tuple(pair_labels),
        t0_list=THRESHOLDS,
        supports=tuple(supports),
    )


# ---------------------------------------------------------------------------
# Classification


@dataclass(frozen=True)
class IrreducibilityReport:
    classification: str
    witness_ideal: IdealMask | None
    witness_onset: float | None
    conditions: ConditionsTable | None
    diagram_consistent: bool
    evidence_mode: str  # "certified": both routes decide exactly
    near_threshold: tuple = ()
    notes: str = ""


def classify(provider=None, A=None, tol: float = 1e-9) -> IrreducibilityReport:
    """Classify a semigroup as persistently irreducible / irreducible / reducible.

    Matrix generators (`A` given, or a MatrixSemigroup provider) are decided
    exactly from one reachability matrix R = _reach(A, threshold) of the
    thresholded entry digraph: irreducible when every coordinate reaches
    every other (R all true), and otherwise reducible with the witness
    R[:, j], the sink component holding the smallest index j.  No
    semigroup is built and nothing is sampled, so `conditions` is None.
    Each pairing t -> <e_j, e^{tA} e_i> is real-analytic, hence either
    identically zero or nonzero at all but isolated t: the three weak
    conditions coincide pair by pair, irreducibility and persistent
    irreducibility coincide, and `diagram_consistent` is True.

    Function-space carriers are decided from the exact table of
    weak_conditions_test.  A pair that is zero at every time makes the
    family reducible; otherwise it is irreducible, and persistently so
    exactly when every pair's support is unbounded, which a nilpotent
    family (dimension > 1) never has.
    A `tol` that is not finite and positive is refused with InputError.
    """
    check_tol(tol)
    if A is None and isinstance(provider, MatrixSemigroup):
        A = provider.A
    if A is not None:
        A = as_matrix(A)
        thr = structural_threshold(A, tol)
        R = _reach(A, thr)
        near = near_threshold_entries(A, thr)
        if R.all():
            return IrreducibilityReport(
                classification=PERSISTENTLY_IRREDUCIBLE,
                witness_ideal=None,
                witness_onset=None,
                conditions=None,
                diagram_consistent=True,
                evidence_mode="certified",
                near_threshold=near,
                notes="entry digraph strongly connected; matrix semigroups are "
                "analytic, so irreducible and persistently irreducible coincide",
            )
        # j is in a sink component exactly when all it reaches reaches it
        # back, R[:, j] within R[j, :]; the least such j picks the sink
        # component holding the smallest index
        j = int(np.flatnonzero(~(R & ~R.T).any(axis=0))[0])
        witness = IdealMask.of(np.flatnonzero(R[:, j]), A.shape[0])
        if ideal_leak(A, witness, thr) is not None:
            raise ConsistencyViolation(
                "sink-component witness failed re-verification",
                witnesses=[witness.sorted_members()],
            )
        return IrreducibilityReport(
            classification=REDUCIBLE,
            witness_ideal=witness,
            witness_onset=0.0,
            conditions=None,
            diagram_consistent=True,
            evidence_mode="certified",
            near_threshold=near,
            notes="witness ideal is invariant for every t >= 0",
        )

    if provider is None:
        raise ValueError("provide a generator matrix or a semigroup provider")

    table = weak_conditions_test(provider)
    nil, dim = provider.nilpotent_time, provider.carrier_dim
    witness_ideal = witness_onset = None
    if table.entry(COND_SOME_TIME).status == "violated":
        classification, notes = REDUCIBLE, "a test pair is exactly zero at every time"
    elif nil is not None and (dim is None or dim > 1):
        classification = IRREDUCIBLE_NOT_PERSISTENT
        witness_ideal = IdealMask.of([0], len(provider.condition_basis()))
        witness_onset = float(nil)
        notes = (
            f"family vanishes identically for t >= {nil}, so every coordinate "
            "ideal is invariant from that time on; pairing witnesses certify "
            "plain irreducibility exactly"
        )
    elif all(support.tail_from is not None for support in table.supports):
        classification = PERSISTENTLY_IRREDUCIBLE
        notes = "every test pair has an unbounded exact support, so a witness past every threshold"
    else:
        classification, notes = IRREDUCIBLE_NOT_PERSISTENT, "a test pair has a bounded exact support"
    return IrreducibilityReport(
        classification=classification,
        witness_ideal=witness_ideal,
        witness_onset=witness_onset,
        conditions=table,
        diagram_consistent=table.diagram_consistent,
        evidence_mode="certified",
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Principal-ideal eventual invariance and the super-fixed-vector construction


@dataclass(frozen=True)
class PrincipalIdealReport:
    support: IdealMask
    premise_ok: bool
    premise_times: tuple
    onset: float | None
    leak: tuple | None  # (i, j, A_ij) carrying the support out, or None
    gauge_checks: tuple  # (t, gauge in, gauge out)
    gauge_bound_ok: bool
    bound_constant: float
    trivial: bool = False
    notes: str = ""


def eventual_invariance_of_principal_ideal(
    provider, h, t0_premise: float = 0.0
) -> PrincipalIdealReport:
    """Check that the ideal generated by h is eventually invariant.

    Matrix carriers only (InputError otherwise).  Premise: T(t) h <= h at
    the times of TimeGrid.default() and t0_premise from t0_premise on, up
    to tol ((|T(t)| h)_i + h_i) in each coordinate i, tol = PRINCIPAL_TOL
    (PremiseViolation otherwise).  The ideal generated by h is the
    coordinate ideal of its support, and matrix
    semigroups are analytic, so it is eventually invariant exactly when it
    is invariant from t = 0: the onset is 0.0 when ideal_leak finds no
    entry of A above structural_threshold(A, tol) carrying the support out,
    and None otherwise, with that entry as `leak`.  Past the onset each
    premise time t gets the exact norm of T(t) in the gauge max_i |f_i| / h_i
    of the ideal, max_i (|T(t)[S, S]| h_S)_i / h_i over S = supp h, attained
    at f = sign(T(t)[i, S]) h_S of gauge 1: rows (t, 1.0, norm), bounded
    when each norm is at most 2 + 1e-9.
    """
    if not isinstance(provider, MatrixSemigroup):
        raise InputError("principal-ideal invariance requires a dense matrix carrier")
    h = as_vector(h)
    if np.min(h) < 0:
        raise PremiseViolation("h must be >= 0", witnesses=[h.tolist()])
    n = h.size
    if not np.any(h > 0):
        return PrincipalIdealReport(
            support=IdealMask.empty(n),
            premise_ok=True,
            premise_times=(),
            onset=0.0,
            leak=None,
            gauge_checks=(),
            gauge_bound_ok=True,
            bound_constant=2.0,
            trivial=True,
            notes="h = 0 generates the zero ideal, which is invariant",
        )
    tol = PRINCIPAL_TOL
    candidates = list(TimeGrid.default()) + [t0_premise]
    times = [t for t in provider.admissible_times(candidates) if t >= t0_premise]
    if not times:
        raise ValueError("no sampled times at or beyond t0_premise")
    mats = dict(zip(times, provider.matrices(times)))
    for t in times:
        v = mats[t] @ h
        # per coordinate, the rounding bound of T(t) h and of h itself
        excess = v - h - tol * (np.abs(mats[t]) @ h + h)
        if float(np.max(excess)) > 0.0:
            i = int(np.argmax(excess))
            raise PremiseViolation(
                f"T({float(t):.6g}) h exceeds h at coordinate {i}",
                witnesses=[(float(t), i, float(v[i]), float(h[i]))],
            )

    support = IdealMask.of([int(i) for i in np.nonzero(h > 0)[0]], n)
    leak = ideal_leak(provider.A, support, structural_threshold(provider.A, tol))
    gauge_checks = ()
    notes = ""
    if leak is not None:
        notes = (
            f"A[{leak[0]}, {leak[1]}] = {leak[2]:.6g} carries the support of h into "
            "its complement, so the ideal is invariant on no interval of times"
        )
    else:
        S = support.sorted_members()
        block, h_S = np.ix_(S, S), h[S]
        gauge_checks = tuple(
            (float(t), 1.0, float(np.max(np.abs(mats[t][block]) @ h_S / h_S))) for t in times
        )

    return PrincipalIdealReport(
        support=support,
        premise_ok=True,
        premise_times=tuple(float(t) for t in times),
        onset=None if leak else 0.0,
        leak=leak,
        gauge_checks=gauge_checks,
        gauge_bound_ok=all(norm <= 2.0 + 1e-9 for _t, _g, norm in gauge_checks),
        bound_constant=2.0,
        notes=notes,
    )


def build_super_fixed_vector(A, f, t1: float = 0.0):
    """h with T(t) h <= h for all t >= 0, built from the tail orbit of f.

    h = e^{t1 A} (-A)^{-1} f is the closed form of the integral of the
    orbit of f from t1 on; it requires the spectral bound to be negative
    and the orbit to stay positive past t1 (both checked on the times of
    TimeGrid.default()).  The returned h is asserted positive-nonzero and
    dominated along its own orbit, each up to PRINCIPAL_TOL relative slack.
    """
    A = as_matrix(A)
    sb = float(np.max(np.linalg.eigvals(A).real))
    if sb >= 0.0:
        raise SpectralBoundNotNegative(
            f"spectral bound {sb:.6g} is not negative; shift the generator first"
        )
    f = as_vector(f)
    if np.min(f) < 0 or not np.any(f > 0):
        raise PremiseViolation("f must be positive and nonzero", witnesses=[f.tolist()])
    grid, tol = TimeGrid.default(), PRINCIPAL_TOL
    flow = MatrixSemigroup(A)
    scale_f = float(np.max(f))
    shifts = [float(t) + float(t1) for t in grid]
    for t_shift, m in zip(shifts, flow.matrices(shifts)):
        v = m @ f
        if float(np.min(v)) < -tol * (1.0 + scale_f):
            i = int(np.argmin(v))
            raise PremiseViolation(
                f"orbit of f leaves the positive cone at t = {t_shift:.6g}",
                witnesses=[(t_shift, i, float(v[i]))],
            )
    h = flow.matrix(t1) @ np.linalg.solve(-A, f)
    scale_h = float(np.max(np.abs(h)))
    if float(np.min(h)) < -tol * (1.0 + scale_h) or not np.any(h > 0):
        raise ConsistencyViolation(
            "constructed h is not positive-nonzero", witnesses=[h.tolist()]
        )
    h = np.maximum(h, 0.0)
    times = [float(t) for t in grid]
    for t, m in zip(times, flow.matrices(times)):
        v = m @ h
        if float(np.max(v - h)) > tol * (1.0 + scale_h):
            i = int(np.argmax(v - h))
            raise ConsistencyViolation(
                f"T({t:.6g}) h exceeds h",
                witnesses=[(t, i, float(v[i]), float(h[i]))],
            )
    return h


# ---------------------------------------------------------------------------
# Strict non-vanishing of orbits under persistent irreducibility


@dataclass(frozen=True)
class NonvanishingReport:
    """Orbits T(t) f_i (label f<i>) and T(t)' f_i (phi<i>) of the condition basis."""

    applicable: bool
    checked: int  # orbits decided, two per basis vector
    violations: tuple  # (t_from, label): the orbit is zero exactly from t_from on
    consistent: bool


def strict_nonvanishing_check(provider, classification: str | None = None) -> NonvanishingReport:
    """Decide T(t) f != 0 and T(t)' f != 0 at every t for each f of condition_basis().

    Each orbit is read from the carrier's exact vanishing_time(), so
    nothing is sampled; a carrier without one raises CertificateMissing.
    Meaningful for persistently irreducible eventually positive families;
    for anything else (signalled by `classification` or by a nilpotent
    family) violations are expected and do not flag an inconsistency.
    """
    if classification is not None:
        applicable = classification == PERSISTENTLY_IRREDUCIBLE
    else:
        applicable = provider.nilpotent_time is None
    basis = provider.condition_basis()
    violations = []
    for idx, f in enumerate(basis):
        for label, adjoint in ((f"f{idx}", False), (f"phi{idx}", True)):
            t_from = provider.vanishing_time(f, adjoint)
            if t_from is not None:
                violations.append((float(t_from), label))
    return NonvanishingReport(
        applicable=applicable,
        checked=2 * len(basis),
        violations=tuple(violations),
        consistent=not (applicable and violations),
    )
