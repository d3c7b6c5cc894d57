"""Classify positivity behaviour of operator semigroups.

Verdicts come in three strengths.  A family can be positive outright
(every sampled operator maps the cone into itself), eventually positive
(all operators from some onset time on), or eventually *strongly*
positive (images of positive vectors eventually have no vanishing
coordinate).  Two certified routes exist for matrix generators:

* nonnegative off-diagonal entries characterise positivity of the whole
  family exactly, with no sampling involved;
* a simple, strictly dominant real eigenvalue whose left and right
  eigenvectors can be scaled entrywise positive forces the rescaled
  family e^{t(A - s I)} onto the rank-one projection u phi^T, and an
  explicit deviation constant turns the convergence rate into a
  quantitative onset time t0.

Everything else falls back to grid sampling, and the verdict says so.

The module also hosts two supporting constructions.  A single
domination inequality T h >= delta h, pushed through eventually positive
powers of T, yields the lower bound spr(T) >= delta; and for an
eventually positive family one can assemble a finite positive
combination of sampled operators that satisfies such a domination
premise, proving (at the discretised level) that the family's spectrum
cannot be empty.  A final helper produces monotone approximations from
below for vectors with positive orbits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction

import numpy as np

from .errors import (
    ConsistencyViolation,
    EigenSolverFailure,
    ExpmOverflow,
    InputError,
    PremiseViolation,
    check_tol,
)
from .lattice import as_matrix, as_vector
from .semigroup import _KAPPA_CUTOFF, MatrixSemigroup, TimeGrid, eigenbasis_growth_constant

__all__ = [
    "PositivityClass",
    "SpectralCertificate",
    "PositivityVerdict",
    "SpectralRadiusReport",
    "SpectrumConstructionReport",
    "spectral_certificate",
    "certify_eventual_strong_positivity",
    "classify_on_grid",
    "spr_lower_bound_check",
    "nonempty_spectrum_construction",
    "approximate_from_below",
]


class PositivityClass(str, Enum):
    POSITIVE = "Positive"
    UNIFORMLY_EVENTUALLY_STRONGLY_POSITIVE = "UniformlyEventuallyStronglyPositive"
    UNIFORMLY_EVENTUALLY_POSITIVE = "UniformlyEventuallyPositive"
    NOT_EVENTUALLY_POSITIVE = "NotEventuallyPositive"
    INCONCLUSIVE = "Inconclusive"


#: Classes that come with an onset time.
_ONSET_CLASSES = (
    PositivityClass.POSITIVE,
    PositivityClass.UNIFORMLY_EVENTUALLY_STRONGLY_POSITIVE,
    PositivityClass.UNIFORMLY_EVENTUALLY_POSITIVE,
)

_GAP_MARGIN = 1e-8  # least gap, and largest imaginary part, of a certified dominant eigenvalue
_RESIDUAL_TOL = 1e-9  # eigenvector residual bound, scaled by 1 + max|A_ij|
# relative slack of the sampled premises of the spectral-radius bound, the
# spectrum construction and the approximation from below
_PREMISE_TOL = 1e-9


@dataclass(frozen=True)
class SpectralCertificate:
    """Dominant-eigenvalue data backing a strong-positivity certificate.

    `onset_constant` is the documented constant C in the deviation bound
    max-entry |e^{t(A - s I)} - u phi^T| <= C e^{-gap t}; it is built
    from kappa_2 of the certificate's eigenbasis, the dimension (a bound
    on the number of terms a Schur form can contribute), and the size of
    the projection, then spot-verified on sampled times.
    """

    spectral_bound: float
    dominant_is_real_simple: bool
    spectral_gap: float
    right_vec: np.ndarray | None
    left_vec: np.ndarray | None
    pairing: float
    min_entry_outer: float
    onset_constant: float
    notes: str = ""


@dataclass(frozen=True)
class PositivityVerdict:
    """Outcome of a positivity analysis.

    `evidence` rows are (t, coordinate index, sampled value) and re-check
    under re-evaluation.  From certify_eventual_strong_positivity the
    values are entries of the rescaled family e^{t(A - s I)}, s the
    certificate's spectral bound, on every route; classify_on_grid
    reports entries of whatever provider it is given.  `onset_t0` is
    present exactly for the positive / eventually positive classes.
    """

    verdict: PositivityClass
    onset_t0: float | None
    evidence: tuple
    certified: bool
    notes: str = ""

    def __post_init__(self):
        has_onset = self.onset_t0 is not None
        if has_onset != (self.verdict in _ONSET_CLASSES):
            raise ValueError(
                "onset_t0 must be present exactly when the class asserts"
                " (eventual) positivity"
            )


# ---------------------------------------------------------------------------
# Spectral certificate


def spectral_certificate(A) -> SpectralCertificate:
    """Extract dominant-eigenvalue data for the generator `A`.

    `dominant_is_real_simple` is only claimed when the top eigenvalue is
    real, separated from the rest of the spectrum by at least
    _GAP_MARGIN, and both eigenvectors meet _RESIDUAL_TOL, scaled by
    1 + max|A_ij|; anything closer is left uncertified rather
    than guessed.

    Raises EigenSolverFailure when a residual check fails on a spectrum
    that looks real and simple.
    """
    A = as_matrix(A)
    evals, evecs = np.linalg.eig(A)
    return _certificate_from_eig(A, evals, evecs)


def _certificate_from_eig(A: np.ndarray, evals, evecs) -> SpectralCertificate:
    """spectral_certificate on a precomputed eigendecomposition of `A`."""
    n = A.shape[0]
    residual_tol = _RESIDUAL_TOL * (1.0 + float(np.max(np.abs(A))))
    order = np.argsort(evals.real)[::-1]
    i0 = int(order[0])
    s = float(evals[i0].real)
    if n > 1:
        gap = s - float(max(evals[int(k)].real for k in order[1:]))
    else:
        gap = math.inf
    notes = []
    simple = True
    if abs(float(evals[i0].imag)) > _GAP_MARGIN:
        simple = False
        notes.append("dominant eigenvalue is not real")
    if gap < _GAP_MARGIN:
        simple = False
        notes.append(f"spectral gap {gap:.3e} is below the {_GAP_MARGIN:.0e} margin")

    u = None
    phi = None
    pairing = 0.0
    min_outer = 0.0
    if simple:
        u = _real_unit_eigenvector(evecs[:, i0])
        resid = float(np.linalg.norm(A @ u - s * u))
        if resid > residual_tol:
            raise EigenSolverFailure(
                f"right eigenvector residual {resid:.3e} exceeds {residual_tol:.0e}"
            )
        evals_t, evecs_t = np.linalg.eig(A.T)
        j0 = int(np.argmin(np.abs(evals_t - s)))
        if abs(complex(evals_t[j0]) - s) > max(1e-8, 1e-8 * abs(s)):
            raise EigenSolverFailure(
                "adjoint spectrum does not reproduce the dominant eigenvalue"
            )
        phi = _real_unit_eigenvector(evecs_t[:, j0])
        resid = float(np.linalg.norm(A.T @ phi - s * phi))
        if resid > residual_tol:
            raise EigenSolverFailure(
                f"left eigenvector residual {resid:.3e} exceeds {residual_tol:.0e}"
            )
        pairing = float(np.dot(phi, u))
        if abs(pairing) < 1e-9:
            simple = False
            notes.append("left/right pairing is numerically degenerate")
        elif pairing < 0.0:
            phi = -phi
            pairing = -pairing

    if simple:
        # Entrywise positivity after sign normalisation; a genuine zero
        # coordinate in either eigenvector rules the certificate out.
        if float(np.min(u)) > 1e-9 and float(np.min(phi)) > 1e-9 * float(np.max(phi)):
            phi_hat = phi / pairing
            min_outer = float(np.min(u)) * float(np.min(phi_hat))
        else:
            notes.append("eigenvectors are not entrywise positive after scaling")

    return SpectralCertificate(
        spectral_bound=s,
        dominant_is_real_simple=simple,
        spectral_gap=gap,
        right_vec=u,
        left_vec=(phi / pairing) if (simple and pairing) else phi,
        pairing=1.0 if (simple and pairing) else pairing,
        min_entry_outer=min_outer,
        onset_constant=math.nan,
        notes="; ".join(notes),
    )


def _real_unit_eigenvector(v: np.ndarray) -> np.ndarray:
    """Strip the arbitrary complex phase and return a real unit vector."""
    v = np.asarray(v)
    if np.iscomplexobj(v):
        k = int(np.argmax(np.abs(v)))
        phase = v[k] / abs(v[k])
        v = np.real(v / phase)
    v = np.asarray(v, dtype=float)
    nrm = float(np.linalg.norm(v))
    if nrm == 0.0:
        raise EigenSolverFailure("eigen solver returned a zero vector")
    v = v / nrm
    k = int(np.argmax(np.abs(v)))
    return -v if v[k] < 0 else v


def certify_eventual_strong_positivity(A, grid: TimeGrid | None = None, tol: float = 1e-9):
    """Certificate-first positivity analysis of the matrix semigroup e^{tA}.

    Returns (SpectralCertificate, PositivityVerdict).  Nonnegative
    off-diagonal entries settle the question exactly (the family is
    positive for every t, onset 0).  Otherwise a real simple strictly
    dominant eigenvalue with entrywise-positive eigenvectors certifies
    eventual strong positivity with onset
    t0 = log(C / min entry of u phi^T) / gap.  When neither route
    applies, or a sampled deviation exceeds the constant C, the
    grid-sampled classification is returned uncertified, with the reason.

    A is decomposed once; the certificate, its deviation constant (read
    from the condition number of the eigenbasis) and the spectral bound
    s share that decomposition.  Every route samples the one rescaled
    flow e^{t(A - s I)}: it has the signs, ideals and onsets of e^{tA}
    (the two differ by the factor e^{-st} > 0) and stays in floating
    point range for any finite s.  Evidence values and the grid
    fallback's `tol` therefore refer to entries of e^{t(A - s I)}.  A
    `tol` that is not finite and positive is refused with InputError.
    """
    check_tol(tol)
    A = as_matrix(A)
    n = A.shape[0]
    evals, evecs = np.linalg.eig(A)
    cert = _certificate_from_eig(A, evals, evecs)
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

    M = eigenbasis_growth_constant(evecs)
    positive_pair = cert.dominant_is_real_simple and cert.min_entry_outer > 0.0
    if positive_pair and M < math.inf:
        certified = _certified_strong_verdict(flow, cert, M, n)
        if not isinstance(certified, str):
            return certified
        reason = certified
    elif positive_pair:
        reason = (
            "condition number kappa_2(V) of the eigenbasis is above the cutoff "
            f"{_KAPPA_CUTOFF:g} or not finite, so no deviation constant"
        )
    else:
        reason = cert.notes or "no positive eigenvector certificate"
    sampled = classify_on_grid(flow, grid=grid, tol=tol)
    sampled = replace(
        sampled,
        notes=(sampled.notes + "; " if sampled.notes else "")
        + f"certificate path inconclusive ({reason})",
    )
    return cert, sampled


def _certified_strong_verdict(flow, cert, M, n):
    """(certificate, verdict), or the reason a sampled deviation refuses the constant C."""
    gap = cert.spectral_gap
    u = cert.right_vec
    phi_hat = cert.left_vec
    proj = np.outer(u, phi_hat)
    proj_max = float(np.max(np.abs(proj)))
    m_outer = cert.min_entry_outer

    C = M * (1.0 + proj_max) * n

    # Spot verification of |e^{t(A-sI)} - P| <= C e^{-gap t}, restricted to
    # times where the target bound sits above the floating-point floor.
    floor = 1e-12 * (1.0 + proj_max)
    if math.isfinite(gap) and gap > 0:
        t_hi = min(20.0, math.log(max(C / floor, 2.0)) / gap)
    else:
        t_hi = 20.0
    times = np.geomspace(1e-2, max(t_hi, 2e-2), 16)
    for t, m in zip(times, flow.matrices(times)):
        dev = float(np.max(np.abs(m - proj)))
        target = C * math.exp(-gap * float(t))
        if dev > max(target, floor):
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

    cert = replace(
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


# ---------------------------------------------------------------------------
# Grid classification


def classify_on_grid(provider, grid: TimeGrid | None = None, tol: float = 1e-9) -> PositivityVerdict:
    """Sampled positivity classification; always labelled grid-limited.

    Positive when every sampled operator is entrywise >= -tol; eventually
    positive with onset the first sampled time from which all later
    samples stay nonnegative; NotEventuallyPositive when violations reach
    into the last quarter of the positive sample times.
    """
    g = grid if grid is not None else TimeGrid.default()
    times = list(provider.admissible_times(list(g.points)))
    if not times:
        raise InputError("time grid snapped to nothing on the provider lattice")
    if float(times[0]) != 0.0:
        times.insert(0, type(times[0])(0))

    samples = [
        (t, float(mn), idx) for t, (mn, idx, _) in zip(times, provider.positivity_probes(times))
    ]
    violations = [(float(t), idx, mn) for (t, mn, idx) in samples if mn < -tol]

    pos_times = [float(t) for t in times if float(t) > 0.0]
    k_tail = max(1, int(math.ceil(0.25 * len(pos_times)))) if pos_times else 1
    tail_lo = pos_times[-k_tail] if pos_times else 0.0

    if not violations:
        picks = sorted({0, len(samples) // 2, len(samples) - 1})
        evidence = tuple((float(samples[i][0]), samples[i][2], samples[i][1]) for i in picks)
        return PositivityVerdict(
            verdict=PositivityClass.POSITIVE,
            onset_t0=0.0,
            evidence=evidence,
            certified=False,
            notes="grid-limited",
        )

    if any(t >= tail_lo for (t, _, _) in violations):
        tail_viol = [row for row in violations if row[0] >= tail_lo]
        evidence = tuple(violations[:3]) + tuple(tail_viol[-3:])
        return PositivityVerdict(
            verdict=PositivityClass.NOT_EVENTUALLY_POSITIVE,
            onset_t0=None,
            evidence=evidence,
            certified=False,
            notes="grid-limited; violations persist into the sampled tail",
        )

    last_bad = max(t for (t, _, _) in violations)
    onset = min(float(t) for t in times if float(t) > last_bad)
    first_clean = next(row for row in samples if float(row[0]) >= onset)
    evidence = (violations[-1], (float(first_clean[0]), first_clean[2], first_clean[1]))
    return PositivityVerdict(
        verdict=PositivityClass.UNIFORMLY_EVENTUALLY_POSITIVE,
        onset_t0=onset,
        evidence=evidence,
        certified=False,
        notes="grid-limited",
    )


# ---------------------------------------------------------------------------
# Spectral-radius lower bound from a domination premise


@dataclass(frozen=True)
class SpectralRadiusReport:
    spectral_radius: float
    delta: float
    margin: float
    power_positive_onset: int
    chain_depth: int
    notes: str = ""


def spr_lower_bound_check(T, h, delta: float, n_max: int = 12) -> SpectralRadiusReport:
    """Verify that T h >= delta h forces spr(T) >= delta.

    Premises checked, with tol = _PREMISE_TOL relative slack: h >= 0 and
    h != 0; T h >= delta h - tol; T^n h != 0
    for n <= n_max; and some window [n0, n_max] on which the powers T^n
    are entrywise nonnegative.  The proof's chain
    T^{n0+k} h >= delta^k T^{n0} h is re-verified for k <= 10, and the
    spectral radius (computed independently via eigenvalues) must come
    out >= delta * (1 - 1e-9).

    Raises PremiseViolation listing every failed hypothesis, and
    ConsistencyViolation if the premises hold but the conclusion fails.
    """
    T = as_matrix(T)
    v = as_vector(h)
    if T.shape[0] != v.size:
        raise InputError("vector length does not match the operator")
    if not (delta > 0.0):
        raise InputError("delta must be a positive real")
    if n_max < 1:
        raise InputError("n_max must be at least 1")

    tol = _PREMISE_TOL
    failures = []
    if float(np.min(v)) < -tol:
        i = int(np.argmin(v))
        failures.append(("h has a negative entry", i, float(v[i])))
    if not np.any(v > tol):
        failures.append(("h is zero", None, None))

    dom = T @ v - delta * v
    dom_tol = tol * (1.0 + delta * float(np.max(np.abs(v))) + float(np.max(np.abs(T @ v))))
    if float(np.min(dom)) < -dom_tol:
        i = int(np.argmin(dom))
        failures.append(
            ("domination T h >= delta h fails", i, float((T @ v)[i]), float(delta * v[i]))
        )

    powers = [None, T.copy()]
    for _ in range(2, n_max + 1):
        powers.append(powers[-1] @ T)
    h_scale = tol * (1.0 + float(np.max(np.abs(v))))
    for nn in range(1, n_max + 1):
        if float(np.max(np.abs(powers[nn] @ v))) <= h_scale:
            failures.append(("a power of T maps h to zero", nn, None))
            break
    mins = [float(np.min(powers[nn])) for nn in range(1, n_max + 1)]
    n0 = None
    for nn in range(1, n_max + 1):
        if all(m >= -tol for m in mins[nn - 1 :]):
            n0 = nn
            break
    if n0 is None:
        failures.append(("no eventually positive window of powers up to n_max", n_max, mins[-1]))

    if failures:
        raise PremiseViolation(
            "spectral-radius premises fail: "
            + "; ".join(str(row[0]) for row in failures),
            witnesses=failures,
        )

    base = powers[n0] @ v
    chain_depth = min(10, n_max - n0)
    for k in range(1, chain_depth + 1):
        lhs = powers[n0 + k] @ v
        rhs = (delta**k) * base
        slack = tol * (1.0 + float(np.max(np.abs(lhs))) + float(np.max(np.abs(rhs))))
        if float(np.min(lhs - rhs)) < -slack:
            i = int(np.argmin(lhs - rhs))
            raise ConsistencyViolation(
                "power-domination chain broke although the premises hold",
                witnesses=[(k, i, float(lhs[i]), float(rhs[i]))],
            )

    spr = float(np.max(np.abs(np.linalg.eigvals(T))))
    if spr < delta * (1.0 - 1e-9):
        raise ConsistencyViolation(
            "spectral radius fell below the certified lower bound",
            witnesses=[(spr, delta)],
        )
    return SpectralRadiusReport(
        spectral_radius=spr,
        delta=delta,
        margin=spr - delta,
        power_positive_onset=n0,
        chain_depth=chain_depth,
        notes=f"powers T^n checked entrywise nonnegative for n in [{n0}, {n_max}]",
    )


# ---------------------------------------------------------------------------
# Nonempty spectrum via a finite positive combination of sampled operators


@dataclass(frozen=True)
class SpectrumConstructionReport:
    succeeded: bool
    support: tuple
    witness_times: tuple  # (coordinate index, time) pairs
    times_used: tuple
    delta: float | None
    radius_report: SpectralRadiusReport | None
    failures: tuple
    notes: str = ""


def _coordinate_values(provider, v) -> np.ndarray:
    """Coordinate/cell values of a carrier vector as a float array."""
    from .gammashift import GridFunction
    from .stepfun import PiecewiseConstantFn

    if isinstance(v, PiecewiseConstantFn):
        depth = int(getattr(provider, "depth", 6))
        cells = 1 << depth
        return np.array(
            [float(v.value_at(Fraction(2 * i + 1, 2 * cells))) for i in range(cells)]
        )
    if isinstance(v, GridFunction):
        return np.asarray(v.samples, dtype=float)
    return as_vector(v)


def nonempty_spectrum_construction(provider, h) -> SpectrumConstructionReport:
    """Build T = sum of sampled operators with T h >= delta h, delta > 0.

    For each support coordinate x of the positive vector `h` the times of
    TimeGrid.default() from t0 on are scanned for one where the orbit
    stays positive at x; the operators at the collected times are summed,
    delta is the smallest ratio (T h)_x / h_x over the support, and the
    result is handed to spr_lower_bound_check.  A positive delta bounds
    the spectral radius away from zero, so the discretised family cannot
    have empty spectrum.

    t0 is the sampled eventual-positivity onset of classify_on_grid, so
    the operators entering the sum are positive ones and the power
    premise downstream is verifiable.  Search failures (no usable time
    for some coordinate, a non-eventually-positive family, or a premise
    failure downstream) are recorded in the report, not raised.
    """
    provider.check_positive(h, "h")
    g, tol = TimeGrid.default(), _PREMISE_TOL
    h_vals = _coordinate_values(provider, h)
    sampled = classify_on_grid(provider, grid=g, tol=tol)
    if sampled.onset_t0 is None:
        return SpectrumConstructionReport(
            succeeded=False,
            support=(),
            witness_times=(),
            times_used=(),
            delta=None,
            radius_report=None,
            failures=((None, "family is not eventually positive on the sampled grid"),),
            notes="no onset time to anchor the search",
        )
    t0 = float(sampled.onset_t0)
    supp_tol = tol * (1.0 + float(np.max(np.abs(h_vals))))
    support = [int(i) for i in np.nonzero(h_vals > supp_tol)[0]]

    times = [t for t in provider.admissible_times(list(g.points)) if float(t) >= t0 - 1e-12]
    found = {}  # support coordinate -> its first sampled time with a positive orbit value
    operators = []  # T(t) at each time that is some coordinate's first
    for t in times:
        if len(found) == len(support):
            break
        op = np.asarray(provider.to_dense(t), dtype=float)
        orbit = op @ h_vals
        new = [x for x in support if x not in found and float(orbit[x]) > supp_tol]
        if new:
            found.update((x, float(t)) for x in new)
            operators.append(op)
    witness_times = [(x, found[x]) for x in support if x in found]
    failures = [
        (x, f"no sampled time >= {t0:.6g} keeps the orbit positive here")
        for x in support
        if x not in found
    ]

    if failures:
        return SpectrumConstructionReport(
            succeeded=False,
            support=tuple(support),
            witness_times=tuple(witness_times),
            times_used=(),
            delta=None,
            radius_report=None,
            failures=tuple(failures),
            notes="search failed; no operator sum was formed",
        )

    used = sorted({t for (_, t) in witness_times})
    T = sum(operators)
    Th = T @ h_vals
    delta = min(float(Th[x]) / float(h_vals[x]) for x in support)
    if delta <= tol:
        return SpectrumConstructionReport(
            succeeded=False,
            support=tuple(support),
            witness_times=tuple(witness_times),
            times_used=tuple(used),
            delta=delta,
            radius_report=None,
            failures=((None, f"domination ratio {delta:.3e} is not positive"),),
            notes="operator sum formed but no positive delta was found",
        )

    try:
        report = spr_lower_bound_check(T, h_vals, delta)
    except PremiseViolation as exc:
        return SpectrumConstructionReport(
            succeeded=False,
            support=tuple(support),
            witness_times=tuple(witness_times),
            times_used=tuple(used),
            delta=delta,
            radius_report=None,
            failures=((None, f"radius premises failed: {exc}"),),
            notes="operator sum formed but the domination premises failed downstream",
        )
    return SpectrumConstructionReport(
        succeeded=True,
        support=tuple(support),
        witness_times=tuple(witness_times),
        times_used=tuple(used),
        delta=delta,
        radius_report=report,
        failures=(),
        notes=f"spectral radius >= {delta:.6g} > 0, so the sampled family's"
        " growth bound is finite and its spectrum nonempty at this resolution",
    )


# ---------------------------------------------------------------------------
# Monotone approximation from below


def approximate_from_below(provider, g, times) -> list:
    """Increasing positive approximants g_n of a vector with positive orbit.

    g_n = positive part of (g - sum over k >= n of (g - T(t_k) g)^+) for a
    list of times decreasing towards 0.  Each g_n lies between 0 and
    T(t_n) g, the sequence increases, and the gap to g obeys the
    triangle bound sum of the orbit deviations from index n on.  All
    three facts are re-verified before returning.

    Carriers must expose coordinates (matrix vectors or grid functions).
    Raises PremiseViolation when a sampled orbit point has a negative
    coordinate beyond tol = _PREMISE_TOL relative slack.
    """
    from .gammashift import GridFunction
    from .stepfun import PiecewiseConstantFn

    ts = [float(t) for t in times]
    if not ts:
        raise InputError("need at least one time")
    if any(t < 0 for t in ts):
        raise InputError("times must be nonnegative")
    if any(ts[i + 1] > ts[i] + 1e-15 for i in range(len(ts) - 1)):
        raise InputError("times must decrease towards zero")
    if isinstance(g, PiecewiseConstantFn):
        raise InputError("approximation from below needs a coordinate carrier")
    tol = _PREMISE_TOL

    g_vals = _coordinate_values(provider, g)
    scale = 1.0 + float(np.max(np.abs(g_vals))) if g_vals.size else 1.0
    if float(np.min(g_vals)) < -tol * scale:
        i = int(np.argmin(g_vals))
        raise PremiseViolation("g has a negative coordinate", witnesses=[(i, float(g_vals[i]))])

    orbit_vals = []
    for t in ts:
        vals = _coordinate_values(provider, provider.apply(t, g))
        mn = float(np.min(vals))
        if mn < -tol * (1.0 + float(np.max(np.abs(vals)))):
            i = int(np.argmin(vals))
            raise PremiseViolation(
                "orbit leaves the cone at a sampled time",
                witnesses=[(t, i, float(vals[i]))],
            )
        orbit_vals.append(vals)
    deviations = [float(np.max(np.abs(w - g_vals))) for w in orbit_vals]
    if not all(math.isfinite(d) for d in deviations):
        raise PremiseViolation("orbit deviations are not finite", witnesses=[deviations])

    # Suffix sums built from the tail so that monotonicity is exact in floats.
    n = len(ts)
    suffix = np.zeros_like(g_vals)
    suffixes = [None] * n
    for k in range(n - 1, -1, -1):
        suffix = suffix + np.maximum(g_vals - orbit_vals[k], 0.0)
        suffixes[k] = suffix
    seq_vals = [np.maximum(g_vals - suffixes[k], 0.0) for k in range(n)]

    tail = 0.0
    tail_bounds = [0.0] * n
    for k in range(n - 1, -1, -1):
        tail += deviations[k]
        tail_bounds[k] = tail
    for k in range(n):
        upper = orbit_vals[k]
        slack = tol * (1.0 + float(np.max(np.abs(upper))))
        if float(np.max(seq_vals[k] - upper)) > slack:
            raise ConsistencyViolation(
                "approximant escaped above the sampled orbit point",
                witnesses=[(k, ts[k])],
            )
        if k + 1 < n and float(np.max(seq_vals[k] - seq_vals[k + 1])) > 0.0:
            raise ConsistencyViolation(
                "approximants failed to increase", witnesses=[(k,)]
            )
        gap = float(np.max(np.abs(seq_vals[k] - g_vals)))
        if gap > tail_bounds[k] + tol * scale:
            raise ConsistencyViolation(
                "gap to the target exceeded the triangle bound",
                witnesses=[(k, gap, tail_bounds[k])],
            )

    if isinstance(g, GridFunction):
        return [GridFunction(g.grid, vals) for vals in seq_vals]
    return [np.asarray(vals, dtype=float) for vals in seq_vals]
