"""Dominant-eigenvalue machinery for matrix semigroups.

Three related tools live here.  `algebraic_simplicity_test` decides via
the pairing of left and right eigenvectors whether a geometrically
simple eigenvalue is algebraically simple, cross-checking the verdict
against the rank of the squared shifted matrix.  `dominant_projection`
takes the dominant eigenpairs of the positivity certificate's own
eigendecomposition, refines both eigenvectors by inverse iteration, and
returns the rank-one spectral projection P = u phi^T normalised to
<phi, u> = 1, comparing it against the unrefined outer product; an
independent sorted-Schur route lives in the test suite as the oracle.
Finally, `mean_ergodic_projection` forms Cesaro means
(1/T) int_0^T e^{tA} dt by nested trapezoid quadrature with two
Richardson levels, doubles T up to a horizon, extrapolates the 1/T
tail, and reports the limiting projection together with a fitted decay
constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CertificateMissing,
    ConsistencyViolation,
    EigenSolverFailure,
    InputError,
    NoConvergence,
    NotAnEigenpair,
    PremiseViolation,
)
from .lattice import as_matrix, as_vector
from .positivity import spectral_certificate
from .semigroup import MatrixSemigroup

__all__ = [
    "ProjectionReport",
    "algebraic_simplicity_test",
    "dominant_projection",
    "mean_ergodic_projection",
]


@dataclass(frozen=True)
class ProjectionReport:
    """A spectral projection with its quality residuals.

    `residuals` holds `idempotent` (|P^2 - P|), `eigen_commute`
    (max of |AP - lambda P| and |PA - lambda P|) and `outer_form`
    (|P - u phi^T| against the unrefined or factored form; NaN when no
    rank-one form is asserted).  An accepted report keeps all of them at
    or below 1e-8, and `rank` is 1 exactly when the u/phi factorisation
    is asserted.
    """

    eigenvalue: float
    projection: np.ndarray
    rank: int
    right_vec: np.ndarray | None
    left_vec: np.ndarray | None
    residuals: dict
    notes: str = ""


# ---------------------------------------------------------------------------
# Algebraic simplicity via the left/right pairing


def _rank_by_svd(M: np.ndarray, rel_tol: float) -> int:
    sig = np.linalg.svd(M, compute_uv=False)
    if sig.size == 0 or sig[0] == 0.0:
        return 0
    return int(np.sum(sig > rel_tol * sig[0]))


def algebraic_simplicity_test(A, lam: float, u, phi, tol: float = 1e-9) -> bool:
    """True iff `lam` is an algebraically simple eigenvalue of `A`.

    The direct route requires geometric simplicity (exactly one small
    singular value of lam*I - A) together with a nonvanishing pairing
    <phi, u> of the given left and right eigenvectors.  The verdict is
    cross-checked against rank((lam I - A)^2) = dim - 1, which
    characterises algebraic simplicity outright; disagreement raises
    ConsistencyViolation.

    Raises NotAnEigenpair when the supplied vectors fail their residual
    preconditions.
    """
    A = as_matrix(A)
    u = as_vector(u)
    phi = as_vector(phi)
    n = A.shape[0]
    scale = 1.0 + float(np.linalg.norm(A, 2)) + abs(lam)
    ru = float(np.linalg.norm(A @ u - lam * u))
    if ru > tol * scale * float(np.linalg.norm(u)):
        raise NotAnEigenpair(f"right residual {ru:.3e} too large for eigenvalue {lam:.6g}")
    rp = float(np.linalg.norm(A.T @ phi - lam * phi))
    if rp > tol * scale * float(np.linalg.norm(phi)):
        raise NotAnEigenpair(f"left residual {rp:.3e} too large for eigenvalue {lam:.6g}")

    shifted = lam * np.eye(n) - A
    sig = np.linalg.svd(shifted, compute_uv=False)
    small = int(np.sum(sig <= tol * scale))
    if small == 0:
        raise NotAnEigenpair(f"{lam:.6g} is not an eigenvalue at tolerance {tol:.0e}")
    geometric_simple = small == 1
    pairing = float(np.dot(phi, u))
    pairing_ok = abs(pairing) > tol * float(np.linalg.norm(u)) * float(np.linalg.norm(phi))
    result = geometric_simple and pairing_ok

    crosscheck = _rank_by_svd(shifted @ shifted, tol * scale) == n - 1
    if result != crosscheck:
        raise ConsistencyViolation(
            "pairing route and squared-rank route disagree on algebraic simplicity",
            witnesses=[
                ("geometric_simple", geometric_simple),
                ("pairing", pairing),
                ("rank_of_square", _rank_by_svd(shifted @ shifted, tol * scale)),
            ],
        )
    return result


# ---------------------------------------------------------------------------
# Dominant rank-one projection


def _inverse_iteration(A: np.ndarray, s: float, v0: np.ndarray, iters: int = 3) -> np.ndarray:
    n = A.shape[0]
    shift = s + 1e-11 * (1.0 + abs(s))
    v = v0 / float(np.linalg.norm(v0))
    for _ in range(iters):
        try:
            w = np.linalg.solve(A - shift * np.eye(n), v)
        except np.linalg.LinAlgError:  # pragma: no cover - exact-singularity fallback
            shift = shift + 1e-9 * (1.0 + abs(s))
            continue
        nrm = float(np.linalg.norm(w))
        if nrm == 0.0:
            break
        v = w / nrm
    if float(np.dot(v, v0)) < 0.0:
        v = -v
    return v


def dominant_projection(
    A, expect_positive_eigenvectors: bool = False, tol: float = 1e-8, certificate=None
) -> ProjectionReport:
    """Rank-one spectral projection for the dominant eigenvalue of `A`.

    Requires a simple, real, strictly dominant eigenvalue (the same
    margins as the positivity certificate); otherwise raises
    CertificateMissing.  The certificate's eigenvectors (from its one
    eig of A and of A^T) start inverse iteration at s, the refined
    vectors are rescaled to <phi, u> = 1, and `outer_form` compares
    P = u phi^T with the unrefined outer product.  The independent
    sorted real Schur route is kept in the tests as the oracle.  With
    `expect_positive_eigenvectors` (appropriate for persistently
    irreducible, eventually positive inputs) both vectors are
    additionally asserted strictly positive.  `certificate`, when given,
    is spectral_certificate(A) as the caller already holds it (the
    positivity certificate of the same A), and saves its decompositions.
    """
    A = as_matrix(A)
    cert = spectral_certificate(A) if certificate is None else certificate
    if not cert.dominant_is_real_simple:
        raise CertificateMissing(
            "dominant eigenvalue is not certified real and simple"
            + (f": {cert.notes}" if cert.notes else "")
        )
    s = cert.spectral_bound
    gap = cert.spectral_gap

    u = _inverse_iteration(A, s, cert.right_vec)
    phi = _inverse_iteration(A.T, s, cert.left_vec)
    scale = 1.0 + float(np.linalg.norm(A, 2)) + abs(s)
    for vec, mat, side in ((u, A, "right"), (phi, A.T, "left")):
        resid = float(np.linalg.norm(mat @ vec - s * vec))
        if resid > tol * scale:
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
    unrefined = np.outer(cert.right_vec, cert.left_vec)
    residuals = {
        "idempotent": float(np.linalg.norm(P @ P - P, 2)),
        "eigen_commute": max(
            float(np.linalg.norm(A @ P - s * P, 2)),
            float(np.linalg.norm(P @ A - s * P, 2)),
        ),
        "outer_form": float(np.linalg.norm(P - unrefined, 2)),
    }
    bad = {k_: v for k_, v in residuals.items() if not (v <= 1e-8 * scale)}
    if bad:
        raise EigenSolverFailure(f"projection residuals exceed tolerance: {bad}")

    notes = f"dominant eigenvalue {s:.9g}, spectral gap {gap:.6g}"
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


# ---------------------------------------------------------------------------
# Cesaro / mean-ergodic projection


def _trapezoid(samples: list, h: float, stride: int) -> np.ndarray:
    sel = samples[::stride]
    acc = sum(sel[1:-1], np.zeros_like(sel[0]))
    return (h * stride) * (acc + 0.5 * (sel[0] + sel[-1]))


def _cesaro_mean(samples: list, h: float, T: float) -> np.ndarray:
    """(1/T) int_0^T e^{tA} dt by nested trapezoid + two Richardson levels.

    `samples` are e^{tA} at t = i h, i = 0 .. T / h, with T / h a multiple of 4.
    """
    t1 = _trapezoid(samples, h, 4)
    t2 = _trapezoid(samples, h, 2)
    t4 = _trapezoid(samples, h, 1)
    r1 = (4.0 * t2 - t1) / 3.0
    r2 = (4.0 * t4 - t2) / 3.0
    return ((16.0 * r2 - r1) / 15.0) / T


def mean_ergodic_projection(
    A, T_max: float = 64.0, tol: float = 1e-8, nodes_per_unit: int = 32
) -> ProjectionReport:
    """Limit of the Cesaro means of e^{tA} for a generator with s(A) = 0.

    T doubles from 1 up to `T_max`; the 1/T tail is removed by the
    extrapolation L = 2 C_{2T} - C_T, and the fitted constant in
    |C_T - L| <= C/T is reported.  A rank-one limit is factored as
    u phi^T and cross-checked against dominant_projection when the
    dominant-eigenvalue certificate is available; a vanishing limit is
    reported as P = 0 with rank 0.  Every mean samples e^{tA} at
    t = i / (4 nodes_per_unit), so the samples of each T are a prefix of
    one list at the largest T, evaluated once.

    Raises InputError for T_max < 4 or nodes_per_unit not an integer of
    at least 4, PremiseViolation when s(A) is not ~0 or the family is
    unbounded on the horizon, and NoConvergence when the means do not
    stabilise within T_max.
    """
    A = as_matrix(A)
    provider = MatrixSemigroup(A)
    evals = np.linalg.eigvals(A)
    s = float(np.max(evals.real))
    if abs(s) > max(10.0 * tol, 1e-6):
        raise PremiseViolation(
            f"spectral bound {s:.3e} is not zero; shift the generator first"
        )
    M_env, _ = provider.envelope
    norm_at_horizon = float(np.linalg.norm(provider.matrix(T_max), 2))
    if norm_at_horizon > 100.0 * max(M_env, 1.0):
        raise PremiseViolation(
            f"family is not bounded on the horizon: |T({T_max:g})| = {norm_at_horizon:.3e}"
        )
    if T_max < 4.0:
        raise InputError("T_max must allow at least two doublings (>= 4)")
    if nodes_per_unit < 4 or nodes_per_unit != int(nodes_per_unit):
        raise InputError("nodes_per_unit must be an integer of at least 4")

    # Every T of the schedule is a power of two, so its fine step
    # T / (4 T nodes_per_unit) is the same double and its samples are a
    # prefix of the largest T's, which are evaluated once as a stack.
    schedule = [1.0]
    while schedule[-1] * 2.0 <= T_max:
        schedule.append(schedule[-1] * 2.0)
    steps = {T: 4 * int(math.ceil(T * nodes_per_unit)) for T in schedule}
    h = schedule[-1] / steps[schedule[-1]]
    samples = list(provider.matrices([i * h for i in range(steps[schedule[-1]] + 1)]))
    means = {T: _cesaro_mean(samples[: steps[T] + 1], h, T) for T in schedule}

    deltas = [
        float(np.max(np.abs(means[schedule[i + 1]] - means[schedule[i]])))
        for i in range(len(schedule) - 1)
    ]

    # A vanishing limit shows up as max|C_T| = O(1/T); decide this on the raw
    # means before extrapolating, since an oscillatory O(1/T) tail (rotation
    # groups) is not removed by the smooth-tail extrapolation below.
    norms = {T: float(np.max(np.abs(means[T]))) for T in schedule}
    half = schedule[: max(2, len(schedule) // 2)]
    c_half = max(T * norms[T] for T in half)
    if norms[schedule[-1]] <= max(100.0 * tol, 4.0 * c_half / schedule[-1]):
        fit_constant = max(T * norms[T] for T in schedule)
        residuals = {"idempotent": 0.0, "eigen_commute": 0.0, "outer_form": math.nan}
        return ProjectionReport(
            eigenvalue=0.0,
            projection=np.zeros_like(means[schedule[-1]]),
            rank=0,
            right_vec=None,
            left_vec=None,
            residuals=residuals,
            notes=f"means decay to zero; fitted max|C_T| <= {fit_constant:.3g}/T",
        )

    limit = 2.0 * means[schedule[-1]] - means[schedule[-2]]
    lim_scale = 1.0 + float(np.max(np.abs(limit)))
    if deltas[-1] > 10.0 * tol * lim_scale and deltas[-1] > 0.6 * deltas[-2]:
        raise NoConvergence(
            f"Cesaro means did not stabilise within T_max = {T_max:g}"
            f" (last increments {deltas[-2]:.3e}, {deltas[-1]:.3e})"
        )

    fit_rows = [(T, float(np.max(np.abs(means[T] - limit)))) for T in schedule]
    fit_constant = max(T * dev for (T, dev) in fit_rows)
    for T, dev in fit_rows[len(fit_rows) // 2 :]:
        if dev > (fit_constant / T) * (1.0 + 1e-9) + 10.0 * tol:
            raise NoConvergence(
                f"deviation at T = {T:g} does not follow the fitted C/T decay"
            )

    U, sig, Vt = np.linalg.svd(limit)
    rank = int(np.sum(sig > max(10.0 * tol, 1e-7) * sig[0]))
    right = left = None
    outer_res = math.nan
    notes = f"fitted |C_T - P| <= {fit_constant:.3g}/T over T in [1, {T_max:g}]"
    if rank == 1:
        right = np.asarray(U[:, 0], dtype=float)
        k = int(np.argmax(np.abs(right)))
        if right[k] < 0:
            right = -right
        left = np.asarray(Vt[0, :], dtype=float) * float(sig[0])
        pairing = float(np.dot(left, right))
        if abs(pairing) < 1e-12:
            raise ConsistencyViolation(
                "rank-one mean-ergodic limit is not a projection", witnesses=[pairing]
            )
        left = left / pairing
        outer_res = float(np.linalg.norm(limit - np.outer(right, left), 2))
        try:
            dom = dominant_projection(A)
            agree = float(np.max(np.abs(limit - dom.projection)))
            if agree > max(100.0 * tol, 3.0 * fit_constant / T_max):
                raise NoConvergence(
                    f"mean-ergodic limit disagrees with the dominant projection"
                    f" by {agree:.3e}"
                )
            notes += f"; agrees with the dominant projection to {agree:.2e}"
        except CertificateMissing:
            notes += "; no dominant-eigenvalue certificate to compare against"

    residuals = {
        "idempotent": float(np.linalg.norm(limit @ limit - limit, 2)),
        "eigen_commute": max(
            float(np.linalg.norm(A @ limit, 2)), float(np.linalg.norm(limit @ A, 2))
        ),
        "outer_form": outer_res,
    }
    scale = 1.0 + float(np.linalg.norm(A, 2))
    bad = {
        k_: v
        for k_, v in residuals.items()
        if k_ != "outer_form" and not (v <= max(1e-8 * scale, 20.0 * fit_constant / T_max))
    }
    if bad:
        raise NoConvergence(f"limiting matrix fails projection residuals: {bad}")
    return ProjectionReport(
        eigenvalue=0.0,
        projection=limit,
        rank=rank,
        right_vec=right,
        left_vec=left,
        residuals=residuals,
        notes=notes,
    )
