"""Dominant-eigenvalue machinery for matrix semigroups.

Three related tools live here.  `algebraic_simplicity_test` decides via
the pairing of left and right eigenvectors whether a geometrically
simple eigenvalue is algebraically simple, cross-checking the verdict
against the rank of the squared shifted matrix.  `dominant_projection`
takes the dominant eigenpairs of the positivity certificate's own
eigendecomposition, refines both eigenvectors by inverse iteration (one
stacked solve of both sides per step), and returns the rank-one spectral
projection P = u phi^T normalised to <phi, u> = 1, with its residual
2-norms from one SVD of their stack; an independent sorted-Schur route
lives in the test suite as the oracle.
Finally, `mean_ergodic_projection` gives the limit of the Cesaro means
of e^{tA} when s(A) = 0 exactly: the projection onto ker A along ran A,
from one SVD of A, which exists when every imaginary-axis eigenvalue is
semisimple (left and right kernels of A - lam I pair nonsingularly);
a defective one is refused.  Sampled Cesaro quadrature is its
independent oracle in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CertificateMissing,
    ConsistencyViolation,
    EigenSolverFailure,
    NoConvergence,
    NotAnEigenpair,
    PremiseViolation,
)
from .lattice import as_matrix, as_vector
from .positivity import spectral_certificate

__all__ = [
    "ProjectionReport",
    "algebraic_simplicity_test",
    "dominant_projection",
    "mean_ergodic_projection",
]

SIMPLICITY_TOL = 1e-9  # relative residual and singular-value cutoff of the simplicity test
ERGODIC_TOL = 1e-8  # kernel, pairing and residual tolerance of the mean ergodic projection


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


def algebraic_simplicity_test(A, lam: float, u, phi) -> bool:
    """True iff `lam` is an algebraically simple eigenvalue of `A`.

    The direct route requires geometric simplicity (exactly one small
    singular value of lam*I - A) together with a nonvanishing pairing
    <phi, u> of the given left and right eigenvectors.  The verdict is
    cross-checked against rank((lam I - A)^2) = dim - 1, which
    characterises algebraic simplicity outright; disagreement raises
    ConsistencyViolation.

    Raises NotAnEigenpair when the supplied vectors fail their residual
    preconditions.  Residuals and singular values are measured against
    tol = SIMPLICITY_TOL, relative to 1 + |A|_2 + |lam|.
    """
    tol = SIMPLICITY_TOL
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


def _inverse_iteration(mats: np.ndarray, s: float, starts) -> np.ndarray:
    """The rows of `starts` refined by three steps of inverse iteration on the
    stack `mats` at a shift just above s: one stacked solve per step, each row
    normalised on its own.  If a matrix of a stack is exactly singular, each
    side runs again alone and moves its own shift, as separate iterations do.
    """
    shift = s + 1e-11 * (1.0 + abs(s))
    v = np.array([v0 / float(np.linalg.norm(v0)) for v0 in starts])
    for _ in range(3):
        try:
            w = np.linalg.solve(mats - shift * np.eye(v.shape[1]), v[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:  # an exactly singular shifted matrix
            if len(mats) > 1:
                return np.array([_inverse_iteration(M[None], s, [x])[0] for M, x in zip(mats, starts)])
            shift = shift + 1e-9 * (1.0 + abs(s))
            continue
        for side, row in enumerate(w):
            if (nrm := float(np.linalg.norm(row))) != 0.0:  # a zero step would only repeat
                v[side] = row / nrm
    for side, v0 in enumerate(starts):
        if float(np.dot(v[side], v0)) < 0.0:
            v[side] = -v[side]
    return v


def dominant_projection(
    A, expect_positive_eigenvectors: bool = False, certificate=None
) -> ProjectionReport:
    """Rank-one spectral projection for the dominant eigenvalue of `A`.

    Requires a simple, real, strictly dominant eigenvalue (the same
    margins as the positivity certificate); otherwise raises
    CertificateMissing.  The certificate's eigenvectors (from its one
    eig of A and of A^T) start inverse iteration at s, both sides one
    stacked solve per step; the refined vectors are rescaled to
    <phi, u> = 1, and `outer_form` compares P = u phi^T with the
    unrefined outer product.  The four residual 2-norms come from one
    SVD of their (4, n, n) stack.  The independent
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

    u, phi = _inverse_iteration(np.array([A, A.T]), s, (cert.right_vec, cert.left_vec))
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
    R = np.empty((4,) + P.shape)  # P^2 - P, AP - sP, PA - sP, P - unrefined: one SVD of the four
    np.matmul(P, P, out=R[0])
    np.matmul(A, P, out=R[1])
    np.matmul(P, A, out=R[2])
    np.multiply(s, P, out=R[3])
    R[0] -= P
    R[1:3] -= R[3]
    np.subtract(P, np.outer(cert.right_vec, cert.left_vec, out=R[3]), out=R[3])
    idem, right, left, outer = np.linalg.svd(R, compute_uv=False).max(axis=1).tolist()
    residuals = {"idempotent": idem, "eigen_commute": max(right, left), "outer_form": outer}
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
# Mean ergodic projection


def _kernels(M: np.ndarray, tol: float):
    """(R, L, |M|_2): right and left kernels of M, spanned by its singular
    vectors with singular value at most tol (1 + |M|_2)."""
    U, sig, Vh = np.linalg.svd(M)
    small = sig <= tol * (1.0 + sig[0])
    return Vh[small].conj().T, U[:, small], float(sig[0])


def mean_ergodic_projection(A) -> ProjectionReport:
    """Limit P of the Cesaro means (1/T) int_0^T e^{tA} dt for s(A) = 0.

    The limit exists exactly when every imaginary-axis eigenvalue is
    semisimple, and it is then the projection onto ker A along ran A:
    P = U (W^T U)^-1 W^T, with U = ker A and W = ker A^T from one SVD of
    A, so rank P = dim ker A (P = 0 when 0 is no eigenvalue); rank 1 is
    factored as u phi^T with <phi, u> = 1.  With tol = ERGODIC_TOL,
    eigenvalues within max(10 tol, 1e-6) of the axis form clusters of
    nearby imaginary parts; a cluster at mean lam is semisimple when the
    kernels R, L of A - lam I and of its adjoint have one column per
    eigenvalue and L^H R is nonsingular (least singular value above tol).

    Raises PremiseViolation when s(A) is not ~0, NoConvergence when an
    axis cluster is defective (the means then oscillate or grow), and
    EigenSolverFailure when P misses the residual bounds.
    """
    tol = ERGODIC_TOL
    A = as_matrix(A)
    evals = np.linalg.eigvals(A)
    axis_tol = max(10.0 * tol, 1e-6)
    s = float(np.max(evals.real))
    if abs(s) > axis_tol:
        raise PremiseViolation(f"spectral bound {s:.3e} is not zero; shift the generator first")
    U, W, norm = _kernels(A, tol)
    scale = 1.0 + norm
    # one cluster per conjugate pair; the first is the one at 0, empty if 0 is no eigenvalue
    axis = evals[(evals.real >= -axis_tol) & (evals.imag >= -axis_tol)]
    axis = axis[np.argsort(axis.imag)]
    clusters = np.split(axis, np.flatnonzero(np.diff(axis.imag) > axis_tol) + 1)
    if axis.size and axis[0].imag > axis_tol:
        clusters.insert(0, axis[:0])
    for i, cluster in enumerate(clusters):
        if i == 0:
            lam, R, L = 0j, U, W
        else:
            lam = complex(np.mean(cluster))
            R, L, _ = _kernels(A - lam * np.eye(len(A)), tol)
        pairing = np.linalg.svd(L.conj().T @ R, compute_uv=False)
        if R.shape[1] != cluster.size or (cluster.size and pairing[-1] <= tol):
            raise NoConvergence(
                f"imaginary-axis eigenvalue {lam:.6g} of multiplicity {cluster.size} is not"
                f" semisimple: kernel dimension {R.shape[1]}, pairing {min(pairing, default=0):.3e}"
            )

    rank = U.shape[1]
    P = U @ np.linalg.solve(W.T @ U, W.T)
    right = left = None
    outer_res = math.nan
    if rank == 1:
        right = U[:, 0] if U[np.argmax(np.abs(U[:, 0])), 0] > 0 else -U[:, 0]
        left = W[:, 0] / float(W[:, 0] @ right)
        outer_res = float(np.linalg.norm(P - np.outer(right, left), 2))
    residuals = {
        "idempotent": float(np.linalg.norm(P @ P - P, 2)),
        "eigen_commute": max(float(np.linalg.norm(A @ P, 2)), float(np.linalg.norm(P @ A, 2))),
        "outer_form": outer_res,
    }
    bad = {k: v for k, v in residuals.items() if not (math.isnan(v) or v <= tol * scale)}
    if bad:
        raise EigenSolverFailure(f"projection residuals exceed tolerance: {bad}")
    return ProjectionReport(
        eigenvalue=0.0,
        projection=P,
        rank=rank,
        right_vec=right,
        left_vec=left,
        residuals=residuals,
        notes=f"projection onto ker A (dimension {rank}) along ran A;"
        " every imaginary-axis eigenvalue is semisimple",
    )
