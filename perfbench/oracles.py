"""Independent checks on stored outputs, run after the timed phase.

The oracles use scipy and plain integer arithmetic, never the package's
own routines, and never compare against golden report bytes: a change
that tightens an onset or certifies more verdicts still passes, while a
wrong class, an unsound onset or a broken identity fails.  Each check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction

import numpy as np
import scipy.linalg
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

TOL = 1e-9  # the package's default verdict tolerance


def pattern(A: np.ndarray) -> np.ndarray:
    """edge[j, i] is True when mass flows from j to i: |A_ij| above the cutoff."""
    thr = TOL * (1.0 + float(np.max(np.abs(A))))
    edge = (np.abs(A) > thr).T
    np.fill_diagonal(edge, False)
    return edge


def check_irreducibility(A: np.ndarray, classification: str, witness) -> list:
    edge = pattern(A)
    n = A.shape[0]
    ncomp, _ = connected_components(csr_matrix(edge), directed=True, connection="strong")
    if ncomp == 1:
        if classification != "PersistentlyIrreducible":
            return [f"strongly connected pattern classified {classification}"]
        return []
    if classification != "Reducible":
        return [f"{ncomp} strong components classified {classification}"]
    members = sorted(witness["members"]) if witness else []
    if not 0 < len(members) < n:
        return [f"witness ideal {members} is trivial"]
    inside = np.zeros(n, dtype=bool)
    inside[members] = True
    if edge[np.ix_(inside, ~inside)].any():
        return [f"witness ideal {members} is not invariant"]
    return []


def check_positivity(A: np.ndarray, cls: str, certified: bool, onset, s: float) -> list:
    """Metzler => Positive, and a certified onset t0 holds at sampled t >= t0.

    e^{t(A - sI)} = e^{-st} e^{tA} has the signs of e^{tA}; the shift by
    the spectral bound s only keeps the entries in floating-point range.
    """
    problems = []
    off = A[~np.eye(A.shape[0], dtype=bool)]
    if off.size and off.min() >= 0.0 and cls != "Positive":
        problems.append(f"Metzler generator classified {cls}")
    if certified and onset is not None:
        t0 = float(onset)
        B = A - float(s) * np.eye(A.shape[0])
        for t in (t0, 1.5 * t0 + 0.5, 3.0 * t0 + 2.0):
            E = scipy.linalg.expm(t * B)
            if E.min() < -TOL * max(1.0, float(np.abs(E).max())):
                problems.append(f"certified onset {t0:.6g} violated at t={t:.6g}: {E.min():.3e}")
                break
    return problems


def check_projection(P: np.ndarray) -> list:
    scale = max(1.0, float(np.linalg.norm(P, 2))) ** 2
    resid = float(np.linalg.norm(P @ P - P, 2))
    if not resid <= 1e-7 * scale:
        return [f"projection not idempotent: |P^2 - P| = {resid:.3e}"]
    return []


def check_analyze_report(A: np.ndarray, text: str) -> list:
    rep = json.loads(text)
    pos = rep["positivity"]
    irr = rep["irreducibility"]
    problems = check_irreducibility(A, irr["classification"], irr["witness_ideal"])
    s = rep["certificate"]["spectral_bound"]
    problems += check_positivity(A, pos["class"], pos["certified"], pos["onset_t0"], s)
    proj = rep["projection"]
    if proj["available"]:
        problems += check_projection(np.array(proj["projection"], dtype=float))
    return problems


# -- exact step-function pairings -----------------------------------------


def pairing(k: int, j: int, t: Fraction) -> Fraction:
    """<S(t) r_k, r_j> = integral over [0, 1-t) of r_k(x+t) r_j(x), exactly.

    r_k is +1 on [0, 2^-k) and alternates on cells of width 2^-k.  For a
    dyadic t every integrand piece lives on the grid of width 2^-D.
    """
    if t >= 1:
        return Fraction(0)
    d = max(0, (t.denominator - 1).bit_length())
    if t.denominator != 1 << d:
        raise ValueError("t must be dyadic")
    D = max(k, j, d)
    T = t.numerator << (D - d)
    m = np.arange((1 << D) - T, dtype=np.int64)
    sign_k = 1 - 2 * (((m + T) >> (D - k)) & 1)
    sign_j = 1 - 2 * ((m >> (D - j)) & 1)
    return Fraction(int(np.dot(sign_k, sign_j)), 1 << D)


def check_witness(k: int, j: int, depth: int, witness) -> list:
    if witness is None:
        return [f"no witness for ({k}, {j}) at depth {depth}"]
    w = Fraction(witness)
    if not (0 < w < 1) or (1 << depth) % w.denominator:
        return [f"witness {w} is not a depth-{depth} dyadic point of (0, 1)"]
    if pairing(k, j, w) == 0:
        return [f"pairing ({k}, {j}) vanishes at the witness {w}"]
    return []


def check_pairing_series(text: str) -> list:
    rows = list(csv.DictReader(text.splitlines()))
    problems = []
    nonzero = False
    for row in rows:
        t = Fraction(row["t"])
        value = Fraction(row["pairing_1_1_exact"])
        if value != pairing(1, 1, t):
            problems.append(f"pairing(1, 1, {t}) reported {value}")
            break
        nonzero |= 0 < t < 1 and value != 0
    if not rows or Fraction(rows[-1]["t"]) != 1 or Fraction(rows[-1]["pairing_1_1_exact"]) != 0:
        problems.append("pairing series does not end with zero at t = 1")
    if not nonzero:
        problems.append("pairing series has no nonzero witness in (0, 1)")
    return problems


# -- coupled lattice orbits ------------------------------------------------


def cell_of(x: float, x_min: float, h: float) -> int:
    return math.floor((x - x_min) / h + 1e-9)


def check_support_floor(L: float, h: float, fronts) -> list:
    """fronts: (t, support_lo) pairs; the floor may never pass the cell of 1 - t."""
    for t, lo in fronts:
        need = cell_of(1.0 - t, -L, h)
        if lo < need:
            return [f"support floor {lo} below cell {need} of 1 - t at t = {t}"]
    return []


def check_support_front_series(text: str, L: float = 6.0, h: float = 0.125) -> list:
    rows = list(csv.DictReader(text.splitlines()))
    if not rows:
        return ["empty support-front series"]
    return check_support_floor(L, h, [(float(r["t"]), int(r["support_lo_cell"])) for r in rows])


def check_suite_report(text: str) -> list:
    rep = json.loads(text)
    return [] if rep.get("ok") is True else [f"suite {rep.get('preset')} reported ok = false"]
