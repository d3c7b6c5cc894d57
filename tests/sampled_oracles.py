"""Sampled oracles for the exact irreducibility routes.

These are the sampled searches that the package once ran in production:
the weak-conditions table probed on a time grid, the grid search for a
coupled system's mixed-ideal witness, the per-time scan of how much
e^{tA} carries out of a coordinate ideal, the Cesaro means of e^{tA}
by quadrature, the orbit-norm scan for vanishing orbits and the random
probes of a principal ideal's gauge bound.  They share no code with the
exact routes (pairing supports, Krylov vectors, generator zero
patterns, kernels of A and A^T, vanishing times, gauge operator norms),
so the tests compare the two.  Sampling can witness a
condition but never refute it: a threshold without a sampled witness is
left unresolved, a leak that decays below the tolerance reads as
invariance, an orbit that decays below it reads as vanished, and a
random probe only bounds the gauge norm from below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from evpos.irreducibility import COND_LARGE_TIMES, COND_LARGE_TIMES_OR_ZERO, COND_SOME_TIME
from evpos.lattice import GaugeContext, as_vector, gauge_norm
from evpos.semigroup import MatrixSemigroup, TimeGrid


@dataclass(frozen=True)
class SampledEntry:
    status: str  # "holds" | "grid-limited"
    witnesses: tuple  # (f_label, phi_label, t0, t, value)
    unresolved: tuple  # (f_label, phi_label, t0)


@dataclass(frozen=True)
class SampledTable:
    entries: dict  # condition key -> SampledEntry
    diagram_consistent: bool


def sampled_times(provider, t0_list, grid=None):
    """Grid, thresholds and offsets past them, snapped by the carrier; 0 first."""
    if grid is None:
        grid = TimeGrid.default()
    candidates = list(grid) + [0.0] + list(t0_list)
    for t0 in t0_list:
        candidates.extend([t0 + d for d in (0.0, 0.5, 1.0, 2.0)])
    times = provider.admissible_times(candidates)
    if not times or times[0] != 0:
        times = [type(times[0])(0) if times else 0.0] + list(times)
    return times


def _condition_probes(provider, times, test_vectors, test_functionals) -> list:
    """probes[i][j]: <phi_j, T(t) f_i> at each of `times`, bit for bit condition_probe.

    A matrix carrier evaluates each e^{tA} once, from stacked time lists,
    and applies it once per test vector; other carriers are probed pair
    by pair.
    """
    if not isinstance(provider, MatrixSemigroup):
        return [
            [[provider.condition_probe(t, f, phi) for t in times] for phi in test_functionals]
            for f in test_vectors
        ]
    fs = [as_vector(f) for f in test_vectors]
    probes = [[[] for _ in test_functionals] for _ in fs]
    for flow in provider.matrices(times):
        for f, row in zip(fs, probes):
            image = flow @ f
            for phi, vals in zip(test_functionals, row):
                vals.append(provider.pair(phi, image))
    return probes


def sampled_conditions_table(
    provider,
    test_vectors=None,
    test_functionals=None,
    t0_list=(0.0, 1.0, 5.0),
    grid=None,
    tol: float = 1e-9,
) -> SampledTable:
    """The three weak conditions probed on sampled times; |<phi, T(t) f>| > tol is a witness."""
    if test_vectors is None:
        test_vectors = list(provider.condition_basis())
    if test_functionals is None:
        test_functionals = list(test_vectors)
    t0_list = tuple(float(t0) for t0 in t0_list)
    times = sampled_times(provider, t0_list, grid)
    probes = _condition_probes(provider, times, test_vectors, test_functionals)
    rows = {key: ([], []) for key in (COND_SOME_TIME, COND_LARGE_TIMES_OR_ZERO, COND_LARGE_TIMES)}
    for i, f in enumerate(test_vectors):
        for j, phi in enumerate(test_functionals):
            label = (f"f{i}", f"phi{j}")
            vals = list(zip(times, probes[i][j]))
            hits = [(t, v) for t, v in vals if abs(v) > tol]
            wit, unres = rows[COND_SOME_TIME]
            if hits:
                wit.append(label + (None,) + hits[0])
            else:
                unres.append(label + (None,))
            for t0 in t0_list:
                row = label + (t0,)
                later = [h for h in hits if h[0] >= t0]
                wit, unres = rows[COND_LARGE_TIMES]
                if later:
                    wit.append(row + later[0])
                else:
                    unres.append(row)
                # large-times-or-zero: t = 0 also qualifies
                wit, unres = rows[COND_LARGE_TIMES_OR_ZERO]
                if abs(vals[0][1]) > tol:
                    wit.append(row + vals[0])
                elif later:
                    wit.append(row + later[0])
                else:
                    unres.append(row)
    entries = {
        key: SampledEntry("grid-limited" if unres else "holds", tuple(wit), tuple(unres))
        for key, (wit, unres) in rows.items()
    }
    witnessed_orzero = {r[:3] for r in entries[COND_LARGE_TIMES_OR_ZERO].witnesses}
    witnessed_some = {r[:2] for r in entries[COND_SOME_TIME].witnesses}
    diagram = all(r[:3] in witnessed_orzero for r in entries[COND_LARGE_TIMES].witnesses) and all(
        r[:2] in witnessed_some for r in entries[COND_LARGE_TIMES_OR_ZERO].witnesses
    )
    return SampledTable(entries, diagram)


def sampled_mixed_witness(src_provider, block, tgt_provider, grid=None, tol: float = 1e-9):
    """(seed index, s, t0) with block(T_src(s) f) nonzero and still nonzero after T_tgt(t0), or None."""
    if grid is None:
        grid = TimeGrid.default()
    seeds = src_provider.default_test_vectors()
    s_candidates = [s for s in src_provider.admissible_times(list(grid.points)) if s > 0.0]
    t0_candidates = [u for u in tgt_provider.admissible_times(list(grid.points)) if u > 0.0][:3]
    for fi, f in enumerate(seeds):
        ztol = tol * max(1.0, src_provider.vec_norm(f))
        for t0 in t0_candidates:
            for s in s_candidates:
                if s < t0:
                    continue
                y = block.apply(src_provider.apply(s, f))
                if tgt_provider.vec_norm(y) <= ztol:
                    continue
                if tgt_provider.vec_norm(tgt_provider.apply(t0, y)) > ztol:
                    return fi, float(s), float(t0)
    return None


def sampled_leak_onset(A, mask, times=None, tol: float = 1e-9):
    """First sampled time from which no e^{tA} carries more than tol out of the ideal.

    `times` defaults to the default grid; None when the last sample
    still leaks.
    """
    if times is None:
        times = [float(t) for t in TimeGrid.default().points]
    if mask.is_trivial:
        return times[0]
    rows = mask.complement().sorted_members()
    cols = mask.sorted_members()
    flow = np.array(list(MatrixSemigroup(A).matrices(times)))
    leaks = np.max(np.abs(flow[:, rows][:, :, cols]), axis=(1, 2))
    leaking = np.flatnonzero(leaks > tol)
    start = int(leaking[-1]) + 1 if leaking.size else 0
    return times[start] if start < len(times) else None


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


def sampled_cesaro_limit(A, T_max: float = 64.0, nodes_per_unit: int = 32):
    """(L, C): the extrapolated limit of the Cesaro means of e^{tA} and the
    fitted constant C in max|C_T - L| <= C / T.

    T doubles from 1 up to T_max; each mean samples e^{tA} at
    t = i / (4 nodes_per_unit), and L = 2 C_{T_max} - C_{T_max / 2}
    removes a smooth 1/T tail.  An oscillating tail is not removed, so L
    is accurate to about C / T_max only.
    """
    schedule = [1.0]
    while schedule[-1] * 2.0 <= T_max:
        schedule.append(schedule[-1] * 2.0)
    steps = {T: 4 * int(math.ceil(T * nodes_per_unit)) for T in schedule}
    h = schedule[-1] / steps[schedule[-1]]
    times = [i * h for i in range(steps[schedule[-1]] + 1)]
    samples = list(MatrixSemigroup(A).matrices(times))
    means = {T: _cesaro_mean(samples[: steps[T] + 1], h, T) for T in schedule}
    limit = 2.0 * means[schedule[-1]] - means[schedule[-2]]
    fit_constant = max(T * float(np.max(np.abs(means[T] - limit))) for T in schedule)
    return limit, fit_constant


def sampled_vanishing(provider, basis=None, grid=None, tol: float = 1e-9):
    """(t, label, norm) of each sampled orbit point with norm <= tol.

    The labels are f<i> for T(t) f_i and phi<i> for T(t)' f_i, over the
    carrier's condition basis unless `basis` is given.
    """
    if basis is None:
        basis = list(provider.condition_basis())
    if grid is None:
        grid = TimeGrid.default()
    flagged = []
    for t in provider.admissible_times(grid):
        for idx, f in enumerate(basis):
            fwd = provider.vec_norm(provider.apply(t, f))
            if fwd <= tol:
                flagged.append((float(t), f"f{idx}", float(fwd)))
            adj = provider.vec_norm(provider.apply_adjoint(t, f))
            if adj <= tol:
                flagged.append((float(t), f"phi{idx}", float(adj)))
    return flagged


def sampled_gauge_probes(provider, h, times, rng, n_random: int = 5, tol: float = 1e-9):
    """(t, gauge(f, h), gauge(T(t) f, h)) for random f = c h, c uniform in [-1, 1]^n.

    Every eighth of `times` is probed; T(t) f may leave the ideal by the
    rounding of the flow, tol (1 + max |T(t)|)(1 + |f|_1).
    """
    ctx = GaugeContext.from_vector(h)
    mats = dict(zip(times, provider.matrices(times)))
    leak_tol = tol * (1.0 + max(float(np.max(np.abs(m))) for m in mats.values()))
    probe_times = times[:: max(1, len(times) // 8)]
    probes = []
    for _ in range(n_random):
        f = rng.uniform(-1.0, 1.0, size=h.size) * h
        g_in = gauge_norm(f, ctx)
        membership_tol = leak_tol * (1.0 + float(np.sum(np.abs(f))))
        for t in probe_times:
            probes.append((float(t), g_in, gauge_norm(mats[t] @ f, ctx, tol=membership_tol)))
    return probes
