"""Matrix exponential engine, time grids, and the showcase generator."""

import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from evpos import perturbation, semigroup
from evpos.errors import ExpmOverflow
from evpos.perturbation import dyson_phillips_sum
from evpos.semigroup import (
    MatrixSemigroup,
    PairingSupport,
    TimeGrid,
    default_envelope,
    demo_eigensystem,
    demo_generator,
    expm,
    matrix_power_formula_check,
    power_formula_matrix,
)
from brute_oracles import linear_first_at_or_after


def test_expm_against_scipy_random():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        A = rng.normal(scale=1.5, size=(n, n))
        t = float(rng.uniform(0.1, 3.0))
        mine = expm(A, t)
        ref = scipy.linalg.expm(t * A)
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(mine - ref)) <= 1e-12 * scale


def test_expm_semigroup_law():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(5, 5))
    left = expm(A, 0.7) @ expm(A, 0.3)
    right = expm(A, 1.0)
    assert np.max(np.abs(left - right)) <= 1e-12 * float(np.max(np.abs(right)))


def test_expm_of_non_finite_argument_is_typed_overflow():
    # 10 A has an infinite entry, so |tA|_1 is not finite
    with pytest.raises(ExpmOverflow):
        expm(np.array([[0.0, 1e308], [0.0, 0.0]]), 10.0)


def test_expm_at_zero_is_identity():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(expm(A, 0.0), np.eye(2))


class TestTimeGrid:
    def test_logspace_default_shape(self):
        g = TimeGrid.default()
        pts = list(g.points)
        assert pts[0] == 0.0
        assert len(pts) == 257  # 256 log points plus the origin
        assert pts == sorted(pts)
        assert pts[-1] == pytest.approx(20.0)

    def test_rejects_non_increasing_points(self):
        with pytest.raises(ValueError):
            TimeGrid(points=np.array([0.5, 0.5]), t_start=0.0, t_end=1.0)


def test_default_envelope_bounds_family():
    rng = np.random.default_rng(3)
    for _ in range(10):
        A = rng.normal(size=(4, 4))
        M, w = default_envelope(A)
        for t in (0.0, 0.5, 1.0, 2.0, 5.0):
            norm = float(np.linalg.norm(expm(A, t), 2))
            assert norm <= M * np.exp(w * t) * (1.0 + 1e-9)


def test_default_envelope_finite_at_large_spectral_bound():
    # e^{10 A} overflows at s = 81; the envelope takes no exponential
    A = np.array([[80.0, 1.0], [1.0, 80.0]])
    M, w = default_envelope(A)
    assert np.isfinite(M) and M >= 1.0
    assert w == pytest.approx(81.0)
    for t in (0.5, 2.0, 20.0):
        rescaled = scipy.linalg.expm(t * (A - w * np.eye(2)))
        assert np.linalg.norm(rescaled, 2) <= M * (1.0 + 1e-9)


@pytest.mark.parametrize(
    "A", [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 1.0], [1e-30, 0.0]]], ids=["jordan", "perturbed-jordan"]
)
def test_envelope_bounds_unusable_eigenbasis_at_long_times(A):
    # kappa_2(V) > 1e12, so the envelope is the log-norm pair (1, 1/2);
    # |e^{tA}|_2 grows like t, past any constant an early sample finds
    A = np.array(A)
    M, w = MatrixSemigroup(A).envelope
    assert (M, w) == (1.0, 0.5)
    for t in (50.0, 100.0, 200.0):
        assert np.linalg.norm(scipy.linalg.expm(t * A), 2) <= M * math.exp(w * t)


def test_log_norm_envelope_near_the_double_range():
    # A + A^T would overflow; the halves are summed instead
    A = np.array([[1e308, 1e308], [0.0, 1e308]])
    assert default_envelope(A) == semigroup.log_norm_envelope(A) == (1.0, 1.5e308)


def test_default_envelope_takes_no_exponential(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an exponential was evaluated")

    monkeypatch.setattr(semigroup, "expm", refuse)
    rng = np.random.default_rng(23)
    inputs = [rng.normal(size=(n, n)) for n in (2, 5, 9)] + [
        demo_generator(),
        np.array([[80.0, 1.0], [1.0, 80.0]]),
        np.array([[0.0, 1.0], [0.0, 0.0]]),
    ]
    for A in inputs:
        M, w = default_envelope(A)
        assert math.isfinite(M) and M >= 1.0 and math.isfinite(w)


class TestShowcaseMatrix:
    def test_eigensystem_reconstructs_generator(self):
        A = demo_generator()
        evals, U = demo_eigensystem()
        assert np.max(np.abs(U @ U.T - np.eye(3))) <= 1e-13
        rebuilt = U @ np.diag(evals) @ U.T
        assert np.max(np.abs(rebuilt - A)) <= 1e-12

    def test_eigenpair_residuals(self):
        A = demo_generator()
        evals, U = demo_eigensystem()
        for i in range(3):
            res = np.linalg.norm(A @ U[:, i] - evals[i] * U[:, i])
            assert res <= 1e-12

    @pytest.mark.parametrize("n", range(1, 13))
    def test_power_formula_matches_direct_powers(self, n):
        formula, direct = matrix_power_formula_check(n)
        scale = float(np.max(np.abs(direct)))
        assert np.max(np.abs(formula - direct)) <= 1e-12 * scale

    def test_power_formula_domain_starts_at_one(self):
        # the closed form deliberately fails at n = 0: it sums the
        # nonzero-eigenvalue projections only, not the identity
        assert np.max(np.abs(power_formula_matrix(0) - np.eye(3))) > 0.1

    def test_demo_row_sums_make_ones_an_eigenvector(self):
        A = demo_generator()
        assert np.allclose(A @ np.ones(3), 9.0 * np.ones(3))


class TestMatrixSemigroup:
    def test_vec_norm_of_huge_and_tiny_entries_is_finite(self):
        # x . x leaves the double range both ways, the vector does not
        prov = MatrixSemigroup(np.eye(3))
        for scale in (1e200, 1e-200):
            x = np.array([3.0, -4.0, 0.0]) * scale
            assert prov.vec_norm(x) == pytest.approx(5.0 * scale, rel=1e-15)
        assert prov.vec_norm(np.array([1e200, np.inf, 0.0])) == np.inf
        assert prov.vec_norm(np.zeros(3)) == 0.0
        # within range it is the plain Euclidean norm, bit for bit
        x = np.array([0.1, 2.0, -7.5])
        assert prov.vec_norm(x) == float(np.linalg.norm(x))

    def test_matrix_not_metzler_for_demo(self):
        prov = MatrixSemigroup(demo_generator())
        assert not prov.is_metzler()

    def test_metzler_detection(self):
        prov = MatrixSemigroup(np.array([[-1.0, 2.0], [0.0, -3.0]]))
        assert prov.is_metzler()

    def test_positivity_probe_is_definite(self):
        prov = MatrixSemigroup(demo_generator())
        mn, idx, definite = prov.positivity_probe(0.1)
        assert definite
        E = expm(demo_generator(), 0.1)
        assert mn == pytest.approx(float(np.min(E)))
        assert E[idx] == pytest.approx(mn)

    def test_apply_matches_dense(self):
        prov = MatrixSemigroup(demo_generator())
        v = np.array([1.0, -2.0, 0.5])
        out = prov.apply(0.8, v)
        assert np.allclose(out, expm(demo_generator(), 0.8) @ v)

    def test_adjoint_pairs_correctly(self):
        prov = MatrixSemigroup(demo_generator())
        rng = np.random.default_rng(11)
        f, phi = rng.normal(size=3), rng.normal(size=3)
        lhs = prov.pair(prov.apply_adjoint(0.6, phi), f)
        rhs = prov.pair(phi, prov.apply(0.6, f))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_envelope_holds_on_samples(self):
        prov = MatrixSemigroup(demo_generator())
        M, w = prov.envelope
        for t in (0.0, 1.0, 3.0):
            assert np.linalg.norm(prov.matrix(t), 2) <= M * np.exp(w * t) * (1 + 1e-9)

    def test_envelope_takes_no_exponential_and_the_series_refuses(self, monkeypatch):
        # t A is not finite for t >= 2 and A is defective, so the envelope
        # is the log-norm pair (1, 5e307), read without an exponential;
        # the series at t = 1 has an inf tail and is refused before any
        # exponential is formed
        prov = MatrixSemigroup(np.array([[0.0, 1e308], [0.0, 0.0]]))

        def refuse(*args, **kwargs):
            raise AssertionError("an exponential was evaluated")

        monkeypatch.setattr(semigroup, "expm", refuse)
        monkeypatch.setattr(perturbation, "expm", refuse)
        assert prov.envelope == (1.0, 5e307)
        with pytest.raises(ExpmOverflow, match="no certified term count"):
            dyson_phillips_sum(prov, np.eye(2), 1.0)


# ---------------------------------------------------------------------------
# Stacked evaluation: bit identity with one time at a time


def reference_expm(A, t):
    """(e^{tA}, squarings): Pade-13 scaling and squaring of one time on 2-D arrays.

    The arithmetic of expm, operation for operation, without stacks; it is
    the oracle every stacked slice must equal bit for bit.
    """
    b = semigroup._B13
    M = np.asarray(A, dtype=float) * float(t)
    norm = float(np.max(np.sum(np.abs(M), axis=0)))
    if norm == 0.0:
        return np.eye(M.shape[0]), 0
    theta = semigroup._THETA13
    s = max(0, math.ceil(math.log2(norm / theta))) if norm > theta else 0
    M /= 2.0**s
    M2 = M @ M
    M4 = M2 @ M2
    M6 = M4 @ M2
    W = b[13] * M6
    W += b[11] * M4
    W += b[9] * M2
    U = M6 @ W
    U += b[7] * M6
    U += b[5] * M4
    U += b[3] * M2
    U.flat[:: U.shape[0] + 1] += b[1]
    U = M @ U
    W = b[12] * M6
    W += b[10] * M4
    W += b[8] * M2
    V = M6 @ W
    V += b[6] * M6
    V += b[4] * M4
    V += b[2] * M2
    V.flat[:: V.shape[0] + 1] += b[0]
    R = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        R = R @ R
    return R, s


def mixed_times(n, rng):
    """Two chunks and a half of times for an n x n generator, shuffled.

    The list holds t = 0 three times, times small enough for no squaring
    and times up to 20, in an order where squaring counts go up and down.
    """
    step = max(1, semigroup._CHUNK_BYTES // (8 * n * n))
    k = max(2 * step + step // 2 + 1, 13)
    times = np.concatenate(([0.0, 0.0, 0.0], np.geomspace(1e-4, 20.0, k - 3)))
    return rng.permutation(times), step


@pytest.mark.parametrize("n", [1, 2, 3, 8, 40, 64])
def test_stacked_expm_is_the_scalar_call_bit_for_bit(n):
    rng = np.random.default_rng(100 + n)
    A = rng.normal(size=(n, n)) + 3.0 * np.eye(n)
    times, step = mixed_times(n, rng)
    assert len(times) % step != 0 or step == 1
    stack = expm(A, times)
    assert stack.shape == (len(times), n, n) and stack.flags.c_contiguous
    assert np.array_equal(np.stack(list(MatrixSemigroup(A).matrices(times))), stack)
    counts = set()
    for i in range(0, len(times), max(1, len(times) // 400)):
        want, s = reference_expm(A, times[i])
        counts.add(s)
        assert np.array_equal(stack[i], want)
        assert np.array_equal(expm(A, times[i]), want)
    assert 0 in counts and len(counts) >= 4
    assert np.array_equal(expm(A, np.zeros(2)), np.stack([np.eye(n)] * 2))


def test_matrices_evaluate_one_chunk_at_a_time(monkeypatch):
    A = np.random.default_rng(3).normal(size=(40, 40))
    step = semigroup._CHUNK_BYTES // A.nbytes
    stacks = []

    def recording_expm(A, t):
        out = expm(A, t)
        stacks.append(out.nbytes)
        return out

    monkeypatch.setattr(semigroup, "expm", recording_expm)
    it = MatrixSemigroup(A).matrices(np.linspace(0.1, 5.0, 2 * step + 1))
    for _ in range(step):
        next(it)
    assert len(stacks) == 1
    next(it)
    assert len(stacks) == 2
    assert len(list(it)) == step
    assert stacks == [step * A.nbytes, step * A.nbytes, A.nbytes]
    assert max(stacks) <= semigroup._CHUNK_BYTES


@pytest.mark.parametrize(
    "A, times, first_bad",
    [
        # e^{41 t} leaves the double range past t = 17.3
        ([[40.0, 1.0], [1.0, 40.0]], [0.0, 1.0, 5.0, 17.0, 17.5, 3.0, 20.0], 4),
        # 10 A has an infinite entry, so its |tA|_1 is not finite
        ([[0.0, 1e308], [0.0, 0.0]], [0.0, 1.0, 10.0, 0.5], 2),
    ],
)
def test_overflow_is_raised_when_its_time_is_reached(A, times, first_bad):
    A = np.array(A)
    with pytest.raises(ExpmOverflow) as err:
        expm(A, times[first_bad])
    message = str(err.value)
    with pytest.raises(ExpmOverflow, match=re.escape(message)) as err:
        expm(A, times)
    assert len(err.value.evaluated) == first_bad
    for chunk_bytes in (semigroup._CHUNK_BYTES, A.nbytes):
        # one stack for the whole list, then one stack per time
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(semigroup, "_CHUNK_BYTES", chunk_bytes)
            it = MatrixSemigroup(A).matrices(times)
            for t in times[:first_bad]:
                assert np.array_equal(next(it), reference_expm(A, t)[0])
            with pytest.raises(ExpmOverflow) as err:
                next(it)
        assert str(err.value) == message


@pytest.mark.parametrize("chunk_bytes", [semigroup._CHUNK_BYTES, 2 * 4 * 8, 4 * 8])
def test_probes_are_each_matrix_first_minimum(chunk_bytes, monkeypatch):
    # e^{tA} is symmetric, so its two off-diagonal minima tie and the
    # first in row-major order wins; e^{41 t} overflows past t = 17.3,
    # after the probes of the times before it.  With 32-byte stacks the
    # overflowing time is alone in its stack, and with 64-byte ones second
    monkeypatch.setattr(semigroup, "_CHUNK_BYTES", chunk_bytes)
    A = np.array([[40.0, 1.0], [1.0, 40.0]])
    times = [0.0, 0.5, 1.0, 5.0, 17.0, 17.5, 1.0]
    flow = MatrixSemigroup(A)
    it = flow.positivity_probes(times)
    for t in times[:5]:
        value, cell, exact = next(it)
        want = semigroup._min_entry(expm(A, t))
        assert (value, cell, exact) == want and cell == (0, 1)
        assert type(value) is float and all(type(i) is int for i in cell)
    with pytest.raises(ExpmOverflow):
        next(it)


def certificate_fields(cert):
    return [
        value.tobytes() if isinstance(value, np.ndarray) else value
        for value in dataclasses.astuple(cert)
    ]


def test_certificate_routes_match_scalar_probes(monkeypatch):
    from evpos.positivity import certify_eventual_strong_positivity

    rng = np.random.default_rng(14)
    inputs = [np.array([[1.0, -1.0], [0.0, 1.0]])]  # defective: no certificate
    for n in (3, 8, 16):
        metzler = rng.uniform(0.0, 1.0, (n, n)) - 2.0 * np.eye(n)
        eventually = rng.uniform(0.5, 1.5, (n, n))
        eventually[0, n - 1] = -0.1
        indefinite = rng.normal(size=(n, n))
        inputs += [metzler, eventually, indefinite]
    stacked = [certify_eventual_strong_positivity(A) for A in inputs]
    with monkeypatch.context() as patch:
        # every sample through matrix(t): one expm call per time
        patch.setattr(MatrixSemigroup, "matrices", lambda self, times: map(self.matrix, times))
        patch.setattr(
            MatrixSemigroup, "positivity_probes", semigroup.SemigroupProvider.positivity_probes
        )
        looped = [certify_eventual_strong_positivity(A) for A in inputs]
    routes = set()
    for (cert, verdict), (cert_ref, verdict_ref) in zip(stacked, looped):
        assert verdict == verdict_ref
        assert certificate_fields(cert) == certificate_fields(cert_ref)
        routes.add(verdict.verdict.value if verdict.certified else "grid")
    assert routes == {"Positive", "UniformlyEventuallyStronglyPositive", "grid"}


def random_spans(rng, unit) -> list:
    """Sorted spans on multiples of unit, each holding one of its ends or both.

    Neighbours may meet at an end; a span may be one point, and the last
    may be unbounded, closed at its left end.
    """
    spans, x = [], int(rng.integers(0, 3))
    for _ in range(int(rng.integers(0, 8))):
        if rng.uniform() < 0.2:
            spans.append((x * unit, x * unit, True, True))
            x += int(rng.integers(1, 4))
            continue
        hi = x + int(rng.integers(1, 4))
        lo_in, hi_in = [(True, True), (True, False), (False, True)][int(rng.integers(0, 3))]
        spans.append((x * unit, hi * unit, lo_in, hi_in))
        x = hi + int(rng.integers(0, 3))
    if rng.uniform() < 0.5:
        spans.append((x * unit, math.inf, True, False))
    return spans


@pytest.mark.parametrize("step", [None, 0.25], ids=["exact", "lattice"])
def test_first_at_or_after_is_the_linear_walk(step):
    # a seeded corpus of supports, exact (Fraction ends, no lattice) and on
    # the lattice of step h (ends on half steps, so snapping moves times),
    # probed on every span end, between ends and past the last one
    rng = np.random.default_rng(60)
    found, cases = set(), 0
    for _ in range(400):
        unit = Fraction(1, int(rng.integers(1, 5))) if step is None else step / 2
        spans = random_spans(rng, unit)
        support = PairingSupport(tuple(spans), "seeded", step)
        ends = sorted({x for span in spans for x in span[:2] if x != math.inf} | {0 * unit})
        probes = ends + [(a + b) / 2 for a, b in zip(ends, ends[1:])]
        probes += [ends[-1] + unit / 3, ends[-1] + 5 * unit]
        for t0 in probes:
            got = support.first_at_or_after(t0)
            assert got == linear_first_at_or_after(support, t0)
            found.add(got is None)
            cases += 1
    assert found == {True, False} and cases > 2000
