"""Invariant ideals, strong connectivity, and the classification pipeline."""

from fractions import Fraction

import numpy as np
import pytest

from evpos.errors import (
    CertificateMissing,
    InputError,
    PremiseViolation,
    SpectralBoundNotNegative,
)
from evpos.gammashift import GammaShiftProvider, Grid1D
from evpos.irreducibility import (
    IRREDUCIBLE_NOT_PERSISTENT,
    PERSISTENTLY_IRREDUCIBLE,
    REDUCIBLE,
    _reach,
    build_super_fixed_vector,
    classify,
    enumerate_invariant_ideals,
    eventual_invariance_of_principal_ideal,
    ideal_leak,
    near_threshold_entries,
    strict_nonvanishing_check,
    structural_threshold,
    weak_conditions_test,
)
from evpos import semigroup
from evpos.lattice import GaugeContext, gauge_norm
from evpos.perturbation import CoupledProvider, CoupledSystem, DenseCoupling
from evpos.presets import coupled_demo_system
from evpos.semigroup import MatrixSemigroup, TimeGrid, demo_generator
from evpos.stepfun import PiecewiseConstantFn, ShiftStepProvider, shift_apply
from brute_oracles import brute_force_ideals
from sampled_oracles import (
    sampled_conditions_table,
    sampled_gauge_probes,
    sampled_leak_onset,
    sampled_vanishing,
)


def gauge_case(seed: int):
    """(A, h): a random sign pattern shifted to s(A) = -0.5 and its super-fixed h."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    M = rng.uniform(0, 1, (n, n))
    M -= rng.uniform(0, 0.6, (n, n)) * (rng.uniform(size=(n, n)) < 0.4)
    A = M - (max(np.linalg.eigvals(M).real) + 0.5) * np.eye(n)
    return A, build_super_fixed_vector(A, np.ones(n))


def random_pattern(rng) -> np.ndarray:
    n = int(rng.integers(2, 9))
    A = (rng.random((n, n)) < 0.35) * rng.uniform(0.5, 3.0, size=(n, n))
    np.fill_diagonal(A, rng.uniform(-2.0, 2.0, size=n))
    return A


def near_threshold_pattern(rng, tol: float = 1e-9) -> np.ndarray:
    """random_pattern with some entries at half or twice the structural threshold."""
    A = random_pattern(rng)
    n = A.shape[0]
    thr = structural_threshold(A, tol)
    near = rng.random((n, n)) < 0.2
    A[near] = rng.choice([-2.0, -0.5, 0.5, 2.0], size=int(near.sum())) * thr
    return A


class TestEnumeration:
    def test_brute_force_agrees_with_graph_route(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            A = random_pattern(rng)
            brute = brute_force_ideals(A)
            graph = enumerate_invariant_ideals(A)
            assert [m.sorted_members() for m in brute] == [
                m.sorted_members() for m in graph
            ]

    def test_every_enumerated_ideal_reverifies(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            A = random_pattern(rng)
            for mask in enumerate_invariant_ideals(A):
                assert ideal_leak(A, mask) is None

    def test_ideal_leak_names_the_largest_entry(self):
        A = np.array([[1.0, 0.0, 0.0], [-3.0, 1.0, 0.0], [2.0, 0.5, 1.0]])
        assert ideal_leak(A, [0]) == (1, 0, -3.0)
        assert ideal_leak(A, [0], threshold=3.0) is None
        assert ideal_leak(A, [2]) is None
        assert ideal_leak(A, []) is None and ideal_leak(A, [0, 1, 2]) is None

    def test_trivial_ideals_always_present(self):
        ideals = enumerate_invariant_ideals(np.zeros((3, 3)))
        members = [m.sorted_members() for m in ideals]
        assert [] in members and [0, 1, 2] in members

    def test_invariant_under_positive_diagonal_similarity(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            A = random_pattern(rng)
            d = rng.uniform(0.5, 2.0, size=A.shape[0])
            B = np.diag(d) @ A @ np.diag(1.0 / d)
            got_a = [m.sorted_members() for m in enumerate_invariant_ideals(A)]
            got_b = [m.sorted_members() for m in enumerate_invariant_ideals(B)]
            assert got_a == got_b

    def test_lower_triangular_example(self):
        ideals = enumerate_invariant_ideals(np.array([[1.0, 0.0], [1.0, 1.0]]))
        assert [m.sorted_members() for m in ideals] == [[], [1], [0, 1]]

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_enumeration_reads_the_threshold_classify_reads(self, scale):
        # the entry 1e-12 lies below structural_threshold(A, 1e-9) at every
        # scale, so both routes drop it: only 0 -> 1 is left, {1} is the
        # one nontrivial invariant ideal and the classify witness
        A = scale * np.array([[0.0, 1e-12], [1.0, 0.0]])
        report = classify(A=A)
        ideals = [m.sorted_members() for m in enumerate_invariant_ideals(A)]
        assert report.classification == "Reducible"
        assert ideals == [[], report.witness_ideal.sorted_members(), [0, 1]] == [[], [1], [0, 1]]
        with pytest.raises(InputError):
            enumerate_invariant_ideals(A, tol=0.0)

    def test_chain_of_twenty_components_gives_its_tails(self):
        # edge i -> i + 1: the closed sets are the 21 tails {k, ..., 19}
        ideals = enumerate_invariant_ideals(np.diag(np.ones(19), -1))
        tails = [list(range(k, 20)) for k in range(20, -1, -1)]
        assert [m.sorted_members() for m in ideals] == tails


class TestGraphPrimitives:
    def test_cycle_is_one_component(self):
        R = _reach(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), 0.0)
        assert R.all()

    def test_dag_splits_into_singletons(self):
        # edge j -> i for i < j: j reaches exactly 0..j, and only itself back
        R = _reach(np.triu(np.ones((3, 3)), k=1), 0.0)
        assert np.array_equal(R, np.triu(np.ones((3, 3), dtype=bool)))
        assert np.array_equal(R & R.T, np.eye(3, dtype=bool))

    def test_reach_matches_breadth_first_search(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            A = near_threshold_pattern(rng)
            n = A.shape[0]
            thr = structural_threshold(A, 1e-9)
            expected = np.zeros((n, n), dtype=bool)
            for j in range(n):
                seen, frontier = {j}, [j]
                while frontier:
                    k = frontier.pop()
                    for i in range(n):
                        if abs(A[i, k]) > thr and i not in seen:
                            seen.add(i)
                            frontier.append(i)
                expected[sorted(seen), j] = True
            assert np.array_equal(_reach(A, thr), expected)

    def test_vectorised_pattern_matches_loop_reference(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            A = random_pattern(rng)
            n = A.shape[0]
            A[rng.random((n, n)) < 0.2] = 1e-9
            thr = structural_threshold(A, 1e-9)
            near = tuple(
                (i, j, float(A[i, j]))
                for i in range(n)
                for j in range(n)
                if i != j and A[i, j] != 0.0 and thr / 10.0 <= abs(A[i, j]) <= thr * 10.0
            )
            assert near_threshold_entries(A, thr) == near

    def test_threshold_scales_with_matrix(self):
        A = np.array([[0.0, 1e-9], [1.0, 0.0]])
        thr = structural_threshold(A, 1e-9)
        assert thr == pytest.approx(2e-9)
        near = near_threshold_entries(A, thr)
        assert near == ((0, 1, 1e-9),)


class TestClassify:
    @pytest.mark.parametrize("tol", [float("inf"), float("nan"), 0.0, -1.0])
    def test_unusable_tolerance_refused(self, tol):
        # with tol = inf every entry fell below the threshold and this
        # irreducible matrix read as a certified Reducible
        A = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.5], [0.0, 1.0, 1.0]])
        with pytest.raises(InputError, match="tol must be finite and positive"):
            classify(A=A, tol=tol)

    def test_showcase_matrix_is_persistently_irreducible(self):
        rep = classify(A=demo_generator())
        assert rep.classification == PERSISTENTLY_IRREDUCIBLE
        assert rep.evidence_mode == "certified"
        assert rep.witness_ideal is None
        assert rep.diagram_consistent

    def test_reducible_matrix_carries_witness(self):
        rep = classify(A=np.array([[1.0, 0.0], [1.0, 1.0]]))
        assert rep.classification == REDUCIBLE
        assert rep.witness_ideal.sorted_members() == [1]
        assert rep.witness_onset == 0.0
        assert ideal_leak(np.array([[1.0, 0.0], [1.0, 1.0]]), rep.witness_ideal) is None

    def test_reducible_witness_is_the_brute_force_choice(self):
        # the witness is the minimal nonempty invariant ideal with the
        # smallest least member, read off the brute-force subset scan
        rng = np.random.default_rng(61)
        for _ in range(150):
            A = near_threshold_pattern(rng)
            n = A.shape[0]
            rep = classify(A=A, tol=1e-9)
            brute = [set(m.members) for m in brute_force_ideals(A, structural_threshold(A, 1e-9))]
            proper = [I for I in brute if 0 < len(I) < n]
            if not proper:
                assert rep.classification == PERSISTENTLY_IRREDUCIBLE
                continue
            nonempty = [I for I in brute if I]
            minimal = [I for I in nonempty if not any(J < I for J in nonempty)]
            assert rep.classification == REDUCIBLE
            assert set(rep.witness_ideal.members) == min(minimal, key=min)

    def test_nilpotent_carrier_cannot_be_persistent(self):
        rep = classify(ShiftStepProvider(depth=5))
        assert rep.classification == IRREDUCIBLE_NOT_PERSISTENT
        assert rep.witness_onset == 1

    def test_near_threshold_entries_surface_in_report(self):
        rep = classify(A=np.array([[0.0, 1e-9], [1.0, 0.0]]), tol=1e-9)
        assert rep.near_threshold == ((0, 1, 1e-9),)

    def test_tiny_entries_below_threshold_read_as_zero(self):
        rep = classify(A=np.array([[0.0, 1e-12], [1.0, 0.0]]), tol=1e-9)
        assert rep.classification == REDUCIBLE

    def test_large_metzler_matrix_decided_without_sampling(self):
        # e^{20 A} overflows here, so any sampled route would fail
        rep = classify(A=np.array([[40.0, 1.0], [1.0, 40.0]]))
        assert rep.classification == PERSISTENTLY_IRREDUCIBLE
        assert rep.evidence_mode == "certified"
        assert rep.conditions is None

    def test_digraph_route_agrees_with_sampled_table(self):
        # random_pattern draws Metzler matrices, for which a nonvanishing
        # pairing <e_j, e^{tA} e_i> is the same as j reachable from i.  The
        # oracle is the sampled table alone: it reads no entry digraph, so
        # it shares no code with the route it checks.  The table compares
        # raw samples with an absolute tolerance, so rounding in a growing
        # flow reads as a witness; it therefore samples the flow of
        # A - s(A) I, which has the same entry digraph and the same
        # vanishing pairings.
        rng = np.random.default_rng(808)
        for _ in range(40):
            A = random_pattern(rng)
            rep = classify(A=A)
            s = float(np.max(np.linalg.eigvals(A).real))
            table = sampled_conditions_table(MatrixSemigroup(A - s * np.eye(A.shape[0])))
            statuses = {key: e.status for key, e in table.entries.items()}
            both_hold = statuses["some-time"] == statuses["large-times"] == "holds"
            assert (rep.classification == PERSISTENTLY_IRREDUCIBLE) == both_hold
            if rep.classification == REDUCIBLE:
                inside = set(rep.witness_ideal.sorted_members())
                for entry in table.entries.values():
                    for f_label, phi_label, *_ in entry.witnesses:
                        i, j = int(f_label[1:]), int(phi_label[3:])
                        assert not (i in inside and j not in inside)

    def test_same_verdict_from_provider_or_matrix(self):
        A = demo_generator()
        assert (
            classify(A=A).classification
            == classify(MatrixSemigroup(A)).classification
        )


class TestWeakConditions:
    def test_diagram_consistency_across_carriers(self):
        # a matrix carrier has no exact pairing support: its table is the
        # sampled oracle's
        grid = Grid1D(x_min=-2.0, h=0.25, count=16)
        assert sampled_conditions_table(MatrixSemigroup(demo_generator())).diagram_consistent
        for p in (ShiftStepProvider(depth=4), GammaShiftProvider(grid)):
            table = weak_conditions_test(p)
            assert table.diagram_consistent

    def test_matrix_carrier_is_refused(self):
        with pytest.raises(CertificateMissing, match="classify"):
            weak_conditions_test(MatrixSemigroup(demo_generator()))

    def test_statuses_respect_implication_chain(self):
        # large-times holding forces the weaker conditions to hold
        table = sampled_conditions_table(MatrixSemigroup(demo_generator()))
        statuses = {key: e.status for key, e in table.entries.items()}
        assert statuses["large-times"] == "holds"
        assert statuses["large-times-or-zero"] == "holds"
        assert statuses["some-time"] == "holds"

    def test_step_knot_table_matches_product_table(self, monkeypatch):
        # the lattice-correlation probe against the shifted-product oracle
        knots = [classify(ShiftStepProvider(depth=d)) for d in range(1, 9)]
        monkeypatch.setattr(
            ShiftStepProvider,
            "condition_probe",
            lambda self, t, f, phi: shift_apply(f, t).inner(phi),
        )
        for d, rep in enumerate(knots, start=1):
            ref = classify(ShiftStepProvider(depth=d))
            assert rep.conditions == ref.conditions
            assert repr(rep) == repr(ref)

    def test_knot_table_agrees_with_sampled_product_table(self, monkeypatch):
        # the sampled table on the product route is the oracle; sampling
        # cannot refute, so its unwitnessed rows at t0 >= 1 are read as the
        # violations they are (the shift is zero from t = 1 on)
        knot_tables = {d: weak_conditions_test(ShiftStepProvider(depth=d)) for d in range(4, 9)}
        monkeypatch.setattr(
            ShiftStepProvider,
            "condition_probe",
            lambda self, t, f, phi: shift_apply(f, t).inner(phi),
        )
        for d, table in knot_tables.items():
            basis = ShiftStepProvider(depth=d).condition_basis()
            sampled = sampled_conditions_table(ShiftStepProvider(depth=d))
            for exact in table.entries:
                ref = sampled.entries[exact.key]
                dead = {r for r in ref.unresolved if r[2] is not None and r[2] >= 1}
                still_open = set(ref.unresolved) - dead
                ref_status = "violated" if dead else "grid-limited" if still_open else "holds"
                assert exact.status == ref_status
                assert {r[:3] for r in exact.violations} == dead
                assert {r[:3] for r in ref.witnesses} <= {r[:3] for r in exact.witnesses}
                for f_label, phi_label, _t0, t, value in exact.witnesses:
                    f, phi = basis[int(f_label[1:])], basis[int(phi_label[3:])]
                    assert shift_apply(f, t).inner(phi) == value

    @pytest.mark.parametrize("depth", range(1, 9))
    def test_shift_table_certified_at_every_depth(self, depth):
        rep = classify(ShiftStepProvider(depth=depth))
        assert rep.classification == IRREDUCIBLE_NOT_PERSISTENT
        assert rep.evidence_mode == "certified"
        assert rep.witness_onset == 1
        counts = [(len(e.witnesses), len(e.violations)) for e in rep.conditions.entries]
        assert counts == [(16, 0), (24, 24), (16, 32)]

    def test_pairing_that_never_meets_is_a_certified_violation(self):
        # the left shift moves 1_[0,1/8) away from 1_[7/8,1)
        f = PiecewiseConstantFn([0, Fraction(1, 8), 1], [1, 0])
        phi = PiecewiseConstantFn([0, Fraction(7, 8), 1], [0, 1])
        table = weak_conditions_test(
            ShiftStepProvider(depth=3), test_vectors=[f], test_functionals=[phi]
        )
        for entry in table.entries:
            assert entry.status == "violated"
            assert not entry.witnesses
            assert all(row[3].startswith("exact knot values") for row in entry.violations)

    def test_witness_between_the_carrier_dyadics(self):
        # <phi, S(t) f> is a hat on (1/4, 1/2) peaking at t = 3/8, so every
        # depth-1 dyadic m/2 reads 0; the knots m/8 find the peak
        f = PiecewiseConstantFn([0, Fraction(1, 2), Fraction(5, 8), 1], [0, 1, 0])
        phi = PiecewiseConstantFn([0, Fraction(1, 8), Fraction(1, 4), 1], [0, 1, 0])
        table = weak_conditions_test(
            ShiftStepProvider(depth=1), test_vectors=[f], test_functionals=[phi]
        )
        some = table.entry("some-time")
        assert some.status == "holds"
        assert some.witnesses == (("f0", "phi0", None, Fraction(3, 8), Fraction(1, 8)),)

    def test_tiny_exact_pairing_is_a_witness(self):
        # <1, S(t) c> = c (1 - t) with c = 1e-12 is nonzero exactly on
        # [0, 1): an exact support has no tolerance, so t = 0 witnesses
        # it, and every threshold from t = 1 on is a certified violation
        c = Fraction(1, 10**12)
        f = PiecewiseConstantFn.constant(c)
        phi = PiecewiseConstantFn.constant(1)
        table = weak_conditions_test(
            ShiftStepProvider(depth=2), test_vectors=[f], test_functionals=[phi]
        )
        assert table.supports[0].spans == ((0, 1, True, False),)
        assert table.entry("some-time").witnesses == (("f0", "phi0", None, 0, c),)
        large = table.entry("large-times")
        assert large.witnesses == (("f0", "phi0", 0.0, 0, c),)
        assert [row[2] for row in large.violations] == [1.0, 5.0]
        orzero = table.entry("large-times-or-zero")
        assert orzero.status == "holds"
        assert [row[2:] for row in orzero.witnesses] == [(t0, 0, c) for t0 in (0.0, 1.0, 5.0)]

    def test_pair_past_the_lattice_cap_is_exact(self):
        # the joint lattice of 1/3 and 2^-21 exceeds 2^20 cells; the knots,
        # differences of breakpoints, do not: <phi, S(t) f> rises on
        # (1/3 - 2^-21, 1/3] and is nonzero until t = 2/3
        eps = Fraction(1, 2**21)
        f = PiecewiseConstantFn([0, Fraction(1, 3), Fraction(2, 3), 1], [0, 1, 0])
        phi = PiecewiseConstantFn([0, eps, 1], [1, 0])
        table = weak_conditions_test(
            ShiftStepProvider(depth=2), test_vectors=[f], test_functionals=[phi]
        )
        (support,) = table.supports
        assert support.spans[0][:3] == (Fraction(1, 3) - eps, Fraction(1, 3), False)
        assert support.spans[-1][1:] == (Fraction(2, 3), True, False)
        assert table.entry("some-time").witnesses == (("f0", "phi0", None, Fraction(1, 3), eps),)
        assert [row[2] for row in table.entry("large-times").violations] == [1.0, 5.0]

    def test_nilpotent_family_violates_large_times_definitely(self):
        table = weak_conditions_test(ShiftStepProvider(depth=4))
        statuses = {e.key: e.status for e in table.entries}
        assert statuses["some-time"] == "holds"
        assert statuses["large-times"] == "violated"
        assert table.diagram_consistent

    def test_rejects_nonpositive_custom_vectors(self):
        p = MatrixSemigroup(demo_generator())
        with pytest.raises(PremiseViolation):
            weak_conditions_test(p, test_vectors=[np.array([1.0, -1.0, 0.0])])


class TestPrincipalIdeals:
    def test_super_fixed_vector_of_shifted_showcase(self):
        # ones is an eigenvector of the showcase matrix (row sums 9), so
        # the resolvent construction returns a multiple of ones
        A = demo_generator() - 10.0 * np.eye(3)
        h = build_super_fixed_vector(A, np.ones(3))
        assert np.allclose(h / h[0], np.ones(3))

    def test_super_fixed_vector_needs_negative_bound(self):
        with pytest.raises(SpectralBoundNotNegative):
            build_super_fixed_vector(demo_generator(), np.ones(3))

    def test_super_fixed_vector_needs_positive_seed(self):
        A = demo_generator() - 10.0 * np.eye(3)
        with pytest.raises(PremiseViolation):
            build_super_fixed_vector(A, np.array([1.0, -1.0, 1.0]))

    def test_gauge_bound_two_on_dominated_orbit(self):
        A = demo_generator() - 10.0 * np.eye(3)
        h = build_super_fixed_vector(A, np.ones(3))
        rep = eventual_invariance_of_principal_ideal(MatrixSemigroup(A), h)
        assert rep.premise_ok and rep.gauge_bound_ok
        assert rep.bound_constant == 2.0
        assert rep.onset == 0.0
        assert rep.leak is None
        for _t, gin, gout in rep.gauge_checks:
            assert gout <= 2.0 * gin + 1e-9

    def test_gauge_bound_fails_where_random_probes_miss_it(self):
        # the maximiser f = sign(T(t)[1, :]) h has gauge 1 and T(t) f has
        # gauge 2.067 at t = 0.339; the 45 random probes of the sampled
        # route, with its seed, peak at 1.106
        A, h = gauge_case(1352)
        assert A.shape == (8, 8)
        rep = eventual_invariance_of_principal_ideal(MatrixSemigroup(A), h)
        assert rep.gauge_bound_ok is False
        assert len(rep.gauge_checks) == len(rep.premise_times) == 257
        t, gauge_in, norm = max(rep.gauge_checks, key=lambda row: row[2])
        assert (t, gauge_in, norm) == pytest.approx((0.339, 1.0, 2.067), abs=1e-3)
        assert sum(row[2] > 2.0 for row in rep.gauge_checks) == 17
        rng = np.random.default_rng(20260816)
        probes = sampled_gauge_probes(MatrixSemigroup(A), h, list(rep.premise_times), rng)
        assert max(g_out / g_in for _t, g_in, g_out in probes) < 2.0

    def test_gauge_norm_bounds_random_probes_and_is_attained(self):
        # a seeded corpus of dominated orbits: every probe's ratio is below
        # the exact norm at its time, and the maximiser attains the norm
        cases = 0
        for seed in range(40):
            try:
                A, h = gauge_case(seed)
            except PremiseViolation:
                continue  # the orbit of ones leaves the cone; no super-fixed h
            cases += 1
            provider = MatrixSemigroup(A)
            rep = eventual_invariance_of_principal_ideal(provider, h)
            assert rep.onset == 0.0 and len(rep.support) == h.size
            norms = {t: norm for t, _g, norm in rep.gauge_checks}
            rng = np.random.default_rng(seed)
            for t, g_in, g_out in sampled_gauge_probes(provider, h, list(rep.premise_times), rng):
                assert g_out <= norms[t] * g_in * (1.0 + 1e-12)
            ctx = GaugeContext.from_vector(h)
            for t, _g, norm in rep.gauge_checks[::16]:
                T = provider.matrix(t)
                i = int(np.argmax(np.abs(T) @ h / h))
                f = np.sign(T[i]) * h
                assert gauge_norm(f, ctx) == 1.0
                assert gauge_norm(T @ f, ctx) == pytest.approx(norm, rel=1e-12)
        assert cases >= 10

    def test_decaying_leak_has_no_onset(self):
        # e^{tA}[1, 0] = -t e^{-3t} < 0 carries e_0 out at every t > 0 and
        # keeps the premise; from t = 8 on it is below 1e-9, which the
        # sampled scan reads as an onset
        A = np.array([[-3.0, 0.0], [-1.0, -3.0]])
        rep = eventual_invariance_of_principal_ideal(
            MatrixSemigroup(A), np.array([1.0, 0.0]), t0_premise=8.0
        )
        assert rep.onset is None
        assert rep.leak == (1, 0, -1.0)
        assert "A[1, 0]" in rep.notes
        assert rep.gauge_checks == ()
        assert sampled_leak_onset(A, rep.support, list(rep.premise_times)) == 8.0

    def test_non_matrix_carrier_refused(self):
        with pytest.raises(InputError):
            eventual_invariance_of_principal_ideal(ShiftStepProvider(depth=4), np.ones(16))

    def test_tiny_excess_over_a_zero_coordinate_violates_premise(self):
        # (e^{8A} e_0)_1 = 8 e^{-24} = 3.0e-10 exceeds h_1 = 0, and its
        # rounding bound is about 3e-19, far below an absolute 1e-9 slack
        A = np.array([[-3.0, 0.0], [1.0, -3.0]])
        with pytest.raises(PremiseViolation):
            eventual_invariance_of_principal_ideal(
                MatrixSemigroup(A), np.array([1.0, 0.0]), t0_premise=8.0
            )

    def test_growing_orbit_violates_premise(self):
        with pytest.raises(PremiseViolation):
            eventual_invariance_of_principal_ideal(
                MatrixSemigroup(demo_generator()), np.ones(3)
            )


class TestNonvanishing:
    def test_showcase_family_never_vanishes(self):
        rep = strict_nonvanishing_check(
            MatrixSemigroup(demo_generator()),
            classification=PERSISTENTLY_IRREDUCIBLE,
        )
        assert rep.applicable
        assert rep.violations == ()
        assert rep.consistent

    def test_decaying_invertible_family_never_vanishes(self, monkeypatch):
        # |e^{tA} e_0| drops below 1e-9 from t = 6.74 on, which the sampled
        # scan reads as vanishing; e^{tA} is invertible, and no exponential
        # is evaluated to say so
        provider = MatrixSemigroup(demo_generator() - 12.0 * np.eye(3))
        assert sampled_vanishing(provider)[0][:2] == (pytest.approx(6.7416, abs=1e-4), "f0")

        def refuse(*_args):
            raise AssertionError("an exponential was evaluated")

        monkeypatch.setattr(semigroup, "expm", refuse)
        rep = strict_nonvanishing_check(provider, classification=PERSISTENTLY_IRREDUCIBLE)
        assert rep.violations == ()
        assert rep.consistent and rep.checked == 6

    def test_nilpotent_family_vanishes_consistently(self):
        rep = strict_nonvanishing_check(ShiftStepProvider(depth=4))
        assert not rep.applicable
        labels = [f"{side}{k}" for k in range(4) for side in ("f", "phi")]
        assert rep.violations == tuple((1.0, label) for label in labels)
        assert rep.checked == 8
        assert rep.consistent

    def test_sampled_vanishing_starts_at_exact_onset(self):
        # on random step functions each sampled zero lies at or past the
        # exact onset of its orbit, and every sampled time past it is zero
        rng = np.random.default_rng(21)
        for depth in (2, 3, 4, 5):
            provider = ShiftStepProvider(depth=depth)
            cells = 1 << depth
            basis = []
            for _ in range(6):
                vals = [Fraction(int(v)) for v in rng.integers(-2, 3, size=cells)]
                bps = [Fraction(k, cells) for k in range(cells + 1)]
                basis.append(PiecewiseConstantFn(bps, vals))
            onsets = {}
            for idx, f in enumerate(basis):
                onsets[f"f{idx}"] = provider.vanishing_time(f, False)
                onsets[f"phi{idx}"] = provider.vanishing_time(f, True)
            flagged = sampled_vanishing(provider, basis=basis)
            for t, label, _norm in flagged:
                assert onsets[label] is not None and t >= onsets[label]
            times = provider.admissible_times(TimeGrid.default())
            expected = sum(t >= onset for onset in onsets.values() for t in times)
            assert len(flagged) == expected

    @pytest.mark.parametrize("count", [16, 96])
    def test_gamma_shift_orbits_never_vanish(self, count):
        provider = GammaShiftProvider(Grid1D(x_min=-2.0, h=0.25, count=count))
        rep = strict_nonvanishing_check(provider)
        assert rep.applicable and rep.consistent
        assert rep.violations == ()
        assert rep.checked == 8

    def test_dense_coupled_family_never_vanishes(self):
        A = demo_generator()
        block = DenseCoupling(0.1 * np.ones((3, 3)))
        system = CoupledSystem(MatrixSemigroup(A), MatrixSemigroup(A), block, block)
        provider = CoupledProvider(system)
        rep = strict_nonvanishing_check(provider, classification=PERSISTENTLY_IRREDUCIBLE)
        assert rep.violations == () and rep.consistent and rep.checked == 12

    def test_lattice_coupled_family_refused(self):
        with pytest.raises(CertificateMissing):
            strict_nonvanishing_check(CoupledProvider(coupled_demo_system()))
