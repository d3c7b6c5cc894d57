"""Exact step-function carrier: orthonormal waves, shifts, pairings."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evpos.errors import DepthExceeded, PremiseViolation
from evpos.irreducibility import classify, weak_conditions_test
from evpos.stepfun import (
    MAX_DEPTH,
    PiecewiseConstantFn,
    ShiftStepProvider,
    irreducibility_witness_search,
    pairing,
    rademacher,
    shift_apply,
    shifted_pairing,
    vanishing_time,
    walsh,
)
from brute_oracles import FractionStepFn

dyadic = st.builds(
    Fraction,
    st.integers(min_value=0, max_value=64),
    st.just(64),
)


def numeric_pairing(k: int, j: int, t: Fraction, m: int = 9) -> Fraction:
    """Pairing by direct definition: integral of r_k(x+t) r_j(x) over [0, 1-t).

    Midpoint sampling on the 2^-m grid is exact for dyadic data of depth
    < m, giving an independent route to the same rational number.
    """
    rk, rj = rademacher(k), rademacher(j)
    total = Fraction(0)
    cells = 1 << m
    for i in range(cells):
        x = Fraction(2 * i + 1, 2 * cells)
        if x + t < 1:
            total += rk.value_at(x + t) * rj.value_at(x)
    return total / cells


class TestWaveFamily:
    def test_first_sign_function_values(self):
        r1 = rademacher(1)
        assert r1.value_at(Fraction(1, 4)) == 1
        assert r1.value_at(Fraction(3, 4)) == -1

    def test_orthonormality_up_to_63(self):
        ws = [walsh(n) for n in range(64)]
        for i in range(64):
            for j in range(i, 64):
                expected = 1 if i == j else 0
                assert ws[i].inner(ws[j]) == expected

    def test_walsh_is_product_of_sign_functions(self):
        assert walsh(3) == rademacher(1).product(rademacher(2))
        assert walsh(5) == rademacher(1).product(rademacher(3))
        assert walsh(0).values == (1,)

    def test_values_are_signs_with_zero_mean(self):
        for n in (1, 2, 3, 7):
            w = walsh(n)
            assert set(w.values) <= {1, -1}
            assert w.integral() == 0


class TestShift:
    def test_composition_law_at_quarter_steps(self):
        f = rademacher(2)
        twice = shift_apply(shift_apply(f, Fraction(1, 4)), Fraction(1, 4))
        assert twice == shift_apply(f, Fraction(1, 2))

    @given(dyadic, dyadic)
    @settings(max_examples=60)
    def test_composition_law_dyadic(self, s, t):
        f = walsh(5)
        assert shift_apply(shift_apply(f, s), t) == shift_apply(f, s + t)

    def test_nilpotent_at_one(self):
        for n in range(8):
            assert shift_apply(walsh(n), 1).is_zero

    def test_shift_preserves_modulus_order(self):
        f = walsh(3)
        g = f.scale(Fraction(1, 2))
        t = Fraction(3, 8)
        sf, sg = shift_apply(f, t), shift_apply(g, t)
        for i, v in enumerate(sg.values):
            assert abs(v) <= abs(sf.values[i])

    def test_vanishing_time_is_support_supremum(self):
        assert vanishing_time(walsh(5)) == 1
        shifted = shift_apply(walsh(2), Fraction(1, 4))
        assert vanishing_time(shifted) == Fraction(3, 4)
        assert shift_apply(shifted, Fraction(3, 4)).is_zero
        assert not shift_apply(shifted, Fraction(5, 8)).is_zero


class TestPairing:
    def test_frozen_exact_values(self):
        assert pairing(1, 1, Fraction(1, 4)) == Fraction(1, 4)
        assert pairing(1, 2, Fraction(1, 8)) == Fraction(1, 8)
        assert pairing(2, 1, Fraction(1, 8)) == Fraction(1, 8)
        assert pairing(1, 2, Fraction(3, 4)) == Fraction(-1, 4)
        assert pairing(2, 3, Fraction(1, 16)) == Fraction(1, 16)
        assert pairing(3, 1, Fraction(1, 2)) == 0
        assert pairing(4, 4, Fraction(1, 8)) == Fraction(7, 8)

    @pytest.mark.parametrize(
        "k,j,t",
        [
            (1, 2, Fraction(1, 8)),
            (2, 3, Fraction(1, 16)),
            (4, 4, Fraction(1, 8)),
            (3, 1, Fraction(5, 8)),
        ],
    )
    def test_against_direct_integral(self, k, j, t):
        assert pairing(k, j, t) == numeric_pairing(k, j, t)

    def test_identity_at_zero(self):
        for k in range(1, 5):
            assert pairing(k, k, 0) == 1

    def test_everything_vanishes_at_one(self):
        for k in range(1, 5):
            for j in range(1, 5):
                assert pairing(k, j, 1) == 0


def random_step_fn(rng, den: int) -> PiecewiseConstantFn:
    """Step function with breakpoints on (1/den)Z and small rational values."""
    cuts = sorted(rng.sample(range(1, den), rng.randint(0, min(den - 1, 6))))
    bps = [Fraction(0)] + [Fraction(c, den) for c in cuts] + [Fraction(1)]
    vals = [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5))) for _ in bps[1:]]
    return PiecewiseConstantFn(bps, vals)


class TestShiftedPairing:
    @pytest.mark.parametrize("dens", [(2, 4, 8, 16), (3, 6, 9, 12), (4, 3, 12, 5)])
    def test_matches_product_route(self, dens):
        rng = random.Random(sum(dens))
        for _ in range(150):
            f = random_step_fn(rng, rng.choice(dens))
            phi = random_step_fn(rng, rng.choice(dens))
            # times on the joint lattice, between its knots, and past 1
            t = Fraction(rng.randint(0, 50), rng.choice((1, 4, 16, 3, 7, 48)))
            value = shifted_pairing(f, phi, t)
            assert isinstance(value, Fraction)
            assert value == shift_apply(f, t).inner(phi)

    def test_vanishes_from_one_on(self):
        f, phi = walsh(5), PiecewiseConstantFn([0, Fraction(1, 3), 1], [2, Fraction(1, 7)])
        for t in (1, Fraction(4, 3), 7):
            assert shifted_pairing(f, phi, t) == 0
        assert shifted_pairing(f, phi, Fraction(31, 32)) != 0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            shifted_pairing(walsh(1), walsh(1), Fraction(-1, 8))

    def test_cell_vector_computed_once(self):
        f = PiecewiseConstantFn([0, Fraction(1, 4), Fraction(2, 3), 1], [1, Fraction(-1, 2), 3])
        L, D, nums = f.cells()
        assert (L, D) == (12, 2)
        assert nums == (2, 2, 2, -1, -1, -1, -1, -1, 6, 6, 6, 6)
        assert f.cells() is f.cells()


# breakpoint denominators per case; past_depth_cap puts the joint lattice past 2^20 cells
ORACLE_DENS = {
    "dyadic": (2, 4, 8, 16, 64),
    "nondyadic": (3, 5, 6, 7, 9, 12),
    "mixed": (4, 3, 12, 5, 10, 32),
    "past_depth_cap": (1021, 1031, 1 << 21, 3 << 19),
}


def random_raw(rng, dens) -> tuple:
    """(breakpoints, values) with breakpoints over mixed denominators and
    small rational values, zero and repeated values included."""
    cuts = {Fraction(rng.randint(1, q - 1), q) for q in rng.choices(dens, k=rng.randint(0, 6))}
    bps = [Fraction(0), *sorted(cuts), Fraction(1)]
    vals = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 5, 8))) for _ in bps[1:]]
    return bps, vals


def oracle_times(rng, fo: FractionStepFn, po: FractionStepFn) -> list:
    """Times on the pairing's knots, between two of them, at a random rational and past 1."""
    knots = sorted({a - b for a in fo.breakpoints for b in po.breakpoints if 0 <= a - b <= 1})
    i = rng.randrange(len(knots))
    times = [knots[i], Fraction(rng.randint(0, 40), rng.choice((3, 7, 16, 1021))), Fraction(9, 8)]
    if i + 1 < len(knots):
        times.append((knots[i] + knots[i + 1]) / 2)
    return times


def assert_same_fn(fn: PiecewiseConstantFn, ref: FractionStepFn):
    """Same views as the oracle, and the canonical lattice form of the same function."""
    assert fn.breakpoints == ref.breakpoints and fn.values == ref.values
    assert all(type(x) is Fraction for x in fn.breakpoints + fn.values)
    assert fn == PiecewiseConstantFn(ref.breakpoints, ref.values)
    assert fn.cells() == ref.cells()


class TestFractionOracle:
    @pytest.mark.parametrize("case", list(ORACLE_DENS))
    def test_matches_fraction_oracle(self, case):
        rng = random.Random(case)
        raws = [random_raw(rng, ORACLE_DENS[case]) for _ in range(60)]
        if case == "past_depth_cap":
            # the two lattices multiply past 2^20 cells
            raws[:2] = [
                ([0, Fraction(1, 1021), 1], [1, 2]),
                ([0, Fraction(1, 1031), 1], [3, 1]),
            ]
        provider = ShiftStepProvider(depth=3)
        for (fb, fv), (pb, pv) in zip(raws[::2], raws[1::2]):
            f, phi = PiecewiseConstantFn(fb, fv), PiecewiseConstantFn(pb, pv)
            fo, po = FractionStepFn(fb, fv), FractionStepFn(pb, pv)
            assert_same_fn(f, fo)
            assert hash(f) == hash(PiecewiseConstantFn(fo.breakpoints, fo.values))
            assert (f == phi) == (fo == po)
            x = Fraction(rng.randint(0, 99), 100)
            assert f.value_at(x) == fo.value_at(x)
            assert f.integral() == fo.integral()
            assert f.inner(phi) == fo.inner(po)
            assert_same_fn(f.product(phi), fo.product(po))
            assert_same_fn(f + phi, fo + po)
            assert_same_fn(f.scale(Fraction(-2, 3)), fo.scale(Fraction(-2, 3)))
            assert provider.pairing_support(f, phi).spans == fo.pairing_support_spans(po)
            for t in oracle_times(rng, fo, po):
                assert_same_fn(shift_apply(f, t), fo.shift(t))
                value = shifted_pairing(f, phi, t)
                assert type(value) is Fraction
                assert value == fo.shifted_pairing(po, t)
                assert provider.apply_adjoint(t, phi).inner(f) == value
        if case == "past_depth_cap":
            L = math.lcm(*(PiecewiseConstantFn(*raw).lattice for raw in raws[:2]))
            assert L > 1 << 20


def sorted_candidate_witness(k: int, j: int, depth: int):
    """The scan over the sorted set of dyadic and near-1 candidates, by products."""
    candidates = {Fraction(m, 1 << depth) for m in range(1, 1 << depth)}
    candidates |= {1 - Fraction(1, 1 << i) for i in range(1, depth + 1)}
    for t in sorted(c for c in candidates if 0 < c < 1):
        if shift_apply(rademacher(k), t).inner(rademacher(j)) != 0:
            return t
    return None


class TestWitnessSearch:
    def test_matches_sorted_candidate_scan(self):
        for k in range(1, 7):
            for j in range(1, 7):
                for depth in range(1, 12):
                    expected = sorted_candidate_witness(k, j, depth)
                    assert irreducibility_witness_search(k, j, depth) == expected

    def test_all_offdiagonal_pairs_have_witnesses(self):
        for k in range(1, 5):
            for j in range(1, 5):
                if k == j:
                    continue
                t = irreducibility_witness_search(k, j, 10)
                assert t is not None and 0 < t < 1
                assert pairing(k, j, t) != 0

    def test_witness_is_scan_minimum(self):
        t = irreducibility_witness_search(1, 2, 4)
        for m in range(1, 16):
            c = Fraction(m, 16)
            if c >= t:
                break
            assert pairing(1, 2, c) == 0

    def test_depth_zero_rejected(self):
        with pytest.raises(DepthExceeded):
            irreducibility_witness_search(1, 2, 0)


class TestShiftStepProvider:
    def test_apply_delegates_to_shift(self):
        p = ShiftStepProvider(depth=3)
        f = walsh(3)
        assert p.apply(Fraction(1, 8), f) == shift_apply(f, Fraction(1, 8))

    def test_marks_nilpotency(self):
        p = ShiftStepProvider(depth=3)
        assert p.nilpotent_time == 1
        assert p.exact_arithmetic

    def test_condition_probe_is_exact_rational(self):
        p = ShiftStepProvider(depth=3)
        basis = p.condition_basis()
        val = p.condition_probe(Fraction(1, 8), basis[0], basis[1])
        assert isinstance(val, Fraction)
        assert val == Fraction(1, 8)

    def test_pairing_is_linear_between_its_knots(self):
        # the support's span ends are knots or sign changes of the pairing:
        # it is linear between consecutive ends, and the support holds a
        # dyadic time exactly when the pairing is nonzero there
        p = ShiftStepProvider(depth=2)
        f, phi = rademacher(1), rademacher(3)
        support = p.pairing_support(f, phi)
        ends = sorted({end for span in support.spans for end in span[:2]} | {0, 1})
        for a, b in zip(ends, ends[1:]):
            mid = shifted_pairing(f, phi, (a + b) / 2)
            assert mid == (shifted_pairing(f, phi, a) + shifted_pairing(f, phi, b)) / 2
        assert shifted_pairing(f, phi, ends[-1]) == 0
        for m in range(129):
            t = Fraction(m, 64)
            held = support.first_at_or_after(t) == t
            assert held == (shifted_pairing(f, phi, t) != 0)

    @pytest.mark.parametrize("depth", range(1, 7))
    def test_own_basis_is_admitted_at_every_depth(self, depth):
        p = ShiftStepProvider(depth=depth)
        basis = p.condition_basis()
        table = weak_conditions_test(p, basis, basis)
        assert table.diagram_consistent

    def test_recognises_every_wave_up_to_the_depth_cap(self):
        p = ShiftStepProvider(depth=2)
        for k in (1, 5, 13, MAX_DEPTH):
            p.check_positive(rademacher(k))
        rng = random.Random(3)
        for n in [0, 1, 63, 64, (1 << 12) - 1] + rng.sample(range(1 << 14), 20):
            p.check_positive(walsh(n))

    def test_refuses_sign_changing_non_waves(self):
        p = ShiftStepProvider(depth=6)
        r3 = rademacher(3)
        flipped = PiecewiseConstantFn(r3.breakpoints, (1, 1) + r3.values[2:])
        near = [r3.scale(-1), r3.scale(2), flipped, shift_apply(walsh(5), Fraction(1, 16))]
        near.append(PiecewiseConstantFn([0, Fraction(1, 3), 1], [1, -1]))
        for f in near:
            with pytest.raises(PremiseViolation, match="not a recognized basis wave"):
                p.check_positive(f)

    def test_classifies_irreducible_not_persistent(self):
        rep = classify(ShiftStepProvider(depth=6))
        assert rep.classification == "IrreducibleNotPersistent"
        assert rep.witness_onset == 1
        assert rep.diagram_consistent
