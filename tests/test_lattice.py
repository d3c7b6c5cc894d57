"""Vector-lattice primitives: ideals and gauge norms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evpos.errors import NotInIdeal
from evpos.lattice import GaugeContext, IdealMask, gauge_norm


class TestIdealMask:
    def test_roundtrip_and_complement(self):
        m = IdealMask.of([0, 2], 4)
        assert m.sorted_members() == [0, 2]
        assert m.complement().sorted_members() == [1, 3]
        assert 2 in m and 1 not in m
        assert len(m) == 2

    def test_trivial_flags(self):
        assert IdealMask.empty(3).is_trivial
        assert IdealMask.full(3).is_trivial
        assert not IdealMask.of([1], 3).is_trivial
        assert IdealMask.empty(3).is_empty
        assert IdealMask.full(3).is_full

    def test_indicator(self):
        ind = IdealMask.of([1], 3).indicator()
        assert np.array_equal(ind, np.array([0.0, 1.0, 0.0]))

    def test_out_of_range_rejected(self):
        with pytest.raises(Exception):
            IdealMask.of([3], 3)


class TestGauge:
    def test_gauge_of_gauge_vector_is_one(self):
        ctx = GaugeContext.from_vector(np.array([1.0, 2.0, 0.0]))
        assert gauge_norm(np.array([1.0, 2.0, 0.0]), ctx) == 1.0
        assert gauge_norm(np.array([0.5, 1.0, 0.0]), ctx) == 0.5

    def test_outside_support_raises(self):
        ctx = GaugeContext.from_vector(np.array([1.0, 0.0]))
        with pytest.raises(NotInIdeal):
            gauge_norm(np.array([1.0, 0.1]), ctx)
        # slack admits small spill
        assert gauge_norm(np.array([1.0, 1e-12]), ctx, tol=1e-9) == 1.0

    def test_negative_gauge_vector_rejected(self):
        with pytest.raises(ValueError):
            GaugeContext.from_vector(np.array([1.0, -1.0]))

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=10.0),
                st.floats(min_value=-5.0, max_value=5.0),
                st.floats(min_value=-5.0, max_value=5.0),
            ),
            min_size=1,
            max_size=10,
        ),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=75)
    def test_gauge_is_a_norm_on_full_support(self, triples, c):
        h = np.array([t[0] for t in triples])
        f = np.array([t[1] for t in triples])
        g = np.array([t[2] for t in triples])
        ctx = GaugeContext.from_vector(h)
        gf, gg = gauge_norm(f, ctx), gauge_norm(g, ctx)
        assert gauge_norm(f + g, ctx) <= gf + gg + 1e-12
        assert gauge_norm(c * f, ctx) == pytest.approx(abs(c) * gf, abs=1e-12)
        # definition check: |f| <= gauge * h entrywise
        assert np.all(np.abs(f) <= gf * h + 1e-12)
