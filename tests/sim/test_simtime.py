"""Unit tests for :mod:`repro.sim.simtime`."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim.simtime import SimTime, TimeUnit, ZERO_TIME, fs, ms, ns, ps, sec, us


class TestConstruction:
    def test_zero_time_is_zero(self):
        assert ZERO_TIME.is_zero
        assert not bool(ZERO_TIME)

    def test_from_value_unit_scaling(self):
        assert ns(1).femtoseconds == 1_000_000
        assert us(1).femtoseconds == 1_000_000_000
        assert ms(1).femtoseconds == 1_000_000_000_000
        assert sec(1).femtoseconds == 1_000_000_000_000_000
        assert ps(1).femtoseconds == 1_000
        assert fs(1).femtoseconds == 1

    def test_fractional_values_round_to_femtoseconds(self):
        assert ns(0.5).femtoseconds == 500_000
        assert ps(0.4).femtoseconds == 400

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            ns(-1)

    def test_non_finite_rejected(self):
        with pytest.raises(SimulationError):
            ns(math.inf)
        with pytest.raises(SimulationError):
            ns(math.nan)


class TestArithmetic:
    def test_addition(self):
        assert ns(5) + ps(500) == ns(5.5)

    def test_subtraction(self):
        assert ns(5) - ns(2) == ns(3)

    def test_subtraction_below_zero_rejected(self):
        with pytest.raises(SimulationError):
            ns(1) - ns(2)

    def test_mixing_plain_numbers_rejected(self):
        with pytest.raises(TypeError):
            ns(5) + 3
        with pytest.raises(TypeError):
            ns(5) - 3
        with pytest.raises(TypeError):
            ns(5) + 0.5

    def test_multiplication_by_scalar(self):
        assert ns(2) * 3 == ns(6)
        assert 3 * ns(2) == ns(6)
        assert ns(2) * 0.5 == ns(1)

    def test_multiplication_by_negative_rejected(self):
        with pytest.raises(SimulationError):
            ns(1) * -2

    def test_division_by_time_gives_ratio(self):
        assert ns(10) / ns(2) == pytest.approx(5.0)

    def test_division_by_scalar_gives_time(self):
        assert ns(10) / 2 == ns(5)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ns(10) / ZERO_TIME
        with pytest.raises(ZeroDivisionError):
            ns(10) / 0

    def test_ordering(self):
        assert ns(1) < us(1) < ms(1) < sec(1)
        assert max(ns(3), ns(7)) == ns(7)

    def test_conversion_round_trip(self):
        assert us(3).to_value(TimeUnit.NS) == pytest.approx(3000.0)
        assert sec(2).seconds == pytest.approx(2.0)
        assert ms(1.5).to_value(TimeUnit.NS) == pytest.approx(1.5e6)

    def test_str_uses_best_unit(self):
        assert "ns" in str(ns(5))
        assert "us" in str(us(7))


class TestProperties:
    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=10**9))
    def test_addition_commutes(self, a, b):
        assert ns(a) + ns(b) == ns(b) + ns(a)

    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=10**9))
    def test_ordering_matches_integers(self, a, b):
        assert (ns(a) < ns(b)) == (a < b)

    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=1000))
    def test_scaling_then_dividing_recovers_value(self, value, factor):
        scaled = ns(value) * factor
        assert scaled / factor == ns(value)

    @given(st.integers(min_value=0, max_value=10**9))
    def test_hashable_and_equal(self, value):
        assert hash(ns(value)) == hash(ns(value))
        assert len({ns(value), ns(value)}) == 1
