"""Interval arithmetic and crossing-time solvers behind the reach engine."""

import math

import pytest

from repro.lint.intervals import (
    Interval,
    exp_crossing_time,
    exp_value,
    linear_crossing_time,
)


class TestInterval:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            Interval(1.0, 0.0)

    def test_point_and_width(self):
        interval = Interval.point(3.5)
        assert interval.lo == interval.hi == 3.5
        assert interval.width == 0.0
        assert Interval(1.0, 4.0).width == 3.0


class TestLinearCrossing:
    def test_downward_crossing(self):
        # start 1.0, rate -0.1/s, threshold 0.5 -> 5 s
        assert linear_crossing_time(1.0, -0.1, 0.5) == pytest.approx(5.0)

    def test_upward_crossing(self):
        assert linear_crossing_time(0.0, 2.0, 10.0) == pytest.approx(5.0)

    def test_already_past_in_direction_of_travel_is_zero(self):
        assert linear_crossing_time(0.4, -0.1, 0.5) == 0.0
        assert linear_crossing_time(12.0, 2.0, 10.0) == 0.0

    def test_moving_away_counts_as_already_past(self):
        # Entry bounds are sound over-approximations: a trajectory at or
        # beyond the threshold in its direction of travel "entered" at 0.
        assert linear_crossing_time(1.0, 0.1, 0.5) == 0.0
        assert linear_crossing_time(0.0, -1.0, 10.0) == 0.0

    def test_zero_rate(self):
        assert linear_crossing_time(0.5, 0.0, 0.5) == 0.0
        assert linear_crossing_time(0.4, 0.0, 0.5) is None


class TestExpValue:
    def test_zero_or_negative_time_is_start(self):
        assert exp_value(20.0, 80.0, 10.0, 0.0) == 20.0
        assert exp_value(20.0, 80.0, 10.0, -1.0) == 20.0

    def test_nonpositive_tau_jumps_to_steady(self):
        assert exp_value(20.0, 80.0, 0.0, 1e-9) == 80.0

    def test_relaxation_toward_steady(self):
        # After one time constant: start + (1 - 1/e) of the gap.
        value = exp_value(20.0, 80.0, 10.0, 10.0)
        assert value == pytest.approx(20.0 + 60.0 * (1.0 - math.exp(-1.0)))
        # Monotone toward, never past, the steady state.
        assert 20.0 < value < 80.0
        assert exp_value(20.0, 80.0, 10.0, 1e6) == pytest.approx(80.0)


class TestExpCrossing:
    def test_crossing_matches_closed_form(self):
        t = exp_crossing_time(20.0, 80.0, 10.0, 50.0)
        assert t is not None
        assert exp_value(20.0, 80.0, 10.0, t) == pytest.approx(50.0)

    def test_start_at_threshold_is_zero(self):
        assert exp_crossing_time(50.0, 80.0, 10.0, 50.0) == 0.0

    def test_threshold_beyond_steady_never_crossed(self):
        # Relaxing up toward 80 never reaches 90 (ratio <= 0).
        assert exp_crossing_time(20.0, 80.0, 10.0, 90.0) is None
        # Cooling toward 20 never reaches 10.
        assert exp_crossing_time(80.0, 20.0, 10.0, 10.0) is None

    def test_nonpositive_tau_is_instantaneous(self):
        assert exp_crossing_time(20.0, 80.0, 0.0, 50.0) == 0.0

    def test_cooling_direction(self):
        t = exp_crossing_time(80.0, 20.0, 5.0, 40.0)
        assert t is not None and t > 0.0
        assert exp_value(80.0, 20.0, 5.0, t) == pytest.approx(40.0)
