"""Tests for power states, DVFS operating points and characterisation."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import PowerModelError
from repro.power import (
    ALL_STATES,
    InstructionClass,
    ON_STATES,
    OperatingPoint,
    OperatingPointTable,
    PowerState,
    SLEEP_STATES,
    default_characterization,
    default_operating_points,
    default_transition_table,
)


class TestPowerState:
    def test_classification(self):
        assert PowerState.ON1.is_on and PowerState.ON4.is_on
        assert PowerState.SL1.is_sleep and PowerState.SL4.is_sleep
        assert PowerState.OFF.is_off
        assert not PowerState.OFF.is_on
        assert PowerState.ON2.can_execute
        assert not PowerState.SL2.can_execute

    def test_nine_states_exist(self):
        assert len(ALL_STATES) == 9
        assert len(ON_STATES) == 4
        assert len(SLEEP_STATES) == 4

    def test_performance_rank_ordering(self):
        # ON1 is the fastest execution state, ON4 the slowest.
        assert [state.index for state in ON_STATES] == [1, 2, 3, 4]
        table = default_operating_points()
        frequencies = [table[state].frequency_hz for state in ON_STATES]
        assert frequencies == sorted(frequencies, reverse=True)
        assert len(set(frequencies)) == len(frequencies)
        assert not any(state.is_on for state in [*SLEEP_STATES, PowerState.OFF])

    def test_depth_ordering(self):
        # SL1 is the shallowest sleep state and OFF the deepest: each step
        # down costs a longer and dearer wake-up.
        assert [state.index for state in SLEEP_STATES] == [1, 2, 3, 4]
        with pytest.raises(PowerModelError):
            PowerState.OFF.index
        table = default_transition_table()
        deeper = [*SLEEP_STATES, PowerState.OFF]
        wakeups = [table.latency(state, PowerState.ON1) for state in deeper]
        round_trips = [table.round_trip_cost(PowerState.ON1, state).energy_j for state in deeper]
        assert wakeups == sorted(wakeups) and len(set(wakeups)) == len(wakeups)
        assert round_trips == sorted(round_trips) and len(set(round_trips)) == len(round_trips)

    def test_constructors(self):
        assert PowerState.on_state(3) is PowerState.ON3
        assert PowerState.sleep_state(2) is PowerState.SL2
        assert PowerState.from_string("on1") is PowerState.ON1
        assert PowerState.from_string(" sl4 ") is PowerState.SL4

    def test_invalid_constructors(self):
        with pytest.raises(PowerModelError):
            PowerState.on_state(5)
        with pytest.raises(PowerModelError):
            PowerState.sleep_state(0)
        with pytest.raises(PowerModelError):
            PowerState.from_string("warp9")
        with pytest.raises(PowerModelError):
            PowerState.OFF.index  # noqa: B018 - property access raises


class TestOperatingPoint:
    def test_rejects_non_on_state(self):
        with pytest.raises(PowerModelError):
            OperatingPoint(PowerState.SL1, 1.0, 1e8)

    def test_rejects_non_positive_values(self):
        with pytest.raises(PowerModelError):
            OperatingPoint(PowerState.ON1, 0.0, 1e8)
        with pytest.raises(PowerModelError):
            OperatingPoint(PowerState.ON1, 1.0, 0.0)

    def test_power_scaling(self):
        point = OperatingPoint(PowerState.ON1, 1.2, 200e6)
        assert point.dynamic_power_w(1e-9) == pytest.approx(1e-9 * 1.2**2 * 200e6)
        assert point.energy_per_cycle_j(1e-9) == pytest.approx(1e-9 * 1.2**2)
        assert point.leakage_power_w(0.01) == pytest.approx(0.012)

    def test_execution_time(self):
        point = OperatingPoint(PowerState.ON1, 1.2, 100e6)
        assert point.execution_time(100e6).seconds == pytest.approx(1.0)
        assert point.clock_period.seconds == pytest.approx(10e-9)

    def test_negative_inputs_rejected(self):
        point = OperatingPoint(PowerState.ON1, 1.2, 100e6)
        with pytest.raises(PowerModelError):
            point.dynamic_power_w(-1.0)
        with pytest.raises(PowerModelError):
            point.execution_time(-5)


class TestOperatingPointTable:
    def test_default_table_monotonic(self):
        table = default_operating_points()
        freqs = [table[state].frequency_hz for state in ON_STATES]
        volts = [table[state].voltage_v for state in ON_STATES]
        assert freqs == sorted(freqs, reverse=True)
        assert volts == sorted(volts, reverse=True)

    def test_default_ratios(self):
        table = default_operating_points()
        fastest = table.fastest
        assert table[PowerState.ON1].frequency_hz / fastest.frequency_hz == pytest.approx(1.0)
        assert table[PowerState.ON4].frequency_hz / fastest.frequency_hz == pytest.approx(0.25)
        assert (table[PowerState.ON4].voltage_v / fastest.voltage_v) ** 2 == pytest.approx(0.625**2)

    def test_missing_point_rejected(self):
        points = [OperatingPoint(PowerState.ON1, 1.2, 200e6)]
        with pytest.raises(PowerModelError):
            OperatingPointTable(points)

    def test_duplicate_point_rejected(self):
        points = [
            OperatingPoint(PowerState.ON1, 1.2, 200e6),
            OperatingPoint(PowerState.ON1, 1.1, 150e6),
        ]
        with pytest.raises(PowerModelError):
            OperatingPointTable(points)

    def test_non_monotonic_rejected(self):
        with pytest.raises(PowerModelError):
            default_operating_points(frequency_scales={PowerState.ON3: 0.9})

    def test_slowdown(self):
        table = default_operating_points()
        assert table.fastest.frequency_hz / table[PowerState.ON4].frequency_hz == pytest.approx(4.0)

    def test_as_dict_round_trip(self):
        table = default_operating_points()
        data = table.as_dict()
        assert set(data) == {"ON1", "ON2", "ON3", "ON4"}
        assert data["ON1"]["frequency_hz"] == pytest.approx(200e6)


class TestCharacterization:
    def test_active_power_ordering_across_states(self):
        char = default_characterization()
        powers = [char.active_power_w(state) for state in ON_STATES]
        assert powers == sorted(powers, reverse=True)

    def test_energy_per_cycle_ordering_across_states(self):
        char = default_characterization()
        energies = [char.energy_per_cycle_j(state) for state in ON_STATES]
        assert energies == sorted(energies, reverse=True)

    def test_instruction_class_activity_affects_energy(self):
        char = default_characterization()
        dsp = char.energy_per_cycle_j(PowerState.ON1, InstructionClass.DSP)
        io = char.energy_per_cycle_j(PowerState.ON1, InstructionClass.IO)
        assert dsp > io

    def test_idle_power_below_active_power(self):
        char = default_characterization()
        for state in ON_STATES:
            assert char.idle_power_w(state) < char.active_power_w(state)

    def test_sleep_power_ordering(self):
        char = default_characterization()
        powers = [char.residual_power_w(state) for state in SLEEP_STATES]
        assert powers == sorted(powers, reverse=True)
        assert char.residual_power_w(PowerState.OFF) < powers[-1]
        assert char.residual_power_w(PowerState.SL1) < char.idle_power_w(PowerState.ON1)

    def test_task_energy_scales_with_cycles(self):
        char = default_characterization()
        one = char.task_energy_j(PowerState.ON2, 1000)
        two = char.task_energy_j(PowerState.ON2, 2000)
        assert two == pytest.approx(2 * one)

    def test_execution_time_scales_with_state(self):
        char = default_characterization()
        fast = char.execution_time(PowerState.ON1, 1e6)
        slow = char.execution_time(PowerState.ON4, 1e6)
        assert slow / fast == pytest.approx(4.0)

    def test_residual_power_of_on_state_rejected(self):
        char = default_characterization()
        with pytest.raises(PowerModelError):
            char.residual_power_w(PowerState.ON1)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(PowerModelError):
            default_characterization(effective_capacitance_f=-1.0)

    def test_summary_contains_all_states(self):
        summary = default_characterization().summary()
        assert "power_active_ON1" in summary
        assert "power_SL4" in summary
        assert "power_OFF" in summary

    @given(st.floats(min_value=1.0, max_value=1e7))
    def test_task_energy_non_negative(self, cycles):
        char = default_characterization()
        assert char.task_energy_j(PowerState.ON3, cycles) >= 0.0

    @given(st.sampled_from(list(ON_STATES)), st.sampled_from(list(InstructionClass)))
    def test_energy_per_cycle_positive_everywhere(self, state, iclass):
        char = default_characterization()
        assert char.energy_per_cycle_j(state, iclass) > 0.0
