"""Tests for the battery model, status coding and monitor."""

import pytest
from hypothesis import given, strategies as st

from repro.battery import Battery, BatteryConfig, BatteryLevel, BatteryMonitor, BatteryThresholds
from repro.errors import BatteryError
from repro.power import EnergyLedger
from repro.sim import Simulator, ms, sec


class TestThresholds:
    def test_default_classification(self):
        thresholds = BatteryThresholds()
        assert thresholds.classify(0.01) is BatteryLevel.EMPTY
        assert thresholds.classify(0.20) is BatteryLevel.LOW
        assert thresholds.classify(0.45) is BatteryLevel.MEDIUM
        assert thresholds.classify(0.70) is BatteryLevel.HIGH
        assert thresholds.classify(0.95) is BatteryLevel.FULL
        assert thresholds.classify(1.0) is BatteryLevel.FULL

    def test_boundaries_are_half_open(self):
        thresholds = BatteryThresholds()
        assert thresholds.classify(0.05) is BatteryLevel.LOW
        assert thresholds.classify(0.30) is BatteryLevel.MEDIUM
        assert thresholds.classify(0.60) is BatteryLevel.HIGH
        assert thresholds.classify(0.85) is BatteryLevel.FULL

    def test_invalid_soc_rejected(self):
        with pytest.raises(BatteryError):
            BatteryThresholds().classify(1.5)
        with pytest.raises(BatteryError):
            BatteryThresholds().classify(-0.1)

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(BatteryError):
            BatteryThresholds(empty=0.5, low=0.4, medium=0.6, high=0.8)
        with pytest.raises(BatteryError):
            BatteryThresholds(empty=0.0)

    def test_representative_soc_round_trip(self):
        thresholds = BatteryThresholds()
        for level in (BatteryLevel.EMPTY, BatteryLevel.LOW, BatteryLevel.MEDIUM,
                      BatteryLevel.HIGH, BatteryLevel.FULL):
            assert thresholds.classify(thresholds.representative_soc(level)) is level
        with pytest.raises(BatteryError):
            thresholds.representative_soc(BatteryLevel.AC_POWER)

    def test_level_ordering_helpers(self):
        assert BatteryLevel.FULL.at_least(BatteryLevel.MEDIUM)
        assert not BatteryLevel.LOW.at_least(BatteryLevel.MEDIUM)
        assert BatteryLevel.AC_POWER.rank > BatteryLevel.FULL.rank
        assert not BatteryLevel.AC_POWER.is_battery
        assert BatteryLevel.EMPTY.is_battery

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_classification_total(self, soc):
        assert BatteryThresholds().classify(soc) in set(BatteryLevel) - {BatteryLevel.AC_POWER}


class TestBatteryModel:
    def test_initial_state(self):
        battery = Battery(BatteryConfig(capacity_j=100.0, initial_state_of_charge=0.5))
        assert battery.remaining_j == pytest.approx(50.0)
        assert battery.state_of_charge == pytest.approx(0.5)
        assert battery.level is BatteryLevel.MEDIUM

    def test_discharge_reduces_charge(self):
        battery = Battery(BatteryConfig(capacity_j=100.0))
        removed = battery.draw_energy(10.0)
        assert removed == pytest.approx(10.0)
        assert battery.remaining_j == pytest.approx(90.0)
        assert battery.drawn_j == pytest.approx(10.0)

    def test_high_rate_discharge_wastes_energy(self):
        config = BatteryConfig(capacity_j=100.0, nominal_power_w=0.1, peukert_exponent=1.2)
        battery = Battery(config)
        removed = battery.draw_energy(1.0, over=sec(1))  # 1 W >> 0.1 W nominal
        assert removed > 1.0
        assert battery.wasted_j == pytest.approx(removed - 1.0)

    def test_nominal_rate_discharge_is_lossless(self):
        config = BatteryConfig(capacity_j=100.0, nominal_power_w=1.0)
        battery = Battery(config)
        removed = battery.draw_energy(0.5, over=sec(1))
        assert removed == pytest.approx(0.5)

    def test_cannot_go_negative(self):
        battery = Battery(BatteryConfig(capacity_j=10.0))
        battery.draw_energy(50.0)
        assert battery.remaining_j == 0.0
        assert battery.is_exhausted
        assert battery.level is BatteryLevel.EMPTY

    def test_recharge_clamped_to_capacity(self):
        battery = Battery(BatteryConfig(capacity_j=10.0, initial_state_of_charge=0.5))
        battery.recharge(100.0)
        assert battery.remaining_j == pytest.approx(10.0)

    def test_ac_power_bypasses_battery(self):
        battery = Battery(BatteryConfig(capacity_j=10.0, on_ac_power=True))
        battery.draw_energy(5.0)
        assert battery.remaining_j == pytest.approx(10.0)
        assert battery.level is BatteryLevel.AC_POWER
        assert battery.level_if_drawn(100.0) is BatteryLevel.AC_POWER

    def test_level_if_drawn_projection(self):
        battery = Battery(BatteryConfig(capacity_j=100.0, initial_state_of_charge=0.35))
        assert battery.level is BatteryLevel.MEDIUM
        assert battery.level_if_drawn(10.0) is BatteryLevel.LOW
        assert battery.level is BatteryLevel.MEDIUM  # projection has no side effect

    def test_self_discharge(self):
        config = BatteryConfig(capacity_j=100.0, self_discharge_w=1.0)
        battery = Battery(config)
        battery.draw_energy(0.0, over=sec(10))
        assert battery.remaining_j == pytest.approx(90.0)

    def test_invalid_inputs_rejected(self):
        battery = Battery()
        with pytest.raises(BatteryError):
            battery.draw_energy(-1.0)
        with pytest.raises(BatteryError):
            battery.recharge(-1.0)
        with pytest.raises(BatteryError):
            battery.level_if_drawn(-1.0)
        with pytest.raises(BatteryError):
            BatteryConfig(capacity_j=0.0)
        with pytest.raises(BatteryError):
            BatteryConfig(initial_state_of_charge=1.5)
        with pytest.raises(BatteryError):
            BatteryConfig(peukert_exponent=0.9)

    def test_snapshot_keys(self):
        snapshot = Battery().snapshot()
        assert {"remaining_j", "state_of_charge", "level", "drawn_j", "wasted_j", "on_ac_power"} <= set(snapshot)

    @given(st.lists(st.floats(min_value=0.0, max_value=5.0), max_size=40))
    def test_state_of_charge_monotonically_decreases(self, draws):
        battery = Battery(BatteryConfig(capacity_j=50.0))
        previous = battery.state_of_charge
        for amount in draws:
            battery.draw_energy(amount)
            assert battery.state_of_charge <= previous + 1e-12
            previous = battery.state_of_charge
            assert 0.0 <= battery.state_of_charge <= 1.0


    def test_draw_energy_matches_its_femtosecond_core(self):
        config = BatteryConfig(self_discharge_w=0.01)
        by_time, by_fs = Battery(config), Battery(config)
        for energy, over in ((0.003, ms(2)), (0.0004, ms(3)), (0.002, None)):
            removed = by_time.draw_energy(energy, over=over)
            assert by_fs.draw_energy_fs(energy, None if over is None else int(over)) == removed
        assert by_time.remaining_j.hex() == by_fs.remaining_j.hex()
        assert by_time.wasted_j.hex() == by_fs.wasted_j.hex()


class TestBatteryMonitor:
    def test_monitor_drains_battery_from_ledger(self):
        sim = Simulator()
        ledger = EnergyLedger()
        battery = Battery(BatteryConfig(capacity_j=10.0))
        monitor = BatteryMonitor(sim.kernel, "battery", battery, ledger, sample_interval=ms(1))
        sim.add_module(monitor)

        def consumer():
            while True:
                yield ms(1)
                ledger.account("ip0").add_energy(0.05)

        sim.kernel.create_thread(consumer, "consumer")
        sim.kernel.run(ms(100))
        assert battery.state_of_charge < 1.0
        assert monitor.level is battery.level
        assert len(monitor.history) >= 99

    def test_monitor_level_signal_tracks_depletion(self):
        sim = Simulator()
        ledger = EnergyLedger()
        battery = Battery(BatteryConfig(capacity_j=1.0))
        monitor = BatteryMonitor(sim.kernel, "battery", battery, ledger, sample_interval=ms(1))
        sim.add_module(monitor)

        def consumer():
            while True:
                yield ms(1)
                ledger.account("ip0").add_energy(0.02)

        sim.kernel.create_thread(consumer, "consumer")
        sim.kernel.run(ms(60))
        assert monitor.level in (BatteryLevel.EMPTY, BatteryLevel.LOW)

    def test_sample_now_forces_update(self):
        sim = Simulator()
        ledger = EnergyLedger()
        battery = Battery(BatteryConfig(capacity_j=10.0))
        monitor = BatteryMonitor(sim.kernel, "battery", battery, ledger)
        sim.add_module(monitor)
        ledger.account("ip0").add_energy(5.0)
        level = monitor.sample_now()
        assert level is BatteryLevel.MEDIUM

    def test_zero_interval_rejected(self):
        sim = Simulator()
        with pytest.raises(BatteryError):
            BatteryMonitor(sim.kernel, "battery", Battery(), EnergyLedger(), sample_interval=ms(0))
