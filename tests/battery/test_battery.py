"""Tests for the battery model, status coding and monitor."""

import pytest
from hypothesis import given, strategies as st

from repro.battery import Battery, BatteryConfig, BatteryLevel, BatteryThresholds
from repro.errors import BatteryError, ConfigurationError
from repro.sim import ms, sec


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
            lo, hi = thresholds.band(level)
            mid_band = (max(lo, 0.0) + min(hi, 1.0)) / 2.0
            assert thresholds.classify(mid_band) is level
        with pytest.raises(BatteryError):
            thresholds.band(BatteryLevel.AC_POWER)

    def test_band_edges_are_classification_boundaries(self):
        thresholds = BatteryThresholds()
        levels = (BatteryLevel.EMPTY, BatteryLevel.LOW, BatteryLevel.MEDIUM,
                  BatteryLevel.HIGH, BatteryLevel.FULL)
        for below, level in zip(levels, levels[1:]):
            lo, _ = thresholds.band(level)
            # Bands are half-open and adjacent: [lo, hi) of one level ends
            # where the next begins.
            assert thresholds.band(below)[1] == lo
            assert thresholds.classify(lo) is level
            assert thresholds.classify(lo - 1e-9) is below

    def test_level_ordering_helpers(self):
        assert BatteryLevel.FULL.rank >= BatteryLevel.MEDIUM.rank
        assert BatteryLevel.LOW.rank < BatteryLevel.MEDIUM.rank
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

    def test_high_rate_discharge_wastes_energy(self):
        config = BatteryConfig(capacity_j=100.0, nominal_power_w=0.1, peukert_exponent=1.2)
        battery = Battery(config)
        removed = battery.draw_energy(1.0, over=sec(1))  # 1 W >> 0.1 W nominal
        assert removed > 1.0
        # The waste leaves the battery with the delivered energy.
        assert battery.remaining_j == pytest.approx(100.0 - removed)

    def test_nominal_rate_discharge_is_lossless(self):
        config = BatteryConfig(capacity_j=100.0, nominal_power_w=1.0)
        battery = Battery(config)
        removed = battery.draw_energy(0.5, over=sec(1))
        assert removed == pytest.approx(0.5)

    def test_cannot_go_negative(self):
        battery = Battery(BatteryConfig(capacity_j=10.0))
        battery.draw_energy(50.0)
        assert battery.remaining_j == 0.0
        assert battery.level is BatteryLevel.EMPTY

    def test_drain_windows_matches_per_window_draws(self):
        config = BatteryConfig(capacity_j=10.0, nominal_power_w=1.0)
        batched = Battery(config)
        stepped = Battery(config)
        batched.drain_windows(0.01, ms(100), 50)
        for _ in range(50):
            stepped.draw_energy(0.01, over=ms(100))
        assert batched.remaining_j == pytest.approx(stepped.remaining_j, rel=1e-12)
        assert batched.state_of_charge == pytest.approx(stepped.state_of_charge, rel=1e-6)
        assert batched.remaining_j == pytest.approx(9.5)

    def test_drain_windows_above_nominal_power_stays_exact(self):
        # 1 W per window exceeds the 0.1 W nominal rate: the batched update
        # must fall back to the per-window loop and waste energy bit for bit.
        config = BatteryConfig(capacity_j=100.0, nominal_power_w=0.1, peukert_exponent=1.2)
        batched = Battery(config)
        stepped = Battery(config)
        batched.drain_windows(0.1, ms(100), 20)
        for _ in range(20):
            stepped.draw_energy(0.1, over=ms(100))
        assert batched.remaining_j.hex() == stepped.remaining_j.hex()
        assert batched.remaining_j < 100.0 - 2.0

    def test_drain_windows_on_ac_power_keeps_the_charge(self):
        battery = Battery(BatteryConfig(capacity_j=10.0, on_ac_power=True))
        battery.drain_windows(1.0, ms(1), 100)
        assert battery.remaining_j == pytest.approx(10.0)
        assert battery.level is BatteryLevel.AC_POWER

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
            battery.level_if_drawn(-1.0)
        with pytest.raises(BatteryError):
            BatteryConfig(capacity_j=0.0)
        with pytest.raises(BatteryError):
            BatteryConfig(initial_state_of_charge=1.5)
        with pytest.raises(BatteryError):
            BatteryConfig(peukert_exponent=0.9)

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


def sampled_soc(battery_config):
    """A one-IP SoC whose shared sampler drives the monitor every 1 ms."""
    from repro.dpm import DpmSetup
    from repro.soc import IpSpec, SocConfig, build_soc, periodic_workload

    spec = IpSpec(name="ip0", workload=periodic_workload(1, cycles=1_000))
    config = SocConfig(battery=battery_config, sample_interval=ms(1))
    return build_soc([spec], config, DpmSetup.always_on())


def run_with_load(soc, joules_per_ms, duration):
    account = soc.ledger.account("load")

    def consumer():
        while True:
            yield ms(1)
            account.add_energy(joules_per_ms)

    soc.simulator.kernel.create_thread(consumer, "consumer")
    soc.simulator.kernel.run(duration)


class TestBatteryMonitor:
    def test_monitor_drains_battery_from_ledger(self):
        soc = sampled_soc(BatteryConfig(capacity_j=10.0))
        run_with_load(soc, 0.05, ms(100))
        battery, monitor = soc.battery, soc.battery_monitor
        assert battery.state_of_charge < 1.0
        assert monitor.level is battery.level
        assert len(monitor.history) >= 99
        assert monitor.history[0] == (ms(1), monitor.history[0][1])
        assert monitor.history[-1] == (ms(100), battery.state_of_charge)

    def test_monitor_level_signal_tracks_depletion(self):
        soc = sampled_soc(BatteryConfig(capacity_j=1.0))
        run_with_load(soc, 0.02, ms(60))
        assert soc.battery_monitor.level in (BatteryLevel.EMPTY, BatteryLevel.LOW)

    def test_soc_flush_forces_a_sample(self):
        soc = sampled_soc(BatteryConfig(capacity_j=10.0))
        soc.ledger.account("load").add_energy(5.0)
        soc.flush()
        assert soc.battery.level is BatteryLevel.MEDIUM
        assert soc.battery_monitor.history == [(ms(0), 0.5)]

    def test_zero_interval_rejected(self):
        # The SoC's shared sampler drives the monitor, so the SoC config is
        # where a zero sample interval is rejected.
        from repro.soc import SocConfig

        with pytest.raises(ConfigurationError):
            SocConfig(sample_interval=ms(0))
