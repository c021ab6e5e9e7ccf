"""Tests for the thermal model, sensor, fan and level coding."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ThermalError
from repro.power import EnergyAccount
from repro.sim import Simulator, ms, sec
from repro.thermal import (
    Fan,
    TemperatureLevel,
    TemperatureSensor,
    TemperatureThresholds,
    ThermalConfig,
    ThermalModel,
)


class TestLevels:
    def test_default_classification(self):
        thresholds = TemperatureThresholds()
        assert thresholds.classify(30.0) is TemperatureLevel.LOW
        assert thresholds.classify(60.0) is TemperatureLevel.MEDIUM
        assert thresholds.classify(90.0) is TemperatureLevel.HIGH

    def test_boundaries(self):
        thresholds = TemperatureThresholds(medium_c=50.0, high_c=70.0)
        assert thresholds.classify(49.999) is TemperatureLevel.LOW
        assert thresholds.classify(50.0) is TemperatureLevel.MEDIUM
        assert thresholds.classify(70.0) is TemperatureLevel.HIGH

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ThermalError):
            TemperatureThresholds(medium_c=80.0, high_c=70.0)

    def test_below_absolute_zero_rejected(self):
        with pytest.raises(ThermalError):
            TemperatureThresholds().classify(-300.0)

    def test_representative_temperature_round_trip(self):
        thresholds = TemperatureThresholds()
        for level in TemperatureLevel:
            assert thresholds.classify(thresholds.representative_temperature(level)) is level

    def test_ordering_helpers(self):
        assert TemperatureLevel.LOW.at_most(TemperatureLevel.MEDIUM)
        assert not TemperatureLevel.HIGH.at_most(TemperatureLevel.MEDIUM)
        assert TemperatureLevel.HIGH.rank > TemperatureLevel.LOW.rank


class TestThermalModel:
    def test_zero_power_decays_to_ambient(self):
        model = ThermalModel(ThermalConfig(ambient_c=35.0, initial_c=80.0))
        for _ in range(200):
            model.step(0.0, sec(1))
        assert model.temperature_c == pytest.approx(35.0, abs=0.5)

    def test_constant_power_approaches_steady_state(self):
        config = ThermalConfig(ambient_c=35.0, initial_c=35.0)
        model = ThermalModel(config)
        steady = model.steady_state_c(0.5)
        for _ in range(500):
            model.step(0.5, sec(1))
        assert model.temperature_c == pytest.approx(steady, abs=0.5)
        assert steady == pytest.approx(35.0 + 0.5 * config.thermal_resistance_c_per_w)

    def test_fan_reduces_steady_state(self):
        model = ThermalModel()
        hot = model.steady_state_c(1.0)
        model.set_fan(True)
        cooled = model.steady_state_c(1.0)
        assert cooled < hot
        assert model.fan_on

    def test_peak_and_average_tracking(self):
        model = ThermalModel(ThermalConfig(ambient_c=35.0, initial_c=35.0))
        for _ in range(50):
            model.step(1.0, sec(1))
        for _ in range(50):
            model.step(0.0, sec(1))
        assert model.peak_c > model.temperature_c
        assert 35.0 < model.average_c < model.peak_c
        assert model.average_rise_c > 0.0

    def test_estimate_after_is_pure(self):
        model = ThermalModel()
        before = model.temperature_c
        estimate = model.estimate_after(1.0, sec(10))
        assert model.temperature_c == before
        assert estimate > before

    def test_step_is_unconditionally_stable(self):
        # Huge time step must not overshoot the steady-state temperature.
        model = ThermalModel(ThermalConfig(ambient_c=35.0, initial_c=35.0))
        steady = model.steady_state_c(2.0)
        model.step(2.0, sec(1e6))
        assert model.temperature_c == pytest.approx(steady, rel=1e-6)

    def test_invalid_inputs_rejected(self):
        model = ThermalModel()
        with pytest.raises(ThermalError):
            model.step(-1.0, sec(1))
        with pytest.raises(ThermalError):
            model.steady_state_c(-1.0)
        with pytest.raises(ThermalError):
            model.estimate_after(-1.0, sec(1))
        with pytest.raises(ThermalError):
            ThermalConfig(thermal_resistance_c_per_w=0.0)
        with pytest.raises(ThermalError):
            ThermalConfig(fan_resistance_scale=0.0)
        with pytest.raises(ThermalError):
            ThermalConfig(ambient_c=40.0, initial_c=30.0)

    def test_snapshot_keys(self):
        snapshot = ThermalModel().snapshot()
        assert {"temperature_c", "peak_c", "average_c", "level", "fan_on"} <= set(snapshot)

    @given(st.floats(min_value=0.0, max_value=5.0), st.integers(min_value=1, max_value=200))
    def test_temperature_never_below_ambient(self, power, steps):
        model = ThermalModel(ThermalConfig(ambient_c=35.0, initial_c=35.0))
        for _ in range(steps):
            model.step(power, sec(1))
        assert model.temperature_c >= 35.0 - 1e-9

    @given(st.floats(min_value=0.0, max_value=5.0))
    def test_temperature_bounded_by_steady_state(self, power):
        model = ThermalModel(ThermalConfig(ambient_c=35.0, initial_c=35.0))
        steady = model.steady_state_c(power)
        for _ in range(100):
            model.step(power, sec(5))
            assert model.temperature_c <= steady + 1e-6


    def test_step_matches_its_femtosecond_core(self):
        by_time, by_fs = ThermalModel(), ThermalModel()
        for power in (0.2, 0.0, 0.05):
            assert by_time.step(power, ms(2)).hex() == by_fs.step_fs(power, int(ms(2))).hex()
        assert by_time.average_c.hex() == by_fs.average_c.hex()
        assert by_time.peak_c == by_fs.peak_c


class TestSensorAndFan:
    @staticmethod
    def sampled_soc():
        """A one-IP SoC whose shared sampler drives the sensor every 1 ms."""
        from repro.dpm import DpmSetup
        from repro.soc import IpSpec, SocConfig, build_soc, periodic_workload

        spec = IpSpec(name="ip0", workload=periodic_workload(1, cycles=1_000))
        config = SocConfig(
            thermal=ThermalConfig(ambient_c=35.0, initial_c=35.0), sample_interval=ms(1)
        )
        return build_soc([spec], config, DpmSetup.always_on())

    def test_sensor_heats_up_with_consumption(self):
        soc = self.sampled_soc()
        account = soc.ledger.account("heater")

        def heater():
            while True:
                yield ms(1)
                account.add_energy(0.0005)  # 0.5 W average

        soc.simulator.kernel.create_thread(heater, "heater")
        soc.simulator.kernel.run(sec(2))
        sensor = soc.temperature_sensor
        assert sensor.temperature_c > 40.0
        assert sensor.level in (TemperatureLevel.MEDIUM, TemperatureLevel.HIGH)
        assert len(sensor.history) > 100
        assert sensor.history[-1] == (sec(2), soc.thermal.temperature_c)

    def test_soc_flush_forces_a_sensor_sample(self):
        soc = self.sampled_soc()
        soc.flush()
        assert soc.temperature_sensor.history == [(ms(0), soc.thermal.temperature_c)]
        assert soc.thermal.level is TemperatureLevel.LOW

    def test_sensor_zero_interval_rejected(self):
        sim = Simulator()
        with pytest.raises(ThermalError):
            TemperatureSensor(sim.kernel, "sensor", ThermalModel(), sample_interval=ms(0))

    def test_fan_charges_energy_while_on(self):
        sim = Simulator()
        model = ThermalModel()
        account = EnergyAccount("fan")
        fan = Fan(sim.kernel, "fan", model, account, power_w=0.1)
        sim.add_module(fan)

        def controller():
            fan.set_on(True)
            yield sec(1)
            fan.set_on(False)
            yield sec(1)

        sim.kernel.create_thread(controller, "controller")
        sim.kernel.run(sec(3))
        fan.flush_energy()
        assert account.total_j == pytest.approx(0.1, rel=1e-6)
        assert fan.total_on_time.seconds == pytest.approx(1.0, rel=1e-6)
        assert model.fan_on is False
        assert [on for _, on in fan.switch_history] == [True, False]

    def test_fan_negative_power_rejected(self):
        sim = Simulator()
        with pytest.raises(ThermalError):
            Fan(sim.kernel, "fan", ThermalModel(), EnergyAccount("fan"), power_w=-1.0)

    def test_fan_set_same_state_is_noop(self):
        sim = Simulator()
        fan = Fan(sim.kernel, "fan", ThermalModel(), EnergyAccount("fan"))
        sim.add_module(fan)
        fan.set_on(False)
        assert fan.switch_history == []


@pytest.mark.xfail(
    strict=True,
    reason="known defect: the end-of-run flush steps the thermal model by a "
    "whole sample interval right after the boundary sample, integrating "
    "time that was never simulated (86 ms for row A1's 85 ms)",
)
def test_thermal_model_integrates_exactly_the_simulated_time():
    from repro.experiments import run_scenario

    artifacts = run_scenario("A1")
    assert artifacts.soc.thermal._integrated_time_s == pytest.approx(
        artifacts.end_time.seconds, rel=1e-12
    )
