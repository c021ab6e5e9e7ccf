"""Tests for the paper-shaped platform builders and the experiment runner."""

import time

import pytest

from repro.battery import BatteryLevel
from repro.dpm import DpmSetup
from repro.errors import ExperimentError, PlatformError, WorkloadError
from repro.experiments import run_comparison, run_scenario
from repro.experiments.runner import _as_scenario
from repro.experiments.table2 import simulation_speed_report, table2_report
from repro.platform import (
    build_ip_spec,
    build_soc_config,
    multi_ip_platform,
    paper_platforms,
    single_ip_platform,
)
from repro.platform.build import battery_condition, thermal_condition
from repro.sim.native import available as native_available
from repro.soc.workload import scenario_a_workload
from repro.thermal import TemperatureLevel


class TestConditions:
    def test_battery_conditions_map_to_levels(self):
        assert battery_condition("full").initial_state_of_charge > 0.85
        assert battery_condition("low").initial_state_of_charge < 0.30
        from repro.battery import Battery

        assert Battery(battery_condition("full")).level is BatteryLevel.FULL
        assert Battery(battery_condition("low")).level is BatteryLevel.LOW
        assert Battery(battery_condition("empty")).level is BatteryLevel.EMPTY
        with pytest.raises(PlatformError):
            battery_condition("turbo")

    def test_thermal_conditions(self):
        low = thermal_condition("low")
        high = thermal_condition("high")
        assert low.thresholds.classify(low.initial_c) is TemperatureLevel.LOW
        assert high.ambient_c > low.ambient_c
        assert high.initial_c > low.initial_c
        quad = thermal_condition("low", ip_count=4)
        assert quad.thermal_resistance_c_per_w < low.thermal_resistance_c_per_w
        with pytest.raises(PlatformError):
            thermal_condition("volcanic")


class TestScenarioCatalogue:
    def test_paper_scenarios_cover_table2(self):
        names = [spec.name for spec in paper_platforms()]
        assert names == ["A1", "A2", "A3", "A4", "B", "C"]

    def test_scenario_by_name(self):
        assert _as_scenario("a2").name == "A2"
        with pytest.raises(ExperimentError):
            _as_scenario("Z1")

    def test_scenario_a_workload_mixed_statistics(self):
        workload = scenario_a_workload(task_count=40)
        busy_half = workload.items[:20]
        idle_half = workload.items[20:]
        mean_busy_idle = sum(i.idle_after.seconds for i in busy_half) / 20
        mean_idle_idle = sum(i.idle_after.seconds for i in idle_half) / 20
        assert mean_idle_idle > 3 * mean_busy_idle
        with pytest.raises(WorkloadError):
            scenario_a_workload(task_count=1)

    def test_single_ip_scenario_structure(self):
        platform = single_ip_platform("X", "full", "low")
        assert len(platform.ips) == 1
        assert not build_soc_config(platform).use_gem

    def test_multi_ip_scenario_structure(self):
        platform = multi_ip_platform("Y", "low", "low", high_activity_ips=(1, 2))
        specs = [build_ip_spec(ipdef) for ipdef in platform.ips]
        assert len(specs) == 4
        assert [spec.static_priority for spec in specs] == [1, 2, 3, 4]
        assert build_soc_config(platform).use_gem
        busy1 = specs[0].workload.busy_fraction(200e6)
        busy3 = specs[2].workload.busy_fraction(200e6)
        assert busy1 > busy3
        for ips in ((), (0, 1), (5,)):
            with pytest.raises(PlatformError):
                multi_ip_platform("Z", "low", "low", high_activity_ips=ips)

    def test_scenario_factories_produce_fresh_objects(self):
        platform = single_ip_platform("X", "full", "low")
        assert build_ip_spec(platform.ips[0]) is not build_ip_spec(platform.ips[0])
        assert build_soc_config(platform) is not build_soc_config(platform)


class TestRunner:
    @pytest.fixture(scope="class")
    def small_scenario(self):
        return single_ip_platform("small", "full", "low", task_count=10)

    def test_run_scenario_produces_artifacts(self, small_scenario):
        artefacts = run_scenario(small_scenario, DpmSetup.paper())
        assert artefacts.all_tasks_completed
        assert artefacts.total_energy_j > 0.0
        assert artefacts.end_time.seconds > 0.0
        assert artefacts.cycles_simulated() > 0.0
        assert artefacts.kilocycles_per_second() > 0.0
        summary = artefacts.per_ip_summary()
        assert "ip1" in summary
        assert summary["ip1"]["tasks"] == 10.0

    def test_wall_clock_covers_the_build(self, monkeypatch):
        # Kcycle/s is simulated cycles per host second of the whole call,
        # the same span perfbench's sim_kcycles_per_s times.
        from repro.experiments import runner

        original = runner.build_soc

        def slow_build_soc(*args, **kwargs):
            time.sleep(0.05)
            return original(*args, **kwargs)

        monkeypatch.setattr(runner, "build_soc", slow_build_soc)
        assert run_scenario("A1").wall_clock_s >= 0.05

    @pytest.mark.parametrize("accuracy", ["exact", "fast"])
    @pytest.mark.parametrize("backend", [
        "python",
        pytest.param("native", marks=pytest.mark.skipif(
            not native_available(), reason="native core extension not built")),
    ])
    @pytest.mark.parametrize("name", ["A1", "B"])
    def test_run_records_its_backend(self, name, backend, accuracy):
        artefacts = run_scenario(name, accuracy=accuracy, backend=backend)
        assert artefacts.backend == backend
        assert artefacts.kilocycles_per_second() > 0.0

    def test_run_comparison_metrics_sane(self, small_scenario):
        metrics = run_comparison(small_scenario)
        assert 0.0 < metrics.energy_saving_pct < 100.0
        assert metrics.average_delay_overhead_pct >= 0.0
        assert metrics.tasks_executed == 10
        assert metrics.baseline_energy_j > metrics.dpm_energy_j

    def test_baseline_against_itself_saves_nothing(self, small_scenario):
        metrics = run_comparison(small_scenario, dpm=DpmSetup.always_on())
        assert abs(metrics.energy_saving_pct) < 2.0
        assert metrics.average_delay_overhead_pct < 2.0

    def test_reports_render(self, small_scenario):
        metrics = run_comparison(small_scenario)
        text = table2_report([metrics])
        assert "small" in text
        speed_text = simulation_speed_report({"small": 123.4})
        assert "123.4" in speed_text
