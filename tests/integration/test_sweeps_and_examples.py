"""Integration tests for the sweep/ablation helpers and the example scripts."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"

from repro.experiments import condition_sweep, policy_ablation, predictor_ablation
from repro.platform import WorkloadDef, single_ip_platform
from repro.dpm import DpmSetup

POLICIES = {"always-on", "fixed-timeout", "greedy-sleep", "oracle", "paper"}
PREDICTORS = {"fixed", "last-value", "ewma", "adaptive"}


class TestConditionSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return condition_sweep(
            battery_levels=("full", "medium", "low"),
            temperature_levels=("low",),
            task_count=12,
        )

    def test_sweep_covers_grid(self, sweep):
        names = {metrics.scenario for metrics in sweep}
        assert names == {"full/low", "medium/low", "low/low"}

    def test_sweep_trend_matches_rules(self, sweep):
        # The emptier the battery, the more energy saved and delay paid.
        full, medium, low = sweep
        assert full.energy_saving_pct <= medium.energy_saving_pct + 5.0
        assert medium.energy_saving_pct <= low.energy_saving_pct + 5.0
        assert low.energy_saving_pct > full.energy_saving_pct - 5.0
        assert low.average_delay_overhead_pct > full.average_delay_overhead_pct


class TestAblationHelpers:
    @pytest.fixture(scope="class")
    def policies(self):
        """The five default setups on the A1 and A2 conditions, per battery."""
        return {
            battery: policy_ablation(
                single_ip_platform(f"ablation-{battery}", battery, "low", task_count=24)
            )
            for battery in ("full", "low")
        }

    @pytest.fixture(scope="class")
    def predictors(self):
        """Every predictor plus the oracle on bursty traffic."""
        scenario = single_ip_platform("bursty", "full", "low")
        scenario.ips[0].workload = WorkloadDef(kind="bursty", burst_count=6, tasks_per_burst=6)
        results = predictor_ablation(scenario)
        results.update(policy_ablation(scenario, [DpmSetup.oracle()]))
        return results

    def test_policy_ablation_contains_all_setups(self, policies):
        for results in policies.values():
            assert set(results) == POLICIES
            assert results["paper"].energy_saving_pct > results["always-on"].energy_saving_pct

    def test_full_battery_saving_comes_from_shutdown(self, policies):
        results = policies["full"]
        assert abs(results["always-on"].energy_saving_pct) < 2.0
        assert results["greedy-sleep"].energy_saving_pct > 10.0
        assert results["paper"].energy_saving_pct > results["always-on"].energy_saving_pct + 20.0
        # The timeout policy idles through its timeout, so a predicting
        # policy must not save less than it.
        assert (results["greedy-sleep"].energy_saving_pct
                >= results["fixed-timeout"].energy_saving_pct - 3.0)

    def test_low_battery_only_the_paper_policy_trades_speed(self, policies):
        results = policies["low"]
        best_shutdown_only = max(
            results[name].energy_saving_pct
            for name in ("greedy-sleep", "oracle", "fixed-timeout")
        )
        assert results["paper"].energy_saving_pct > best_shutdown_only + 5.0
        assert (results["paper"].average_delay_overhead_pct
                > results["greedy-sleep"].average_delay_overhead_pct)

    def test_predictor_ablation_contains_all_kinds(self, predictors):
        assert set(predictors) == PREDICTORS | {"oracle"}
        for metrics in predictors.values():
            assert metrics.energy_saving_pct > 0.0

    def test_oracle_bounds_every_predictor(self, predictors):
        oracle_saving = predictors["oracle"].energy_saving_pct
        for name in PREDICTORS:
            assert predictors[name].energy_saving_pct <= oracle_saving + 3.0, name
        # "Next idle == previous idle" is exactly wrong on bursts; EWMA smooths it.
        assert predictors["ewma"].energy_saving_pct > predictors["last-value"].energy_saving_pct


class TestExampleScripts:
    """Smoke tests: the shipped examples must run end to end."""

    def _run_example(self, name, argv=()):
        path = str(EXAMPLES_DIR / name)
        old_argv = sys.argv
        sys.argv = [path, *argv]
        try:
            runpy.run_path(path, run_name="__main__")
        finally:
            sys.argv = old_argv

    def test_quickstart_example(self, capsys):
        self._run_example("quickstart.py")
        out = capsys.readouterr().out
        assert "energy saving" in out
        assert "paper DPM" in out

    def test_custom_ip_example(self, capsys):
        self._run_example("custom_ip_and_rules.py")
        out = capsys.readouterr().out
        assert "Break-even times" in out
        assert "LEM decisions by selected state" in out

    def test_multi_ip_gem_example(self, capsys, tmp_path):
        vcd = tmp_path / "states.vcd"
        self._run_example("multi_ip_gem_soc.py", argv=[str(vcd)])
        out = capsys.readouterr().out
        assert "Per-IP summary" in out
        assert "GEM:" in out
        assert vcd.exists()
        assert "$timescale" in vcd.read_text()

    def test_table2_example_subset(self, capsys):
        self._run_example("table2_reproduction.py", argv=["A1"])
        out = capsys.readouterr().out
        assert "Paper vs. reproduction" in out
        assert "Simulation speed" in out
