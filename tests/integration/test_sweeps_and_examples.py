"""Integration tests for the sweep/ablation helpers and the example scripts."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"

from repro.experiments import condition_sweep, policy_ablation, predictor_ablation
from repro.platform import single_ip_platform
from repro.sim import ms
from repro.dpm import DpmSetup


class TestConditionSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return condition_sweep(
            battery_levels=("full", "low"),
            temperature_levels=("low",),
            task_count=12,
        )

    def test_sweep_covers_grid(self, sweep):
        names = {metrics.scenario for metrics in sweep}
        assert names == {"full/low", "low/low"}

    def test_sweep_trend_matches_rules(self, sweep):
        by_name = {metrics.scenario: metrics for metrics in sweep}
        assert by_name["low/low"].energy_saving_pct > by_name["full/low"].energy_saving_pct - 5.0
        assert (
            by_name["low/low"].average_delay_overhead_pct
            > by_name["full/low"].average_delay_overhead_pct
        )


class TestAblationHelpers:
    def test_policy_ablation_contains_all_setups(self):
        scenario = single_ip_platform("abl", "full", "low", task_count=10)
        setups = [DpmSetup.always_on(), DpmSetup.paper()]
        results = policy_ablation(scenario, setups)
        assert set(results) == {"always-on", "paper"}
        assert results["paper"].energy_saving_pct > results["always-on"].energy_saving_pct

    def test_predictor_ablation_contains_all_kinds(self):
        scenario = single_ip_platform("pred", "full", "low", task_count=10)
        results = predictor_ablation(scenario, predictor_kinds=("ewma", "fixed"))
        assert set(results) == {"ewma", "fixed"}
        for metrics in results.values():
            assert metrics.energy_saving_pct > 0.0


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
