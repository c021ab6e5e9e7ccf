"""Integration tests: the qualitative claims of the paper must hold.

These tests run complete scenario comparisons (DPM vs always-on baseline) and
check the *shape* of Table 2 rather than exact percentages: low battery
trades a much larger delay for a larger energy saving, the GEM scenarios save
the most, the DPM controls the chip temperature, and every task eventually
executes.  One test pins the mean error of the six rows against the paper.
"""

import re

import pytest

from repro.analysis import render_comparison
from repro.dpm import DpmSetup
from repro.experiments import reproduce_table2, run_comparison, run_scenario
from repro.platform import single_ip_platform
from repro.power import PowerState

#: Shape of each Table-2 row: open bounds (saving low, saving high, delay low,
#: delay high) in percent around the paper's values.
ROW_SHAPES = {
    "A1": (25.0, 60.0, 0.0, 80.0),
    "A2": (45.0, 100.0, 250.0, 450.0),
    "A3": (25.0, 60.0, 0.0, 120.0),
    "A4": (45.0, 100.0, 250.0, 450.0),
    "B": (50.0, 100.0, 150.0, 600.0),
    "C": (50.0, 100.0, 150.0, 600.0),
}


@pytest.fixture(scope="module")
def table2():
    return {metrics.scenario: metrics for metrics in reproduce_table2()}


@pytest.fixture(scope="module")
def a1(table2):
    return table2["A1"]


@pytest.fixture(scope="module")
def a2(table2):
    return table2["A2"]


@pytest.fixture(scope="module")
def a3(table2):
    return table2["A3"]


@pytest.fixture(scope="module")
def b_row(table2):
    return table2["B"]


class TestTable2Rows:
    @pytest.mark.parametrize("name", sorted(ROW_SHAPES))
    def test_row_has_the_paper_shape(self, table2, name):
        saving_low, saving_high, delay_low, delay_high = ROW_SHAPES[name]
        row = table2[name]
        assert saving_low < row.energy_saving_pct < saving_high
        assert delay_low < row.average_delay_overhead_pct < delay_high

    def test_mean_error_against_the_paper(self, table2):
        # The overall figure is perfbench's table2_err_pp on the same rows.
        *_, error_row, overall = render_comparison(list(table2.values())).splitlines()
        assert error_row.startswith("mean |error| (pp)")
        assert re.findall(r"\d+\.\d+", error_row) == ["3.23", "39.19", "34.19"]
        assert overall == "overall mean |error|: 25.53 pp"


class TestSingleIpShape:
    def test_a1_saves_energy_at_small_delay(self, a1):
        assert 25.0 < a1.energy_saving_pct < 60.0
        assert a1.average_delay_overhead_pct < 80.0
        assert a1.temperature_reduction_pct > 10.0

    def test_a2_trades_delay_for_bigger_saving(self, a1, a2):
        assert a2.energy_saving_pct > a1.energy_saving_pct + 10.0
        assert a2.average_delay_overhead_pct > 250.0
        assert a2.average_delay_overhead_pct > 5 * a1.average_delay_overhead_pct

    def test_a3_behaves_like_a1_for_energy_and_delay(self, a1, a3):
        assert abs(a3.energy_saving_pct - a1.energy_saving_pct) < 15.0
        assert a3.average_delay_overhead_pct < 120.0

    def test_a3_smaller_temperature_margin_than_a1(self, a1, a3):
        assert a3.temperature_reduction_pct <= a1.temperature_reduction_pct + 5.0

    def test_all_rows_positive_savings(self, a1, a2, a3):
        for row in (a1, a2, a3):
            assert row.energy_saving_pct > 0.0
            assert row.temperature_reduction_pct > 0.0


class TestMultiIpShape:
    def test_b_has_largest_saving(self, a1, b_row):
        assert b_row.energy_saving_pct > a1.energy_saving_pct
        assert b_row.energy_saving_pct > 50.0

    def test_b_delay_is_large_but_bounded(self, b_row):
        assert 150.0 < b_row.average_delay_overhead_pct < 600.0

    def test_gem_rows_save_more_than_single_ip(self, table2):
        a1, b_row, c_row = table2["A1"], table2["B"], table2["C"]
        assert c_row.energy_saving_pct > a1.energy_saving_pct
        assert abs(b_row.energy_saving_pct - c_row.energy_saving_pct) < 15.0

    def test_b_all_ips_completed(self, b_row):
        assert b_row.tasks_executed == sum(
            int(stats["tasks"]) for stats in b_row.per_ip.values()
        )
        assert len(b_row.per_ip) == 4
        assert all(stats["tasks"] > 0 for stats in b_row.per_ip.values())


class TestThermalControl:
    def test_dpm_keeps_peak_temperature_below_baseline(self):
        scenario = "A3"
        dpm_run = run_scenario(scenario, DpmSetup.paper())
        baseline_run = run_scenario(scenario, DpmSetup.always_on())
        assert dpm_run.peak_temperature_c < baseline_run.peak_temperature_c

    def test_baseline_crosses_high_threshold_dpm_does_not(self):
        scenario = "A3"
        dpm_run = run_scenario(scenario, DpmSetup.paper())
        baseline_run = run_scenario(scenario, DpmSetup.always_on())
        threshold = dpm_run.soc.thermal.config.thresholds.high_c
        assert baseline_run.peak_temperature_c > threshold - 2.0
        assert dpm_run.peak_temperature_c < baseline_run.peak_temperature_c


class TestPolicyOrdering:
    def test_oracle_never_worse_than_greedy_on_energy(self):
        scenario = single_ip_platform("policy-order", "full", "low", task_count=16)
        oracle = run_comparison(scenario, dpm=DpmSetup.oracle())
        greedy = run_comparison(scenario, dpm=DpmSetup.greedy_sleep())
        # Both sleep aggressively; the oracle avoids mispredicted shutdowns so
        # it must not consume more energy (small tolerance for bookkeeping).
        assert oracle.dpm_energy_j <= greedy.dpm_energy_j * 1.05

    def test_paper_policy_saves_more_than_greedy_under_low_battery(self):
        scenario = single_ip_platform("policy-low-batt", "low", "low", task_count=16)
        paper = run_comparison(scenario, dpm=DpmSetup.paper())
        greedy = run_comparison(scenario, dpm=DpmSetup.greedy_sleep())
        # The paper's policy additionally slows execution down (DVFS), which
        # the pure shutdown policy cannot do.
        assert paper.energy_saving_pct > greedy.energy_saving_pct

    def test_always_on_baseline_runs_only_on1(self):
        scenario = single_ip_platform("baseline-check", "low", "high", task_count=12)
        run = run_scenario(scenario, DpmSetup.always_on())
        for execution in run.executions:
            assert execution.power_state is PowerState.ON1
        psm = run.soc.instances[0].psm
        assert psm.transition_count == 0
