"""Tests for the metrics, trace analysis and report rendering."""

import pytest
from hypothesis import given, strategies as st

from repro.analysis import (
    PAPER_TABLE2,
    ScenarioMetrics,
    average_delay_overhead,
    compare_runs,
    energy_saving,
    format_table,
    psm_residency,
    render_comparison,
    temperature_reduction,
    transition_summary,
)
from repro.errors import ExperimentError
from repro.power import (
    EnergyAccount,
    PowerState,
    PowerStateMachine,
    default_characterization,
    default_transition_table,
)
from repro.sim import Simulator, ms, us, ZERO_TIME
from repro.soc import Task, TaskExecution


def make_execution(latency_us, reference_us, energy=1.0, reference_energy=2.0):
    return TaskExecution(
        task=Task("t", 1000),
        ip_name="ip0",
        request_time=ZERO_TIME,
        grant_time=ZERO_TIME,
        completion_time=us(latency_us),
        reference_duration=us(reference_us),
        energy_j=energy,
        reference_energy_j=reference_energy,
    )


class TestMetricFunctions:
    def test_energy_saving(self):
        assert energy_saving(10.0, 6.0) == pytest.approx(0.4)
        assert energy_saving(10.0, 10.0) == 0.0
        assert energy_saving(10.0, 12.0) == pytest.approx(-0.2)
        with pytest.raises(ExperimentError):
            energy_saving(0.0, 1.0)
        with pytest.raises(ExperimentError):
            energy_saving(1.0, -1.0)

    def test_temperature_reduction(self):
        assert temperature_reduction(10.0, 7.0) == pytest.approx(0.3)
        assert temperature_reduction(0.0, 0.0) == 0.0
        with pytest.raises(ExperimentError):
            temperature_reduction(-1.0, 0.0)

    def test_average_delay_overhead(self):
        executions = [make_execution(130, 100), make_execution(100, 100), make_execution(400, 100)]
        assert average_delay_overhead(executions) == pytest.approx((0.3 + 0.0 + 3.0) / 3)
        with pytest.raises(ExperimentError):
            average_delay_overhead([])

    def test_compare_runs_builds_percentages(self):
        executions = [make_execution(200, 100)]
        metrics = compare_runs(
            scenario="X",
            dpm_energy_j=6.0,
            baseline_energy_j=10.0,
            dpm_rise_c=7.0,
            baseline_rise_c=10.0,
            dpm_executions=executions,
            simulated_time_s=0.5,
            kilocycles_per_second=123.0,
        )
        assert metrics.energy_saving_pct == pytest.approx(40.0)
        assert metrics.temperature_reduction_pct == pytest.approx(30.0)
        assert metrics.average_delay_overhead_pct == pytest.approx(100.0)
        assert metrics.tasks_executed == 1
        data = metrics.as_dict()
        assert data["scenario"] == "X"
        assert data["kilocycles_per_second"] == pytest.approx(123.0)

    @given(
        baseline=st.floats(min_value=1e-6, max_value=1e3),
        fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_energy_saving_bounded(self, baseline, fraction):
        saving = energy_saving(baseline, baseline * fraction)
        assert 0.0 <= saving <= 1.0


class TestTraceAnalysis:
    def build_psm(self):
        sim = Simulator()
        account = EnergyAccount("ip0")
        psm = PowerStateMachine(
            sim.kernel,
            "psm",
            default_characterization(),
            default_transition_table(),
            account,
        )
        sim.add_module(psm)
        return sim, psm, account

    def test_residency_fractions(self):
        sim, psm, _ = self.build_psm()

        def driver():
            yield ms(4)
            psm.request_state(PowerState.SL2)
            yield from psm.wait_for_state(PowerState.SL2)
            yield ms(4)

        sim.kernel.create_thread(driver, "driver")
        sim.kernel.run(ms(20))
        psm.flush_energy()
        residency = psm_residency(psm)
        assert residency.total.femtoseconds > 0
        assert 0.0 < residency.fraction(PowerState.ON1) < 1.0
        assert residency.sleep_fraction() > 0.0
        on_fraction = sum(residency.fraction(state) for state in residency.by_state if state.is_on)
        assert on_fraction + residency.sleep_fraction() == pytest.approx(1.0)
        assert residency.dominant_state() in (PowerState.ON1, PowerState.SL2)
        assert set(residency.as_dict()) >= {"ON1", "SL2"}

    def test_transition_summary_aggregates(self):
        sim, psm, _ = self.build_psm()

        def driver():
            psm.request_state(PowerState.ON3)
            yield from psm.wait_for_state(PowerState.ON3)
            psm.request_state(PowerState.ON1)
            yield from psm.wait_for_state(PowerState.ON1)

        sim.kernel.create_thread(driver, "driver")
        sim.kernel.run(ms(5))
        summary = transition_summary([psm])
        assert summary["ON1->ON3"] == 1
        assert summary["ON3->ON1"] == 1


class TestReportRendering:
    def make_metrics(self, name="A1"):
        return ScenarioMetrics(
            scenario=name,
            energy_saving_pct=40.0,
            temperature_reduction_pct=30.0,
            average_delay_overhead_pct=33.0,
        )

    def test_format_table_alignment(self):
        text = format_table(["a", "bbb"], [["1", "2"], ["333", "4"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bbb" in lines[1]
        assert len(lines) == 5

    def test_format_table_validates_rows(self):
        with pytest.raises(ValueError):
            format_table(["a"], [["1", "2"]])

    def test_render_comparison_includes_paper_values(self):
        text = render_comparison([self.make_metrics("A1")])
        assert "39" in text  # paper's A1 energy saving
        assert "40" in text  # ours

    def test_render_comparison_unknown_scenario(self):
        text = render_comparison([self.make_metrics("Z9")])
        assert "-" in text

    def test_paper_table2_shape(self):
        assert set(PAPER_TABLE2) == {"A1", "A2", "A3", "A4", "B", "C"}
        for row in PAPER_TABLE2.values():
            assert set(row) == {
                "energy_saving_pct",
                "temperature_reduction_pct",
                "average_delay_overhead_pct",
            }
