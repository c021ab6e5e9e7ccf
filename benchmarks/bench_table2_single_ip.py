"""Reproduction of Table 2, rows A1-A4 (single IP, LEM and PSM, no GEM).

Each benchmark runs the scenario twice (paper DPM and always-on baseline) and
reports energy saving, temperature reduction and average delay overhead.  The
asserted bounds encode the *shape* of the paper's results, not the exact
percentages (our substrate is an abstract simulator, not the authors'
SystemC models).
"""

from __future__ import annotations

import pytest

from conftest import attach_row
from repro.experiments import run_comparison


def run_row(name):
    return run_comparison(name)


@pytest.mark.benchmark(group="table2-single-ip")
def test_table2_row_a1(benchmark, report_row):
    """A1: battery Full, temperature Low (paper: 39 % / 31 % / 30 %)."""
    metrics = benchmark.pedantic(run_row, args=("A1",), rounds=1, iterations=1)
    attach_row(benchmark, metrics)
    report_row(metrics)
    assert 25.0 < metrics.energy_saving_pct < 60.0
    assert metrics.average_delay_overhead_pct < 80.0
    assert metrics.temperature_reduction_pct > 10.0


@pytest.mark.benchmark(group="table2-single-ip")
def test_table2_row_a2(benchmark, report_row):
    """A2: battery Low, temperature Low (paper: 55 % / 21 % / 339 %)."""
    metrics = benchmark.pedantic(run_row, args=("A2",), rounds=1, iterations=1)
    attach_row(benchmark, metrics)
    report_row(metrics)
    assert metrics.energy_saving_pct > 45.0
    assert 250.0 < metrics.average_delay_overhead_pct < 450.0


@pytest.mark.benchmark(group="table2-single-ip")
def test_table2_row_a3(benchmark, report_row):
    """A3: battery Full, temperature High (paper: 39 % / 18 % / 37 %)."""
    metrics = benchmark.pedantic(run_row, args=("A3",), rounds=1, iterations=1)
    attach_row(benchmark, metrics)
    report_row(metrics)
    assert 25.0 < metrics.energy_saving_pct < 60.0
    assert metrics.average_delay_overhead_pct < 120.0


@pytest.mark.benchmark(group="table2-single-ip")
def test_table2_row_a4(benchmark, report_row):
    """A4: battery Low, temperature High (paper: 55 % / 18 % / 339 %)."""
    metrics = benchmark.pedantic(run_row, args=("A4",), rounds=1, iterations=1)
    attach_row(benchmark, metrics)
    report_row(metrics)
    assert metrics.energy_saving_pct > 45.0
    assert 250.0 < metrics.average_delay_overhead_pct < 450.0


@pytest.mark.benchmark(group="table2-single-ip")
def test_table2_low_battery_tradeoff(benchmark, report_row):
    """The headline trade-off of rows A1 vs A2: more saving, much more delay."""

    def both_rows():
        return run_row("A1"), run_row("A2")

    a1, a2 = benchmark.pedantic(both_rows, rounds=1, iterations=1)
    report_row(a1)
    report_row(a2)
    assert a2.energy_saving_pct > a1.energy_saving_pct + 10.0
    assert a2.average_delay_overhead_pct > 5.0 * a1.average_delay_overhead_pct
