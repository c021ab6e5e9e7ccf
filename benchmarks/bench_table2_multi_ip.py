"""Reproduction of Table 2, rows B and C (GEM + four IPs).

Scenario B: IP1/IP2 (highest static priorities) have high activity, IP3/IP4
low activity; scenario C swaps the activity.  Both run with battery Low and
temperature Low, so the GEM is in its "enable IPs with high priority" branch
for the whole run.
"""

from __future__ import annotations

import pytest

from conftest import attach_row
from repro.experiments import run_comparison


def run_row(name):
    return run_comparison(name)


@pytest.mark.benchmark(group="table2-multi-ip")
def test_table2_row_b(benchmark, report_row):
    """B: GEM + 4 IPs, busy high-priority IPs (paper: 65 % / 19 % / 242 %)."""
    metrics = benchmark.pedantic(run_row, args=("B",), rounds=1, iterations=1)
    attach_row(benchmark, metrics)
    report_row(metrics)
    assert metrics.energy_saving_pct > 50.0
    assert 150.0 < metrics.average_delay_overhead_pct < 600.0
    assert len(metrics.per_ip) == 4
    assert all(stats["tasks"] > 0 for stats in metrics.per_ip.values())


@pytest.mark.benchmark(group="table2-multi-ip")
def test_table2_row_c(benchmark, report_row):
    """C: GEM + 4 IPs, busy low-priority IPs (paper: 64 % / 18 % / 253 %)."""
    metrics = benchmark.pedantic(run_row, args=("C",), rounds=1, iterations=1)
    attach_row(benchmark, metrics)
    report_row(metrics)
    assert metrics.energy_saving_pct > 50.0
    assert 150.0 < metrics.average_delay_overhead_pct < 600.0


@pytest.mark.benchmark(group="table2-multi-ip")
def test_table2_gem_rows_save_more_than_single_ip(benchmark, report_row):
    """B/C reach the largest savings of Table 2 (they combine GEM gating,
    low-battery DVFS and four sleeping IPs)."""

    def rows():
        return run_row("A1"), run_row("B"), run_row("C")

    a1, b, c = benchmark.pedantic(rows, rounds=1, iterations=1)
    for metrics in (b, c):
        report_row(metrics)
        assert metrics.energy_saving_pct > a1.energy_saving_pct
    assert abs(b.energy_saving_pct - c.energy_saving_pct) < 15.0
