"""Tests for the markdown exporter."""

import pytest

from repro.analysis import (
    ScenarioMetrics,
    markdown_per_ip,
    markdown_report,
    markdown_speed,
    markdown_table2,
)


def make_metrics(name="A1", with_per_ip=True):
    per_ip = (
        {
            "ip1": {"tasks": 10.0, "energy_j": 0.005, "mean_delay_overhead_pct": 25.0, "transitions": 12.0},
            "ip2": {"tasks": 8.0, "energy_j": 0.003, "mean_delay_overhead_pct": 80.0, "transitions": 9.0},
        }
        if with_per_ip
        else {}
    )
    return ScenarioMetrics(
        scenario=name,
        energy_saving_pct=41.2,
        temperature_reduction_pct=35.7,
        average_delay_overhead_pct=33.1,
        per_ip=per_ip,
    )


class TestMarkdownTables:
    def test_table2_contains_paper_and_measured(self):
        text = markdown_table2([make_metrics("A1")])
        assert "| A1 |" in text
        assert "| 39 |" in text  # paper value
        assert "| 41 |" in text  # measured value
        assert text.startswith("| Scenario |")

    def test_table2_unknown_scenario_uses_dash(self):
        text = markdown_table2([make_metrics("Z9")])
        assert "| - |" in text

    def test_per_ip_rows(self):
        text = markdown_per_ip([make_metrics()])
        assert "| A1 | ip1 | 10 | 5.00 | 25 | 12 |" in text
        assert "ip2" in text

    def test_speed_table(self):
        text = markdown_speed({"A1": 1234.5, "B": 321.0})
        assert "| A1 | 35.0 | 1234.5 |" in text
        assert "| B | 7.5 | 321.0 |" in text

    def test_full_report_sections(self):
        text = markdown_report([make_metrics()], speeds={"A1": 100.0}, title="My report")
        assert text.startswith("# My report")
        assert "## Table 2" in text
        assert "## Per-IP breakdown" in text
        assert "## Simulation speed" in text

    def test_report_without_per_ip_or_speed(self):
        text = markdown_report([make_metrics(with_per_ip=False)])
        assert "Per-IP breakdown" not in text
        assert "Simulation speed" not in text

    def test_markdown_is_well_formed(self):
        text = markdown_table2([make_metrics("A1"), make_metrics("A2")])
        lines = text.splitlines()
        column_count = lines[0].count("|")
        assert all(line.count("|") == column_count for line in lines)


class TestCliReportCommand:
    def test_report_to_file(self, tmp_path):
        from repro.cli import main

        output = tmp_path / "report.md"
        assert main(["report", "A1", "-o", str(output)]) == 0
        content = output.read_text()
        assert "# Reproduction report" in content
        assert "| A1 |" in content

    def test_report_with_speed_runs_each_scenario_once(self, tmp_path, monkeypatch):
        from repro.cli import main
        from repro.experiments import runner

        calls = []
        original = runner._run

        def counted_run(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        # Every run, whether reached through run_scenario, run_baseline or
        # run_comparison, goes through the runner's one private body.
        monkeypatch.setattr(runner, "_run", counted_run)
        output = tmp_path / "report.md"
        assert main(["report", "A1", "B", "--with-speed", "-o", str(output)]) == 0
        assert len(calls) == 4  # one DPM and one baseline run per row
        content = output.read_text()
        assert "## Simulation speed" in content
        assert "| A1 | 35.0 |" in content and "| B | 7.5 |" in content

    def test_report_to_stdout(self, capsys):
        from repro.cli import main

        assert main(["report", "A1"]) == 0
        assert "Table 2" in capsys.readouterr().out
