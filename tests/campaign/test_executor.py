"""Tests for campaign execution: pool fan-out, failure capture, resume."""

import pytest

from repro.campaign import (
    CampaignSpec,
    ResultStore,
    aggregate_records,
    campaign_status,
    execute_job,
    record_metrics,
    render_campaign_report,
    run_campaign,
)
from repro.errors import CampaignError


def small_spec(**extra):
    data = {
        "name": "test-grid",
        "scenarios": [
            {"kind": "single_ip", "name": "s1", "battery": "low",
             "temperature": "low", "task_count": 6},
        ],
        "setups": ["paper", "always-on"],
        "seeds": [1, 2],
    }
    data.update(extra)
    return CampaignSpec.from_dict(data)


class TestExecuteJob:
    def test_ok_record(self):
        job = small_spec().jobs()[0]
        record = execute_job(job.to_dict())
        assert record["status"] == "ok"
        assert record["job_id"] == job.job_id
        assert record["metrics"]["tasks_executed"] == 6
        assert record["per_ip"]
        assert record["wall_clock_s"] > 0.0

    def test_failure_is_captured_not_raised(self):
        # 1 ms of simulated time is not enough to drain the workload, which
        # the runner reports as an ExperimentError.
        spec = small_spec(overrides=[{"max_time_ms": 1}])
        record = execute_job(spec.jobs()[0].to_dict())
        assert record["status"] == "error"
        assert record["error"]["type"] == "ExperimentError"
        assert "traceback" in record["error"]

    def test_unexpected_exception_is_captured_too(self, monkeypatch):
        # The 'never raises' contract must hold for arbitrary bugs, not just
        # ReproError — one bad grid cell must not kill the worker pool.
        import repro.experiments.runner as runner

        def boom(*_args, **_kwargs):
            raise AttributeError("simulated internal bug")

        monkeypatch.setattr(runner, "run_comparison", boom)
        record = execute_job(small_spec().jobs()[0].to_dict())
        assert record["status"] == "error"
        assert record["error"]["type"] == "AttributeError"

    def test_determinism_across_invocations(self):
        job = small_spec().jobs()[0].to_dict()
        first = execute_job(job)
        second = execute_job(job)
        assert first["metrics"]["energy_saving_pct"] == \
            second["metrics"]["energy_saving_pct"]
        assert first["metrics"]["dpm_energy_j"] == second["metrics"]["dpm_energy_j"]


class TestRunCampaign:
    def test_serial_run_persists_every_job(self, tmp_path):
        spec = small_spec()
        summary = run_campaign(spec, tmp_path / "camp", workers=1)
        assert summary.total_jobs == 4
        assert summary.executed == 4
        assert summary.ok == 4
        store = ResultStore(tmp_path / "camp")
        assert store.job_ids(status="ok") == {job.job_id for job in spec.jobs()}
        assert store.read_manifest()["name"] == "test-grid"

    def test_parallel_matches_serial(self, tmp_path):
        spec = small_spec()
        serial = run_campaign(spec, tmp_path / "serial", workers=1)
        parallel = run_campaign(spec, tmp_path / "parallel", workers=2)
        assert parallel.executed == serial.executed == 4
        assert parallel.ok == parallel.total_jobs
        key = lambda r: r["job_id"]
        for left, right in zip(sorted(serial.records, key=key),
                               sorted(parallel.records, key=key)):
            assert left["job_id"] == right["job_id"]
            assert left["metrics"]["energy_saving_pct"] == \
                right["metrics"]["energy_saving_pct"]

    def test_resume_executes_nothing_and_reproduces_metrics(self, tmp_path):
        spec = small_spec()
        first = run_campaign(spec, tmp_path / "camp", workers=1)
        again = run_campaign(spec, tmp_path / "camp", workers=2, resume=True)
        assert again.executed == 0
        assert again.skipped == 4
        assert aggregate_rows(first) == aggregate_rows(again)

    def test_resume_after_interruption_runs_only_missing_jobs(self, tmp_path):
        spec = small_spec()
        run_campaign(spec, tmp_path / "camp", workers=1)
        store = ResultStore(tmp_path / "camp")
        # Simulate an interrupted campaign: half the records never landed.
        victims = sorted(store.job_ids())[:2]
        for job_id in victims:
            (store.records_dir / f"{job_id}.json").unlink()
        status = campaign_status(store)
        assert status["counts"]["missing"] == 2
        resumed = run_campaign(spec, tmp_path / "camp", workers=1, resume=True)
        assert resumed.executed == 2
        assert resumed.skipped == 2
        assert {r["job_id"] for r in resumed.records if r["job_id"] in victims} == set(victims)
        assert campaign_status(store)["counts"]["missing"] == 0

    def test_corrupt_record_is_reported_and_rerun_on_resume(self, tmp_path, capsys):
        from repro.cli import main

        spec = small_spec()
        run_campaign(spec, tmp_path / "camp", workers=1)
        store = ResultStore(tmp_path / "camp")
        victim = sorted(store.job_ids())[0]
        path = store.records_dir / f"{victim}.json"
        path.write_text(path.read_text()[:40])  # truncated record
        status = campaign_status(store)
        assert status["counts"]["corrupt"] == 1
        assert status["counts"]["missing"] == 0
        assert status["corrupt"] == [str(path)]
        assert main(["campaign", "status", str(tmp_path / "camp")]) == 1
        assert f"corrupt record: {path}" in capsys.readouterr().out
        resumed = run_campaign(spec, tmp_path / "camp", workers=1, resume=True)
        assert resumed.executed == 1
        assert resumed.skipped == 3
        assert campaign_status(store)["counts"]["corrupt"] == 0
        assert main(["campaign", "status", str(tmp_path / "camp")]) == 0

    def test_without_resume_everything_reruns(self, tmp_path):
        spec = small_spec()
        run_campaign(spec, tmp_path / "camp", workers=1)
        second = run_campaign(spec, tmp_path / "camp", workers=1)
        assert second.executed == 4
        assert second.skipped == 0

    def test_failed_jobs_rerun_on_resume(self, tmp_path):
        broken = small_spec(overrides=[{"max_time_ms": 1}])
        summary = run_campaign(broken, tmp_path / "camp", workers=1)
        # always-on jobs fail too (baseline never finishes either way).
        assert summary.errors == summary.executed == 4
        fixed = small_spec()  # different grid (hashes differ) -> all pending
        resumed = run_campaign(fixed, tmp_path / "camp", workers=1, resume=True)
        assert resumed.executed == 4
        assert resumed.ok == 4

    def test_job_timeout_is_captured(self, tmp_path):
        spec = small_spec(
            scenarios=["B"],  # the four-IP GEM scenario takes tens of ms
            setups=["paper"],
            seeds=[1],
        )
        summary = run_campaign(spec, tmp_path / "camp", workers=1,
                               job_timeout_s=0.005)
        assert summary.timeouts == 1
        record = ResultStore(tmp_path / "camp").records()[0]
        assert record["status"] == "timeout"
        assert "timeout" in record["error"]["message"]

    def test_alarm_swallowed_by_the_job_still_times_out(self):
        # The alarm can fire inside a context that swallows the exception
        # (a GC callback, a __del__); the job then finishes, but it still
        # overran its budget.
        import time

        from repro.campaign.executor import _JobTimeout, _run_with_timeout

        def job():
            try:
                time.sleep(0.05)
            except _JobTimeout:
                pass
            return "finished"

        with pytest.raises(_JobTimeout):
            _run_with_timeout(job, 0.005)
        assert _run_with_timeout(job, 5.0) == "finished"

    def test_invalid_worker_count_rejected(self, tmp_path):
        with pytest.raises(CampaignError):
            run_campaign(small_spec(), tmp_path, workers=0)

    def test_progress_callback_sees_every_executed_job(self, tmp_path):
        seen = []
        run_campaign(small_spec(), tmp_path / "camp", workers=1,
                     progress=seen.append)
        assert len(seen) == 4
        assert all(record["status"] == "ok" for record in seen)


def aggregate_rows(summary):
    return [
        (row.scenario, round(row.energy_saving_pct, 9),
         round(row.average_delay_overhead_pct, 9))
        for row in aggregate_records(summary.records)
    ]


class TestAggregation:
    def test_record_metrics_round_trip(self, tmp_path):
        summary = run_campaign(small_spec(), tmp_path / "camp", workers=1)
        record = summary.records[0]
        metrics = record_metrics(record)
        assert metrics.energy_saving_pct == record["metrics"]["energy_saving_pct"]
        assert metrics.per_ip  # per-IP breakdown survives the store

    def test_record_metrics_rejects_failures(self):
        with pytest.raises(CampaignError):
            record_metrics({"job_id": "x", "status": "error"})

    def test_aggregate_means_over_seeds(self, tmp_path):
        summary = run_campaign(small_spec(), tmp_path / "camp", workers=1)
        rows = aggregate_records(summary.records)
        # one row per (scenario, setup) pair
        assert [row.scenario for row in rows] == ["s1/always-on", "s1/paper"]
        for row in rows:
            assert row.extra["jobs"] == 2.0
        by_setup = {r["setup"]: [] for r in summary.records}
        for record in summary.records:
            by_setup[record["setup"]].append(record["metrics"]["energy_saving_pct"])
        expected = sum(by_setup["paper"]) / len(by_setup["paper"])
        paper_row = [row for row in rows if row.scenario.endswith("/paper")][0]
        assert paper_row.energy_saving_pct == pytest.approx(expected)

    def test_report_renders_jobs_failures_and_aggregate(self, tmp_path):
        spec = small_spec()
        summary = run_campaign(spec, tmp_path / "camp", workers=1)
        failing = {"job_id": "dead", "status": "error", "label": "s1/broken",
                   "error": {"message": "boom"}}
        text = render_campaign_report(summary.records + [failing])
        assert "per job" in text
        assert "aggregate" in text
        assert "s1/paper/seed=1" in text
        assert "Failures" in text
        assert "boom" in text


#: ScenarioMetrics keys that vary run to run (host timing), excluded when
#: comparing shared-baseline results against standalone ones.
_VOLATILE_METRICS = ("wall_clock_s", "kilocycles_per_second")


def _stable_metrics(record):
    return {k: v for k, v in record["metrics"].items() if k not in _VOLATILE_METRICS}


class TestSharedBaselines:
    def test_baseline_runs_once_per_scenario_cell(self, tmp_path):
        # 2 setups x 2 seeds over one scenario: 4 jobs but only 2 distinct
        # (scenario, baseline, seed, accuracy) cells.
        summary = run_campaign(small_spec(), tmp_path / "camp", workers=1)
        assert summary.total_jobs == 4
        assert summary.baseline_runs == 2
        assert summary.baseline_reused == 0
        store = ResultStore(tmp_path / "camp")
        assert len(store.baseline_keys()) == 2

    def test_shared_baseline_metrics_identical_to_standalone(self, tmp_path):
        spec = small_spec()
        summary = run_campaign(spec, tmp_path / "camp", workers=1)
        store = ResultStore(tmp_path / "camp")
        for job in spec.jobs():
            standalone = execute_job(job.to_dict())
            stored = store.get(job.job_id)
            assert _stable_metrics(standalone) == _stable_metrics(stored)

    def test_resume_reuses_stored_baselines(self, tmp_path):
        spec = small_spec()
        run_campaign(spec, tmp_path / "camp", workers=1)
        # Drop one job record: the resume must re-run only that job and take
        # its baseline from the store instead of re-simulating it.
        store = ResultStore(tmp_path / "camp")
        victim = spec.jobs()[0]
        (store.records_dir / f"{victim.job_id}.json").unlink()
        summary = run_campaign(spec, tmp_path / "camp", workers=1, resume=True)
        assert summary.executed == 1
        assert summary.baseline_runs == 0
        assert summary.baseline_reused >= 1

    def test_baseline_key_ignores_dpm_setup(self):
        jobs = small_spec().jobs()
        by_cell = {}
        for job in jobs:
            by_cell.setdefault((job.scenario["name"], job.seed), set()).add(job.baseline_key)
        for keys in by_cell.values():
            assert len(keys) == 1  # setups share the cell's baseline

    def test_pool_workers_share_baselines(self, tmp_path):
        summary = run_campaign(small_spec(), tmp_path / "camp", workers=2)
        assert summary.ok == 4
        assert summary.baseline_runs == 2


class TestCampaignAccuracy:
    def test_accuracy_default_keeps_job_ids_stable(self):
        # Pre-accuracy job descriptions must hash identically, so existing
        # stores keep working with --resume.
        job = small_spec().jobs()[0]
        assert "accuracy" not in job.to_dict()

    def test_fast_jobs_hash_differently_and_carry_the_mode(self, tmp_path):
        exact_spec = small_spec()
        fast_spec = small_spec(accuracy="fast")
        assert fast_spec.jobs()[0].job_id != exact_spec.jobs()[0].job_id
        summary = run_campaign(fast_spec, tmp_path / "camp", workers=1)
        assert summary.ok == 4
        record = summary.records[0]
        assert record["accuracy"] == "fast"
        assert record["job"]["accuracy"] == "fast"

    def test_fast_campaign_matches_exact_within_tolerance(self, tmp_path):
        exact = run_campaign(small_spec(), tmp_path / "e", workers=1)
        fast = run_campaign(small_spec(accuracy="fast"), tmp_path / "f", workers=1)
        by_label_exact = {r["label"]: r for r in exact.records}
        for record in fast.records:
            reference = by_label_exact[record["label"]]
            for key in ("dpm_energy_j", "baseline_energy_j"):
                a = reference["metrics"][key]
                b = record["metrics"][key]
                assert abs(a - b) <= 1e-9 * max(abs(a), abs(b))
            assert record["metrics"]["tasks_executed"] == reference["metrics"]["tasks_executed"]

    def test_unknown_accuracy_rejected(self):
        with pytest.raises(CampaignError):
            small_spec(accuracy="sloppy")


class TestPreflight:
    """Reach-lint preflight over a campaign's platform scenarios."""

    def platform_grid(self, scenario):
        return CampaignSpec.from_dict({
            "name": "preflight-grid",
            "scenarios": [scenario],
            "setups": ["paper"],
            "seeds": [1],
        })

    def bad_platform(self):
        # Covers only a sliver of the context space: RULES-UNCOVERED at
        # error severity even after the trajectory envelope sharpens it
        # (medium/low battery is reachable on the default battery).
        return {
            "format": "repro-platform/1",
            "name": "bad-rules",
            "ips": [{"name": "cpu", "workload": {
                "kind": "periodic", "task_count": 4,
                "cycles": 10_000, "idle_us": 200.0,
            }}],
            "policy": {"name": "paper", "rules": [
                {"state": "ON1", "priorities": ["high"]},
            ]},
            "battery": {"state_of_charge": 0.4, "capacity_j": 50.0},
        }

    def test_clean_platform_passes_with_summary_line(self):
        from repro.campaign import preflight_campaign

        lines = preflight_campaign(self.platform_grid("iot-duty-cycle"))
        assert len(lines) == 1
        assert lines[0].startswith("preflight ok: iot-duty-cycle")

    def test_paper_row_scenarios_are_not_preflighted(self):
        from repro.campaign import preflight_campaign

        # A1 normalizes to a single_ip grid cell, not a platform spec.
        assert preflight_campaign(self.platform_grid("A1")) == []

    def test_error_findings_fail_fast(self, tmp_path):
        from repro.campaign import preflight_campaign

        spec = self.platform_grid({"kind": "platform", "spec": self.bad_platform()})
        with pytest.raises(CampaignError, match="preflight.*bad-rules"):
            preflight_campaign(spec)
        # run_campaign applies the same gate before executing anything.
        with pytest.raises(CampaignError, match="preflight"):
            run_campaign(spec, tmp_path / "camp", workers=1)
        assert not (tmp_path / "camp").exists() or not any(
            (tmp_path / "camp").rglob("*.json")
        )

    def test_unbuildable_power_model_fails_fast(self):
        from repro.campaign import preflight_campaign

        platform = {
            "format": "repro-platform/1",
            "name": "no-sl3",
            "ips": [{
                "name": "cpu", "workload": {"kind": "periodic", "task_count": 2},
                "psm": {"transitions": [
                    {"source": "ON1", "target": "SL3", "allowed": False},
                ]},
            }],
        }
        spec = self.platform_grid({"kind": "platform", "spec": platform})
        with pytest.raises(CampaignError, match="no-sl3.*PSM-UNBUILDABLE"):
            preflight_campaign(spec)

    def test_preflight_can_be_disabled(self, tmp_path):
        spec = self.platform_grid({"kind": "platform", "spec": self.bad_platform()})
        summary = run_campaign(spec, tmp_path / "camp", workers=1, preflight=False)
        assert summary.ok == 1

    def test_duplicate_platforms_checked_once(self):
        from repro.campaign import preflight_campaign

        spec = CampaignSpec.from_dict({
            "name": "dupes",
            "scenarios": ["iot-duty-cycle", "iot-duty-cycle"],
            "setups": ["paper"],
            "seeds": [1, 2],
        })
        assert len(preflight_campaign(spec)) == 1
