"""Tests for campaign execution: pool fan-out, failure capture, resume."""

import signal

import pytest

from repro.campaign import (
    CampaignSpec,
    ResultStore,
    aggregate_records,
    campaign_status,
    record_metrics,
    render_campaign_report,
    run_campaign,
)
from repro.campaign import executor
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


def run_alone(job, baseline_figures=None):
    """The record of one job run as a one-job cell task with no baseline."""
    return executor.execute_cell((None, [(job.to_dict(), None)], None, baseline_figures))[1][0]


class TestExecuteJob:
    def test_ok_record(self):
        job = small_spec().jobs()[0]
        record = run_alone(job)
        assert record["status"] == "ok"
        assert record["job_id"] == job.job_id
        assert record["metrics"]["tasks_executed"] == 6
        assert record["per_ip"]
        assert record["wall_clock_s"] > 0.0

    def test_failure_is_captured_not_raised(self):
        # 1 ms of simulated time is not enough to drain the workload, which
        # the runner reports as an ExperimentError.
        spec = small_spec(overrides=[{"max_time_ms": 1}])
        record = run_alone(spec.jobs()[0])
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
        record = run_alone(small_spec().jobs()[0])
        assert record["status"] == "error"
        assert record["error"]["type"] == "AttributeError"

    def test_determinism_across_invocations(self):
        job = small_spec().jobs()[0]
        first = run_alone(job)
        second = run_alone(job)
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
            standalone = run_alone(job)
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

    def test_pool_workers_leave_ctrl_c_to_the_parent(self):
        # The parent's KeyboardInterrupt terminates the pool; a worker that
        # took SIGINT itself would print a traceback per busy process.
        with executor._worker_pool(1) as pool:
            assert pool.apply(signal.getsignal, (signal.SIGINT,)) is signal.SIG_IGN


class TestCellTasks:
    """A cell (the jobs sharing one baseline) is one unit of pool work."""

    def test_cell_records_share_a_worker(self, tmp_path):
        # One scenario x two setups x four seeds: four cells of two jobs
        # pack evenly onto two workers, so every cell is one task.
        spec = small_spec(seeds=[1, 2, 3, 4])
        summary = run_campaign(spec, tmp_path / "camp", workers=2)
        assert summary.ok == 8
        assert summary.baseline_runs == 4
        store = ResultStore(tmp_path / "camp")
        pids = {}
        for record in summary.records:
            pids.setdefault(record["job"]["seed"], set()).add(record["worker_pid"])
        for job in spec.jobs():
            baseline = store.get_baseline(job.baseline_key)
            pids[job.seed].add(baseline["worker_pid"])
        assert len(pids) == 4
        assert all(len(cell_pids) == 1 for cell_pids in pids.values())

    def test_one_cell_pooled_matches_in_process(self, tmp_path):
        spec = small_spec(setups=["paper", "greedy-sleep", "always-on"], seeds=[1])
        serial = run_campaign(spec, tmp_path / "serial", workers=1)
        pooled = run_campaign(spec, tmp_path / "pooled", workers=2)
        assert pooled.baseline_runs == serial.baseline_runs == 1
        assert pooled.ok == serial.ok == 3

        def stable(record):
            view = {k: v for k, v in record.items() if k not in ("worker_pid", "wall_clock_s")}
            view["metrics"] = _stable_metrics(record)
            return view

        assert [stable(r) for r in pooled.records] == [stable(r) for r in serial.records]

    def counted_resolves(self, monkeypatch):
        calls = []
        build = executor.build_scenario

        def counted(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(executor, "build_scenario", counted)
        return calls

    def test_a_cell_resolves_its_scenario_once(self, monkeypatch):
        jobs = small_spec(setups=["paper", "greedy-sleep"], seeds=[1]).jobs()
        assert len({job.baseline_key for job in jobs}) == 1
        calls = self.counted_resolves(monkeypatch)
        cell = (jobs[0].to_dict(), [(job.to_dict(), None) for job in jobs], None, None)
        baseline, records = executor.execute_cell(cell)
        assert len(calls) == 1
        # The same records as resolving once per run, apart from host timings.
        calls.clear()
        one_by_one, _ = executor.execute_cell((jobs[0].to_dict(), [], None, None))
        alone = [run_alone(job, one_by_one["figures"]) for job in jobs]
        assert len(calls) == 3

        def stable(record):
            view = {k: v for k, v in record.items() if k != "wall_clock_s"}
            if "metrics" in view:
                view["metrics"] = _stable_metrics(record)
            return view

        assert stable(baseline) == stable(one_by_one)
        assert [stable(r) for r in records] == [stable(r) for r in alone]
        assert all(r["status"] == "ok" for r in records)

    def test_a_scenario_that_does_not_resolve_fails_every_run_of_its_cell(self, monkeypatch):
        jobs = small_spec(setups=["paper", "greedy-sleep"], seeds=[1]).jobs()
        calls = []

        def broken(*args, **_kwargs):
            calls.append(args)
            raise CampaignError("scenario does not resolve")

        monkeypatch.setattr(executor, "build_scenario", broken)
        cell = (jobs[0].to_dict(), [(job.to_dict(), None) for job in jobs], None, None)
        baseline, records = executor.execute_cell(cell)
        assert len(calls) == 1
        assert baseline["status"] == "error"
        assert baseline["error"] == {"type": "CampaignError", "message": "scenario does not resolve"}
        assert [r["status"] for r in records] == ["error", "error"]
        assert all(r["error"]["message"] == "scenario does not resolve" for r in records)
        assert all("CampaignError" in r["error"]["traceback"] for r in records)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_timed_out_baseline_of_a_split_cell(self, tmp_path, workers):
        # The baseline times out, so every job recomputes its own and times
        # out too; at two workers the one cell runs as a baseline task, then
        # a task per job, and the campaign must still finish.
        spec = small_spec(scenarios=["B"], setups=["paper", "greedy-sleep", "always-on"],
                          seeds=[1])
        summary = run_campaign(spec, tmp_path / "camp", workers=workers, job_timeout_s=0.005)
        assert summary.baseline_runs == 1
        assert summary.executed == summary.timeouts == 3
        baseline = ResultStore(tmp_path / "camp").get_baseline(spec.jobs()[0].baseline_key)
        assert baseline["status"] == "timeout"
        assert "figures" not in baseline
        assert [record["status"] for record in summary.records] == ["timeout"] * 3
        assert all("baseline_key" not in record for record in summary.records)

    def jobs(self, scenarios, seeds):
        return small_spec(
            scenarios=[
                {"kind": "single_ip", "name": name, "battery": "low",
                 "temperature": "low", "task_count": 6}
                for name in scenarios
            ],
            setups=["paper", "greedy-sleep"],
            seeds=seeds,
        ).jobs()

    def test_plan_gives_one_task_per_cell_when_cells_pack_evenly(self):
        from repro.campaign.executor import _plan_cells

        jobs = self.jobs(["s1", "s2"], [1])
        baselines, tasks = _plan_cells(jobs, set(), workers=2)
        assert baselines == []
        assert [task.key for task in tasks] == [jobs[0].baseline_key, jobs[2].baseline_key]
        assert [task.baseline for task in tasks] == [jobs[0], jobs[2]]
        assert [task.jobs for task in tasks] == [tuple(jobs[:2]), tuple(jobs[2:])]

    def test_plan_splits_fewer_cells_than_workers(self):
        from repro.campaign.executor import _CellTask, _plan_cells

        jobs = self.jobs(["s1"], [1])
        key = jobs[0].baseline_key
        assert _plan_cells(jobs, set(), workers=4) == (
            [_CellTask(key, jobs[0], ())],
            [_CellTask(key, None, (jobs[0],)), _CellTask(key, None, (jobs[1],))],
        )

    def test_plan_splits_a_ragged_last_round(self):
        from repro.campaign.executor import _plan_cells

        # Three cells of three runs on two workers take six runs' time;
        # baselines then jobs take two plus three.
        jobs = self.jobs(["s1", "s2", "s3"], [1])
        baselines, tasks = _plan_cells(jobs, set(), workers=2)
        assert [task.baseline for task in baselines] == [jobs[0], jobs[2], jobs[4]]
        assert [task.jobs for task in tasks] == [(job,) for job in jobs]
        # Four cells fill both workers' rounds, so they stay whole.
        jobs = self.jobs(["s1", "s2", "s3", "s4"], [1])
        baselines, tasks = _plan_cells(jobs, set(), workers=2)
        assert baselines == [] and len(tasks) == 4

    def test_plan_skips_stored_baselines(self):
        from repro.campaign.executor import _CellTask, _plan_cells

        jobs = self.jobs(["s1", "s2"], [1])
        stored = {jobs[0].baseline_key}
        baselines, tasks = _plan_cells(jobs, stored, workers=1)
        assert baselines == []
        assert tasks[0] == _CellTask(jobs[0].baseline_key, None, tuple(jobs[:2]))
        assert tasks[1].baseline == jobs[2]
        few = _plan_cells(jobs[:2], stored, workers=4)
        assert few == ([], [_CellTask(jobs[0].baseline_key, None, (job,)) for job in jobs[:2]])


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

    def test_lints_each_distinct_platform_once_without_the_job_grid(self, monkeypatch):
        import repro.lint
        from repro.campaign import preflight_campaign

        linted = []
        lint_spec = repro.lint.lint_spec
        monkeypatch.setattr(
            repro.lint, "lint_spec",
            lambda platform, **kw: linted.append(platform.name) or lint_spec(platform, **kw),
        )
        monkeypatch.setattr(
            CampaignSpec, "jobs",
            lambda self: pytest.fail("preflight must not expand the job grid"),
        )
        spec = CampaignSpec.from_dict({
            "name": "platforms",
            "scenarios": ["iot-duty-cycle", "A1", "phone-bursty", "iot-duty-cycle"],
            "setups": ["paper", "greedy-sleep"],
            "seeds": [1, 2, 3],
            "overrides": [{}, {"task_count": 12}, {"max_time_ms": 900.0}],
        })
        lines = preflight_campaign(spec)
        # task_count does not apply to platform scenarios; max_time_ms does.
        assert linted == ["iot-duty-cycle", "iot-duty-cycle", "phone-bursty", "phone-bursty"]
        assert len(lines) == 4

    def test_duplicate_platforms_checked_once(self):
        from repro.campaign import preflight_campaign

        spec = CampaignSpec.from_dict({
            "name": "dupes",
            "scenarios": ["iot-duty-cycle", "iot-duty-cycle"],
            "setups": ["paper"],
            "seeds": [1, 2],
        })
        assert len(preflight_campaign(spec)) == 1
