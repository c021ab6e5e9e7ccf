"""The differential-oracle harness: verdicts, tolerances, bug detection.

The centrepiece is the injected-bug pair: scaling the fast-path energy
recording by one part in a thousand MUST be caught by the exact-vs-fast
oracle (and by the end-to-end fuzz loop, which shrinks and saves the
counterexample), while the unmodified code passes the exact same specs.
A differential harness that cannot see a planted bug is just an expensive
random walk.

``tests/golden/differential_verdicts.json`` pins every verdict's status and
detail on a fixed set of specs, so a change to how the oracles share runs
cannot change what they report.  Regenerate (only for a change meant to
alter a verdict) with::

    PYTHONPATH=src python tests/fuzz/test_differential.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.dpm import DpmSetup
from repro.errors import ExperimentError, ReproError
from repro.experiments import (
    ALL_ORACLES,
    differential,
    run_differential,
    run_scenario,
)
from repro.experiments.differential import OracleVerdict
from repro.platform import PlatformSpec
from repro.platform.library import library_platforms
from repro.platform.registry import multi_ip_platform
from repro.sim.native import available as native_available
from repro.soc.sampling import FastSampleEngine

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "golden" / "differential_verdicts.json"


def tiny_spec(**overrides) -> PlatformSpec:
    data = {
        "format": "repro-platform/1",
        "name": "tiny",
        "ips": [
            {
                "name": "ip0",
                "workload": {
                    "kind": "random",
                    "task_count": 3,
                    "seed": 5,
                    "cycles_min": 5_000,
                    "cycles_max": 40_000,
                    "idle_min_us": 100.0,
                    "idle_max_us": 1_200.0,
                },
            }
        ],
        "max_time_ms": 200.0,
        "sample_interval_us": 1000.0,
    }
    data.update(overrides)
    return PlatformSpec.from_dict(data)


def bus_spec() -> PlatformSpec:
    return tiny_spec(
        ips=[
            {
                "name": "ip0",
                "workload": {
                    "kind": "periodic",
                    "task_count": 4,
                    "cycles": 20_000,
                    "idle_us": 500.0,
                },
                "bus_words_per_task": 32,
            }
        ],
        bus={
            "enabled": True,
            "words_per_second": 1_000_000.0,
            "timing": "cycle_accurate",
            "words_per_cycle": 4,
        },
    )


def bus_spec_event_driven() -> PlatformSpec:
    data = bus_spec().to_dict()
    data["bus"]["timing"] = "event_driven"
    return PlatformSpec.from_dict(data)


def shadowed_rule_spec() -> PlatformSpec:
    """Table 1 plus an appended rule that earlier rows shadow entirely."""
    from repro.dpm.rules import paper_rule_table

    rules = paper_rule_table().as_dicts()
    rules.append({
        "state": "SL4", "priorities": ["low"], "batteries": ["full"],
        "temperatures": ["low"], "buses": ["high"], "label": "dead",
    })
    return tiny_spec(policy={"name": "paper", "rules": rules})


def golden_specs():
    """The specs whose verdicts ``differential_verdicts.json`` pins, by key."""
    specs = {
        "tiny": tiny_spec(),
        "bus-cycle-accurate": bus_spec(),
        "bus-event-driven": bus_spec_event_driven(),
        "greedy-sleep-policy": tiny_spec(policy={"name": "greedy-sleep"}),
        "bare-paper-policy": tiny_spec(policy={"name": "paper"}),
        "shadowed-custom-rule": shadowed_rule_spec(),
        "saturated-bus": PlatformSpec.from_dict({
            **bus_spec().to_dict(),
            "bus": {"enabled": True, "words_per_second": 20_000.0},
        }),
        "gem": multi_ip_platform("gem-small", "low", "high", (1, 3), task_count=4),
    }
    for spec in library_platforms():
        specs[spec.name] = spec
    return specs


def pinned_verdicts(spec: PlatformSpec):
    """``[oracle, status, detail]`` of every default oracle but backend_parity,
    whose verdict depends on whether the C extension is built."""
    return [
        [verdict.oracle, verdict.status, verdict.detail]
        for verdict in run_differential(spec).verdicts
        if verdict.oracle != "backend_parity"
    ]


class TestRunDifferential:
    def test_all_oracles_pass_on_a_small_platform(self):
        result = run_differential(bus_spec())
        assert result.ok, result.summary()
        assert [v.oracle for v in result.verdicts] == list(ALL_ORACLES)
        statuses = {v.oracle: v.status for v in result.verdicts}
        assert statuses["exact_vs_fast"] == "pass"
        assert statuses["bus_timing"] == "pass"
        assert statuses["policy"] == "pass"
        assert statuses["structural"] == "pass"
        assert statuses["backend_parity"] in ("pass", "skip")

    def test_bus_oracle_skips_without_a_bus(self):
        result = run_differential(tiny_spec(), oracles=["bus_timing"])
        verdict = result.verdict("bus_timing")
        assert verdict.status == "skip"
        assert "no bus" in verdict.detail

    def test_oracle_subset_runs_only_selected(self):
        result = run_differential(tiny_spec(), oracles=["structural"])
        assert [v.oracle for v in result.verdicts] == ["structural"]

    def test_unknown_oracle_name_rejected(self):
        with pytest.raises(ExperimentError, match="unknown oracle"):
            run_differential(tiny_spec(), oracles=["nonsense"])

    def test_summary_names_every_verdict(self):
        result = run_differential(tiny_spec(), oracles=["structural", "policy"])
        summary = result.summary()
        assert "structural" in summary and "policy" in summary
        assert result.spec_hash[:12] in summary

    def test_spec_policy_is_honoured_by_the_base_run(self):
        spec = tiny_spec(policy={"name": "greedy-sleep"})
        result = run_differential(spec, oracles=["exact_vs_fast"])
        assert result.ok, result.summary()


class TestLintReachOracle:
    def test_decisions_contained_in_static_envelope(self):
        result = run_differential(tiny_spec(), oracles=["lint_reach"])
        assert result.ok, result.summary()
        verdict = result.verdicts[0]
        assert verdict.status == "pass"
        assert "contained" in verdict.detail

    def test_part_of_the_default_oracle_set(self):
        assert "lint_reach" in ALL_ORACLES

    def test_shadowed_custom_rule_never_fires(self):
        result = run_differential(shadowed_rule_spec(), oracles=["lint_reach"])
        assert result.ok, result.summary()

    def test_lint_errors_on_the_spec_are_advisory(self):
        # A structurally over-committed bus is an error-severity lint
        # finding, but the generator produces such platforms legitimately:
        # the oracle reports it without failing (only static/dynamic
        # disagreement fails).
        spec = bus_spec()
        spec = PlatformSpec.from_dict({
            **spec.to_dict(),
            "bus": {"enabled": True, "words_per_second": 20_000.0},
        })
        from repro.lint import lint_spec

        assert lint_spec(spec).errors  # precondition: really an error
        result = run_differential(spec, oracles=["lint_reach"])
        assert result.ok, result.summary()
        assert "advisory" in result.verdicts[0].detail


class TestPolicyOracle:
    def test_micro_workload_deficit_stays_within_transition_overhead(self):
        # 4 tiny tasks with 50 us gaps: sleeping is a net loss, but the loss
        # must be bounded by the transition energy the policy invested.
        spec = tiny_spec(
            ips=[
                {
                    "name": "ip0",
                    "workload": {
                        "kind": "periodic",
                        "task_count": 4,
                        "cycles": 2_000,
                        "idle_us": 50.0,
                    },
                    "idle_activity": 0.25,
                }
            ],
            max_time_ms=150.0,
            sample_interval_us=500.0,
            with_fan=False,
        )
        paper = run_scenario(spec, DpmSetup.paper(), accuracy="exact", trace=False)
        base = run_scenario(spec, DpmSetup.always_on(), accuracy="exact", trace=False)
        assert paper.total_energy_j > base.total_energy_j  # genuinely adversarial
        result = run_differential(spec, oracles=["policy"])
        assert result.ok, result.summary()


class TestInjectedFastModeBug:
    @pytest.fixture
    def broken_fast_recording(self, monkeypatch):
        original = FastSampleEngine.record

        def buggy(self, energy_j, span_fs, end_fs=0):
            return original(self, energy_j * 1.001, span_fs, end_fs)

        monkeypatch.setattr(FastSampleEngine, "record", buggy)

    def test_exact_vs_fast_catches_energy_scaling(self, broken_fast_recording):
        result = run_differential(tiny_spec(), oracles=["exact_vs_fast"])
        verdict = result.verdict("exact_vs_fast")
        assert verdict.status == "fail"
        assert "rel" in verdict.detail

    def test_same_spec_passes_without_the_bug(self):
        result = run_differential(tiny_spec(), oracles=["exact_vs_fast"])
        assert result.ok, result.summary()


class TestGoldenVerdicts:
    @pytest.mark.parametrize("key", sorted(golden_specs()))
    def test_verdicts_match_golden(self, key):
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        assert pinned_verdicts(golden_specs()[key]) == golden[key]

    def test_every_run_crashing_is_reported_per_oracle(self, monkeypatch):
        from repro.experiments import runner

        def crash(*args, **kwargs):
            raise ReproError("boom")

        monkeypatch.setattr(runner, "build_soc", crash)
        result = run_differential(bus_spec())
        assert [[v.oracle, v.status, v.detail] for v in result.verdicts] == [
            ["exact_vs_fast", "fail", "base run crashed: boom"],
            ["backend_parity", "fail", "base run crashed: boom"],
            ["structural", "fail", "base run crashed: boom"],
            ["bus_timing", "fail", "oracle crashed: boom"],
            ["policy", "fail", "oracle crashed: boom"],
            ["lint_reach", "fail", "oracle crashed: boom"],
        ]


class TestRunSharing:
    """Each simulation runs once per example under the default oracles."""

    @pytest.fixture
    def run_count(self, monkeypatch):
        calls = []
        original = differential.run_scenario

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(differential, "run_scenario", counted)
        return calls

    # backend_parity runs the other backend once when the extension is built.
    PARITY_RUNS = 1 if native_available() else 0

    def test_no_policy_no_bus(self, run_count):
        # base (shared by the paper and lint_reach runs), fast, always-on,
        # greedy-sleep
        assert run_differential(tiny_spec()).ok
        assert len(run_count) == 4 + self.PARITY_RUNS

    def test_no_policy_with_bus(self, run_count):
        # base, fast, the other bus timing, always-on at the spec's own
        # timing (shared by bus_timing and policy), greedy-sleep
        assert run_differential(bus_spec()).ok
        assert len(run_count) == 5 + self.PARITY_RUNS


class TestVerdictPlumbing:
    def test_verdict_dict_round_trip_fields(self):
        verdict = OracleVerdict("policy", "fail", "detail text")
        assert verdict.as_dict() == {
            "oracle": "policy",
            "status": "fail",
            "detail": "detail text",
        }
        assert verdict.failed and not verdict.passed

    def test_result_as_dict_carries_all_verdicts(self):
        result = run_differential(tiny_spec(), oracles=["structural"])
        data = result.as_dict()
        assert data["ok"] is True
        assert data["verdicts"][0]["oracle"] == "structural"


if __name__ == "__main__":
    figures = {key: pinned_verdicts(spec) for key, spec in golden_specs().items()}
    GOLDEN_PATH.write_text(json.dumps(figures, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
