"""Tests for the declarative campaign specification layer."""

import json

import pytest

from repro.campaign import (
    CampaignSpec,
    JobSpec,
    build_scenario,
    build_setup,
    job_hash,
    normalize_scenario,
    normalize_setup,
)
from repro.errors import CampaignError
from repro.platform import platform_by_name
from repro.platform.build import compile_ip


class TestNormalizeScenario:
    def test_paper_names_expand(self):
        scenario = normalize_scenario("A1")
        assert scenario["kind"] == "single_ip"
        assert scenario["battery"] == "full"
        assert normalize_scenario("b")["kind"] == "multi_ip"

    def test_unknown_paper_name_rejected(self):
        with pytest.raises(CampaignError):
            normalize_scenario("Z9")

    def test_missing_required_field_rejected(self):
        with pytest.raises(CampaignError):
            normalize_scenario({"kind": "single_ip", "name": "x", "battery": "low"})

    def test_unknown_field_rejected(self):
        with pytest.raises(CampaignError):
            normalize_scenario(
                {"kind": "single_ip", "name": "x", "battery": "low",
                 "temperature": "low", "bogus": 1}
            )

    def test_high_activity_ips_sorted_for_stable_hashing(self):
        first = normalize_scenario(
            {"kind": "multi_ip", "name": "m", "battery": "low",
             "temperature": "low", "high_activity_ips": [2, 1]}
        )
        second = normalize_scenario(
            {"kind": "multi_ip", "name": "m", "battery": "low",
             "temperature": "low", "high_activity_ips": [1, 2]}
        )
        assert first == second

    def test_valid_entries_normalise_unchanged(self):
        entry = {"kind": "multi_ip", "name": "m", "battery": "medium",
                 "temperature": "low", "high_activity_ips": [1, 3],
                 "task_count": 16, "seed": 5, "max_time_ms": 800}
        assert normalize_scenario(entry) == entry
        assert normalize_scenario(dict(entry, high_activity_ips=[3, 1])) == entry


class TestRejectAtLoad:
    """Entries no job could run fail when the campaign is loaded."""

    @pytest.mark.parametrize("entry,field", [
        ({"kind": "single_ip", "name": "warm", "battery": "low",
          "temperature": "medium"}, "temperature"),
        ({"kind": "single_ip", "name": "tiny", "battery": "low",
          "temperature": "low", "task_count": 1}, "task_count"),
        ({"kind": "multi_ip", "name": "ghost", "battery": "low",
          "temperature": "low", "high_activity_ips": [7]}, "high_activity_ips"),
        ({"kind": "multi_ip", "name": "dead", "battery": "flat",
          "temperature": "low", "high_activity_ips": [1]}, "battery"),
        ({"kind": "single_ip", "name": "never", "battery": "low",
          "temperature": "low", "max_time_ms": 0}, "max_time_ms"),
        ({"kind": "single_ip", "name": "odd", "battery": "low",
          "temperature": "low", "workload_seed": "x"}, "workload_seed"),
    ], ids=["temperature", "task_count", "high_activity_ips", "battery", "max_time_ms",
            "workload_seed"])
    def test_bad_entry_names_scenario_and_field(self, entry, field):
        with pytest.raises(CampaignError) as excinfo:
            CampaignSpec.from_dict({"name": "bad", "scenarios": [entry]})
        message = str(excinfo.value)
        assert repr(entry["name"]) in message and field in message

    def test_bad_override_is_rejected_at_load(self):
        with pytest.raises(CampaignError, match="'A1'.*task_count"):
            CampaignSpec.from_dict({"name": "bad", "scenarios": ["A1"],
                                    "overrides": [{"task_count": 1}]})


class TestBuildScenario:
    def test_paper_scenario_matches_catalogue(self):
        assert build_scenario(normalize_scenario("A1")) == platform_by_name("A1")
        assert build_scenario(normalize_scenario("C")) == platform_by_name("C")

    def test_seed_reseeds_the_workload(self):
        description = normalize_scenario("A1")
        default = build_scenario(description)
        reseeded = build_scenario(description, seed=99)
        assert reseeded.ips[0].workload.seed == 99
        assert compile_ip(default.ips[0]).ip_spec(default.ips[0]).workload.as_dicts() != \
            compile_ip(reseeded.ips[0]).ip_spec(reseeded.ips[0]).workload.as_dicts()

    def test_seed_reseeds_each_platform_ip_by_index(self):
        spec = platform_by_name("phone-bursty")  # a bursty and a periodic IP
        entry = {"kind": "platform", "spec": spec.to_dict()}
        reseeded = build_scenario(entry, seed=7)
        for index, (old, new) in enumerate(zip(spec.ips, reseeded.ips)):
            if old.workload.kind in ("explicit", "periodic"):
                assert new.workload == old.workload
            else:
                assert new.workload.seed == 7 + index
        assert build_scenario(entry) == spec

    def test_custom_scenario_without_touching_the_catalogue(self):
        built = build_scenario(
            {"kind": "single_ip", "name": "mine", "battery": "medium",
             "temperature": "high", "task_count": 6, "max_time_ms": 500}
        )
        assert built.name == "mine"
        assert len(compile_ip(built.ips[0]).ip_spec(built.ips[0]).workload) == 6
        assert built.max_time_ms == 500.0


class TestSetups:
    def test_named_setups(self):
        for name in ("paper", "always-on", "greedy-sleep", "oracle", "paper+ewma"):
            assert build_setup(normalize_setup(name)).name

    def test_fixed_timeout_parameter(self):
        setup = build_setup({"name": "fixed-timeout", "timeout_ms": 3.0})
        assert setup.name == "fixed-timeout"

    def test_unknown_setup_rejected(self):
        with pytest.raises(CampaignError):
            normalize_setup("warp-drive")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(CampaignError):
            normalize_setup({"name": "paper", "bogus": 1})


class TestJobSpec:
    def make(self, seed=1):
        return JobSpec(
            scenario=normalize_scenario("A1"),
            setup=normalize_setup("paper"),
            baseline=normalize_setup("always-on"),
            seed=seed,
        )

    def test_hash_is_stable_and_content_addressed(self):
        assert self.make().job_id == self.make().job_id
        assert self.make(seed=1).job_id != self.make(seed=2).job_id
        assert self.make().job_id == job_hash(self.make().to_dict())

    def test_round_trip(self):
        job = self.make()
        assert JobSpec.from_dict(job.to_dict()) == job


class TestCampaignSpec:
    def spec_dict(self):
        return {
            "name": "grid",
            "scenarios": ["A1", "B"],
            "setups": ["paper", "greedy-sleep"],
            "seeds": [1, 2, 3],
        }

    def test_grid_expansion_size_and_determinism(self):
        spec = CampaignSpec.from_dict(self.spec_dict())
        jobs = spec.jobs()
        assert len(jobs) == 2 * 2 * 3
        assert [job.job_id for job in jobs] == [job.job_id for job in spec.jobs()]

    def test_duplicate_cells_are_dropped(self):
        data = self.spec_dict()
        data["overrides"] = [{}, {}]
        assert len(CampaignSpec.from_dict(data).jobs()) == 12

    def test_overrides_fan_out_scenario_parameters(self):
        data = self.spec_dict()
        data["scenarios"] = ["A1"]
        data["setups"] = ["paper"]
        data["seeds"] = [1]
        data["overrides"] = [{"task_count": 10}, {"task_count": 20}]
        jobs = CampaignSpec.from_dict(data).jobs()
        assert len(jobs) == 2
        assert {job.scenario["task_count"] for job in jobs} == {10, 20}

    def test_unknown_override_key_rejected(self):
        data = self.spec_dict()
        data["overrides"] = [{"warp": 9}]
        with pytest.raises(CampaignError):
            CampaignSpec.from_dict(data)

    def test_empty_scenarios_rejected(self):
        with pytest.raises(CampaignError):
            CampaignSpec.from_dict({"name": "empty"})

    def test_unknown_top_level_field_rejected(self):
        data = self.spec_dict()
        data["scenrios"] = data.pop("scenarios")
        with pytest.raises(CampaignError):
            CampaignSpec.from_dict(data)

    def test_to_dict_round_trip_preserves_the_grid(self):
        spec = CampaignSpec.from_dict(self.spec_dict())
        rebuilt = CampaignSpec.from_dict(spec.to_dict())
        assert [job.job_id for job in rebuilt.jobs()] == [job.job_id for job in spec.jobs()]


class TestSpecFiles:
    def test_json_file(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({
            "name": "json-grid",
            "scenarios": ["A1"],
            "setups": ["paper"],
            "seeds": [7],
        }))
        spec = CampaignSpec.from_file(path)
        assert spec.name == "json-grid"
        assert len(spec.jobs()) == 1

    def test_toml_file(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "grid.toml"
        path.write_text(
            'name = "toml-grid"\n'
            'scenarios = ["A1", "A2"]\n'
            'setups = ["paper"]\n'
            'seeds = [1, 2]\n'
            "\n"
            "[[overrides]]\n"
            "task_count = 8\n"
        )
        spec = CampaignSpec.from_file(path)
        assert spec.name == "toml-grid"
        assert len(spec.jobs()) == 4
        assert spec.jobs()[0].scenario["task_count"] == 8

    def test_unsupported_extension_rejected(self, tmp_path):
        path = tmp_path / "grid.yaml"
        path.write_text("name: nope")
        with pytest.raises(CampaignError):
            CampaignSpec.from_file(path)
