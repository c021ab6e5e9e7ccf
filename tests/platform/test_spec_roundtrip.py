"""Round-trip and validation tests for the declarative platform spec tree."""

import json
import os

import pytest

from repro.errors import PlatformError
from repro.platform import (
    SPEC_FORMAT,
    BatteryDef,
    BusDef,
    GemDef,
    IpDef,
    OperatingPointDef,
    PlatformSpec,
    PolicyDef,
    PsmDef,
    ThermalDef,
    TransitionDef,
    WorkloadDef,
    load_platform,
    paper_platforms,
    save_platform,
    spec_from_json,
    spec_from_toml,
    spec_to_json,
    spec_to_toml,
)

EXAMPLE_SPEC = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "specs", "custom_platform.json"
)


def rich_spec() -> PlatformSpec:
    """A spec touching every branch of the tree."""
    return PlatformSpec(
        name="rich",
        description="every knob set",
        ips=[
            IpDef(
                name="cpu",
                workload=WorkloadDef(kind="random", task_count=5, seed=3,
                                     cycles_min=10_000, cycles_max=20_000,
                                     idle_min_us=100.0, idle_max_us=500.0,
                                     priorities=["high", "low"], idle_scale=1.5),
                static_priority=1,
                operating_points=[
                    OperatingPointDef("ON1", 1.1, 300e6),
                    OperatingPointDef("ON2", 1.0, 200e6),
                    OperatingPointDef("ON3", 0.9, 100e6),
                    OperatingPointDef("ON4", 0.8, 50e6),
                ],
                effective_capacitance_f=1e-9,
                idle_activity=0.4,
                leakage_coefficient=0.002,
                activity_by_class={"dsp": 2.0},
                residual_fraction={"SL1": 0.3},
                psm=PsmDef(
                    dvfs_latency_us=5.0,
                    entry_latency_us={"SL1": 10.0},
                    wakeup_latency_us={"SL1": 15.0},
                    transitions=[
                        TransitionDef("ON1", "SL1", energy_j=1e-7, latency_us=8.0),
                        TransitionDef("ON1", "OFF", allowed=False),
                    ],
                ),
            ),
            IpDef(
                name="dsp",
                workload=WorkloadDef(kind="explicit", name="trace", items=[
                    {"task": "t0", "cycles": 1000, "priority": "high",
                     "instruction_class": "dsp", "idle_after_fs": 123456789},
                ], force_priority="very_high"),
                static_priority=2,
                initial_state="SL1",
                bus_words_per_task=16,
                bus_priority=3,
            ),
        ],
        battery=BatteryDef(condition="low", capacity_j=100.0, on_ac_power=False),
        thermal=ThermalDef(condition="high", fan_resistance_scale=0.4),
        gem=GemDef(enabled=True, high_priority_count=1,
                   evaluation_interval_us=250.0, forced_state="SL2"),
        policy=PolicyDef(name="paper", predictor="adaptive", allow_off=False,
                         reevaluation_interval_us=100.0, defer_state="SL2",
                         estimation_state="ON2"),
        max_time_ms=123.0,
        sample_interval_us=500.0,
        with_fan=False,
        bus=BusDef(enabled=True, words_per_second=10e6, arbitration="fifo",
                   timing="cycle_accurate", words_per_cycle=4),
    )


class TestDictRoundTrip:
    def test_rich_spec_round_trips_through_dict(self):
        spec = rich_spec()
        rebuilt = PlatformSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert rebuilt.to_dict() == spec.to_dict()

    def test_to_dict_is_idempotent_fixpoint(self):
        # JSON -> PlatformSpec -> JSON: a second round trip is the identity.
        first = PlatformSpec.from_dict(rich_spec().to_dict()).to_dict()
        second = PlatformSpec.from_dict(first).to_dict()
        assert second == first

    def test_defaults_are_omitted(self):
        spec = PlatformSpec(name="thin", ips=[IpDef(name="ip1")])
        data = spec.to_dict()
        assert set(data) == {"format", "name", "ips"}
        assert data["ips"][0] == {"name": "ip1", "workload": {"kind": "high_activity"}}

    def test_format_tag_round_trips(self):
        spec = PlatformSpec(name="thin", ips=[IpDef(name="ip1")])
        assert spec.to_dict()["format"] == SPEC_FORMAT
        with pytest.raises(PlatformError, match="format"):
            PlatformSpec.from_dict({"format": "repro-platform/99", "name": "x",
                                    "ips": [{"name": "a", "workload": {"kind": "periodic",
                                                                       "task_count": 1}}]})

    def test_every_paper_platform_round_trips_to_an_equal_spec(self):
        for spec in paper_platforms():
            for encoded in (spec.to_dict(), json.loads(spec_to_json(spec))):
                rebuilt = PlatformSpec.from_dict(encoded)
                assert rebuilt == spec, spec.name
                assert rebuilt.to_dict() == spec.to_dict()


class TestTextFormats:
    def test_json_round_trip(self):
        spec = rich_spec()
        assert spec_from_json(spec_to_json(spec)) == spec

    def test_toml_parity_with_json(self):
        spec = rich_spec()
        via_toml = spec_from_toml(spec_to_toml(spec))
        via_json = spec_from_json(spec_to_json(spec))
        assert via_toml == via_json == spec
        assert via_toml.to_dict() == via_json.to_dict()

    def test_invalid_json_is_a_platform_error(self):
        with pytest.raises(PlatformError, match="invalid JSON"):
            spec_from_json("{nope")

    def test_invalid_toml_is_a_platform_error(self):
        with pytest.raises(PlatformError, match="invalid TOML"):
            spec_from_toml("= broken =")

    @pytest.mark.parametrize("extension", ["json", "toml"])
    def test_file_round_trip(self, tmp_path, extension):
        spec = rich_spec()
        path = tmp_path / f"platform.{extension}"
        save_platform(spec, path)
        assert load_platform(path) == spec

    def test_unknown_extension_rejected(self, tmp_path):
        with pytest.raises(PlatformError, match="expected .json or .toml"):
            save_platform(rich_spec(), tmp_path / "platform.yaml")
        with pytest.raises(PlatformError, match="expected .json or .toml"):
            load_platform(tmp_path / "platform.yaml")

    def test_load_error_names_the_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"name": "x"}')
        with pytest.raises(PlatformError, match="broken.json"):
            load_platform(path)

    def test_shipped_example_spec_loads(self):
        spec = load_platform(EXAMPLE_SPEC)
        assert spec.name == "octa-biglittle"
        assert len(spec.ips) == 8
        assert spec.gem.enabled
        assert any(ip.psm is not None for ip in spec.ips)
        # and it is stored in canonical (fixpoint) form
        assert PlatformSpec.from_dict(spec.to_dict()) == spec


class TestValidationErrors:
    """Errors must name the offending path and the accepted vocabulary."""

    def base(self) -> dict:
        return {
            "name": "x",
            "ips": [{"name": "a", "workload": {"kind": "periodic", "task_count": 4}}],
        }

    def test_unknown_top_level_field(self):
        data = self.base()
        data["fan_speed"] = 3
        with pytest.raises(PlatformError, match="platform.*fan_speed"):
            PlatformSpec.from_dict(data)

    def test_unknown_workload_kind_lists_choices(self):
        data = self.base()
        data["ips"][0]["workload"]["kind"] = "burstyy"
        with pytest.raises(PlatformError) as excinfo:
            PlatformSpec.from_dict(data)
        message = str(excinfo.value)
        assert "ips[0].workload.kind" in message
        assert "bursty" in message and "scenario_a" in message

    def test_workload_field_not_applicable_to_kind(self):
        data = self.base()
        data["ips"][0]["workload"]["burst_count"] = 3
        with pytest.raises(PlatformError, match=r"ips\[0\].workload.*burst_count"):
            PlatformSpec.from_dict(data)

    def test_duplicate_ip_names(self):
        data = self.base()
        data["ips"].append(dict(data["ips"][0]))
        with pytest.raises(PlatformError, match="duplicate IP name"):
            PlatformSpec.from_dict(data)

    def test_bad_power_state_lists_choices(self):
        data = self.base()
        data["ips"][0]["initial_state"] = "ON9"
        with pytest.raises(PlatformError) as excinfo:
            PlatformSpec.from_dict(data)
        assert "ips[0].initial_state" in str(excinfo.value)
        assert "ON1" in str(excinfo.value)

    def test_incomplete_operating_points(self):
        data = self.base()
        data["ips"][0]["operating_points"] = [
            {"state": "ON1", "voltage_v": 1.0, "frequency_hz": 1e8}
        ]
        with pytest.raises(PlatformError, match="must cover ON1..ON4"):
            PlatformSpec.from_dict(data)

    def test_transition_needs_costs_or_forbidden(self):
        data = self.base()
        data["ips"][0]["psm"] = {"transitions": [{"source": "ON1", "target": "SL1"}]}
        with pytest.raises(PlatformError, match="energy_j"):
            PlatformSpec.from_dict(data)

    def test_gem_knobs_without_enable(self):
        data = self.base()
        data["gem"] = {"high_priority_count": 2}
        with pytest.raises(PlatformError, match="'enabled' is false"):
            PlatformSpec.from_dict(data)

    def test_policy_predictor_only_for_paper(self):
        data = self.base()
        data["policy"] = {"name": "oracle", "predictor": "ewma"}
        with pytest.raises(PlatformError, match="policy.predictor"):
            PlatformSpec.from_dict(data)

    def test_battery_condition_vocabulary(self):
        data = self.base()
        data["battery"] = {"condition": "turbo"}
        with pytest.raises(PlatformError, match="battery.condition.*full"):
            PlatformSpec.from_dict(data)

    def test_bus_words_require_a_bus(self):
        data = self.base()
        data["ips"][0]["bus_words_per_task"] = 4
        with pytest.raises(PlatformError, match="bus.enabled"):
            PlatformSpec.from_dict(data)

    def test_missing_ips(self):
        with pytest.raises(PlatformError, match="ips"):
            PlatformSpec.from_dict({"name": "x"})

    def test_explicit_workload_item_fields_checked(self):
        data = self.base()
        data["ips"][0]["workload"] = {
            "kind": "explicit",
            "items": [{"task": "t", "cycles": 10, "idle_after_ms": 1}],
        }
        with pytest.raises(PlatformError, match=r"items\[0\].*idle_after_ms"):
            PlatformSpec.from_dict(data)

    def test_legacy_idle_after_us_item_key_names_its_replacement(self):
        data = self.base()
        data["ips"][0]["workload"] = {
            "kind": "explicit",
            "items": [{"task": "t", "cycles": 10, "idle_after_us": 2.5}],
        }
        with pytest.raises(PlatformError, match=r"items\[0\]\.idle_after_us.*'idle_after_fs'"):
            PlatformSpec.from_dict(data)
