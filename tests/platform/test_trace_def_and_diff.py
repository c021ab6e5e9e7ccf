"""Tests for the spec's TraceDef section and the platform diff helper."""

import pytest

from repro.errors import PlatformError
from repro.platform import (
    PlatformBuilder,
    PlatformSpec,
    TraceDef,
    diff_specs,
    platform_by_name,
    render_spec_diff,
)


def _minimal_spec(name="t", **trace_kwargs):
    builder = PlatformBuilder(name).ip(
        "solo", workload={"kind": "low_activity", "task_count": 4, "seed": 1}
    )
    if trace_kwargs:
        builder = builder.trace(**trace_kwargs)
    return builder.build()


class TestTraceDef:
    def test_disabled_default_serializes_to_nothing(self):
        spec = _minimal_spec()
        assert "trace" not in spec.to_dict()

    def test_round_trip(self):
        spec = _minimal_spec(format="perfetto", path="out.json", events=["psm", "bus"])
        rebuilt = PlatformSpec.from_dict(spec.to_dict())
        assert rebuilt.trace == spec.trace
        assert rebuilt.trace.enabled
        assert rebuilt.trace.format == "perfetto"
        assert rebuilt.trace.events == ["psm", "bus"]

    def test_unknown_format_rejected(self):
        with pytest.raises(PlatformError, match="platform.trace.format"):
            _minimal_spec(format="xml")

    def test_unknown_event_name_rejected(self):
        with pytest.raises(PlatformError, match="platform.trace.events"):
            _minimal_spec(events=["psm", "nope"])

    def test_vcd_rejects_event_filter(self):
        with pytest.raises(PlatformError, match="event filters"):
            _minimal_spec(format="vcd", events=["psm"])

    def test_overrides_without_enabled_rejected(self):
        spec = _minimal_spec()
        spec.trace = TraceDef(enabled=False, format="perfetto")
        with pytest.raises(PlatformError, match="'enabled' is false"):
            spec.validate()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(PlatformError, match="unknown"):
            PlatformSpec.from_dict({
                "name": "x",
                "ips": [{"name": "a", "workload": {"kind": "low_activity",
                                                   "task_count": 2, "seed": 1}}],
                "trace": {"enabled": True, "sink": "jsonl"},
            })

    def test_builder_no_trace(self):
        # Tracing is off unless the builder asks for it.
        builder = PlatformBuilder("t").ip(
            "solo", workload={"kind": "low_activity", "task_count": 2, "seed": 1}
        )
        assert not builder.build().trace.enabled
        assert builder.trace(format="jsonl").build().trace.enabled


class TestDiffSpecs:
    def test_identical_specs_have_no_diff(self):
        assert diff_specs(platform_by_name("A1"), platform_by_name("A1")) == []
        assert render_spec_diff(platform_by_name("A1"), platform_by_name("A1")) == ""

    def test_scalar_difference_reported_with_dotted_path(self):
        a = _minimal_spec("same")
        b = _minimal_spec("same")
        b.max_time_ms = a.max_time_ms * 2
        entries = diff_specs(a, b)
        paths = [path for path, _, _ in entries]
        assert "max_time_ms" in paths

    def test_section_only_on_one_side_uses_missing_sentinel(self):
        a = _minimal_spec("same")
        b = _minimal_spec("same", format="perfetto")
        entries = {path: (left, right) for path, left, right in diff_specs(a, b)}
        assert any(path.startswith("trace") for path in entries)
        rendered = render_spec_diff(a, b, label_a="plain", label_b="traced")
        assert "<missing>" in rendered

    def test_list_items_get_indexed_paths(self):
        a = platform_by_name("B")
        b = platform_by_name("C")
        entries = diff_specs(a, b)
        assert any("ips[" in path for path, _, _ in entries)

    def test_registered_platforms_differ(self):
        entries = diff_specs(platform_by_name("A1"), platform_by_name("A2"))
        paths = {path for path, _, _ in entries}
        assert "battery.condition" in paths
