"""Tests for the fluent PlatformBuilder and the named-platform registry."""

import pytest

from repro.errors import ExperimentError, PlatformError
from repro.experiments.runner import _as_scenario
from repro.platform import (
    PAPER_PLATFORM_NAMES,
    BatteryDef,
    GemDef,
    IpDef,
    PlatformBuilder,
    PlatformSpec,
    PolicyDef,
    ThermalDef,
    WorkloadDef,
    has_platform,
    paper_platforms,
    platform_by_name,
    platform_names,
    register_platform,
    unregister_platform,
)


@pytest.fixture
def clean_registry():
    """Track platforms registered during a test and drop them afterwards."""
    registered = []
    yield registered
    for name in registered:
        if has_platform(name):
            unregister_platform(name)


class TestBuilder:
    def test_builder_equals_handwritten_spec(self):
        built = (
            PlatformBuilder("mini")
            .describe("two IPs")
            .battery("low")
            .thermal("high", fan_resistance_scale=0.5)
            .gem(high_priority_count=1)
            .policy("paper", predictor="ewma")
            .max_time_ms(250)
            .sample_interval_us(500)
            .ip("a", workload={"kind": "high_activity", "task_count": 4, "seed": 1})
            .ip("b", workload=WorkloadDef(kind="low_activity", task_count=4, seed=2),
                priority=2, max_frequency_hz=100e6)
            .build()
        )
        manual = PlatformSpec(
            name="mini",
            description="two IPs",
            ips=[
                IpDef(name="a", workload=WorkloadDef(kind="high_activity",
                                                     task_count=4, seed=1)),
                IpDef(name="b", workload=WorkloadDef(kind="low_activity",
                                                     task_count=4, seed=2),
                      static_priority=2, max_frequency_hz=100e6),
            ],
            battery=BatteryDef(condition="low"),
            thermal=ThermalDef(condition="high", fan_resistance_scale=0.5),
            gem=GemDef(enabled=True, high_priority_count=1),
            policy=PolicyDef(name="paper", predictor="ewma"),
            max_time_ms=250.0,
            sample_interval_us=500.0,
        )
        assert built == manual

    def test_build_validates(self):
        with pytest.raises(PlatformError, match="defines no IPs"):
            PlatformBuilder("empty").build()

    def test_ip_requires_a_workload(self):
        with pytest.raises(PlatformError, match="workload is required"):
            PlatformBuilder("x").ip("a")

    def test_unknown_characterization_knob_is_actionable(self):
        with pytest.raises(PlatformError, match="'a'"):
            PlatformBuilder("x").ip(
                "a", workload={"kind": "periodic", "task_count": 1},
                maximum_frequency=1e6,
            )

    def test_builder_register(self, clean_registry):
        spec = (
            PlatformBuilder("bldr-reg")
            .ip("a", workload={"kind": "periodic", "task_count": 1})
            .register()
        )
        clean_registry.append("bldr-reg")
        assert platform_by_name("bldr-reg") == spec


class TestRegistry:
    def test_paper_platforms_are_registered(self):
        assert [spec.name for spec in paper_platforms()] == list(PAPER_PLATFORM_NAMES)
        assert has_platform("a1") and has_platform("C")

    def test_platform_by_name_returns_a_copy(self):
        first = platform_by_name("A1")
        first.ips[0].static_priority = 99
        assert platform_by_name("A1").ips[0].static_priority == 1

    def test_register_snapshots_the_spec(self, clean_registry):
        spec = PlatformSpec(name="snap-reg", ips=[
            IpDef(name="a", workload=WorkloadDef(kind="periodic", task_count=1)),
        ])
        register_platform(spec)
        clean_registry.append("snap-reg")
        spec.ips.clear()  # caller keeps mutating its own object
        assert len(platform_by_name("snap-reg").ips) == 1

    def test_register_and_unregister(self, clean_registry):
        spec = PlatformSpec(name="custom-reg", ips=[
            IpDef(name="a", workload=WorkloadDef(kind="periodic", task_count=1)),
        ])
        register_platform(spec)
        clean_registry.append("custom-reg")
        assert has_platform("CUSTOM-REG")
        assert "custom-reg" in platform_names()
        unregister_platform("custom-reg")
        assert not has_platform("custom-reg")

    def test_duplicate_registration_rejected(self, clean_registry):
        spec = PlatformSpec(name="dup-reg", ips=[
            IpDef(name="a", workload=WorkloadDef(kind="periodic", task_count=1)),
        ])
        register_platform(spec)
        clean_registry.append("dup-reg")
        with pytest.raises(PlatformError, match="already registered"):
            register_platform(spec)
        register_platform(spec, overwrite=True)  # explicit overwrite is fine

    def test_paper_platforms_are_protected(self):
        with pytest.raises(PlatformError, match="built in"):
            register_platform(platform_by_name("A1"), overwrite=True)
        with pytest.raises(PlatformError, match="built in"):
            unregister_platform("B")

    def test_unknown_platform_error_lists_names(self):
        with pytest.raises(PlatformError) as excinfo:
            platform_by_name("nope")
        assert "A1" in str(excinfo.value)


class TestScenarioByName:
    """The runners resolve names through the registry (``_as_scenario``)."""

    def test_error_message_lists_valid_names(self):
        with pytest.raises(ExperimentError) as excinfo:
            _as_scenario("Z1")
        message = str(excinfo.value)
        for name in PAPER_PLATFORM_NAMES:
            assert name in message

    def test_registered_platform_resolves(self, clean_registry):
        spec = PlatformSpec(name="byname-test", ips=[
            IpDef(name="a", workload=WorkloadDef(kind="periodic", task_count=1)),
        ])
        register_platform(spec)
        clean_registry.append("byname-test")
        resolved = _as_scenario("BYNAME-TEST")
        assert resolved.name == "byname-test"
        assert resolved == spec
