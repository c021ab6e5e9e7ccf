"""Unit tests for the spec-level minimizer with an injectable predicate.

No simulations here: the predicates inspect the spec structurally, so these
tests only exercise the reduction search itself.
"""

from __future__ import annotations

from repro.fuzz import minimize_spec
from repro.platform import PlatformSpec


def rich_spec() -> PlatformSpec:
    return PlatformSpec.from_dict(
        {
            "format": "repro-platform/1",
            "name": "rich",
            "ips": [
                {
                    "name": "cpu",
                    "workload": {"kind": "periodic", "task_count": 8, "cycles": 10_000},
                    "idle_activity": 0.2,
                    "bus_words_per_task": 16,
                },
                {
                    "name": "dma",
                    "workload": {"kind": "random", "task_count": 6, "seed": 3},
                },
            ],
            "bus": {"enabled": True, "words_per_second": 1_000_000.0},
            "battery": {"condition": "medium"},
            "thermal": {"condition": "low"},
            "policy": {"name": "paper"},
        }
    )


class TestMinimizeSpec:
    def test_passing_spec_is_returned_unchanged(self):
        spec = rich_spec()
        result = minimize_spec(spec, lambda candidate: False)
        assert result.to_dict() == spec.to_dict()

    def test_reduces_to_the_failing_core(self):
        # "Fails whenever an IP named cpu exists" — everything else must go.
        def still_fails(candidate: PlatformSpec) -> bool:
            return any(ip.name == "cpu" for ip in candidate.ips)

        result = minimize_spec(rich_spec(), still_fails)
        assert [ip.name for ip in result.ips] == ["cpu"]
        assert not result.bus.enabled
        assert result.policy is None
        assert result.battery.to_dict() == {}
        # count fields are halved down to 1
        assert result.ips[0].workload.task_count == 1

    def test_keeps_what_the_failure_needs(self):
        def still_fails(candidate: PlatformSpec) -> bool:
            return candidate.bus.enabled and len(candidate.ips) == 2

        result = minimize_spec(rich_spec(), still_fails)
        assert result.bus.enabled and len(result.ips) == 2

    def test_result_always_validates(self):
        def still_fails(candidate: PlatformSpec) -> bool:
            return any(ip.name == "dma" for ip in candidate.ips)

        result = minimize_spec(rich_spec(), still_fails)
        result.validate()

    def test_explicit_items_are_dropped_one_by_one(self):
        spec = PlatformSpec.from_dict(
            {
                "format": "repro-platform/1",
                "name": "explicit",
                "ips": [
                    {
                        "name": "ip0",
                        "workload": {
                            "kind": "explicit",
                            "items": [
                                {"task": "a", "cycles": 1_000, "idle_after_fs": 10**9},
                                {"task": "b", "cycles": 2_000, "idle_after_fs": 10**9},
                                {"task": "c", "cycles": 3_000, "idle_after_fs": 10**9},
                            ],
                        },
                    }
                ],
            }
        )

        def still_fails(candidate: PlatformSpec) -> bool:
            items = candidate.ips[0].workload.items or []
            return any(item["task"] == "b" for item in items)

        result = minimize_spec(spec, still_fails)
        items = result.ips[0].workload.items
        assert [item["task"] for item in items] == ["b"]
