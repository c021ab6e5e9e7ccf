"""Property tests of the strategies themselves: validity and round-trips.

Every platform the fuzzer can generate must (a) pass the full
``PlatformSpec`` validation, (b) round-trip losslessly and idempotently
through JSON and TOML, and (c) hash stably through the canonical form —
otherwise a shrunk failure saved to the corpus would not replay the same
platform that failed.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.fuzz import platform_specs
from repro.platform import (
    PlatformSpec,
    spec_from_json,
    spec_from_toml,
    spec_hash,
    spec_to_json,
    spec_to_toml,
)


class TestGeneratedSpecValidity:
    @given(spec=platform_specs())
    @settings(max_examples=60, deadline=None)
    def test_generated_specs_validate(self, spec):
        spec.validate()

    @given(spec=platform_specs())
    @settings(max_examples=60, deadline=None)
    def test_json_round_trip_is_idempotent(self, spec):
        text = spec_to_json(spec)
        once = spec_from_json(text)
        assert once.to_dict() == spec.to_dict()
        assert spec_to_json(once) == text  # second pass changes nothing

    @given(spec=platform_specs())
    @settings(max_examples=60, deadline=None)
    def test_toml_round_trip_is_idempotent(self, spec):
        text = spec_to_toml(spec)
        once = spec_from_toml(text)
        assert once.to_dict() == spec.to_dict()
        assert spec_to_toml(once) == text

    @given(spec=platform_specs())
    @settings(max_examples=60, deadline=None)
    def test_spec_hash_is_canonical(self, spec):
        rebuilt = PlatformSpec.from_dict(spec.to_dict())
        assert spec_hash(rebuilt) == spec_hash(spec)

    @given(spec=platform_specs())
    @settings(max_examples=60, deadline=None)
    def test_bus_traffic_is_cycle_aligned(self, spec):
        # The single-master bus_timing bound relies on CA durations equal to
        # ED durations: generated traffic must be whole bus cycles.
        if not spec.bus.enabled:
            return
        for ip in spec.ips:
            assert ip.bus_words_per_task % spec.bus.words_per_cycle == 0
        assert any(ip.bus_words_per_task for ip in spec.ips)

    @given(spec=platform_specs())
    @settings(max_examples=60, deadline=None)
    def test_random_workloads_carry_explicit_seeds(self, spec):
        # Replay of a saved spec must not depend on builder-default seeds.
        for ip in spec.ips:
            if ip.workload.kind in ("random", "bursty", "high_activity", "low_activity"):
                assert ip.workload.seed is not None
