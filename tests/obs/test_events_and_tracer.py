"""Unit tests for the repro.obs event registry, tracer and trace requests."""

import pytest

from repro.obs import (
    EVENT_CATEGORIES,
    EVENT_TYPES,
    ObsError,
    TraceRequest,
    Tracer,
    expand_event_filter,
    validate_event,
)


class TestEventRegistry:
    def test_categories_are_kind_prefixes(self):
        assert list(EVENT_CATEGORIES) == sorted(
            {kind.split(".", 1)[0] for kind in EVENT_TYPES}
        )

    def test_every_kind_has_description_and_category(self):
        for kind, event_type in EVENT_TYPES.items():
            assert event_type.kind == kind
            assert event_type.description
            assert event_type.category == kind.split(".", 1)[0]

    def test_expand_filter_none_means_everything(self):
        assert expand_event_filter(None) is None
        assert expand_event_filter([]) is None

    def test_expand_filter_mixes_kinds_and_categories(self):
        expanded = expand_event_filter(["bus", "task.start"])
        assert "bus.grant" in expanded
        assert "bus.request" in expanded
        assert "task.start" in expanded
        assert "task.complete" not in expanded

    def test_expand_filter_rejects_unknown_names(self):
        with pytest.raises(ObsError):
            expand_event_filter(["no.such.event"])


class TestValidateEvent:
    def test_valid_event_passes(self):
        validate_event({
            "t_fs": 1000, "kind": "psm.transition", "source": "cpu",
            "from_state": "ON1", "to_state": "SL2",
            "latency_us": 60.0, "energy_j": 1e-6,
        })

    def test_missing_required_field_fails(self):
        with pytest.raises(ObsError, match="missing required field"):
            validate_event({
                "t_fs": 0, "kind": "task.start", "source": "cpu",
                "task": "t0", "wait_us": 0.0, "duration_us": 1.0,
            })

    def test_unknown_kind_fails(self):
        with pytest.raises(ObsError, match="unknown event kind"):
            validate_event({"t_fs": 0, "kind": "nope.nope", "source": "x"})

    def test_undocumented_field_fails(self):
        with pytest.raises(ObsError, match="undocumented"):
            validate_event({
                "t_fs": 0, "kind": "psm.state", "source": "cpu",
                "state": "ON1", "extra": 1,
            })

    def test_bool_is_not_an_int(self):
        with pytest.raises(ObsError):
            validate_event({
                "t_fs": 0, "kind": "task.request", "source": "cpu",
                "task": "t0", "priority": "high", "cycles": True,
            })

    def test_negative_time_fails(self):
        with pytest.raises(ObsError):
            validate_event({
                "t_fs": -1, "kind": "psm.state", "source": "cpu",
                "state": "ON1",
            })


class TestTracer:
    def test_emit_records_flat_envelope(self):
        tracer = Tracer()
        tracer.emit(42, "psm.state", "cpu", state="ON1")
        assert len(tracer) == 1
        assert [event.to_dict() for event in tracer.events] == [
            {"t_fs": 42, "kind": "psm.state", "source": "cpu", "state": "ON1"}
        ]

    def test_payload_may_shadow_envelope_parameter_names(self):
        # psm.transition's payload legally includes "source"-like names;
        # the envelope params are positional-only so this must not clash.
        tracer = Tracer()
        tracer.emit(0, "psm.transition", "cpu",
                    from_state="ON1", to_state="SL1",
                    latency_us=1.0, energy_j=0.0)
        assert tracer.events[0].source == "cpu"
        assert tracer.events[0].fields["from_state"] == "ON1"

    def test_filter_drops_unselected_kinds(self):
        tracer = Tracer(events=["bus"])
        tracer.emit(0, "bus.grant", "bus", master="a", words=1, wait_us=0.0)
        tracer.emit(0, "task.start", "cpu", task="t", wait_us=0.0,
                    duration_us=1.0, energy_j=0.0)
        assert [e.kind for e in tracer.events] == ["bus.grant"]


class TestTraceRequest:
    def test_unknown_format_rejected(self):
        with pytest.raises(ObsError):
            TraceRequest(format="xml")

    def test_unknown_event_filter_rejected_eagerly(self):
        with pytest.raises(ObsError):
            TraceRequest(events=("never.heard",))

    def test_vcd_rejects_event_filters(self):
        with pytest.raises(ObsError):
            TraceRequest(format="vcd", events=("bus",))

    def test_resolve_path_defaults_per_format(self):
        assert str(TraceRequest(format="jsonl").resolve_path("A1")) == "A1_trace.jsonl"
        assert str(TraceRequest(format="perfetto").resolve_path("A1")) == "A1_trace.json"
        assert str(TraceRequest(format="vcd").resolve_path("A1")) == "A1_trace.vcd"

    def test_explicit_path_wins(self):
        request = TraceRequest(format="jsonl", path="/tmp/x.jsonl")
        assert str(request.resolve_path("A1")) == "/tmp/x.jsonl"

    def test_from_trace_def(self):
        from repro.platform import TraceDef

        assert TraceRequest.from_trace_def(None) is None
        assert TraceRequest.from_trace_def(TraceDef()) is None
        request = TraceRequest.from_trace_def(
            TraceDef(enabled=True, format="perfetto", events=["psm"])
        )
        assert request.format == "perfetto"
        assert request.events == ("psm",)
