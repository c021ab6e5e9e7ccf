"""repro.obs — structured event tracing with JSONL/Perfetto/VCD sinks.

The observability layer of the library.  A :class:`Tracer` collects
typed events (task lifecycle, PSM transitions, LEM/GEM rule decisions,
bus arbitration, sampler windows, battery/thermal level crossings) from
guarded hooks threaded through ``repro.sim``/``repro.soc``/``repro.dpm``;
pluggable sinks serialize them after the run.  A disabled tracer is a
single attribute test per hook site, so untraced runs stay bit-identical
to the pinned goldens.

Select a sink declaratively through the ``trace`` section of a
:class:`~repro.platform.PlatformSpec`, imperatively via the
``--trace``/``--trace-format`` CLI flags, or programmatically::

    from repro.obs import TraceRequest, TraceSession
    session = TraceSession(TraceRequest(format="perfetto"), stem="A1")
    soc = build_soc(...)
    session.attach(soc)
    end = soc.run_until_done(...)
    path = session.finish(end_time=end)
"""

from repro.obs.events import (
    EVENT_CATEGORIES,
    EVENT_TYPES,
    EventType,
    ObsError,
    expand_event_filter,
    validate_event,
)
from repro.obs.session import TRACE_FORMATS, TraceRequest, TraceSession, instrument
from repro.obs.sinks import (
    TRACE_EXTENSIONS,
    build_perfetto,
    build_vcd,
    write_jsonl,
    write_perfetto,
)
from repro.obs.tracer import TraceEvent, Tracer

__all__ = [
    "EVENT_CATEGORIES",
    "EVENT_TYPES",
    "EventType",
    "ObsError",
    "TRACE_EXTENSIONS",
    "TRACE_FORMATS",
    "TraceEvent",
    "TraceRequest",
    "TraceSession",
    "Tracer",
    "build_perfetto",
    "build_vcd",
    "expand_event_filter",
    "instrument",
    "validate_event",
    "write_jsonl",
    "write_perfetto",
]
