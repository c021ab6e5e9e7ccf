"""Trace requests, SoC instrumentation and the per-run trace session.

This is the glue between the tracing primitives (:mod:`repro.obs.tracer`,
:mod:`repro.obs.sinks`) and the rest of the library:

* :class:`TraceRequest` — a validated "trace this run" descriptor built
  from CLI flags, a spec's ``TraceDef`` section, or Python code;
* :func:`instrument` — attaches a :class:`~repro.obs.tracer.Tracer` to a
  built :class:`~repro.soc.soc.SoC` by setting the ``_tracer`` hook
  attribute on every instrumented component (never by observing
  signals, which would perturb the waiter-gated fast paths);
* :class:`TraceSession` — the run-scoped lifecycle: attach before the
  simulation starts, ``finish`` afterwards to write the sink file.

Every format reads the same events.  A ``vcd`` session records only the
PSM and bus ownership kinds and names its waveform lines after the PSM
state and bus busy signals, so every traced run, VCD included, stays
bit-identical to an untraced one.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Tuple

from repro.obs.events import ObsError, expand_event_filter
from repro.obs.sinks import TRACE_EXTENSIONS, build_vcd, write_jsonl, write_perfetto
from repro.obs.tracer import Tracer

if TYPE_CHECKING:
    from repro.platform.spec import TraceDef
    from repro.sim.simtime import SimTime
    from repro.soc.soc import SoC

__all__ = ["TRACE_FORMATS", "TraceRequest", "TraceSession", "instrument"]

#: Accepted trace formats, in CLI/choice order.
TRACE_FORMATS = ("jsonl", "perfetto", "vcd")

#: The event kinds the vcd sink reads: PSM states and bus ownership.
_VCD_EVENTS = ("psm", "bus.grant", "bus.release", "bus.cancel")


@dataclass(frozen=True)
class TraceRequest:
    """A validated request to trace one simulation run."""

    format: str = "jsonl"
    path: Optional[str] = None
    events: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.format not in TRACE_FORMATS:
            raise ObsError(
                f"unknown trace format {self.format!r}; expected one of "
                f"{', '.join(TRACE_FORMATS)}"
            )
        # Fail fast on unknown kinds/categories instead of at attach time.
        expand_event_filter(self.events)
        if self.events and self.format == "vcd":
            raise ObsError("event filters only apply to jsonl/perfetto traces")

    @classmethod
    def from_trace_def(cls, trace_def: Optional["TraceDef"]) -> Optional["TraceRequest"]:
        """Build a request from a spec's ``TraceDef`` (None when disabled)."""
        if trace_def is None or not trace_def.enabled:
            return None
        return cls(
            format=trace_def.format,
            path=trace_def.path or None,
            events=tuple(trace_def.events) or None,
        )

    def resolve_path(self, stem: str) -> Path:
        """The output file: the explicit path, or ``<stem>_trace.<ext>``."""
        if self.path:
            return Path(self.path)
        return Path(f"{stem}_trace.{TRACE_EXTENSIONS[self.format]}")


def instrument(soc: "SoC", tracer: Tracer) -> None:
    """Point every instrumented component of a built SoC at ``tracer``.

    Emits one ``sim.backend`` event recording the kernel backend that runs
    the trace (plus interpreter/core versions, and the fallback reason when
    a native request could not be honoured), one ``psm.state`` event per IP
    so sinks know the initial state, and seeds the SoC's level-change
    trackers with the current battery and thermal levels.
    """
    now_fs = soc.kernel.now_fs
    soc._tracer = tracer
    soc._traced_battery_level = soc.battery.level
    soc._traced_thermal_level = soc.thermal.level
    resolution = getattr(soc.kernel, "backend_resolution", None)
    if resolution is not None:
        import platform

        from repro.sim.native import load as load_native_core

        fields = {"backend": resolution.backend,
                  "python": platform.python_version()}
        if resolution.reason:
            fields["reason"] = resolution.reason
        if resolution.backend == "native":
            fields["core_version"] = load_native_core().CORE_VERSION
        tracer.emit(now_fs, "sim.backend", soc.name, **fields)
    for instance in soc.instances:
        ip_name = instance.spec.name
        instance.ip._tracer = tracer
        instance.psm._tracer = tracer
        instance.psm._trace_name = ip_name
        instance.lem._tracer = tracer
        tracer.emit(now_fs, "psm.state", ip_name, state=str(instance.psm.state))
    if soc.gem is not None:
        soc.gem._tracer = tracer
    if soc.bus is not None:
        soc.bus._tracer = tracer
    if soc.fast_engine is not None:
        engine = soc.fast_engine
        engine._tracer = tracer
        engine._trace_source = soc.name
        engine._traced_battery_level = soc.battery.level
        engine._traced_thermal_level = soc.thermal.level


class TraceSession:
    """One run's tracing lifecycle: attach, simulate, finish.

    ``stem`` names the default output file (usually the scenario name);
    an explicit ``request.path`` wins.
    """

    def __init__(self, request: TraceRequest, stem: str) -> None:
        self.request = request
        self.path = request.resolve_path(stem)
        self.tracer = Tracer(
            _VCD_EVENTS if request.format == "vcd" else request.events
        )
        self._soc: Optional["SoC"] = None

    def attach(self, soc: "SoC") -> None:
        """Hook the (already built, not yet run) SoC up for tracing."""
        self._soc = soc
        instrument(soc, self.tracer)

    def finish(self, end_time: Optional["SimTime"] = None) -> Path:
        """Write the trace file; returns the output path.

        ``end_time`` closes the VCD waveform (default: the kernel's now).
        """
        soc = self._soc
        if soc is None:
            raise ObsError("TraceSession.finish called before attach")
        fmt = self.request.format
        events = self.tracer.events
        if fmt == "jsonl":
            write_jsonl(events, self.path)
        elif fmt == "perfetto":
            write_perfetto(events, self.path, process_name=soc.name)
        else:
            # One line per PSM state, then the bus busy line, each named
            # after the signal it mirrors.
            lines = {instance.spec.name: instance.psm.state_signal.name
                     for instance in soc.instances}
            if soc.bus is not None:
                lines[soc.bus.name] = soc.bus.busy_signal.name
            end_fs = soc.kernel.now_fs if end_time is None else int(end_time)
            self.path.write_text(build_vcd(events, lines, end_fs), encoding="utf-8")
        return self.path
