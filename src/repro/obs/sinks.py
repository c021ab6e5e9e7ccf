"""Trace sinks: JSON-lines, Chrome-trace/Perfetto JSON and VCD.

All three sinks consume the in-memory event list a
:class:`~repro.obs.tracer.Tracer` accumulated during a run; nothing is
written while the simulation is hot.

The Perfetto sink emits the Chrome trace-event JSON format (an object
with a ``traceEvents`` array), which both ``chrome://tracing`` and
https://ui.perfetto.dev load directly:

* one track (``tid``) per event source — each IP, the bus, the GEM and
  the SoC sampler — named via ``thread_name`` metadata events;
* PSM residency and bus ownership as **async slices** (``ph: b``/``e``)
  reconstructed from ``psm.state``/``psm.transition`` and
  ``bus.grant``/``release``/``cancel`` events;
* LEM/GEM decisions, deferrals and sleep pushes as **instant** events
  (``ph: i``) carrying their full rule context in ``args``;
* tasks as **complete slices** (``ph: X``) from ``task.start`` pairs
  with ``task.complete``;
* sampler windows as **counter** events (``ph: C``) so battery SoC and
  temperature plot as graphs.

Timestamps: the simulator keeps integer femtoseconds; Chrome traces use
microseconds, so ``ts = t_fs / 1e9`` (float µs keeps sub-µs event order).

The VCD sink rebuilds the waveforms a SystemC user would trace: one line
per PSM (its state, from ``psm.state``/``psm.transition``) and one for
the bus (``1`` from a ``bus.grant`` until a ``bus.release`` or a
``bus.cancel`` of the granted request).  Lines are named after the model
signals they mirror.  Per line and timestamp only the last value counts
and only real changes are written, so a release and re-grant within one
instant leave no ``0``/``1`` glitch.  Times are written in whole
nanoseconds (``$timescale 1ns``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.obs.tracer import TraceEvent

__all__ = [
    "TRACE_EXTENSIONS",
    "build_perfetto",
    "build_vcd",
    "write_jsonl",
    "write_perfetto",
]

#: File extension per trace format (used for default output paths).
TRACE_EXTENSIONS = {"jsonl": "jsonl", "perfetto": "json", "vcd": "vcd"}


def write_jsonl(events: Sequence[TraceEvent], path: Union[str, Path]) -> int:
    """Write one JSON object per line; returns the event count."""
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event.to_dict(), sort_keys=False))
            handle.write("\n")
    return len(events)


def _us(t_fs: int) -> float:
    return t_fs / 1e9


class _PerfettoBuilder:
    """Accumulates Chrome trace events with stable per-source tracks."""

    def __init__(self, process_name: str) -> None:
        self.out: List[dict] = []
        self._tids: Dict[str, int] = {}
        self._async_id = 0
        self.out.append({
            "ph": "M", "pid": 1, "name": "process_name",
            "args": {"name": process_name},
        })

    def tid(self, source: str) -> int:
        tid = self._tids.get(source)
        if tid is None:
            tid = len(self._tids) + 1
            self._tids[source] = tid
            self.out.append({
                "ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
                "args": {"name": source},
            })
        return tid

    def async_slice(
        self,
        cat: str,
        name: str,
        source: str,
        start_fs: int,
        end_fs: int,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._async_id += 1
        ident = self._async_id
        tid = self.tid(source)
        begin = {
            "ph": "b", "cat": cat, "id": ident, "name": name,
            "pid": 1, "tid": tid, "ts": _us(start_fs),
        }
        if args:
            begin["args"] = args
        self.out.append(begin)
        self.out.append({
            "ph": "e", "cat": cat, "id": ident, "name": name,
            "pid": 1, "tid": tid, "ts": _us(end_fs),
        })

    def instant(
        self,
        cat: str,
        name: str,
        source: str,
        t_fs: int,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        event = {
            "ph": "i", "s": "t", "cat": cat, "name": name,
            "pid": 1, "tid": self.tid(source), "ts": _us(t_fs),
        }
        if args:
            event["args"] = args
        self.out.append(event)

    def complete(
        self,
        cat: str,
        name: str,
        source: str,
        start_fs: int,
        dur_fs: int,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        event = {
            "ph": "X", "cat": cat, "name": name,
            "pid": 1, "tid": self.tid(source),
            "ts": _us(start_fs), "dur": _us(dur_fs),
        }
        if args:
            event["args"] = args
        self.out.append(event)

    def counter(
        self, name: str, source: str, t_fs: int, values: Dict[str, Any]
    ) -> None:
        self.out.append({
            "ph": "C", "cat": "sample", "name": name,
            "pid": 1, "tid": self.tid(source), "ts": _us(t_fs),
            "args": values,
        })


def build_perfetto(
    events: Sequence[TraceEvent], process_name: str = "repro-dpm"
) -> Dict[str, Any]:
    """Convert tracer events into a Chrome-trace JSON document (dict)."""
    builder = _PerfettoBuilder(process_name)
    # Open slices keyed by source: PSM residency per IP, bus ownership
    # per master, in-flight task per IP.
    psm_open: Dict[str, tuple] = {}       # source -> (state, start_fs)
    bus_open: Dict[str, tuple] = {}       # master -> (words, start_fs)
    task_open: Dict[str, tuple] = {}      # source -> (task, start_fs, fields)
    end_fs = events[-1].t_fs if events else 0

    for event in events:
        kind = event.kind
        t_fs = int(event.t_fs)
        source = event.source
        fields = event.fields
        if kind == "psm.state":
            psm_open[source] = (fields["state"], t_fs)
        elif kind == "psm.transition":
            latency_fs = int(round(fields["latency_us"] * 1e9))
            start_of_transition = max(t_fs - latency_fs, 0)
            open_slice = psm_open.get(source)
            if open_slice is not None:
                builder.async_slice(
                    "psm", open_slice[0], source, open_slice[1],
                    start_of_transition,
                )
            if latency_fs:
                builder.async_slice(
                    "psm", f"{fields['from_state']}→{fields['to_state']}",
                    source, start_of_transition, t_fs,
                    args={"energy_j": fields["energy_j"]},
                )
            psm_open[source] = (fields["to_state"], t_fs)
        elif kind == "bus.grant":
            bus_open[fields["master"]] = (fields["words"], t_fs)
            builder.instant("bus", f"grant:{fields['master']}", source, t_fs,
                            args=dict(fields))
        elif kind in ("bus.release", "bus.cancel"):
            open_slice = bus_open.pop(fields["master"], None)
            if open_slice is not None:
                builder.async_slice(
                    "bus", fields["master"], source, open_slice[1], t_fs,
                    args={"words": open_slice[0]},
                )
        elif kind == "bus.request":
            builder.instant("bus", f"request:{fields['master']}", source,
                            t_fs, args=dict(fields))
        elif kind == "task.start":
            task_open[source] = (fields["task"], t_fs, dict(fields))
        elif kind == "task.complete":
            open_task = task_open.pop(source, None)
            if open_task is not None:
                args = open_task[2]
                args.update(fields)
                builder.complete("task", open_task[0], source, open_task[1],
                                 t_fs - open_task[1], args=args)
        elif kind == "task.request":
            builder.instant("task", f"request:{fields['task']}", source,
                            t_fs, args=dict(fields))
        elif kind in ("lem.decision", "lem.deferral", "lem.sleep",
                      "gem.decision"):
            builder.instant(kind.split(".", 1)[0], kind, source, t_fs,
                            args=dict(fields))
        elif kind == "sample.window":
            builder.counter("battery_soc", source, t_fs,
                            {"state_of_charge": fields["state_of_charge"]})
            builder.counter("temperature_c", source, t_fs,
                            {"temperature_c": fields["temperature_c"]})
        elif kind in ("battery.level", "thermal.level"):
            builder.instant(kind.split(".", 1)[0], f"{kind}:{fields['level']}",
                            source, t_fs, args=dict(fields))

    # Close still-open residency and ownership slices at the last event.
    for source, (state, start_fs) in psm_open.items():
        if end_fs > start_fs:
            builder.async_slice("psm", state, source, start_fs, end_fs)
    for master, (words, start_fs) in bus_open.items():
        if end_fs > start_fs:
            builder.async_slice("bus", master, "bus", start_fs, end_fs,
                                args={"words": words})

    return {"traceEvents": builder.out, "displayTimeUnit": "ms"}


def write_perfetto(
    events: Sequence[TraceEvent],
    path: Union[str, Path],
    process_name: str = "repro-dpm",
) -> int:
    """Write a Chrome-trace JSON file; returns the trace-event count."""
    document = build_perfetto(events, process_name=process_name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return len(document["traceEvents"])


_VCD_ID_ALPHABET = "".join(chr(c) for c in range(33, 127))
_FS_PER_NS = 1_000_000


def _vcd_identifier(index: int) -> str:
    alphabet = _VCD_ID_ALPHABET
    if index < len(alphabet):
        return alphabet[index]
    return alphabet[index // len(alphabet)] + alphabet[index % len(alphabet)]


def build_vcd(events: Sequence[TraceEvent], lines: Mapping[str, str], end_fs: int) -> str:
    """Render the PSM state and bus busy waveforms as a VCD document.

    ``lines`` maps each traced event source (an IP, the bus) to the name
    of its VCD variable, in declaration order.  Every line opens at time 0
    with its ``psm.state`` value, or ``0`` (an idle bus) when it has none.
    """
    index = {source: position for position, source in enumerate(lines)}
    initial = ["0"] * len(index)
    changes: Dict[Tuple[int, int], str] = {}  # the last value per (time, line)
    for event in events:
        position = index.get(event.source)
        if position is None:
            continue
        kind = event.kind
        key = (int(event.t_fs), position)
        if kind == "psm.state":
            initial[position] = event.fields["state"].replace(" ", "_")
        elif kind == "psm.transition":
            changes[key] = event.fields["to_state"].replace(" ", "_")
        elif kind == "bus.grant":
            changes[key] = "1"
        elif kind == "bus.release" or (kind == "bus.cancel" and event.fields["granted"]):
            changes[key] = "0"
    samples = [(0, position, value) for position, value in enumerate(initial)]
    current = list(initial)
    for (t_fs, position), value in sorted(changes.items()):
        if value != current[position]:
            current[position] = value
            samples.append((t_fs, position, value))
    samples.sort(key=lambda sample: sample[:2])

    identifiers = [_vcd_identifier(position) for position in range(len(lines))]
    out = ["$comment repro trace $end\n$timescale 1ns $end\n$scope module repro $end\n"]
    out += [f"$var wire 64 {identifier} {name.replace(' ', '_')} $end\n"
            for identifier, name in zip(identifiers, lines.values())]
    out.append("$upscope $end\n$enddefinitions $end\n")
    last_stamp = None
    for t_fs, position, value in samples:
        stamp = round(t_fs / _FS_PER_NS)
        if stamp != last_stamp:
            out.append(f"#{stamp}\n")
            last_stamp = stamp
        out.append(f"s{value} {identifiers[position]}\n")
    end_stamp = round(end_fs / _FS_PER_NS)
    if last_stamp != end_stamp:
        out.append(f"#{end_stamp}\n")
    return "".join(out)

