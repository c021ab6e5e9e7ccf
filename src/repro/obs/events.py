"""Typed event schema for the structured tracing layer.

Every event a :class:`~repro.obs.tracer.Tracer` records carries a *kind*
from the registry below.  The registry is the single source of truth for
the event taxonomy: sinks group events by the category prefix (the part
before the first ``.``), spec validation checks ``TraceDef.events``
entries against it, and :func:`validate_event` lets tests assert that
every emitted event matches its documented shape bit-for-bit.

Field checkers are deliberately strict about ``bool`` vs ``int`` (Python
bools *are* ints) so a schema drift cannot hide behind duck typing.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from repro.errors import ReproError

__all__ = [
    "EVENT_TYPES",
    "EVENT_CATEGORIES",
    "EventType",
    "ObsError",
    "expand_event_filter",
    "validate_event",
]


class ObsError(ReproError):
    """Raised for malformed events or unknown event kinds/categories."""


def _is_str(value: object) -> bool:
    return isinstance(value, str)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_num(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_bool(value: object) -> bool:
    return isinstance(value, bool)


def _is_str_list(value: object) -> bool:
    return isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value)


_CHECKER_NAMES = {
    _is_str: "str",
    _is_int: "int",
    _is_num: "number",
    _is_bool: "bool",
    _is_str_list: "list[str]",
}


#: A field checker: value -> "matches the documented type".
_Checker = Callable[[object], bool]


class EventType:
    """Documented shape of one event kind."""

    __slots__ = ("kind", "description", "required", "optional")

    def __init__(
        self,
        kind: str,
        description: str,
        required: Mapping[str, _Checker],
        optional: Optional[Mapping[str, _Checker]] = None,
    ) -> None:
        self.kind = kind
        self.description = description
        self.required = dict(required)
        self.optional = dict(optional or {})

    @property
    def category(self) -> str:
        return self.kind.split(".", 1)[0]


def _event(
    kind: str,
    description: str,
    required: Mapping[str, _Checker],
    optional: Optional[Mapping[str, _Checker]] = None,
) -> Tuple[str, EventType]:
    return kind, EventType(kind, description, required, optional)


#: The full event taxonomy, keyed by kind.  Category is the prefix
#: before the first dot: task, psm, lem, gem, bus, sample, battery,
#: thermal.
EVENT_TYPES: Dict[str, EventType] = dict(
    [
        _event(
            "sim.backend",
            "kernel backend and versions of one traced run (emitted once, "
            "at instrumentation time)",
            {"backend": _is_str, "python": _is_str},
            {"reason": _is_str, "core_version": _is_str},
        ),
        _event(
            "task.request",
            "an IP submitted a task request to its LEM",
            {"task": _is_str, "priority": _is_str, "cycles": _is_int},
        ),
        _event(
            "task.start",
            "a granted task started executing on its IP",
            {"task": _is_str, "wait_us": _is_num, "duration_us": _is_num,
             "energy_j": _is_num},
        ),
        _event(
            "task.complete",
            "a task finished executing and billed its energy",
            {"task": _is_str, "energy_j": _is_num},
        ),
        _event(
            "psm.state",
            "initial PSM state at instrumentation time",
            {"state": _is_str},
        ),
        _event(
            "psm.transition",
            "a PSM state transition completed (timestamp = completion)",
            {"from_state": _is_str, "to_state": _is_str, "latency_us": _is_num,
             "energy_j": _is_num},
        ),
        _event(
            "lem.decision",
            "the LEM granted a task request, with its full RuleContext",
            {"task": _is_str, "state": _is_str, "priority": _is_str,
             "battery": _is_str, "temperature": _is_str, "deferrals": _is_int},
            {"bus": _is_str, "wait_us": _is_num, "other_ip_energy_j": _is_num},
        ),
        _event(
            "lem.deferral",
            "the LEM deferred a pending request to the defer state",
            {"task": _is_str, "state": _is_str},
        ),
        _event(
            "lem.sleep",
            "the LEM pushed its idle IP toward a low-power state",
            {"state": _is_str, "reason": _is_str},
        ),
        _event(
            "gem.decision",
            "the GEM changed the set of enabled IPs (with its ResourceView)",
            {"enabled": _is_str_list, "disabled": _is_str_list,
             "fan_on": _is_bool},
            {"battery": _is_str, "temperature": _is_str, "bus": _is_str,
             "state_of_charge": _is_num, "temperature_c": _is_num,
             "bus_occupancy": _is_num, "pending_energy_j": _is_num},
        ),
        _event(
            "bus.request",
            "a master queued a bus transfer request",
            {"master": _is_str, "words": _is_int, "priority": _is_int},
        ),
        _event(
            "bus.grant",
            "the arbiter granted the bus to a master",
            {"master": _is_str, "words": _is_int, "wait_us": _is_num},
        ),
        _event(
            "bus.release",
            "a master completed its transfer and released the bus",
            {"master": _is_str, "words": _is_int},
        ),
        _event(
            "bus.cancel",
            "a queued or granted request was cancelled",
            {"master": _is_str, "granted": _is_bool},
        ),
        _event(
            "sample.window",
            "one battery/thermal sampling window closed",
            {"state_of_charge": _is_num, "temperature_c": _is_num},
        ),
        _event(
            "battery.level",
            "the quantised battery level crossed a threshold",
            {"level": _is_str},
            {"state_of_charge": _is_num},
        ),
        _event(
            "thermal.level",
            "the quantised thermal level crossed a threshold",
            {"level": _is_str},
            {"temperature_c": _is_num},
        ),
    ]
)

#: Categories (kind prefixes) accepted anywhere an event filter is read.
EVENT_CATEGORIES: Tuple[str, ...] = tuple(
    sorted({event.category for event in EVENT_TYPES.values()})
)


def expand_event_filter(names: Optional[Iterable[str]]) -> Optional[FrozenSet[str]]:
    """Expand a mix of kinds and categories into a frozenset of kinds.

    ``None`` or an empty sequence means "no filter" (trace everything)
    and returns ``None`` so the tracer's hot path can skip the set test.
    """
    if names is None:
        return None
    names = tuple(names)
    if not names:
        return None
    kinds = set()
    for name in names:
        if name in EVENT_TYPES:
            kinds.add(name)
        elif name in EVENT_CATEGORIES:
            kinds.update(
                kind for kind, event in EVENT_TYPES.items()
                if event.category == name
            )
        else:
            raise ObsError(
                f"unknown event kind or category {name!r}; expected one of "
                f"{', '.join(sorted(EVENT_TYPES))} or a category in "
                f"{', '.join(EVENT_CATEGORIES)}"
            )
    return frozenset(kinds)


def validate_event(event: Mapping) -> None:
    """Assert one serialized event matches its documented type.

    ``event`` is the flat mapping a sink writes: ``t_fs``, ``kind``,
    ``source`` plus the kind's payload fields.  Raises :class:`ObsError`
    on any deviation.
    """
    for key in ("t_fs", "kind", "source"):
        if key not in event:
            raise ObsError(f"event is missing the {key!r} envelope field: {event!r}")
    if not _is_int(event["t_fs"]) or event["t_fs"] < 0:
        raise ObsError(f"event t_fs must be a non-negative int: {event!r}")
    if not _is_str(event["source"]):
        raise ObsError(f"event source must be a string: {event!r}")
    kind = event["kind"]
    spec = EVENT_TYPES.get(kind)
    if spec is None:
        raise ObsError(f"unknown event kind {kind!r}")
    payload = {k: v for k, v in event.items() if k not in ("t_fs", "kind", "source")}
    for name, checker in spec.required.items():
        if name not in payload:
            raise ObsError(f"{kind} event is missing required field {name!r}: {event!r}")
        if not checker(payload[name]):
            raise ObsError(
                f"{kind} field {name!r} must be {_CHECKER_NAMES[checker]}, "
                f"got {payload[name]!r}"
            )
    for name, value in payload.items():
        if name in spec.required:
            continue
        checker = spec.optional.get(name)
        if checker is None:
            raise ObsError(f"{kind} event carries undocumented field {name!r}")
        if not checker(value):
            raise ObsError(
                f"{kind} field {name!r} must be {_CHECKER_NAMES[checker]}, "
                f"got {value!r}"
            )
