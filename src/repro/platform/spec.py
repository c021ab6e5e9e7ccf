"""The declarative platform specification tree.

A :class:`PlatformSpec` is a *pure data* description of everything the
simulator needs to run an experiment: the IP blocks (with their workloads,
DVFS operating points and power-state machines), the SoC-level battery,
thermal and GEM conditions, and optionally the power-management policy.  It
is the repo's answer to "a new scenario is a file, not a code change": specs
round-trip losslessly through plain dictionaries (and hence JSON/TOML, see
:mod:`repro.platform.serialize`), their canonical form is hash-stable (the
campaign result store dedupes on it) and every field is validated with an
error message that names the offending path::

    PlatformError: ips[2].workload.kind: unknown workload kind 'burstyy'
    (expected one of: bursty, explicit, high_activity, low_activity,
    periodic, random, scenario_a)

The tree deliberately contains **no** library objects (no ``SimTime``, no
enums, no factories): times are floats in explicit units (``*_us``,
``*_ms``), states and priorities are their string names.  The bridge from a
spec to runnable objects lives in :mod:`repro.platform.build`.

Layout of the tree::

    PlatformSpec
    ├── ips: [IpDef]
    │   ├── workload: WorkloadDef
    │   ├── operating_points: [OperatingPointDef]   (optional)
    │   └── psm: PsmDef                             (optional)
    │       └── transitions: [TransitionDef]
    ├── battery: BatteryDef
    ├── thermal: ThermalDef
    ├── gem: GemDef
    ├── bus: BusDef
    └── policy: PolicyDef                           (optional)

Each field is declared once, in its ``dataclasses.field`` metadata: its
kind, its default, its check (positive, range or vocabulary) and, for
:class:`IpDef`, its role.  One generic reader (``from_dict``), encoder
(``to_dict``) and per-field validator (``validate``) work from that table;
each class adds only a hook for the rules that span several fields.
``to_dict`` omits fields left at their defaults, so the canonical
dictionary of a spec is minimal and two equal specs always produce the same
canonical encoding.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from collections import abc
from dataclasses import MISSING, Field, dataclass, field, fields
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, List, Mapping, NoReturn, Optional, Sequence, Tuple, Type,
    TypeVar,
)

from repro.errors import PlatformError

__all__ = [
    "IP_ROLES",
    "SPEC_FORMAT",
    "BatteryDef",
    "BusDef",
    "GemDef",
    "IpDef",
    "OperatingPointDef",
    "PlatformSpec",
    "PolicyDef",
    "PsmDef",
    "ThermalDef",
    "TraceDef",
    "TransitionDef",
    "WorkloadDef",
]

#: Format tag written into every serialized spec; bump on breaking changes.
SPEC_FORMAT = "repro-platform/1"

# ----------------------------------------------------------------------
# Vocabulary (string values accepted by the spec format)
# ----------------------------------------------------------------------
ALL_STATE_NAMES = ("OFF", "SL4", "SL3", "SL2", "SL1", "ON4", "ON3", "ON2", "ON1")
ON_STATE_NAMES = ("ON1", "ON2", "ON3", "ON4")
LOW_STATE_NAMES = ("SL1", "SL2", "SL3", "SL4", "OFF")
PRIORITY_NAMES = ("low", "medium", "high", "very_high")
INSTRUCTION_CLASS_NAMES = ("alu", "memory", "control", "dsp", "io")
BATTERY_CONDITIONS = ("full", "high", "medium", "low", "empty")
THERMAL_CONDITIONS = ("low", "high")
POLICY_NAMES = ("paper", "always-on", "greedy-sleep", "fixed-timeout", "oracle")
PREDICTOR_NAMES = ("fixed", "last-value", "ewma", "adaptive")
#: States a selection rule may pick (ON or sleep — never OFF, the LEM cannot
#: grant a task on a powered-down IP) and the level vocabularies of the
#: rule-context dimensions, mirroring the enums of :mod:`repro.dpm.levels`.
RULE_STATE_NAMES = ("ON1", "ON2", "ON3", "ON4", "SL1", "SL2", "SL3", "SL4")
BATTERY_LEVEL_NAMES = ("empty", "low", "medium", "high", "full", "ac_power")
TEMPERATURE_LEVEL_NAMES = ("low", "medium", "high")
BUS_LEVEL_NAMES = ("low", "medium", "high")
_RULE_ENTRY_KEYS = ("state", "priorities", "batteries", "temperatures", "buses", "label")
BUS_ARBITRATION_NAMES = ("fifo", "priority")
BUS_TIMING_NAMES = ("event_driven", "cycle_accurate")
TRACE_FORMAT_NAMES = ("jsonl", "perfetto", "vcd")
WORKLOAD_KINDS = (
    "bursty",
    "explicit",
    "high_activity",
    "low_activity",
    "periodic",
    "random",
    "scenario_a",
)

#: The flat bus keys of an earlier format, rejected with what replaced them.
_FLAT_BUS_KEYS = ("with_bus", "bus_words_per_second")


# ----------------------------------------------------------------------
# Validation helpers (structural checks with dotted paths)
# ----------------------------------------------------------------------
def _fail(path: str, message: str) -> NoReturn:
    raise PlatformError(f"{path}: {message}")


def _choices(values: Iterable[str]) -> str:
    return ", ".join(sorted(values))


def _as_mapping(value: Any, path: str) -> Dict[str, Any]:
    if not isinstance(value, abc.Mapping):
        _fail(path, f"expected a mapping/table, got {type(value).__name__}")
    return dict(value)


def _check_keys(mapping: Mapping[str, Any], path: str, allowed: Iterable[str]) -> None:
    unknown = set(mapping) - set(allowed)
    if unknown:
        _fail(
            path,
            f"unknown field(s) {_choices(sorted(unknown))} "
            f"(allowed: {_choices(allowed)})",
        )


def _check_choice(value: Optional[str], path: str, choices: Sequence[str], what: str) -> None:
    if value is not None and value not in choices:
        _fail(path, f"unknown {what} {value!r} (expected one of: {_choices(choices)})")


#: Per value kind: does a value have it, and how a value without it is named.
_TYPES: Dict[str, Tuple[Callable[[Any], bool], Callable[[Any], str]]] = {
    "str": (lambda v: isinstance(v, str), lambda v: f"expected a string, got {type(v).__name__}"),
    "bool": (lambda v: isinstance(v, bool), lambda v: f"expected a boolean, got {type(v).__name__}"),
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool),
            lambda v: f"expected an integer, got {v!r}"),
    "float": (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
              lambda v: f"expected a number, got {v!r}"),
    "list": (lambda v: type(v) is list or (isinstance(v, abc.Sequence) and not isinstance(v, (str, bytes))),
             lambda v: f"expected a list/array, got {type(v).__name__}"),
    "mapping": (lambda v: isinstance(v, abc.Mapping),
                lambda v: f"expected a mapping/table, got {type(v).__name__}"),
}


def _expect(kind: str, value: Any, path: str, name: str = "") -> None:
    """Fail unless ``value`` is of ``kind``, at ``path`` (``path.name`` given a name)."""
    accepts, describe = _TYPES[kind]
    if not accepts(value):
        _fail(f"{path}.{name}" if name else path, describe(value))


# ----------------------------------------------------------------------
# Field declarations
# ----------------------------------------------------------------------
#: A range check: does a value pass, and the error message (``{value!r}``
#: is filled in).
Check = Tuple[Callable[[Any], bool], str]


def _positive(what: str) -> Check:
    return (lambda value: value > 0, what + " must be positive, got {value!r}")


def _at_least(bound: float, message: str) -> Check:
    return (lambda value: value >= bound, message)


_IDLE_TIME = _at_least(0, "idle times must be >= 0, got {value!r}")


def _declare(kind: str, default: Any = MISSING, *, factory: Any = MISSING, **spec: Any) -> Any:
    """A dataclass field that carries its declaration in its metadata.

    ``kind`` is one of ``str``, ``int``, ``float``, ``bool``, ``names`` (a
    list of strings), ``float_map`` (state or class name to number),
    ``node``/``nodes`` (one or a list of nested spec sections, class in
    ``node``) or ``mappings`` (a list of plain mappings checked by the
    class hook).  The other keys, all optional:

    * ``required`` — the reader rejects a missing key: ``True`` for the
      usual message, or a message template (``{name!r}`` is the section's
      name).  Required fields are always written by ``to_dict``.
    * ``always`` — ``to_dict`` writes the field even at its default.
    * ``header`` — ``to_dict`` writes the field before the others.
    * ``choices`` — ``(vocabulary, noun)`` a string (a list entry, a map
      key) must come from.
    * ``check`` — a :data:`Check` on a number (a map value).
    * ``empty`` — the error for an empty string or list.
    * ``entry`` — the error for a list entry that is not a string.
    * ``kinds`` — the workload kinds a :class:`WorkloadDef` field applies to
      (all when absent).
    * ``role`` — an :class:`IpDef` field's role: ``power`` (shapes the power
      model), ``workload`` or ``placement``.
    """
    metadata = {"kind": kind, **spec}
    if factory is not MISSING:
        return field(default_factory=factory, metadata=metadata)
    return field(default=default, metadata=metadata)


_str = functools.partial(_declare, "str")
_int = functools.partial(_declare, "int")
_float = functools.partial(_declare, "float")
_bool = functools.partial(_declare, "bool")


def _node(cls: type, default: Any = MISSING, **spec: Any) -> Any:
    """A nested section, defaulting to ``cls()`` unless ``default`` is given."""
    factory = cls if default is MISSING else MISSING
    return _declare("node", default, factory=factory, node=cls, **spec)


class _Field:
    """One declared field, compiled once per class when the module is imported.

    ``read(raw, path)`` converts a mapping value, ``check(value, path)``
    validates an attribute; both take the *section's* path and only build
    the field's dotted path to report an error.
    """

    __slots__ = ("name", "default", "required", "header", "meta", "read", "check", "encode", "mode")

    def __init__(self, name: str, declared: Field) -> None:
        meta = declared.metadata
        kind = meta["kind"]
        self.name = name
        self.meta = meta
        factory = declared.default_factory
        self.default: Any = factory() if callable(factory) else declared.default
        self.required = meta.get("required", False)
        self.header = meta.get("header", False)
        if self.required or meta.get("always", False):
            self.mode = _ALWAYS
        elif kind == "node":
            self.mode = _UNLESS_EMPTY
        else:
            self.mode = _UNLESS_UNSET if self.default is None else _UNLESS_DEFAULT
        self.read, self.check, self.encode = _COMPILERS[kind](name, meta)


#: ``to_dict`` modes: always written, omitted when ``None`` (the default),
#: omitted at the default, or (nested sections) omitted when unset or
#: encoded empty.
_ALWAYS, _UNLESS_UNSET, _UNLESS_DEFAULT, _UNLESS_EMPTY = range(4)

Reader = Callable[[Any, str], Any]
Validator = Callable[[Any, str], None]
Encoder = Optional[Callable[[Any], Any]]
Compiled = Tuple[Reader, Validator, Encoder]


def _scalar(kind: str) -> Callable[[str, Mapping[str, Any]], Compiled]:
    accepts, describe = _TYPES[kind]
    exact = {"str": str, "int": int, "float": float, "bool": bool}[kind]
    convert = {"int": int, "float": float}.get(kind)
    finite = kind == "float"

    def compile_scalar(name: str, meta: Mapping[str, Any]) -> Compiled:
        vocabulary, noun = meta.get("choices", (None, None))
        allowed = frozenset(vocabulary) if vocabulary is not None else None
        empty = meta.get("empty")
        ok, message = meta.get("check", (None, ""))

        def read(raw: Any, path: str) -> Any:
            if not accepts(raw):
                _fail(f"{path}.{name}", describe(raw))
            return raw if convert is None else convert(raw)

        def check(value: Any, path: str) -> None:
            if type(value) is not exact and not accepts(value):
                _fail(f"{path}.{name}", describe(value))
            if finite and not math.isfinite(value):
                _fail(f"{path}.{name}", f"expected a finite number, got {value!r}")
            if allowed is not None and value not in allowed:
                _check_choice(value, f"{path}.{name}", vocabulary, noun)
            if empty is not None and not value:
                _fail(f"{path}.{name}", empty)
            if ok is not None and not ok(value):
                _fail(f"{path}.{name}", message.format(value=value))

        return read, check, None

    return compile_scalar


def _names(name: str, meta: Mapping[str, Any]) -> Compiled:
    vocabulary, noun = meta.get("choices", (None, None))
    empty = meta.get("empty")
    entry_error = meta["entry"]

    def entries(value: Any, path: str) -> None:
        for index, entry in enumerate(value):
            if not isinstance(entry, str):
                _fail(f"{path}.{name}[{index}]",
                      entry_error.format(value=entry, type=type(entry).__name__))

    def read(raw: Any, path: str) -> Any:
        _expect("list", raw, path, name)
        entries(raw, path)
        return list(raw)

    def check(value: Any, path: str) -> None:
        if type(value) is not list:
            _expect("list", value, path, name)
        entries(value, path)
        if empty is not None and not value:
            _fail(f"{path}.{name}", empty)
        if vocabulary is not None:
            for index, entry in enumerate(value):
                if entry not in vocabulary:
                    _check_choice(entry, f"{path}.{name}[{index}]", vocabulary, noun)

    return read, check, list


def _number_map(name: str, meta: Mapping[str, Any]) -> Compiled:
    vocabulary, noun = meta["choices"]
    ok, message = meta["check"]

    def read(raw: Any, path: str) -> Any:
        result = {}
        for key, item in _as_mapping(raw, f"{path}.{name}").items():
            _check_choice(key, f"{path}.{name}.{key}", vocabulary, noun)
            _expect("float", item, f"{path}.{name}.{key}")
            result[key] = float(item)
        return result

    def check(value: Any, path: str) -> None:
        if type(value) is not dict:
            _expect("mapping", value, path, name)
        for key, item in value.items():
            if key in vocabulary and type(item) is float and math.isfinite(item) and ok(item):
                continue
            item_path = f"{path}.{name}.{key}"
            _check_choice(key, item_path, vocabulary, noun)
            _expect("float", item, item_path)
            if not math.isfinite(item):
                _fail(item_path, f"expected a finite number, got {item!r}")
            if not ok(item):
                _fail(item_path, message.format(value=item))

    return read, check, lambda value: dict(sorted(value.items()))


def _nested(name: str, meta: Mapping[str, Any]) -> Compiled:
    cls = meta["node"]

    def read(raw: Any, path: str) -> Any:
        return cls._read(raw, f"{path}.{name}")

    def check(value: Any, path: str) -> None:
        if not isinstance(value, cls):
            _fail(f"{path}.{name}", f"expected a {cls.__name__}, got {type(value).__name__}")
        value.validate(f"{path}.{name}")

    return read, check, lambda value: value.to_dict()


def _nested_list(name: str, meta: Mapping[str, Any]) -> Compiled:
    cls = meta["node"]

    def read(raw: Any, path: str) -> Any:
        _expect("list", raw, path, name)
        return [cls._read(item, f"{path}.{name}[{index}]") for index, item in enumerate(raw)]

    def check(value: Any, path: str) -> None:
        if type(value) is not list:
            _expect("list", value, path, name)
        for index, item in enumerate(value):
            if not isinstance(item, cls):
                _fail(f"{path}.{name}[{index}]",
                      f"expected a {cls.__name__}, got {type(item).__name__}")
            item.validate(f"{path}.{name}[{index}]")

    return read, check, lambda value: [item.to_dict() for item in value]


def _mapping_list(name: str, meta: Mapping[str, Any]) -> Compiled:
    def read(raw: Any, path: str) -> Any:
        _expect("list", raw, path, name)
        return [_as_mapping(item, f"{path}.{name}[{index}]") for index, item in enumerate(raw)]

    def check(value: Any, path: str) -> None:
        if type(value) is not list:
            _expect("list", value, path, name)

    return read, check, list


_COMPILERS: Dict[str, Callable[[str, Mapping[str, Any]], Compiled]] = {
    "str": _scalar("str"),
    "int": _scalar("int"),
    "float": _scalar("float"),
    "bool": _scalar("bool"),
    "names": _names,
    "float_map": _number_map,
    "node": _nested,
    "nodes": _nested_list,
    "mappings": _mapping_list,
}

_N = TypeVar("_N", bound="_Node")


class _Node:
    """Reading, encoding and validation of a spec class from its field table."""

    #: the compiled fields, in declaration (constructor) order
    _fields: Tuple[_Field, ...] = ()
    #: ``(name, mode, default, encode)`` in ``to_dict`` order (header first)
    _encoding: Tuple[Tuple[str, int, Any, Encoder], ...] = ()
    #: ``(name, check, default)`` in declaration order
    _checks: Tuple[Tuple[str, Validator, Any], ...] = ()
    _keys: FrozenSet[str] = frozenset()
    #: default path of :meth:`from_dict` errors
    _path = ""

    @classmethod
    def _admit(cls, mapping: Dict[str, Any], path: str) -> None:
        """Reject keys the section does not read (before any field is read)."""
        _check_keys(mapping, path, cls._keys)

    @classmethod
    def _read(cls: Type[_N], value: Any, path: str) -> _N:
        mapping = _as_mapping(value, path)
        cls._admit(mapping, path)
        values: Dict[str, Any] = {}
        for spec in cls._fields:
            if spec.name in mapping:
                values[spec.name] = spec.read(mapping[spec.name], path)
            elif spec.required:
                message = (f"missing required field '{spec.name}'" if spec.required is True
                           else spec.required.format(name=values.get("name")))
                _fail(path, message)
        return cls(**values)

    @classmethod
    def from_dict(cls: Type[_N], value: Any, path: Optional[str] = None) -> _N:
        """Read the section from plain data (parsed JSON/TOML)."""
        return cls._read(value, path or cls._path)

    def to_dict(self) -> Dict[str, Any]:
        """Canonical plain-data view: fields at their defaults are omitted."""
        data: Dict[str, Any] = {}
        attributes = self.__dict__
        for name, mode, default, encode in self._encoding:
            value = attributes[name]
            if mode == _UNLESS_UNSET:
                if value is None:
                    continue
            elif mode == _UNLESS_DEFAULT:
                if value == default:
                    continue
            elif mode == _UNLESS_EMPTY:
                if value is None:
                    continue
                value = value.to_dict()
                if not value:
                    continue
                data[name] = value
                continue
            data[name] = value if encode is None or value is None else encode(value)
        return data

    def validate(self: _N, path: str) -> _N:
        """Check every field, then the cross-field rules; raises with a path.

        A field still holding its default object (``None`` for an unset
        optional one) is valid by declaration and skipped.
        """
        attributes = self.__dict__
        for name, check, default in self._checks:
            value = attributes[name]
            if value is not default:
                check(value, path)
        self._check_rules(path)
        return self

    def _check_rules(self, path: str) -> None:
        """The class's rules that span several fields (none by default)."""


class _Switched(_Node):
    """A section whose other fields only apply while ``enabled`` is set."""

    enabled: bool
    #: what the other fields are called in the error for a disabled section
    _knobs_noun = ""
    #: a getter of the fields other than ``enabled``, and their defaults (set by ``_table``)
    _knobs: Callable[[Any], Tuple[Any, ...]]
    _knob_defaults: Tuple[Any, ...]

    def has_overrides(self) -> bool:
        """True when any knob other than ``enabled`` differs from its default."""
        return self._knobs(self) != self._knob_defaults

    def _check_rules(self, path: str) -> None:
        if not self.enabled and self.has_overrides():
            _fail(path, f"{self._knobs_noun} are set but 'enabled' is false")


def _table(cls: Type[_N]) -> Type[_N]:
    """Compile ``cls``'s field declarations (once, at import)."""
    cls._fields = tuple(_Field(declared.name, declared) for declared in fields(cls))
    cls._encoding = tuple((spec.name, spec.mode, spec.default, spec.encode)
                          for spec in sorted(cls._fields, key=lambda spec: not spec.header))
    cls._checks = tuple((spec.name, spec.check, spec.default) for spec in cls._fields)
    cls._keys = frozenset(spec.name for spec in cls._fields)
    if issubclass(cls, _Switched):
        knobs = [spec for spec in cls._fields if spec.name != "enabled"]
        cls._knobs = operator.attrgetter(*(spec.name for spec in knobs))
        cls._knob_defaults = tuple(spec.default for spec in knobs)
    cls._path = re.sub(r"(?<!^)(?=[A-Z])", "_", cls.__name__.removesuffix("Def")).lower()
    return cls


# ----------------------------------------------------------------------
# Leaf definitions
# ----------------------------------------------------------------------
@_table
@dataclass
class OperatingPointDef(_Node):
    """One DVFS point of an IP: the voltage and frequency of an ON state."""

    state: str = _str(required=True, choices=(ON_STATE_NAMES, "ON state"))
    voltage_v: float = _float(
        required="an operating point needs both 'voltage_v' and 'frequency_hz'",
        check=_positive("supply voltage"))
    frequency_hz: float = _float(
        required="an operating point needs both 'voltage_v' and 'frequency_hz'",
        check=_positive("clock frequency"))


@_table
@dataclass
class TransitionDef(_Node):
    """One entry of a user-defined PSM transition table.

    Overrides (or, with ``allowed: false``, removes) the generated default
    cost of the ``source -> target`` transition.
    """

    source: str = _str(required=True, choices=(ALL_STATE_NAMES, "power state"))
    target: str = _str(required=True, choices=(ALL_STATE_NAMES, "power state"))
    energy_j: Optional[float] = _float(None)
    latency_us: Optional[float] = _float(None)
    allowed: bool = _bool(True)

    def _check_rules(self, path: str) -> None:
        if self.source == self.target:
            _fail(path, f"self-transition {self.source}->{self.target} cannot be customised")
        if self.allowed:
            if self.energy_j is None or self.latency_us is None:
                _fail(
                    path,
                    f"transition {self.source}->{self.target} needs both 'energy_j' "
                    "and 'latency_us' (or 'allowed': false to forbid it)",
                )
            if self.energy_j < 0:
                _fail(f"{path}.energy_j", f"transition energy must be >= 0, got {self.energy_j!r}")
            if self.latency_us < 0:
                _fail(f"{path}.latency_us", f"transition latency must be >= 0, got {self.latency_us!r}")
        elif self.energy_j is not None or self.latency_us is not None:
            _fail(path, "a forbidden transition ('allowed': false) cannot carry costs")


@_table
@dataclass
class PsmDef(_Node):
    """A user-defined power-state machine (transition cost table).

    The table starts from the library defaults (scaled to the IP's
    characterisation) with the latency knobs applied, then the explicit
    ``transitions`` entries override or remove individual pairs.
    """

    dvfs_latency_us: Optional[float] = _float(None, check=_positive("DVFS latency"))
    entry_latency_us: Dict[str, float] = _declare(
        "float_map", factory=dict, choices=(LOW_STATE_NAMES, "sleep/off state"),
        check=_positive("entry latency"))
    wakeup_latency_us: Dict[str, float] = _declare(
        "float_map", factory=dict, choices=(LOW_STATE_NAMES, "sleep/off state"),
        check=_positive("wake-up latency"))
    transitions: List[TransitionDef] = _declare("nodes", factory=list, node=TransitionDef)

    def _check_rules(self, path: str) -> None:
        seen = set()
        for index, transition in enumerate(self.transitions):
            pair = (transition.source, transition.target)
            if pair in seen:
                _fail(
                    f"{path}.transitions[{index}]",
                    f"duplicate transition {transition.source}->{transition.target}",
                )
            seen.add(pair)


_PRIORITY = (PRIORITY_NAMES, "task priority")
_INSTRUCTION_CLASS = (INSTRUCTION_CLASS_NAMES, "instruction class")
_SEEDED = ("random", "high_activity", "low_activity", "bursty", "scenario_a")
_COUNTED = ("periodic", "random", "high_activity", "low_activity", "scenario_a")
_POOLED = ("random", "high_activity", "low_activity", "bursty")


@_table
@dataclass
class WorkloadDef(_Node):
    """Declarative workload: a generator reference or an explicit task list.

    ``kind`` selects one of the generators of :mod:`repro.soc.workload`
    (``periodic``, ``random``, ``high_activity``, ``low_activity``,
    ``bursty``), the composite ``scenario_a`` sequence of the paper's single
    IP rows, or ``explicit`` (an inline ``items`` list in the
    :meth:`repro.soc.workload.Workload.as_dicts` format).  Fields left unset
    use the generator's own defaults, so thin specs stay thin.
    """

    kind: str = _str("high_activity", always=True, choices=(WORKLOAD_KINDS, "workload kind"))
    name: Optional[str] = _str(None)
    task_count: Optional[int] = _int(None, check=_positive("task count"), kinds=_COUNTED)
    seed: Optional[int] = _int(None, kinds=_SEEDED)
    # periodic
    cycles: Optional[int] = _int(None, check=_positive("cycle count"), kinds=("periodic",))
    idle_us: Optional[float] = _float(None, check=_IDLE_TIME, kinds=("periodic",))
    priority: Optional[str] = _str(None, choices=_PRIORITY, kinds=("periodic",))
    instruction_class: Optional[str] = _str(None, choices=_INSTRUCTION_CLASS, kinds=("periodic",))
    # random / bursty
    cycles_min: Optional[int] = _int(None, kinds=("random", "bursty"))
    cycles_max: Optional[int] = _int(None, kinds=("random", "bursty"))
    idle_min_us: Optional[float] = _float(None, check=_IDLE_TIME, kinds=("random",))
    idle_max_us: Optional[float] = _float(None, check=_IDLE_TIME, kinds=("random",))
    priorities: Optional[List[str]] = _declare(
        "names", None, choices=_PRIORITY, empty="the priority pool must not be empty",
        entry="expected a priority name, got {value!r}", kinds=_POOLED)
    # bursty
    burst_count: Optional[int] = _int(None, check=_positive("burst count"), kinds=("bursty",))
    tasks_per_burst: Optional[int] = _int(
        None, check=_positive("tasks per burst"), kinds=("bursty",))
    intra_burst_idle_us: Optional[float] = _float(None, check=_IDLE_TIME, kinds=("bursty",))
    inter_burst_idle_us: Optional[float] = _float(None, check=_IDLE_TIME, kinds=("bursty",))
    # explicit
    items: Optional[List[Dict[str, Any]]] = _declare("mappings", None, kinds=("explicit",))
    # post-transforms (any kind)
    idle_scale: Optional[float] = _float(
        None, check=_at_least(0, "idle scale must be >= 0, got {value!r}"))
    force_priority: Optional[str] = _str(None, choices=_PRIORITY)

    @classmethod
    def _admit(cls, mapping: Dict[str, Any], path: str) -> None:
        if "kind" not in mapping:
            _fail(path, "missing required field 'kind'")
        kind = mapping["kind"]
        _expect("str", kind, f"{path}.kind")
        _check_choice(kind, f"{path}.kind", WORKLOAD_KINDS, "workload kind")
        allowed = _WORKLOAD_FIELDS[kind]
        unknown = set(mapping) - allowed
        if unknown:
            _fail(
                path,
                f"field(s) {_choices(sorted(unknown))} do not apply to workload "
                f"kind {kind!r} (allowed: {_choices(sorted(allowed))})",
            )

    def validate(self, path: str) -> "WorkloadDef":
        _check_choice(self.kind, f"{path}.kind", WORKLOAD_KINDS, "workload kind")
        attributes = self.__dict__
        for name in _FOREIGN_FIELDS[self.kind]:
            if attributes[name] is not None:
                _fail(
                    path,
                    f"field {name!r} does not apply to workload kind {self.kind!r} "
                    f"(allowed: {_choices(sorted(_WORKLOAD_FIELDS[self.kind]))})",
                )
        return super().validate(path)

    def _check_rules(self, path: str) -> None:
        if (self.cycles_min is None) != (self.cycles_max is None):
            _fail(path, "'cycles_min' and 'cycles_max' must be given together")
        if self.cycles_min is not None and not 0 < self.cycles_min <= self.cycles_max:
            _fail(path, f"invalid cycle range [{self.cycles_min}, {self.cycles_max}]")
        if (self.idle_min_us is None) != (self.idle_max_us is None):
            _fail(path, "'idle_min_us' and 'idle_max_us' must be given together")
        if self.idle_min_us is not None and self.idle_min_us > self.idle_max_us:
            _fail(path, f"invalid idle range [{self.idle_min_us}, {self.idle_max_us}]")
        if self.kind == "explicit":
            if not self.items:
                _fail(f"{path}.items", "an explicit workload needs at least one item")
            for index, item in enumerate(self.items):
                _check_item(item, f"{path}.items[{index}]")
        elif self.kind == "periodic" and self.task_count is None:
            _fail(path, "a periodic workload needs 'task_count'")
        elif self.kind == "random" and self.task_count is None:
            _fail(path, "a random workload needs 'task_count'")
        elif self.kind == "scenario_a" and self.task_count is not None and self.task_count < 2:
            _fail(f"{path}.task_count", "the scenario A workload needs at least two tasks "
                  f"(a busy and an idle half), got {self.task_count!r}")


#: WorkloadDef fields allowed for each kind, and the others (in field order).
_WORKLOAD_FIELDS: Dict[str, FrozenSet[str]] = {
    kind: frozenset(spec.name for spec in WorkloadDef._fields
                    if kind in spec.meta.get("kinds", (kind,)))
    for kind in WORKLOAD_KINDS
}
_FOREIGN_FIELDS: Dict[str, Tuple[str, ...]] = {
    kind: tuple(spec.name for spec in WorkloadDef._fields if spec.name not in allowed)
    for kind, allowed in _WORKLOAD_FIELDS.items()
}

#: The fields of one explicit workload item (a ``Workload.as_dicts`` entry).
_ITEM_FIELDS = (
    _Field("task", _str(empty="task name must be non-empty")),
    _Field("cycles", _int(check=_positive("cycle count"))),
    _Field("idle_after_fs", _int(None, check=_IDLE_TIME)),
)
_EXPLICIT_ITEM_KEYS = ("task", "cycles", "priority", "instruction_class", "idle_after_fs")


def _check_item(item: Any, path: str) -> None:
    _expect("mapping", item, path)
    for key in item:
        if key.startswith("idle_after_") and key != "idle_after_fs":
            _fail(f"{path}.{key}", f"{key!r} is not read; the idle gap "
                  "is 'idle_after_fs' (integer femtoseconds)")
    _check_keys(item, path, _EXPLICIT_ITEM_KEYS)
    for required in ("task", "cycles"):
        if required not in item:
            _fail(path, f"missing required item field {required!r}")
    _check_choice(item.get("priority"), f"{path}.priority", *_PRIORITY)
    _check_choice(item.get("instruction_class"), f"{path}.instruction_class",
                  *_INSTRUCTION_CLASS)
    for spec in _ITEM_FIELDS:
        if spec.name in item:
            spec.check(item[spec.name], path)


@_table
@dataclass
class IpDef(_Node):
    """Declarative description of one IP block.

    The power characterisation fields (``max_frequency_hz`` ...
    ``residual_fraction``) and the explicit ``operating_points`` are all
    optional; when *none* of them is given the IP uses the library's default
    characterisation object, byte for byte.  ``activity_by_class`` and
    ``residual_fraction`` are partial overrides merged over the defaults.
    """

    name: str = _str(required=True, empty="IP name must be non-empty", role="placement")
    workload: WorkloadDef = _node(
        WorkloadDef, required="IP {name!r} is missing its 'workload'", role="workload")
    static_priority: int = _int(
        1, check=_at_least(1, "static priority must be >= 1, got {value!r}"), role="placement")
    initial_state: str = _str(
        "ON1", choices=(ALL_STATE_NAMES, "power state"), role="placement")
    bus_words_per_task: int = _int(
        0, check=_at_least(0, "bus words per task must be >= 0"), role="placement")
    bus_priority: Optional[int] = _int(
        None, check=_at_least(0, "bus priority must be >= 0, got {value!r}"), role="placement")
    max_frequency_hz: Optional[float] = _float(None, check=_positive("frequency"), role="power")
    max_voltage_v: Optional[float] = _float(None, check=_positive("voltage"), role="power")
    effective_capacitance_f: Optional[float] = _float(
        None, check=_positive("capacitance"), role="power")
    idle_activity: Optional[float] = _float(
        None, check=(lambda v: 0.0 < v < 1.0,
                     "idle activity must be a fraction in (0, 1), got {value!r}"),
        role="power")
    leakage_coefficient: Optional[float] = _float(
        None, check=_at_least(0, "leakage coefficient must be >= 0"), role="power")
    activity_by_class: Optional[Dict[str, float]] = _declare(
        "float_map", None, choices=_INSTRUCTION_CLASS, check=_positive("activity"), role="power")
    residual_fraction: Optional[Dict[str, float]] = _declare(
        "float_map", None, choices=(LOW_STATE_NAMES, "sleep/off state"),
        check=(lambda v: 0.0 <= v <= 1.0, "residual fraction must be in [0, 1], got {value!r}"),
        role="power")
    operating_points: Optional[List[OperatingPointDef]] = _declare(
        "nodes", None, node=OperatingPointDef, role="power")
    psm: Optional[PsmDef] = _node(PsmDef, None, role="power")

    def has_custom_characterization(self) -> bool:
        """True when any characterisation knob differs from the defaults."""
        return any(getattr(self, name) is not None for name in _CHARACTERIZATION_FIELDS)

    def _check_rules(self, path: str) -> None:
        if self.operating_points is None:
            return
        states = [point.state for point in self.operating_points]
        if len(states) != len(set(states)):
            _fail(f"{path}.operating_points", "duplicate operating-point states")
        missing = [s for s in ON_STATE_NAMES if s not in states]
        if missing:
            _fail(f"{path}.operating_points",
                  f"missing operating point(s) for {_choices(missing)} "
                  "(the table must cover ON1..ON4)")
        if self.max_frequency_hz is not None or self.max_voltage_v is not None:
            _fail(path,
                  "'operating_points' already fixes the DVFS table; drop "
                  "'max_frequency_hz'/'max_voltage_v'")


#: Role of each IpDef field: ``power`` (shapes the power model),
#: ``workload`` or ``placement`` (name, priorities, initial state, bus).
IP_ROLES: Mapping[str, str] = {spec.name: spec.meta["role"] for spec in IpDef._fields}
#: The power fields that shape the characterisation (the PSM shapes the
#: transition table only).
_CHARACTERIZATION_FIELDS = tuple(
    name for name, role in IP_ROLES.items() if role == "power" and name != "psm"
)


@_table
@dataclass
class BusDef(_Switched):
    """The shared on-chip bus: presence, bandwidth, arbitration and timing.

    ``timing`` selects the bus model: ``event_driven`` (immediate grants,
    exact durations) or ``cycle_accurate`` (grants land only on the rising
    edges of a ``words_per_second / words_per_cycle`` Hz bus clock and
    durations round up to whole bus cycles).  The arbiter computes the next
    edge with ``Clock.next_posedge_fs``; no toggling process runs.
    """

    enabled: bool = _bool(False)
    words_per_second: float = _float(50e6, check=_positive("bus throughput"))
    arbitration: str = _str("priority", choices=(BUS_ARBITRATION_NAMES, "arbitration policy"))
    timing: str = _str("event_driven", choices=(BUS_TIMING_NAMES, "bus timing mode"))
    words_per_cycle: int = _int(
        1, check=_at_least(1, "words per cycle must be an integer >= 1, got {value!r}"))

    _knobs_noun = "bus parameters"


@_table
@dataclass
class TraceDef(_Switched):
    """Structured tracing (:mod:`repro.obs`): sink format, path and filter.

    ``format`` selects the sink: ``jsonl`` (one typed event per line),
    ``perfetto`` (Chrome-trace JSON for ui.perfetto.dev) or ``vcd``
    (PSM state and bus busy waveforms built from the same events).  ``events``
    optionally restricts jsonl/perfetto traces to a set of event kinds
    and/or categories from the ``repro.obs`` taxonomy.  ``path`` names the
    output file; when omitted the runner derives
    ``<scenario>_trace.<ext>`` next to the working directory.
    """

    enabled: bool = _bool(False)
    format: str = _str("jsonl", choices=(TRACE_FORMAT_NAMES, "trace format"))
    path: Optional[str] = _str(None, empty="trace path must be non-empty")
    events: List[str] = _declare("names", factory=list, entry="expected a string, got {type}")

    _knobs_noun = "trace parameters"

    def _check_rules(self, path: str) -> None:
        if self.events:
            # The event vocabulary lives with the tracing subsystem; imported
            # lazily (and only when a filter is set) so validating untraced
            # specs never pulls repro.obs in at all.
            from repro.obs.events import EVENT_CATEGORIES, EVENT_TYPES

            for index, entry in enumerate(self.events):
                if entry not in EVENT_TYPES and entry not in EVENT_CATEGORIES:
                    _fail(f"{path}.events[{index}]",
                          f"unknown event kind or category {entry!r} (expected "
                          f"a kind such as {_choices(tuple(EVENT_TYPES)[:3])}... "
                          f"or a category: {_choices(EVENT_CATEGORIES)})")
            if self.format == "vcd":
                _fail(f"{path}.events",
                      "event filters only apply to jsonl/perfetto traces")
        super()._check_rules(path)


@_table
@dataclass
class BatteryDef(_Node):
    """Battery condition: a named preset, explicit parameters, or both.

    ``condition`` references the presets of
    :func:`repro.platform.build.battery_condition` (the paper's
    "Full"/"Low" classes); explicit fields override the preset.
    """

    condition: Optional[str] = _str(None, choices=(BATTERY_CONDITIONS, "battery condition"))
    capacity_j: Optional[float] = _float(None, check=_positive("battery capacity"))
    state_of_charge: Optional[float] = _float(
        None, check=(lambda v: 0.0 <= v <= 1.0, "state of charge must be in [0, 1], got {value!r}"))
    nominal_power_w: Optional[float] = _float(None, check=_positive("nominal power"))
    peukert_exponent: Optional[float] = _float(
        None, check=_at_least(1.0, "Peukert exponent must be >= 1"))
    self_discharge_w: Optional[float] = _float(
        None, check=_at_least(0, "self-discharge power must be >= 0"))
    on_ac_power: Optional[bool] = _bool(None)


@_table
@dataclass
class ThermalDef(_Node):
    """Thermal condition: a named preset, explicit parameters, or both.

    ``condition`` references
    :func:`repro.platform.build.thermal_condition` (evaluated with
    the platform's IP count); explicit fields override the preset.
    """

    condition: Optional[str] = _str(None, choices=(THERMAL_CONDITIONS, "thermal condition"))
    ambient_c: Optional[float] = _float(None)
    initial_c: Optional[float] = _float(None)
    resistance_c_per_w: Optional[float] = _float(None, check=_positive("thermal resistance"))
    capacitance_j_per_c: Optional[float] = _float(None, check=_positive("thermal capacitance"))
    fan_resistance_scale: Optional[float] = _float(
        None, check=(lambda v: 0.0 < v <= 1.0,
                     "fan resistance scale must be in (0, 1], got {value!r}"))

    def _check_rules(self, path: str) -> None:
        if (self.ambient_c is not None and self.initial_c is not None
                and self.initial_c < self.ambient_c - 1e-9):
            _fail(f"{path}.initial_c", "initial temperature cannot be below ambient")


@_table
@dataclass
class GemDef(_Switched):
    """Global Energy Manager: presence plus its tunables."""

    enabled: bool = _bool(False)
    high_priority_count: Optional[int] = _int(
        None, check=_at_least(1, "at least one priority rank must stay enabled"))
    evaluation_interval_us: Optional[float] = _float(None, check=_positive("evaluation interval"))
    forced_state: Optional[str] = _str(None, choices=(LOW_STATE_NAMES, "sleep/off state"))

    _knobs_noun = "GEM tunables"


@_table
@dataclass
class PolicyDef(_Node):
    """Default power-management policy of the platform.

    Optional: a platform without a policy runs under whatever
    :class:`~repro.dpm.controller.DpmSetup` the caller passes (default: the
    paper's DPM).  When present it selects the named setup and its knobs —
    and explicit setups passed by experiments/campaigns still win.

    ``rules`` (``paper`` policy only) replaces the paper's Table 1 with a
    custom first-match rule list in the
    :meth:`repro.dpm.rules.RuleTable.as_dicts` format: each entry has a
    ``state`` plus optional ``priorities``/``batteries``/``temperatures``/
    ``buses`` lists (``null``/omitted meaning "don't care") and a ``label``.
    """

    name: str = _str("paper", always=True, choices=(POLICY_NAMES, "policy"))
    predictor: Optional[str] = _str(None, choices=(PREDICTOR_NAMES, "predictor"))
    allow_off: Optional[bool] = _bool(None)
    timeout_ms: Optional[float] = _float(None, check=_positive("timeout"))
    reevaluation_interval_us: Optional[float] = _float(
        None, check=_positive("re-evaluation interval"))
    defer_state: Optional[str] = _str(None, choices=(LOW_STATE_NAMES, "sleep/off state"))
    estimation_state: Optional[str] = _str(None, choices=(ON_STATE_NAMES, "ON state"))
    rules: Optional[List[Dict[str, Any]]] = _declare("mappings", None)

    def _check_rules(self, path: str) -> None:
        if self.predictor is not None and self.name != "paper":
            _fail(f"{path}.predictor",
                  f"a predictor can only be chosen for the 'paper' policy, not {self.name!r}")
        if self.allow_off is not None and self.name not in ("paper", "greedy-sleep"):
            _fail(f"{path}.allow_off",
                  f"'allow_off' only applies to 'paper'/'greedy-sleep', not {self.name!r}")
        if self.timeout_ms is not None and self.name != "fixed-timeout":
            _fail(f"{path}.timeout_ms",
                  f"'timeout_ms' only applies to 'fixed-timeout', not {self.name!r}")
        if self.rules is not None:
            if self.name != "paper":
                _fail(f"{path}.rules",
                      f"a custom rule table can only be given for the 'paper' "
                      f"policy, not {self.name!r}")
            if not self.rules:
                _fail(f"{path}.rules", "a custom rule table needs at least one rule")
            for index, entry in enumerate(self.rules):
                self._validate_rule(entry, f"{path}.rules[{index}]")

    @staticmethod
    def _validate_rule(entry: Mapping[str, Any], path: str) -> None:
        """Structural check of one custom rule entry (string vocabulary)."""
        if not isinstance(entry, abc.Mapping):
            _fail(path, f"expected a rule mapping, got {type(entry).__name__}")
        _check_keys(entry, path, _RULE_ENTRY_KEYS)
        if "state" not in entry:
            _fail(path, "missing required rule field 'state'")
        _check_choice(entry["state"], f"{path}.state", RULE_STATE_NAMES,
                      "rule state")
        label = entry.get("label")
        if label is not None and not isinstance(label, str):
            _fail(f"{path}.label", f"expected a string, got {type(label).__name__}")
        for key, vocabulary, noun in (
            ("priorities", PRIORITY_NAMES, "task priority"),
            ("batteries", BATTERY_LEVEL_NAMES, "battery level"),
            ("temperatures", TEMPERATURE_LEVEL_NAMES, "temperature level"),
            ("buses", BUS_LEVEL_NAMES, "bus level"),
        ):
            values = entry.get(key)
            if values is None:
                continue
            if not isinstance(values, list):
                _fail(f"{path}.{key}",
                      f"expected a list of names or null, got {type(values).__name__}")
            if not values:
                _fail(f"{path}.{key}",
                      "an empty list matches nothing; use null for don't-care")
            for position, name in enumerate(values):
                _check_choice(name, f"{path}.{key}[{position}]", vocabulary, noun)


# ----------------------------------------------------------------------
# The platform specification
# ----------------------------------------------------------------------
@_table
@dataclass
class PlatformSpec(_Node):
    """Complete declarative description of a simulatable platform."""

    name: str = _str(required=True, header=True, empty="the platform needs a non-empty name")
    ips: List[IpDef] = _declare(
        "nodes", factory=list, node=IpDef, required="platform {name!r} is missing its 'ips' list")
    description: str = _str("", header=True)
    battery: BatteryDef = _node(BatteryDef)
    thermal: ThermalDef = _node(ThermalDef)
    gem: GemDef = _node(GemDef)
    bus: BusDef = _node(BusDef)
    trace: TraceDef = _node(TraceDef)
    policy: Optional[PolicyDef] = _node(PolicyDef, None)
    max_time_ms: float = _float(5000.0, check=_positive("max time"))
    sample_interval_us: float = _float(1000.0, check=_positive("sample interval"))
    with_fan: bool = _bool(True)
    fan_power_w: float = _float(0.05, check=_at_least(0, "fan power must be >= 0"))

    # -- (de)serialisation ---------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Canonical plain-data view (defaults omitted, hash-stable)."""
        data: Dict[str, Any] = {"format": SPEC_FORMAT}
        data.update(super().to_dict())
        return data

    @classmethod
    def _admit(cls, mapping: Dict[str, Any], path: str) -> None:
        for key in _FLAT_BUS_KEYS:
            if key in mapping:
                _fail(f"{path}.{key}", f"{key!r} is no longer read; declare the bus as "
                      "a 'bus' section: bus: {enabled: true, words_per_second: ...}")
        _check_keys(mapping, path, cls._keys | {"format"})
        fmt = mapping.get("format", SPEC_FORMAT)
        _expect("str", fmt, f"{path}.format")
        if fmt != SPEC_FORMAT:
            _fail(f"{path}.format",
                  f"unsupported spec format {fmt!r} (this library reads {SPEC_FORMAT!r})")

    @classmethod
    def from_dict(cls, value: Any, path: Optional[str] = "platform") -> "PlatformSpec":
        """Build and validate a spec from a plain dictionary (parsed JSON/TOML)."""
        return cls._read(value, path or "platform").validate()

    # -- validation -----------------------------------------------------
    def validate(self, path: str = "platform") -> "PlatformSpec":
        """Check the whole tree; raises :class:`PlatformError` with a path."""
        return super().validate(path)

    def _check_rules(self, path: str) -> None:
        if not self.ips:
            _fail(f"{path}.ips", f"platform {self.name!r} defines no IPs")
        names = [ip.name for ip in self.ips]
        if len(names) != len(set(names)):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            _fail(f"{path}.ips", f"duplicate IP name(s): {_choices(duplicates)}")
        if not self.bus.enabled:
            for index, ip in enumerate(self.ips):
                if ip.bus_words_per_task or ip.bus_priority is not None:
                    _fail(f"{path}.bus",
                          f"ips[{index}] ({ip.name!r}) sets bus traffic but the "
                          "platform has no bus (set bus.enabled: true)")
