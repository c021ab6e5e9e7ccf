"""The power-state selection rule engine (Table 1 of the paper).

The LEM chooses the ON state of each task from "expressions of the natural
language, as in the fuzzy rules": *if the priority is high and the battery is
empty then the power state is ON4*.  Here each such expression is a
:class:`Rule` — a set of accepted priorities, battery levels and temperature
levels (``None`` meaning "don't care") plus the selected state — and a
:class:`RuleTable` evaluates an ordered list of rules with first-match
semantics.

:func:`paper_rule_table` reproduces Table 1 verbatim, in row order, followed
by three completion rules documented in ``DESIGN.md``: as printed, the
paper's table does not cover the (battery >= Medium, temperature = Medium)
corner, so the library falls back to one step slower than the
temperature-Low choice and finally to ``ON4``.  The completion rules never
fire in the paper's scenarios (they use battery Full/Low and temperature
Low/High only).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.battery.status import BatteryLevel
from repro.dpm.levels import RuleContext
from repro.errors import RuleError
from repro.power.states import PowerState
from repro.soc.bus import BusLevel
from repro.soc.task import TaskPriority
from repro.thermal.level import TemperatureLevel

__all__ = ["Rule", "RuleTable", "RuleTrace", "paper_rule_table"]

# Short aliases used when building the paper's table, mirroring its notation.
_P = TaskPriority
_B = BatteryLevel
_T = TemperatureLevel
_S = PowerState


@dataclass(frozen=True)
class Rule:
    """One row of the selection table.

    ``priorities``, ``batteries``, ``temperatures`` and ``buses`` are the
    accepted input classes; ``None`` is a wildcard ("-" in the paper's
    Table 1).  The bus dimension only matters on bus-bearing platforms — on
    a bus-less SoC the context's bus level is always ``LOW``.
    """

    state: PowerState
    priorities: Optional[FrozenSet[TaskPriority]] = None
    batteries: Optional[FrozenSet[BatteryLevel]] = None
    temperatures: Optional[FrozenSet[TemperatureLevel]] = None
    buses: Optional[FrozenSet[BusLevel]] = None
    label: str = ""

    @staticmethod
    def of(
        state: PowerState,
        priorities: Optional[Iterable[TaskPriority]] = None,
        batteries: Optional[Iterable[BatteryLevel]] = None,
        temperatures: Optional[Iterable[TemperatureLevel]] = None,
        buses: Optional[Iterable[BusLevel]] = None,
        label: str = "",
    ) -> "Rule":
        """Convenience constructor accepting any iterables (or ``None``)."""
        return Rule(
            state=state,
            priorities=None if priorities is None else frozenset(priorities),
            batteries=None if batteries is None else frozenset(batteries),
            temperatures=None if temperatures is None else frozenset(temperatures),
            buses=None if buses is None else frozenset(buses),
            label=label,
        )

    def matches(self, context: RuleContext) -> bool:
        """True when this rule applies to ``context``."""
        if self.priorities is not None and context.priority not in self.priorities:
            return False
        if self.batteries is not None and context.battery not in self.batteries:
            return False
        if self.temperatures is not None and context.temperature not in self.temperatures:
            return False
        if self.buses is not None and context.bus not in self.buses:
            return False
        return True

    def describe(self) -> str:
        """Human-readable rendering close to the paper's table notation."""

        def fmt(values, order):
            if values is None:
                return "-"
            return ",".join(str(v) for v in sorted(values, key=order))

        rendering = (
            f"[{self.label or 'rule'}] priority({fmt(self.priorities, lambda p: -p.rank)}) "
            f"battery({fmt(self.batteries, lambda b: -b.rank)}) "
            f"temperature({fmt(self.temperatures, lambda t: t.rank)})"
        )
        if self.buses is not None:
            rendering += f" bus({fmt(self.buses, lambda b: b.rank)})"
        return f"{rendering} -> {self.state}"


@dataclass(frozen=True)
class RuleTrace:
    """One step of a first-match trace (see :meth:`RuleTable.explain`)."""

    index: int
    rule: Rule
    matched: bool
    reason: str

    def describe(self) -> str:
        marker = "=>" if self.matched else "  "
        return f"{marker} [{self.index:2d}] {self.rule.describe()}  -- {self.reason}"


def _skip_reason(rule: Rule, context: RuleContext) -> str:
    """Which dimension rejected ``context`` first (evaluation order)."""
    if rule.priorities is not None and context.priority not in rule.priorities:
        return f"priority {context.priority} not accepted"
    if rule.batteries is not None and context.battery not in rule.batteries:
        return f"battery {context.battery} not accepted"
    if rule.temperatures is not None and context.temperature not in rule.temperatures:
        return f"temperature {context.temperature} not accepted"
    if rule.buses is not None and context.bus not in rule.buses:
        return f"bus {context.bus} not accepted"
    return "matched"


def _context_keys(
    priorities: Iterable[TaskPriority],
    batteries: Iterable[BatteryLevel],
    temperatures: Iterable[TemperatureLevel],
    buses: Iterable[BusLevel],
) -> List[int]:
    """Packed keys of every context in the product, in enumeration order
    (the key :meth:`RuleTable.first_match_index` computes: an ``_idx``
    integer hashes at C speed, enum ``__hash__`` is Python-level)."""
    return [
        ((priority._idx * 64 + battery._idx * 8 + temperature._idx) * 4) + bus._idx
        for priority, battery, temperature, bus in itertools.product(
            priorities, batteries, temperatures, buses
        )
    ]


_DIMENSIONS = (TaskPriority, BatteryLevel, TemperatureLevel, BusLevel)
#: Every rule context with its packed key, in enumeration order.
_CONTEXTS: Tuple[Tuple[int, RuleContext], ...] = tuple(
    zip(
        _context_keys(*_DIMENSIONS),
        (RuleContext(p, b, t, bus=bus) for p, b, t, bus in itertools.product(*_DIMENSIONS)),
    )
)


@functools.lru_cache(maxsize=16)
def _first_match_map(rules: Tuple[Rule, ...]) -> Dict[int, Optional[int]]:
    """First-match index (``None``: no rule matches) per packed context key.

    Matching reads only the four input classes, so the winner of every
    context is fixed by the rules alone.  Memoised per content and bounded:
    a custom table run or linted many times builds its map once.
    """
    return {
        key: next((index for index, rule in enumerate(rules) if rule.matches(context)), None)
        for key, context in _CONTEXTS
    }


class RuleTable:
    """Ordered list of rules with first-match-wins semantics.

    Immutable, so one table serves every LEM of every run in a process;
    hit counts live on :class:`~repro.dpm.policies.RuleBasedPolicy`.
    """

    def __init__(self, rules: Sequence[Rule], name: str = "rules") -> None:
        if not rules:
            raise RuleError("a rule table needs at least one rule")
        for rule in rules:
            if not rule.state.is_on and not rule.state.is_sleep:
                raise RuleError(f"rules may only select ON or sleep states, got {rule.state}")
        self.name = name
        self._rules: Tuple[Rule, ...] = tuple(rules)
        self._first_match = _first_match_map(self._rules)

    # -- evaluation -------------------------------------------------------
    def select_index(self, context: RuleContext) -> int:
        """Index of the first matching rule.

        Raises
        ------
        RuleError
            If no rule matches (the table is not total for this input).
        """
        index = self.first_match_index(context)
        if index is None:
            raise RuleError(
                f"no rule matches context ({context.describe()}) in table {self.name!r}"
            )
        return index

    def select(self, context: RuleContext) -> PowerState:
        """Return the state of the first matching rule (see :meth:`select_index`)."""
        return self._rules[self.select_index(context)].state

    def first_match_index(self, context: RuleContext) -> Optional[int]:
        """Index of the first matching rule, or ``None`` if nothing matches.

        Reads the same precomputed decision map as :meth:`select`, without
        raising on an uncovered context.
        """
        return self._first_match[
            ((context.priority._idx * 64 + context.battery._idx * 8 + context.temperature._idx) * 4)
            + context.bus._idx
        ]

    def first_match_indices(
        self,
        priorities: Iterable[TaskPriority],
        batteries: Iterable[BatteryLevel],
        temperatures: Iterable[TemperatureLevel],
        buses: Iterable[BusLevel],
    ) -> Set[int]:
        """Indices of the rules that first-match some context of the product."""
        keys = _context_keys(priorities, batteries, temperatures, buses)
        indices = map(self._first_match.__getitem__, keys)
        return {index for index in indices if index is not None}

    def explain(self, context: RuleContext) -> List["RuleTrace"]:
        """First-match trace: every rule up to (and including) the winner.

        Each entry records whether the rule matched and, for skipped rules,
        which dimension rejected the context first.  When no rule matches,
        the trace covers the whole table with ``matched=False`` throughout.
        """
        winner = self.first_match_index(context)
        stop = len(self._rules) if winner is None else winner + 1
        return [
            RuleTrace(index, rule, index == winner, _skip_reason(rule, context))
            for index, rule in enumerate(self._rules[:stop])
        ]

    def select_levels(
        self,
        priority: TaskPriority,
        battery: BatteryLevel,
        temperature: TemperatureLevel,
        bus: BusLevel = BusLevel.LOW,
    ) -> PowerState:
        """Convenience wrapper building the :class:`RuleContext`."""
        return self.select(RuleContext(priority, battery, temperature, bus=bus))

    # -- inspection ----------------------------------------------------------
    @property
    def rules(self) -> Tuple[Rule, ...]:
        """The rules in evaluation order."""
        return self._rules

    def is_total(self) -> bool:
        """True when every input combination matches.

        Covers (priority, battery, temperature) and — for tables with
        bus-constrained rules — every bus level too.
        """
        return not self.uncovered_contexts()

    def uncovered_contexts(self) -> List[RuleContext]:
        """All input combinations not covered by any rule.

        A table whose rules never constrain the bus is a pure function of
        the classic (priority, battery, temperature) triple, so only the
        default ``LOW`` bus level is reported for it.
        """
        any_bus = any(rule.buses is not None for rule in self._rules)
        return [
            context
            for key, context in _CONTEXTS
            if self._first_match[key] is None and (any_bus or context.bus is BusLevel.LOW)
        ]

    def unreachable_rules(self) -> List[int]:
        """Indices of rules shadowed by earlier rules for every input.

        A rule is reachable iff it is the first match of some context.
        """
        reachable = set(self._first_match.values())
        return [index for index in range(len(self._rules)) if index not in reachable]

    def describe(self) -> str:
        """Printable rendering of the whole table."""
        return "\n".join(rule.describe() for rule in self._rules)

    # -- (de)serialisation ------------------------------------------------------
    def as_dicts(self) -> List[dict]:
        """Serializable representation (used to retarget the LEM per IP)."""
        return [
            {
                "state": str(rule.state),
                "priorities": _names(rule.priorities),
                "batteries": _names(rule.batteries),
                "temperatures": _names(rule.temperatures),
                "buses": _names(rule.buses),
                "label": rule.label,
            }
            for rule in self._rules
        ]

    @staticmethod
    def from_dicts(entries: Iterable[dict], name: str = "rules") -> "RuleTable":
        """Rebuild a table from :meth:`as_dicts` output."""
        rules = [
            Rule.of(
                state=PowerState.from_string(entry["state"]),
                priorities=_parse(entry.get("priorities"), TaskPriority),
                batteries=_parse(entry.get("batteries"), BatteryLevel),
                temperatures=_parse(entry.get("temperatures"), TemperatureLevel),
                buses=_parse(entry.get("buses"), BusLevel),
                label=entry.get("label", ""),
            )
            for entry in entries
        ]
        return RuleTable(rules, name=name)


def _names(values: Optional[FrozenSet]) -> Optional[List[str]]:
    return None if values is None else sorted(str(value) for value in values)


def _parse(values: Optional[Iterable[str]], kind: Callable[[str], Any]) -> Optional[List[Any]]:
    return None if values is None else [kind(value) for value in values]


@functools.cache
def paper_rule_table() -> RuleTable:
    """The power-state selection algorithm of the paper's Table 1.

    Rows appear in the paper's order (first match wins); the trailing
    ``completion-*`` rules make the table total, see the module docstring.
    One shared instance per process: tables are immutable.
    """
    very_high = [_P.VERY_HIGH]
    not_very_high = [_P.HIGH, _P.MEDIUM, _P.LOW]
    battery_mid_high = [_B.MEDIUM, _B.HIGH]
    temp_low_medium = [_T.LOW, _T.MEDIUM]

    rules = [
        # V E - -> ON4
        Rule.of(_S.ON4, very_high, [_B.EMPTY], None, label="t1-row1"),
        # V - H -> ON4
        Rule.of(_S.ON4, very_high, None, [_T.HIGH], label="t1-row2"),
        # H,M,L E - -> SL1
        Rule.of(_S.SL1, not_very_high, [_B.EMPTY], None, label="t1-row3"),
        # H,M,L - H -> SL1
        Rule.of(_S.SL1, not_very_high, None, [_T.HIGH], label="t1-row4"),
        # - L M,L -> ON4
        Rule.of(_S.ON4, None, [_B.LOW], temp_low_medium, label="t1-row5"),
        # - E M -> ON4
        Rule.of(_S.ON4, None, [_B.EMPTY], [_T.MEDIUM], label="t1-row6"),
        # V M,H L -> ON1
        Rule.of(_S.ON1, very_high, battery_mid_high, [_T.LOW], label="t1-row7"),
        # H M,H L -> ON2
        Rule.of(_S.ON2, [_P.HIGH], battery_mid_high, [_T.LOW], label="t1-row8"),
        # M M,H L -> ON3
        Rule.of(_S.ON3, [_P.MEDIUM], battery_mid_high, [_T.LOW], label="t1-row9"),
        # L M,H L -> ON4
        Rule.of(_S.ON4, [_P.LOW], battery_mid_high, [_T.LOW], label="t1-row10"),
        # V,H,M F L -> ON1
        Rule.of(_S.ON1, [_P.VERY_HIGH, _P.HIGH, _P.MEDIUM], [_B.FULL], [_T.LOW], label="t1-row11"),
        # L F L -> ON2
        Rule.of(_S.ON2, [_P.LOW], [_B.FULL], [_T.LOW], label="t1-row12"),
        # - power-supply M,L -> ON1
        Rule.of(_S.ON1, None, [_B.AC_POWER], temp_low_medium, label="t1-row13"),
        # -- completion rules (not in the paper, documented in DESIGN.md) ----
        # Battery >= Medium with temperature Medium is not covered by the
        # printed Table 1; mirror the temperature-Low mapping (rows 7-12) so
        # a merely warm (not hot) chip behaves like a cool one.
        Rule.of(_S.ON1, [_P.VERY_HIGH, _P.HIGH, _P.MEDIUM], [_B.FULL], [_T.MEDIUM], label="completion-1"),
        Rule.of(_S.ON2, [_P.LOW], [_B.FULL], [_T.MEDIUM], label="completion-2"),
        Rule.of(_S.ON1, very_high, None, [_T.MEDIUM], label="completion-3"),
        Rule.of(_S.ON2, [_P.HIGH], None, [_T.MEDIUM], label="completion-4"),
        Rule.of(_S.ON3, [_P.MEDIUM], None, [_T.MEDIUM], label="completion-5"),
        Rule.of(_S.ON4, None, None, None, label="completion-default"),
    ]
    return RuleTable(rules, name="table1")
