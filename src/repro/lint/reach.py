"""Trajectory reachability: interval abstract interpretation of a spec.

PR 9's analyzers decided feasibility statically ("on-AC platforms never
present battery levels"), so a platform whose battery starts full was still
assumed able to reach ``empty`` contexts it cannot possibly hit inside its
horizon.  This module runs the classic fix: an abstract interpretation of
the spec's *own* power model — the same characterisation, transition table,
battery and thermal closed forms the simulator executes — propagating
interval envelopes for the battery state of charge and the die temperature
over the workload horizon, and quantising them into the set of reachable
``(priority, battery, temperature, bus)`` rule contexts with entry-time
bounds.

Soundness (an over-approximation of anything a traced run can observe — the
dynamic cross-check in :mod:`repro.experiments.lint_crosscheck` enforces
exactly this) rests on a few worst-case arguments, kept deliberately
coarse:

* **Sustained power ceiling.**  At any instant an IP either executes (at
  most the highest active power over its resident ON states and workload
  instruction classes) or idles (at most the highest idle/residual power
  over its forward-reachable states), so instantaneous background power is
  bounded by the max of the two, plus the fan.  Transition energies are
  booked by the PSM as point deposits; because transitions serialise
  through their latencies, their long-run rate is bounded by the largest
  single ``energy/latency`` ratio (mediant inequality), with one extra
  whole-transition deposit as a boundary term.  A zero-latency transition
  with positive energy makes the rate unbounded, and the envelope honestly
  degrades to the trivial bound (recorded in ``assumptions``).
* **Battery.**  Runs never recharge, so the observable state of charge
  lives in ``[floor(t), soc0]`` where ``floor`` drains at the ceiling rate
  scaled by the worst-window Peukert factor (the factor is monotone in
  window power; the mid-run monitor only ever drains whole sample windows —
  the sub-interval final flush happens after the last decision).  LEM
  decisions see a *projected* level (``level_if_drawn`` of the candidate
  task's estimate plus the GEM's pending energies), covered by widening the
  floor with each IP's worst-case projection slack.
* **Temperature.**  The RC model relaxes toward ``ambient + P * R``; by the
  ODE comparison lemma the no-fan resistance with ceiling power bounds any
  fan schedule from above (the die never cools below ambient), and the
  fan-scaled resistance with zero power bounds it from below.  Point
  deposits ripple the trajectory by at most ``E / C_th``.  Decisions see
  ``estimate_after`` projections, bounded by the projected steady state at
  the worst projected power (other-IP pending energy amortised over the
  shortest own-task duration).
* **Bus.**  ``recent_occupancy`` divides by ``min(elapsed, window)``, so
  while any transfer is in flight the quantised level can transiently reach
  saturation regardless of average traffic: with traffic, all three levels
  are reachable from t=0; without traffic (or without a bus) only ``LOW``.

The context set feeds back into itself through rule selection: which ON
states the table can pick determines the power ceiling determines the
envelope determines which rules can fire.  :func:`compute_reach` runs this
as a downward Kleene iteration from the top (all forward-reachable ON
states resident), intersecting each refinement so the iterates decrease —
every iterate over-approximates the concrete system, so stopping at the
:data:`WIDEN_LIMIT` cap merely loses precision, never soundness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.battery.model import BatteryConfig
from repro.battery.status import BatteryLevel
from repro.dpm.levels import RuleContext
from repro.dpm.rules import RuleTable
from repro.lint.intervals import Interval, exp_crossing_time, exp_value, linear_crossing_time
from repro.lint.model import IpModel, SpecModel
from repro.platform.build import build_battery_config, build_thermal_config
from repro.power.characterization import InstructionClass
from repro.power.states import ON_STATES, PowerState
from repro.soc.bus import BusLevel
from repro.soc.task import TaskPriority
from repro.thermal.level import TemperatureLevel
from repro.thermal.model import ThermalConfig

__all__ = ["IpReach", "LevelSpan", "ReachResult", "compute_reach"]

#: Fixpoint iteration cap.  The resident-state lattice per IP has at most
#: four ON states, so genuine convergence needs at most a handful of steps;
#: hitting the cap only costs precision (``converged`` goes False).
WIDEN_LIMIT = 8

_BATTERY_ORDER: Tuple[BatteryLevel, ...] = (
    BatteryLevel.EMPTY, BatteryLevel.LOW, BatteryLevel.MEDIUM,
    BatteryLevel.HIGH, BatteryLevel.FULL,
)
_TEMPERATURE_ORDER: Tuple[TemperatureLevel, ...] = (
    TemperatureLevel.LOW, TemperatureLevel.MEDIUM, TemperatureLevel.HIGH,
)


@dataclass(frozen=True)
class LevelSpan:
    """One reachable quantised level with a sound earliest-entry bound."""

    level: object
    earliest_s: float

    def describe(self) -> str:
        if self.earliest_s <= 0.0:
            return f"{self.level}@0"
        return f"{self.level}@{self.earliest_s * 1e3:.3g}ms"


@dataclass(frozen=True)
class IpReach:
    """Per-IP reachable envelope (decision contexts this IP can present)."""

    index: int
    name: str
    #: priorities this IP's tasks can present (empty: the IP never decides)
    priorities: Tuple[TaskPriority, ...]
    resident_states: Tuple[PowerState, ...]
    soc: Interval
    temperature_c: Interval
    battery_levels: Tuple[LevelSpan, ...]
    temperature_levels: Tuple[LevelSpan, ...]
    #: worst-case projection slack a decision adds on top of the raw SoC (J)
    projection_slack_j: float
    #: largest single idle gap in the workload (s); None when unknown
    max_idle_gap_s: Optional[float]

    @property
    def battery_set(self) -> FrozenSet[BatteryLevel]:
        return frozenset(span.level for span in self.battery_levels)

    @property
    def temperature_set(self) -> FrozenSet[TemperatureLevel]:
        return frozenset(span.level for span in self.temperature_levels)


@dataclass(frozen=True)
class ReachResult:
    """The platform's reachable context set with entry-time bounds."""

    subject: str
    horizon_s: float
    #: sustained background power bounds over the platform (W)
    power_w: Interval
    #: worst single-sample-window average power (drives the Peukert factor)
    window_power_w: float
    #: observable (projection-widened) SoC envelope over the horizon
    soc: Interval
    #: raw run SoC envelope (no projection slack) — what the GEM polls
    run_soc: Interval
    temperature_c: Interval
    run_temperature_c: Interval
    battery_levels: Tuple[LevelSpan, ...]
    temperature_levels: Tuple[LevelSpan, ...]
    bus_levels: Tuple[LevelSpan, ...]
    ips: Tuple[IpReach, ...]
    #: upper bound on the GEM's pending other-IP energy a context can carry
    other_energy_bound_j: float
    iterations: int
    converged: bool
    assumptions: Tuple[str, ...]

    # -- set views -----------------------------------------------------------
    @property
    def battery_set(self) -> FrozenSet[BatteryLevel]:
        return frozenset(span.level for span in self.battery_levels)

    @property
    def temperature_set(self) -> FrozenSet[TemperatureLevel]:
        return frozenset(span.level for span in self.temperature_levels)

    @property
    def bus_set(self) -> FrozenSet[BusLevel]:
        return frozenset(span.level for span in self.bus_levels)

    @property
    def priority_set(self) -> FrozenSet[TaskPriority]:
        return frozenset(p for ip in self.ips for p in ip.priorities)

    @property
    def has_decisions(self) -> bool:
        """True when at least one IP can present a decision context at all."""
        return any(ip.priorities for ip in self.ips)

    # -- queries -------------------------------------------------------------
    def is_reachable(self, context: RuleContext, ip_index: Optional[int] = None) -> bool:
        """Can ``context`` be presented to the rule table (by ``ip_index``)?

        With no ``ip_index`` the union over all IPs is used.  The context's
        ``other_ip_energy_j`` is checked against the GEM pending-energy
        bound (with a small relative tolerance for float accumulation).
        """
        bound = self.other_energy_bound_j
        if context.other_ip_energy_j > bound * (1.0 + 1e-9) + 1e-12:
            return False
        if context.bus not in self.bus_set:
            return False
        if ip_index is not None:
            candidates: Sequence[IpReach] = [self.ips[ip_index]]
        else:
            candidates = self.ips
        return any(
            context.priority in ip.priorities
            and context.battery in ip.battery_set
            and context.temperature in ip.temperature_set
            for ip in candidates
        )

    def live_rule_indices(self, table: RuleTable) -> FrozenSet[int]:
        """Rule indices that first-match at least one reachable context."""
        live: Set[int] = set()
        for ip in self.ips:
            live |= table.first_match_indices(
                ip.priorities, ip.battery_set, ip.temperature_set, self.bus_set
            )
        return frozenset(live)

    def selected_on_states(self, table: RuleTable) -> FrozenSet[PowerState]:
        """ON states the table can select over the reachable context set."""
        rules = table.rules
        return frozenset(
            rules[index].state for index in self.live_rule_indices(table)
            if rules[index].state.is_on
        )

    # -- report --------------------------------------------------------------
    def describe(self) -> str:
        """Printable per-IP envelope timeline (the ``repro-dpm reach`` report)."""
        lines = [f"reach: {self.subject} (horizon {self.horizon_s:g} s)"]
        lines.append(
            f"  power     {self.power_w.lo:.4g}..{self.power_w.hi:.4g} W sustained"
            f", worst sample window {self.window_power_w:.4g} W"
        )
        lines.append(
            f"  battery   soc {self.soc.lo:.3f}..{self.soc.hi:.3f}"
            f" (run {self.run_soc.lo:.3f}..{self.run_soc.hi:.3f}): "
            + " ".join(span.describe() for span in self.battery_levels)
        )
        lines.append(
            f"  thermal   {self.temperature_c.lo:.1f}..{self.temperature_c.hi:.1f} C"
            f" (run {self.run_temperature_c.lo:.1f}..{self.run_temperature_c.hi:.1f} C): "
            + " ".join(span.describe() for span in self.temperature_levels)
        )
        lines.append(
            "  bus       " + " ".join(span.describe() for span in self.bus_levels)
        )
        for ip in self.ips:
            prios = ",".join(str(p) for p in ip.priorities) or "(no tasks: never decides)"
            lines.append(f"  ip[{ip.index}] {ip.name}:")
            lines.append(f"    priorities {prios}")
            lines.append(
                "    resident   " + ",".join(str(s) for s in ip.resident_states)
            )
            lines.append(
                f"    battery    soc {ip.soc.lo:.3f}..{ip.soc.hi:.3f}"
                f" (slack {ip.projection_slack_j:.3g} J): "
                + " ".join(span.describe() for span in ip.battery_levels)
            )
            lines.append(
                f"    thermal    {ip.temperature_c.lo:.1f}..{ip.temperature_c.hi:.1f} C: "
                + " ".join(span.describe() for span in ip.temperature_levels)
            )
            if ip.max_idle_gap_s is not None:
                lines.append(f"    idle gap   <= {ip.max_idle_gap_s:g} s")
        status = "fixpoint" if self.converged else "widening cap hit (coarse but sound)"
        lines.append(f"  iterations {self.iterations} ({status})")
        for note in self.assumptions:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Per-IP static bounds (independent of the resident-state fixpoint).
# ---------------------------------------------------------------------------

@dataclass
class _IpStatics:
    ip_model: IpModel
    on_states: Tuple[PowerState, ...]  # forward-reachable ON states
    classes: Tuple[InstructionClass, ...]
    priorities: Tuple[TaskPriority, ...]
    has_tasks: bool
    workload_known: bool
    max_task_energy_j: float      # ceiling estimate of one task (ON1)
    min_task_duration_s: float    # shortest own-task estimate duration
    max_task_duration_s: float    # longest own-task estimate duration
    max_idle_gap_s: Optional[float]
    trans_rate_w: float           # sustained transition-energy rate bound
    trans_rate_unbounded: bool
    max_trans_energy_j: float     # largest single transition deposit
    has_bus_traffic: bool


def _build_statics(ip_model: IpModel, notes: List[str]) -> _IpStatics:
    char = ip_model.characterization
    forward = ip_model.forward
    on_states = tuple(s for s in ON_STATES if s in forward)

    workload = ip_model.workload
    workload_known = workload is not None
    tasks = list(workload.items) if workload is not None else []
    has_tasks = bool(tasks) or not workload_known
    if workload is not None:
        classes = tuple(sorted(
            {item.task.instruction_class for item in tasks}, key=lambda c: c.value,
        )) or ()
        priorities = tuple(sorted(
            {item.task.priority for item in tasks}, key=lambda p: p.value,
        ))
        max_idle_gap_s: Optional[float] = max(
            (item.idle_after.seconds for item in tasks), default=0.0,
        )
    else:
        # The workload failed to instantiate; assume the worst on every axis.
        classes = tuple(InstructionClass)
        priorities = tuple(TaskPriority)
        max_idle_gap_s = None
        notes.append(
            f"{ip_model.path}: workload uninstantiable "
            f"({ip_model.workload_error}); assuming worst-case tasks"
        )

    f_on1 = ip_model.max_frequency_hz
    f_min = min(
        char.operating_points.point(state).frequency_hz for state in ON_STATES
    )
    if workload is not None and tasks:
        # Task estimates use the policy's estimation state; ON1 has the
        # highest voltage (max energy/cycle) and frequency (min duration),
        # making these ceilings valid for any estimation-state override.
        max_task_energy_j = max(
            char.task_energy_j(PowerState.ON1, item.task.cycles, item.task.instruction_class)
            for item in tasks
        )
        min_task_duration_s = min(item.task.cycles for item in tasks) / f_on1
        max_task_duration_s = max(item.task.cycles for item in tasks) / f_min
    elif workload is not None:  # instantiated but empty: the IP never decides
        max_task_energy_j = 0.0
        min_task_duration_s = math.inf
        max_task_duration_s = 0.0
    else:  # unknown workload: no finite ceilings exist
        max_task_energy_j = math.inf
        min_task_duration_s = 0.0
        max_task_duration_s = math.inf

    trans_rate_w = 0.0
    trans_rate_unbounded = False
    max_trans_energy_j = 0.0
    for source, target in ip_model.transitions.transitions:
        if source not in forward:
            continue
        cost = ip_model.transitions.cost(source, target)
        energy = cost.energy_j
        if energy <= 0.0:
            continue
        max_trans_energy_j = max(max_trans_energy_j, energy)
        latency_s = cost.latency.seconds
        if latency_s <= 0.0:
            trans_rate_unbounded = True
            notes.append(
                f"{ip_model.path}: transition {source}->{target} has positive "
                "energy at zero latency; transition power is unbounded"
            )
        else:
            trans_rate_w = max(trans_rate_w, energy / latency_s)

    traffic = ip_model.ip.bus_words_per_task > 0 and has_tasks
    return _IpStatics(
        ip_model=ip_model,
        on_states=on_states,
        classes=classes,
        priorities=priorities if has_tasks else (),
        has_tasks=has_tasks,
        workload_known=workload_known,
        max_task_energy_j=max_task_energy_j,
        min_task_duration_s=min_task_duration_s,
        max_task_duration_s=max_task_duration_s,
        max_idle_gap_s=max_idle_gap_s,
        trans_rate_w=trans_rate_w,
        trans_rate_unbounded=trans_rate_unbounded,
        max_trans_energy_j=max_trans_energy_j,
        has_bus_traffic=traffic,
    )


def _ip_power_bounds(statics: _IpStatics, resident: Set[PowerState]) -> Tuple[float, float]:
    """(min, max) sustained background power of one IP over its resident set."""
    char = statics.ip_model.characterization
    active_max = 0.0
    if statics.has_tasks:
        for state in statics.on_states:
            if state not in resident:
                continue
            for iclass in statics.classes or tuple(InstructionClass):
                active_max = max(active_max, char.active_power_w(state, iclass))
    idle_values = []
    for state in statics.ip_model.forward:
        if state.is_on:
            # Idle power counts for every forward-reachable ON state, not
            # just table-selected ones: wake transitions land in ON1 and the
            # IP idles there until the next decision.
            idle_values.append(char.idle_power_w(state))
        else:
            idle_values.append(char.residual_power_w(state))
    idle_max = max(idle_values, default=0.0)
    idle_min = min(idle_values, default=0.0)
    return idle_min, max(active_max, idle_max)


# ---------------------------------------------------------------------------
# Envelope closed forms.
# ---------------------------------------------------------------------------

def _battery_envelope(
    cfg: BatteryConfig,
    horizon_s: float,
    drain_rate_w: float,
    boundary_j: float,
    unbounded: bool,
    slack_j: float,
) -> Tuple[Interval, Tuple[LevelSpan, ...]]:
    """Observable SoC envelope and quantised level set for one slack value."""
    thresholds = cfg.thresholds
    soc0 = min(max(cfg.initial_state_of_charge, 0.0), 1.0)
    if cfg.on_ac_power:
        return Interval.point(soc0), (LevelSpan(BatteryLevel.AC_POWER, 0.0),)
    capacity = cfg.capacity_j
    if unbounded or not math.isfinite(slack_j):
        lo = 0.0
    else:
        drained = drain_rate_w * horizon_s + boundary_j + slack_j
        lo = min(max(soc0 - drained / capacity, 0.0), soc0)
    envelope = Interval(lo, soc0)
    top = thresholds.classify(soc0)
    bottom = thresholds.classify(lo)
    spans: List[LevelSpan] = []
    upper_bounds = {
        BatteryLevel.EMPTY: thresholds.empty,
        BatteryLevel.LOW: thresholds.low,
        BatteryLevel.MEDIUM: thresholds.medium,
        BatteryLevel.HIGH: thresholds.high,
    }
    for level in reversed(_BATTERY_ORDER):
        if not bottom.rank <= level.rank <= top.rank:
            continue
        if level is top:
            spans.append(LevelSpan(level, 0.0))
            continue
        # Entering `level` from above means the projected SoC dropping below
        # the level's upper threshold; projections (slack) and the boundary
        # deposit apply from t=0.
        if unbounded or not math.isfinite(slack_j):
            spans.append(LevelSpan(level, 0.0))
            continue
        start = soc0 - (boundary_j + slack_j) / capacity
        crossing = linear_crossing_time(
            start, -drain_rate_w / capacity, upper_bounds[level],
        )
        entry = 0.0 if crossing is None else min(crossing, horizon_s)
        spans.append(LevelSpan(level, entry))
    spans.reverse()
    return envelope, tuple(spans)


def _temperature_envelope(
    cfg: ThermalConfig,
    horizon_s: float,
    power_hi_w: float,
    boundary_j: float,
    unbounded: bool,
    steady_proj_c: float,
    proj_decay: float,
) -> Tuple[Interval, Tuple[LevelSpan, ...]]:
    """Observable temperature envelope for one projected-power bound."""
    thresholds = cfg.thresholds
    ambient = cfg.ambient_c
    t0 = cfg.initial_c
    resistance = cfg.thermal_resistance_c_per_w
    tau_slow = resistance * cfg.thermal_capacitance_j_per_c
    tau_fast = tau_slow * cfg.fan_resistance_scale
    ripple = boundary_j / cfg.thermal_capacitance_j_per_c
    if unbounded or not math.isfinite(power_hi_w):
        steady_hi = math.inf
    else:
        steady_hi = ambient + power_hi_w * resistance
    if math.isfinite(steady_hi):
        run_hi = max(t0, exp_value(t0, steady_hi, tau_slow, horizon_s)) + ripple
    elif horizon_s > 0.0:
        run_hi = math.inf
    else:
        run_hi = t0 + ripple
    hi = max(run_hi, steady_proj_c)
    # Coolest observable value: fan-scaled relaxation toward ambient with no
    # power, then the longest possible cool projection on top.
    cool_start = ambient + (t0 - ambient) * proj_decay
    run_decay = math.exp(-horizon_s / tau_fast) if tau_fast > 0.0 else 0.0
    lo = max(ambient, ambient + (cool_start - ambient) * run_decay)
    lo = min(lo, hi)
    envelope = Interval(lo, hi)

    bands = {
        TemperatureLevel.LOW: (-math.inf, thresholds.medium_c),
        TemperatureLevel.MEDIUM: (thresholds.medium_c, thresholds.high_c),
        TemperatureLevel.HIGH: (thresholds.high_c, math.inf),
    }
    initial_level = thresholds.classify(t0)
    spans: List[LevelSpan] = []
    for level in _TEMPERATURE_ORDER:
        band_lo, band_hi = bands[level]
        if not (envelope.lo < band_hi and envelope.hi >= band_lo):
            continue
        if level is initial_level:
            spans.append(LevelSpan(level, 0.0))
            continue
        if level.rank > initial_level.rank:
            # Heating entry: either the projection jumps there immediately,
            # or the run trajectory (plus ripple) crosses the band floor.
            if (
                steady_proj_c >= band_lo
                or t0 + ripple >= band_lo
                or not math.isfinite(steady_hi)
            ):
                spans.append(LevelSpan(level, 0.0))
                continue
            crossing = exp_crossing_time(t0, steady_hi, tau_slow, band_lo - ripple)
            entry = 0.0 if crossing is None else min(crossing, horizon_s)
            spans.append(LevelSpan(level, entry))
        else:
            # Cooling entry: the fastest decay (fan on, zero power) plus the
            # longest cool projection must drop below the band ceiling.
            if cool_start < band_hi:
                spans.append(LevelSpan(level, 0.0))
                continue
            crossing = exp_crossing_time(cool_start, ambient, tau_fast, band_hi)
            entry = 0.0 if crossing is None else min(crossing, horizon_s)
            spans.append(LevelSpan(level, entry))
    return envelope, tuple(spans)


def _merge_spans(
    groups: Sequence[Tuple[LevelSpan, ...]], order: Sequence[object]
) -> Tuple[LevelSpan, ...]:
    earliest: Dict[object, float] = {}
    for group in groups:
        for span in group:
            current = earliest.get(span.level)
            if current is None or span.earliest_s < current:
                earliest[span.level] = span.earliest_s
    return tuple(
        LevelSpan(level, earliest[level]) for level in order if level in earliest
    )


# ---------------------------------------------------------------------------
# The fixpoint driver.
# ---------------------------------------------------------------------------

def compute_reach(model: SpecModel) -> ReachResult:
    """Abstract-interpret ``model`` into its reachable context envelope."""
    spec = model.spec
    notes: List[str] = []
    statics = [_build_statics(ip_model, notes) for ip_model in model.ips]
    battery_cfg = build_battery_config(spec.battery)
    thermal_cfg = build_thermal_config(spec.thermal, ip_count=max(1, len(spec.ips)))
    horizon_s = max(model.horizon_s, 0.0)
    interval_s = spec.sample_interval_us / 1e6

    unbounded = any(s.trans_rate_unbounded for s in statics)
    boundary_j = sum(s.max_trans_energy_j for s in statics)
    trans_rate_w = sum(s.trans_rate_w for s in statics)
    fan_w = spec.fan_power_w if spec.with_fan else 0.0
    gem_enabled = bool(spec.gem and spec.gem.enabled)

    # Downward Kleene iteration on the per-IP resident ON-state sets: start
    # at the top (every forward-reachable ON state), recompute the envelope,
    # keep only states the rule table can still select, and intersect so the
    # iterates decrease.  Non-rule policies keep the top (sound).
    resident: List[Set[PowerState]] = [set(s.on_states) for s in statics]
    iterations = 0
    converged = False
    result: Optional[ReachResult] = None
    while iterations < WIDEN_LIMIT:
        iterations += 1
        result = _evaluate(
            model, statics, resident, battery_cfg, thermal_cfg, horizon_s,
            interval_s, unbounded, boundary_j, trans_rate_w, fan_w,
            gem_enabled, notes, iterations,
        )
        if model.table is None:
            converged = True
            break
        selected = result.selected_on_states(model.table)
        refined: List[Set[PowerState]] = []
        for ip_statics, current in zip(statics, resident):
            keep = set(current)
            if ip_statics.has_tasks:
                # Tasks only ever execute at table-selected ON states (plus
                # the initial state before the first decision).
                keep &= selected | {ip_statics.ip_model.initial}
            refined.append(keep)
        if refined == resident:
            converged = True
            break
        resident = refined
    assert result is not None
    if not converged:
        notes.append(
            f"fixpoint cap of {WIDEN_LIMIT} iterations hit; envelope widened"
        )
    return replace(
        result,
        iterations=iterations,
        converged=converged,
        assumptions=tuple(dict.fromkeys(notes)),
    )


def _evaluate(
    model: SpecModel,
    statics: Sequence[_IpStatics],
    resident: Sequence[Set[PowerState]],
    battery_cfg: BatteryConfig,
    thermal_cfg: ThermalConfig,
    horizon_s: float,
    interval_s: float,
    unbounded: bool,
    boundary_j: float,
    trans_rate_w: float,
    fan_w: float,
    gem_enabled: bool,
    notes: List[str],
    iterations: int,
) -> ReachResult:
    spec = model.spec
    per_ip_bounds = [
        _ip_power_bounds(ip_statics, states)
        for ip_statics, states in zip(statics, resident)
    ]
    power_lo = sum(lo for lo, _ in per_ip_bounds)
    power_hi = sum(hi for _, hi in per_ip_bounds) + fan_w
    # Worst average power over one monitor sample window: sustained ceiling
    # plus transition deposits (their rate plus one boundary deposit landing
    # inside the window).  Mid-run drains always cover whole windows, so
    # this is the power the Peukert factor can ever see before a decision.
    if unbounded or interval_s <= 0.0:
        window_power_w = math.inf
    else:
        window_power_w = power_hi + trans_rate_w + boundary_j / interval_s
    if battery_cfg.nominal_power_w > 0.0 and math.isfinite(window_power_w):
        peukert = max(
            1.0,
            (window_power_w / battery_cfg.nominal_power_w)
            ** (battery_cfg.peukert_exponent - 1.0),
        )
    else:
        peukert = math.inf if not math.isfinite(window_power_w) else 1.0
    drain_rate_w = (
        peukert * (power_hi + trans_rate_w) + battery_cfg.self_discharge_w
        if math.isfinite(peukert) else math.inf
    )
    drain_boundary_j = peukert * boundary_j if math.isfinite(peukert) else math.inf
    degrade = unbounded or not math.isfinite(drain_rate_w)

    # GEM pending-energy bound: one outstanding estimate per other IP.
    energy_ceilings = [s.max_task_energy_j for s in statics]
    total_energy = sum(energy_ceilings)
    thermal_rate_w = power_hi + trans_rate_w

    run_soc, run_battery_spans = _battery_envelope(
        battery_cfg, horizon_s, drain_rate_w, drain_boundary_j, degrade, 0.0,
    )
    run_temp, run_temp_spans = _temperature_envelope(
        thermal_cfg, horizon_s, thermal_rate_w, boundary_j, degrade,
        steady_proj_c=-math.inf, proj_decay=1.0,
    )

    ips: List[IpReach] = []
    other_bound = 0.0
    for ip_statics, (_, ip_power_hi) in zip(statics, per_ip_bounds):
        char = ip_statics.ip_model.characterization
        own = energy_ceilings[ip_statics.ip_model.index]
        others = (total_energy - own) if gem_enabled else 0.0
        other_bound = max(other_bound, others)
        slack_j = own + others if ip_statics.has_tasks else 0.0
        soc, battery_spans = _battery_envelope(
            battery_cfg, horizon_s, drain_rate_w, drain_boundary_j, degrade, slack_j,
        )
        if ip_statics.has_tasks:
            # Projected temperature: own active power plus the other IPs'
            # pending energy amortised over the shortest own-task duration,
            # relaxed toward its steady state with the no-fan resistance.
            active_ceiling = max(
                (
                    char.active_power_w(PowerState.ON1, iclass)
                    for iclass in (ip_statics.classes or tuple(InstructionClass))
                ),
                default=0.0,
            )
            if others > 0.0 and ip_statics.min_task_duration_s > 0.0:
                proj_power = active_ceiling + others / ip_statics.min_task_duration_s
            elif others > 0.0:
                proj_power = math.inf
            else:
                proj_power = active_ceiling
            steady_proj = (
                thermal_cfg.ambient_c
                + proj_power * thermal_cfg.thermal_resistance_c_per_w
            )
            tau_fast = (
                thermal_cfg.thermal_resistance_c_per_w
                * thermal_cfg.fan_resistance_scale
                * thermal_cfg.thermal_capacitance_j_per_c
            )
            if math.isfinite(ip_statics.max_task_duration_s) and tau_fast > 0.0:
                proj_decay = math.exp(-ip_statics.max_task_duration_s / tau_fast)
            else:
                proj_decay = 0.0
        else:
            steady_proj = -math.inf
            proj_decay = 1.0
        temp, temp_spans = _temperature_envelope(
            thermal_cfg, horizon_s, thermal_rate_w, boundary_j, degrade,
            steady_proj_c=steady_proj, proj_decay=proj_decay,
        )
        ips.append(IpReach(
            index=ip_statics.ip_model.index,
            name=ip_statics.ip_model.ip.name,
            priorities=ip_statics.priorities,
            resident_states=tuple(
                s for s in ON_STATES if s in resident[ip_statics.ip_model.index]
            ),
            soc=soc,
            temperature_c=temp,
            battery_levels=battery_spans,
            temperature_levels=temp_spans,
            projection_slack_j=slack_j,
            max_idle_gap_s=ip_statics.max_idle_gap_s,
        ))

    deciding = [ip for ip in ips if ip.priorities]
    battery_spans = _merge_spans(
        [ip.battery_levels for ip in deciding] or [run_battery_spans],
        _BATTERY_ORDER + (BatteryLevel.AC_POWER,),
    )
    temp_spans = _merge_spans(
        [ip.temperature_levels for ip in deciding] or [run_temp_spans],
        _TEMPERATURE_ORDER,
    )
    soc = Interval(min((ip.soc.lo for ip in deciding), default=run_soc.lo), run_soc.hi)
    temp = Interval(
        run_temp.lo,
        max((ip.temperature_c.hi for ip in deciding), default=run_temp.hi),
    )

    if not spec.bus.enabled:
        bus_spans = (LevelSpan(BusLevel.LOW, 0.0),)
    elif any(s.has_bus_traffic for s in statics):
        # While a transfer is in flight the trailing-window occupancy divides
        # by min(elapsed, window), so early readings can transiently reach
        # saturation regardless of average traffic.
        bus_spans = tuple(LevelSpan(level, 0.0) for level in BusLevel)
    else:
        bus_spans = (LevelSpan(BusLevel.LOW, 0.0),)

    return ReachResult(
        subject=spec.name,
        horizon_s=horizon_s,
        power_w=Interval(min(power_lo, power_hi), power_hi),
        window_power_w=window_power_w,
        soc=soc,
        run_soc=run_soc,
        temperature_c=temp,
        run_temperature_c=run_temp,
        battery_levels=battery_spans,
        temperature_levels=temp_spans,
        bus_levels=bus_spans,
        ips=tuple(ips),
        other_energy_bound_j=other_bound if gem_enabled else 0.0,
        iterations=iterations,
        converged=False,
        assumptions=tuple(dict.fromkeys(notes)),
    )
