"""IP power characterisation.

The paper associates, during the power characterisation of an IP, an average
energy dissipation with *each power state* and *each type of instruction* the
IP executes.  This module provides that characterisation table:

* execution energy per cycle for every ``(ON state, instruction class)``
  pair, derived from the DVFS operating points and a per-class effective
  capacitance,
* idle power for every ON state (clock running, no instructions retired),
* residual power for every sleep state and for soft-off.

A characterisation is a plain value object; the :class:`~repro.power.psm.PowerStateMachine`
and the Local Energy Manager query it but never modify it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Mapping, Optional, Tuple

from repro._enumtools import dense_index
from repro.errors import PowerModelError
from repro.power.operating_point import OperatingPointTable, default_operating_points
from repro.power.states import ON_STATES, SLEEP_STATES, PowerState
from repro.sim.simtime import SimTime

__all__ = ["InstructionClass", "PowerCharacterization", "default_characterization"]


class InstructionClass(Enum):
    """Coarse instruction categories with distinct switching activity."""

    ALU = "alu"
    MEMORY = "memory"
    CONTROL = "control"
    DSP = "dsp"
    IO = "io"

    def __str__(self) -> str:
        return self.value


dense_index(InstructionClass)  # dense _idx for hot-path cache keys, identity hash

# The packed cache key below strides instruction classes by 8; growing the
# enum past that would silently alias cache slots.
assert len(InstructionClass) <= 8, "packed cache keys assume <= 8 instruction classes"


#: Default relative switching activity of each instruction class (ALU = 1.0).
DEFAULT_ACTIVITY: Dict[InstructionClass, float] = {
    InstructionClass.ALU: 1.00,
    InstructionClass.MEMORY: 1.35,
    InstructionClass.CONTROL: 0.80,
    InstructionClass.DSP: 1.60,
    InstructionClass.IO: 0.60,
}

#: Default residual power of the non-executing states, as a fraction of the
#: ON1 *idle* power.  SL1 keeps most of the chip powered (fast wake-up),
#: deeper states progressively gate more of it; OFF only retains a tiny
#: always-on domain.
DEFAULT_RESIDUAL_FRACTION: Dict[PowerState, float] = {
    PowerState.SL1: 0.40,
    PowerState.SL2: 0.20,
    PowerState.SL3: 0.08,
    PowerState.SL4: 0.03,
    PowerState.OFF: 0.005,
}


@dataclass
class PowerCharacterization:
    """Average power/energy figures of one IP across all power states.

    Parameters
    ----------
    operating_points:
        The DVFS table of the IP's ON states.
    effective_capacitance_f:
        Switched capacitance of the IP at activity 1.0, in farads.
    activity_by_class:
        Relative switching activity per instruction class.
    idle_activity:
        Activity factor when the IP sits in an ON state without executing,
        as a fraction of full activity.  The default (0.5) models the
        paper-era assumption of an IP without aggressive clock gating: the
        clock tree and control logic keep switching while the datapath idles,
        which is precisely why shutting idle blocks down pays off.
    residual_fraction:
        Power of sleep/off states as a fraction of the ON1 idle power.
    leakage_coefficient:
        ``k_leak`` of the leakage model ``P_leak = k_leak · V``.
    """

    operating_points: OperatingPointTable
    effective_capacitance_f: float = 0.8e-9
    activity_by_class: Mapping[InstructionClass, float] = field(
        default_factory=lambda: dict(DEFAULT_ACTIVITY)
    )
    idle_activity: float = 0.50
    residual_fraction: Mapping[PowerState, float] = field(
        default_factory=lambda: dict(DEFAULT_RESIDUAL_FRACTION)
    )
    leakage_coefficient: float = 0.004

    def __post_init__(self) -> None:
        if self.effective_capacitance_f <= 0.0:
            raise PowerModelError("effective capacitance must be positive")
        if not 0.0 < self.idle_activity < 1.0:
            raise PowerModelError("idle activity must be a fraction in (0, 1)")
        if self.leakage_coefficient < 0.0:
            raise PowerModelError("leakage coefficient must be non-negative")
        for iclass in InstructionClass:
            if iclass not in self.activity_by_class:
                raise PowerModelError(f"missing activity for instruction class {iclass}")
            if self.activity_by_class[iclass] <= 0.0:
                raise PowerModelError(f"activity for {iclass} must be positive")
        for state in list(SLEEP_STATES) + [PowerState.OFF]:
            if state not in self.residual_fraction:
                raise PowerModelError(f"missing residual power fraction for {state}")
            if not 0.0 <= self.residual_fraction[state] <= 1.0:
                raise PowerModelError(f"residual fraction of {state} must be in [0, 1]")
        self._validate_sleep_ordering()
        # A characterisation is a value object (never mutated after
        # construction), so its pure per-state figures are computed once.
        # Keys are the dense per-member ``_idx`` indices (integer hashing is
        # C-speed, enum hashing is not).  Idle power is filled in up front,
        # for every state: the PSM reads it on each background integration.
        on1_idle_w = self._on_idle_power_w(PowerState.ON1)
        self.idle_powers: Tuple[float, ...] = tuple(
            self._on_idle_power_w(state) if state.is_on
            else self.residual_fraction[state] * on1_idle_w
            for state in PowerState
        )
        self._energy_per_cycle_cache: Dict[int, float] = {}
        self._execution_time_cache: Dict[tuple, SimTime] = {}

    def _validate_sleep_ordering(self) -> None:
        ordered = [self.residual_fraction[state] for state in SLEEP_STATES]
        for shallow, deep in zip(ordered, ordered[1:]):
            if deep > shallow:
                raise PowerModelError(
                    "residual power must not increase with sleep depth (SL1 >= SL2 >= SL3 >= SL4)"
                )
        if self.residual_fraction[PowerState.OFF] > self.residual_fraction[PowerState.SL4]:
            raise PowerModelError("soft-off power must not exceed SL4 power")

    # -- execution figures ---------------------------------------------------
    def active_power_w(
        self, state: PowerState, instruction_class: InstructionClass = InstructionClass.ALU
    ) -> float:
        """Average power while executing ``instruction_class`` in ``state``."""
        point = self.operating_points.point(state)
        activity = self.activity_by_class[instruction_class]
        dynamic = point.dynamic_power_w(self.effective_capacitance_f, activity)
        return dynamic + point.leakage_power_w(self.leakage_coefficient)

    def energy_per_cycle_j(
        self, state: PowerState, instruction_class: InstructionClass = InstructionClass.ALU
    ) -> float:
        """Average energy of one clock cycle of ``instruction_class`` in ``state``."""
        key = state._idx * 8 + instruction_class._idx
        cached = self._energy_per_cycle_cache.get(key)
        if cached is not None:
            return cached
        point = self.operating_points.point(state)
        activity = self.activity_by_class[instruction_class]
        dynamic = point.energy_per_cycle_j(self.effective_capacitance_f, activity)
        leakage = point.leakage_power_w(self.leakage_coefficient) / point.frequency_hz
        value = dynamic + leakage
        self._energy_per_cycle_cache[key] = value
        return value

    def task_energy_j(
        self,
        state: PowerState,
        cycles: float,
        instruction_class: InstructionClass = InstructionClass.ALU,
    ) -> float:
        """Energy to execute ``cycles`` cycles of ``instruction_class`` in ``state``."""
        if cycles < 0:
            raise PowerModelError("cycle count must be non-negative")
        return cycles * self.energy_per_cycle_j(state, instruction_class)

    def execution_time(self, state: PowerState, cycles: float) -> SimTime:
        """Time to execute ``cycles`` cycles in ``state``.

        Cycle counts are often random per task, so the cache only serves
        the repeated lookups *within* a task's lifecycle (reference
        duration, estimation, execution); it is emptied once it grows past
        a bound to keep long campaign runs from accumulating stale keys.
        """
        key = (state._idx, cycles)
        cache = self._execution_time_cache
        cached = cache.get(key)
        if cached is None:
            if len(cache) >= 4096:
                cache.clear()
            cached = self.operating_points.point(state).execution_time(cycles)
            cache[key] = cached
        return cached

    # -- background figures ----------------------------------------------------
    def idle_power_w(self, state: PowerState) -> float:
        """Power of ``state`` while no instructions execute."""
        return self.idle_powers[state._idx]

    def _on_idle_power_w(self, state: PowerState) -> float:
        point = self.operating_points.point(state)
        dynamic = point.dynamic_power_w(self.effective_capacitance_f, self.idle_activity)
        return dynamic + point.leakage_power_w(self.leakage_coefficient)

    def residual_power_w(self, state: PowerState) -> float:
        """Power of a sleep/off state: its residual fraction of ON1 idle power."""
        if state.is_on:
            raise PowerModelError(f"{state} is an execution state; use idle_power_w")
        return self.idle_powers[state._idx]

    # -- summaries --------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """Key figures, useful in reports and examples."""
        data: Dict[str, float] = {}
        for state in ON_STATES:
            data[f"power_active_{state}"] = self.active_power_w(state)
            data[f"power_idle_{state}"] = self.idle_power_w(state)
        for state in list(SLEEP_STATES) + [PowerState.OFF]:
            data[f"power_{state}"] = self.residual_power_w(state)
        return data


def default_characterization(
    max_frequency_hz: float = 200e6,
    max_voltage_v: float = 1.2,
    effective_capacitance_f: float = 0.8e-9,
    operating_points: Optional[OperatingPointTable] = None,
) -> PowerCharacterization:
    """Characterisation with the library defaults (200 MHz / 1.2 V class IP)."""
    table = operating_points or default_operating_points(max_frequency_hz, max_voltage_v)
    return PowerCharacterization(
        operating_points=table,
        effective_capacitance_f=effective_capacitance_f,
    )
