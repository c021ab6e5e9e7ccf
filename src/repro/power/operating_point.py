"""DVFS operating points: the (voltage, frequency) pair behind each ON state.

The paper's variable-voltage technique runs the IP at one of four execution
states with decreasing clock frequency and supply voltage.  This module
captures that mapping and the first-order CMOS power model used to derive
per-state power and energy figures:

* dynamic power  ``P_dyn  = C_eff · V² · f``
* leakage power  ``P_leak = I_leak(V) · V`` (modelled as ``k_leak · V``)
* energy per cycle ``E_cyc = C_eff · V²`` (dynamic part)

Only ratios between states matter for the reproduction: the baseline used by
the paper is "everything at maximum frequency", so energy savings and delay
overheads are relative quantities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Mapping, Optional

from repro.errors import PowerModelError
from repro.power.states import ON_STATES, PowerState
from repro.sim.simtime import SimTime, sec

__all__ = ["OperatingPoint", "OperatingPointTable", "default_operating_points"]


@dataclass(frozen=True)
class OperatingPoint:
    """One DVFS point: the voltage and clock frequency of an ON state."""

    state: PowerState
    voltage_v: float
    frequency_hz: float

    def __post_init__(self) -> None:
        if not self.state.is_on:
            raise PowerModelError(f"operating points only exist for ON states, got {self.state}")
        if self.voltage_v <= 0.0:
            raise PowerModelError(f"supply voltage must be positive, got {self.voltage_v}")
        if self.frequency_hz <= 0.0:
            raise PowerModelError(f"clock frequency must be positive, got {self.frequency_hz}")

    # -- derived quantities ------------------------------------------------
    @property
    def clock_period(self) -> SimTime:
        """Clock period of this operating point."""
        return sec(1.0 / self.frequency_hz)

    def dynamic_power_w(self, effective_capacitance_f: float, activity: float = 1.0) -> float:
        """Dynamic power ``activity · C_eff · V² · f`` in watts."""
        if effective_capacitance_f < 0.0 or activity < 0.0:
            raise PowerModelError("capacitance and activity must be non-negative")
        return activity * effective_capacitance_f * self.voltage_v**2 * self.frequency_hz

    def energy_per_cycle_j(self, effective_capacitance_f: float, activity: float = 1.0) -> float:
        """Dynamic energy per clock cycle ``activity · C_eff · V²`` in joules."""
        if effective_capacitance_f < 0.0 or activity < 0.0:
            raise PowerModelError("capacitance and activity must be non-negative")
        return activity * effective_capacitance_f * self.voltage_v**2

    def leakage_power_w(self, leakage_coefficient: float) -> float:
        """Leakage power modelled as ``k_leak · V`` in watts."""
        if leakage_coefficient < 0.0:
            raise PowerModelError("leakage coefficient must be non-negative")
        return leakage_coefficient * self.voltage_v

    def execution_time(self, cycles: float) -> SimTime:
        """Time to execute ``cycles`` clock cycles at this point."""
        if cycles < 0:
            raise PowerModelError("cycle count must be non-negative")
        return sec(cycles / self.frequency_hz)


class OperatingPointTable:
    """The four DVFS points of an IP, indexed by ON state.

    The table validates the paper's monotonicity requirement: going from ON1
    to ON4 both frequency and voltage must be non-increasing (strictly
    decreasing frequency), so that deeper ON states are always slower and at
    most as power-hungry.
    """

    def __init__(self, points: Iterable[OperatingPoint]) -> None:
        self._points: Dict[PowerState, OperatingPoint] = {}
        for point in points:
            if point.state in self._points:
                raise PowerModelError(f"duplicate operating point for {point.state}")
            self._points[point.state] = point
        missing = [state for state in ON_STATES if state not in self._points]
        if missing:
            raise PowerModelError(f"missing operating points for {[str(s) for s in missing]}")
        self._validate_monotonic()
        # Dense per-state view: point() lookups sit on the task hot path and
        # PowerState._idx indexes a plain list at C speed (enum __hash__ is
        # a Python-level call).
        self._points_by_idx: list = [None] * 16
        for state, point in self._points.items():
            self._points_by_idx[state._idx] = point

    def _validate_monotonic(self) -> None:
        ordered = [self._points[state] for state in ON_STATES]
        for faster, slower in zip(ordered, ordered[1:]):
            if slower.frequency_hz >= faster.frequency_hz:
                raise PowerModelError(
                    "operating point frequencies must strictly decrease from ON1 to ON4"
                )
            if slower.voltage_v > faster.voltage_v:
                raise PowerModelError(
                    "operating point voltages must not increase from ON1 to ON4"
                )

    # -- access ---------------------------------------------------------------
    def point(self, state: PowerState) -> OperatingPoint:
        """The operating point of ``state`` (must be an ON state)."""
        found = self._points_by_idx[state._idx]
        if found is None:
            raise PowerModelError(f"no operating point for state {state}")
        return found

    def __getitem__(self, state: PowerState) -> OperatingPoint:
        return self.point(state)

    def __iter__(self) -> Iterator[OperatingPoint]:
        return (self._points[state] for state in ON_STATES)

    @property
    def fastest(self) -> OperatingPoint:
        """The ON1 point (the paper's baseline: maximum clock frequency)."""
        return self._points[PowerState.ON1]

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """Serializable view ``{state: {voltage_v, frequency_hz}}``."""
        return {
            str(state): {
                "voltage_v": self._points[state].voltage_v,
                "frequency_hz": self._points[state].frequency_hz,
            }
            for state in ON_STATES
        }


def default_operating_points(
    max_frequency_hz: float = 200e6,
    max_voltage_v: float = 1.2,
    frequency_scales: Optional[Mapping[PowerState, float]] = None,
    voltage_scales: Optional[Mapping[PowerState, float]] = None,
) -> OperatingPointTable:
    """Build the default four-point DVFS table used throughout the repo.

    The default scales follow the usual DVFS practice of shaving voltage
    roughly linearly with frequency while keeping a margin:

    ========  =========  =======
    state     f / f_max  V / V_max
    ========  =========  =======
    ``ON1``   1.00       1.000
    ``ON2``   0.75       0.875
    ``ON3``   0.50       0.750
    ``ON4``   0.25       0.625
    ========  =========  =======

    which yields per-cycle energy ratios of 1.00 / 0.77 / 0.56 / 0.39 and
    slowdowns of 1 / 1.33 / 2 / 4 — the same qualitative trade-off the paper
    exploits (large savings available at a large delay cost).
    """
    if max_frequency_hz <= 0 or max_voltage_v <= 0:
        raise PowerModelError("maximum frequency and voltage must be positive")
    f_scales = {
        PowerState.ON1: 1.00,
        PowerState.ON2: 0.75,
        PowerState.ON3: 0.50,
        PowerState.ON4: 0.25,
    }
    v_scales = {
        PowerState.ON1: 1.000,
        PowerState.ON2: 0.875,
        PowerState.ON3: 0.750,
        PowerState.ON4: 0.625,
    }
    if frequency_scales:
        f_scales.update(frequency_scales)
    if voltage_scales:
        v_scales.update(voltage_scales)
    points = [
        OperatingPoint(
            state=state,
            voltage_v=max_voltage_v * v_scales[state],
            frequency_hz=max_frequency_hz * f_scales[state],
        )
        for state in ON_STATES
    ]
    return OperatingPointTable(points)
