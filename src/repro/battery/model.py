"""Analytic battery model.

The paper develops a SystemC battery model "to verify the performances of the
power management in different conditions".  Here the battery is a
coulomb-counting energy reservoir with two refinements that matter for DPM
studies:

* a *rate-dependent efficiency* (Peukert-like): draining at high power wastes
  part of the charge, so policies that spread the same energy over a longer
  time (e.g. running at ON4) recover slightly more usable capacity;
* an optional *self-discharge* leak.

The model is deliberately analytic (no electro-chemistry): the DPM loop only
consumes the quantised :class:`~repro.battery.status.BatteryLevel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.battery.status import BatteryLevel, BatteryThresholds
from repro.errors import BatteryError
from repro.sim.simtime import SimTime

__all__ = ["Battery", "BatteryConfig"]

_INF = float("inf")


@dataclass
class BatteryConfig:
    """Static parameters of a :class:`Battery`."""

    capacity_j: float = 250.0
    initial_state_of_charge: float = 1.0
    nominal_power_w: float = 0.2
    peukert_exponent: float = 1.10
    self_discharge_w: float = 0.0
    on_ac_power: bool = False
    thresholds: BatteryThresholds = field(default_factory=BatteryThresholds)

    def __post_init__(self) -> None:
        if self.capacity_j <= 0.0:
            raise BatteryError("battery capacity must be positive")
        if not 0.0 <= self.initial_state_of_charge <= 1.0:
            raise BatteryError("initial state of charge must be in [0, 1]")
        if self.nominal_power_w <= 0.0:
            raise BatteryError("nominal discharge power must be positive")
        if self.peukert_exponent < 1.0:
            raise BatteryError("Peukert exponent must be >= 1")
        if self.self_discharge_w < 0.0:
            raise BatteryError("self-discharge power must be non-negative")


class Battery:
    """Coulomb-counting battery with rate-dependent efficiency."""

    def __init__(self, config: Optional[BatteryConfig] = None) -> None:
        self.config = config or BatteryConfig()
        self._remaining_j = self.config.capacity_j * self.config.initial_state_of_charge
        self._drawn_j = 0.0
        self._wasted_j = 0.0
        # The state of charge and the quantised level follow every change of
        # _remaining_j (see _set_remaining); the level is re-classified only
        # when the charge leaves its band.  On mains the band is everything;
        # otherwise it starts empty, so the first update classifies.
        self._state_of_charge = 0.0
        self._level = BatteryLevel.AC_POWER
        self._band = (-_INF, _INF) if self.config.on_ac_power else (_INF, _INF)
        self._set_remaining(self._remaining_j)
        # Fast accuracy mode installs a callback that lazily replays the
        # pending sampler windows before the state is observed; exact mode
        # leaves it None and pays one attribute check per read.
        self._sync_hook = None

    # -- state ------------------------------------------------------------
    @property
    def capacity_j(self) -> float:
        """Nominal capacity in joules."""
        return self.config.capacity_j

    @property
    def remaining_j(self) -> float:
        """Remaining usable energy in joules."""
        return self._remaining_j

    @property
    def state_of_charge(self) -> float:
        """Remaining fraction of the nominal capacity, in [0, 1]."""
        if self._sync_hook is not None:
            self._sync_hook()
        return self._state_of_charge

    @property
    def drawn_j(self) -> float:
        """Total energy delivered to the load so far."""
        return self._drawn_j

    @property
    def wasted_j(self) -> float:
        """Energy lost to rate-dependent inefficiency and self-discharge."""
        return self._wasted_j

    @property
    def is_exhausted(self) -> bool:
        """True when no usable energy remains."""
        return self._remaining_j <= 0.0

    @property
    def level(self) -> BatteryLevel:
        """Quantised battery level (or ``AC_POWER`` when on mains)."""
        if self.config.on_ac_power:
            return BatteryLevel.AC_POWER
        if self._sync_hook is not None:
            self._sync_hook()
        return self._level

    def level_if_drawn(self, energy_j: float) -> BatteryLevel:
        """Level the battery would have after drawing ``energy_j`` more joules.

        This is the estimate the LEM performs before each task: "it estimates
        the battery status ... at the end of the task execution".
        """
        if self.config.on_ac_power:
            return BatteryLevel.AC_POWER
        if energy_j < 0.0:
            raise BatteryError("estimated energy must be non-negative")
        if self._sync_hook is not None:
            self._sync_hook()
        projected = max(0.0, self._remaining_j - energy_j) / self.config.capacity_j
        return self.config.thresholds.classify(min(1.0, projected))

    # -- dynamics --------------------------------------------------------------
    def _set_remaining(self, remaining_j: float) -> None:
        """Store a new charge and update the state of charge and level."""
        self._remaining_j = remaining_j
        state_of_charge = max(0.0, min(1.0, remaining_j / self.config.capacity_j))
        self._state_of_charge = state_of_charge
        low, high = self._band
        if not low <= state_of_charge < high:
            self._level = self.config.thresholds.classify(state_of_charge)
            self._band = self.config.thresholds.band(self._level)

    def draw_energy(self, energy_j: float, over: Optional[SimTime] = None) -> float:
        """Remove ``energy_j`` joules delivered to the load.

        Parameters
        ----------
        energy_j:
            Energy delivered to the load.
        over:
            Interval over which the energy was drawn; used to derive the
            average power for the rate-dependent efficiency.  When omitted,
            nominal-rate efficiency (factor 1.0) is assumed.

        Returns
        -------
        float
            The energy actually removed from the battery (delivered plus
            losses), in joules.
        """
        return self.draw_energy_fs(energy_j, None if over is None else int(over))

    def draw_energy_fs(self, energy_j: float, over_fs: Optional[int]) -> float:
        """:meth:`draw_energy` over a raw femtosecond interval (no SimTime built)."""
        if energy_j < 0.0:
            raise BatteryError("cannot draw negative energy")
        config = self.config
        if config.on_ac_power:
            # On mains power the battery is bypassed entirely.
            self._drawn_j += energy_j
            return energy_j
        # over_fs / 10^15 is SimTime.seconds bit for bit.
        removed = energy_j
        if over_fs:
            power = energy_j / (over_fs / 1_000_000_000_000_000)
            nominal = config.nominal_power_w
            if power > nominal:
                # Peukert-like efficiency: drawing above nominal power
                # wastes part of the charge.
                removed = energy_j * (power / nominal) ** (config.peukert_exponent - 1.0)
        if over_fs is not None and config.self_discharge_w > 0.0:
            leak = config.self_discharge_w * (over_fs / 1_000_000_000_000_000)
            removed += leak
        self._set_remaining(max(0.0, self._remaining_j - removed))
        self._drawn_j += energy_j
        self._wasted_j += removed - energy_j
        return removed

    def drain_windows(self, energy_per_window_j: float, window: SimTime, count: int) -> None:
        """Drain ``count`` equal sampling windows in one closed-form step.

        Fast accuracy mode only.  When the per-window average power stays at
        or below the nominal discharge power (rate factor 1.0) and there is
        neither self-discharge nor a clamp at empty, ``count`` successive
        :meth:`draw_energy` calls reduce the charge by exactly
        ``count * energy_per_window_j`` — the batched update reassociates
        that sum (documented tolerance: 1e-6 relative on the state of
        charge).  Any condition that would make the per-window steps
        non-linear falls back to the exact per-window loop.
        """
        if count <= 0:
            return
        if self.config.on_ac_power:
            self._drawn_j += energy_per_window_j * count
            return
        window_s = window.seconds
        power = energy_per_window_j / window_s if window_s > 0.0 else 0.0
        total = energy_per_window_j * count
        if (
            power <= self.config.nominal_power_w
            and self.config.self_discharge_w == 0.0
            and self._remaining_j > total
        ):
            self._set_remaining(self._remaining_j - total)
            self._drawn_j += total
            return
        for _ in range(count):
            self.draw_energy(energy_per_window_j, over=window)

    def recharge(self, energy_j: float) -> None:
        """Add charge (clamped to the nominal capacity)."""
        if energy_j < 0.0:
            raise BatteryError("cannot recharge with negative energy")
        self._set_remaining(min(self.config.capacity_j, self._remaining_j + energy_j))

    def snapshot(self) -> dict:
        """Plain-dict state summary (used by reports and tests)."""
        return {
            "remaining_j": self._remaining_j,
            "state_of_charge": self.state_of_charge,
            "level": str(self.level),
            "drawn_j": self._drawn_j,
            "wasted_j": self._wasted_j,
            "on_ac_power": self.config.on_ac_power,
        }
