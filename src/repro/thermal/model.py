"""Lumped-RC thermal model of the chip.

The chip (die + package) is modelled as a single thermal node with thermal
resistance ``R_th`` to the ambient and thermal capacitance ``C_th``::

    C_th · dT/dt = P(t) - (T - T_amb) / R_th

which discretises (exponential integrator, unconditionally stable) to::

    T(t + dt) = T_inf + (T(t) - T_inf) · exp(-dt / tau)
    T_inf     = T_amb + P · R_th
    tau       = R_th · C_th

A supplementary fan (the GEM's worst-case action) reduces the effective
thermal resistance, lowering both the steady-state temperature and the time
constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import ThermalError
from repro.sim.simtime import SimTime
from repro.thermal.level import TemperatureLevel, TemperatureThresholds

__all__ = ["ThermalConfig", "ThermalModel"]

_INF = float("inf")


@dataclass
class ThermalConfig:
    """Static parameters of the lumped thermal model."""

    ambient_c: float = 35.0
    initial_c: float = 40.0
    thermal_resistance_c_per_w: float = 60.0
    thermal_capacitance_j_per_c: float = 0.0007
    fan_resistance_scale: float = 0.55
    thresholds: TemperatureThresholds = field(default_factory=TemperatureThresholds)

    def __post_init__(self) -> None:
        if self.thermal_resistance_c_per_w <= 0.0:
            raise ThermalError("thermal resistance must be positive")
        if self.thermal_capacitance_j_per_c <= 0.0:
            raise ThermalError("thermal capacitance must be positive")
        if not 0.0 < self.fan_resistance_scale <= 1.0:
            raise ThermalError("fan resistance scale must be in (0, 1]")
        if self.initial_c < self.ambient_c - 1e-9:
            raise ThermalError("initial temperature cannot be below ambient")


class ThermalModel:
    """Single-node RC thermal model with optional fan."""

    def __init__(self, config: ThermalConfig = None) -> None:
        self.config = config or ThermalConfig()
        self._temperature_c = self.config.initial_c
        self._set_fan_state(False)
        self._peak_c = self.config.initial_c
        self._integral_c_s = 0.0
        self._integrated_time_s = 0.0
        # exp(-dt/tau) per (dt_s, tau): the sampling loops step with a fixed
        # interval, so the decay factor is almost always a cache hit.  The
        # cached value is the result of the identical exp() call.
        self._decay_cache: dict = {}
        # The quantised level follows every step; it is re-classified only
        # when the temperature leaves the current level's band.
        self._level = TemperatureLevel.LOW
        self._band = (_INF, _INF)  # empty: classified just below
        self._settle_level()
        # Fast accuracy mode installs a callback replaying pending sampler
        # windows before the state is observed, and a listener notified on
        # fan toggles (the replay needs the historical fan state per window).
        self._sync_hook: Optional[Callable[[], None]] = None
        self._fan_listener: Optional[Callable[[bool], None]] = None

    # -- state ------------------------------------------------------------
    @property
    def temperature_c(self) -> float:
        """Current die temperature in Celsius."""
        if self._sync_hook is not None:
            self._sync_hook()
        return self._temperature_c

    @property
    def peak_c(self) -> float:
        """Highest temperature reached so far."""
        if self._sync_hook is not None:
            self._sync_hook()
        return self._peak_c

    @property
    def fan_on(self) -> bool:
        """True while the supplementary fan runs."""
        return self._fan_on

    @property
    def level(self) -> TemperatureLevel:
        """Quantised temperature class."""
        if self._sync_hook is not None:
            self._sync_hook()
        return self._level

    @property
    def average_c(self) -> float:
        """Time-averaged temperature since the start of the simulation."""
        if self._sync_hook is not None:
            self._sync_hook()
        if self._integrated_time_s <= 0.0:
            return self._temperature_c
        return self._integral_c_s / self._integrated_time_s

    @property
    def average_rise_c(self) -> float:
        """Time-averaged temperature rise above ambient."""
        return max(0.0, self.average_c - self.config.ambient_c)

    # -- control ---------------------------------------------------------------
    def set_fan(self, on: bool) -> None:
        """Switch the supplementary fan on or off."""
        on = bool(on)
        if self._fan_listener is not None and on != self._fan_on:
            self._fan_listener(on)
        self._set_fan_state(on)

    def _set_fan_state(self, on: bool) -> None:
        """Set the fan state and the resistance and time constant it implies."""
        config = self.config
        self._fan_on = on
        scale = config.fan_resistance_scale if on else 1.0
        self._resistance = config.thermal_resistance_c_per_w * scale
        self._tau = self._resistance * config.thermal_capacitance_j_per_c

    def _settle_level(self) -> None:
        """Re-classify the level if the temperature left the current band."""
        low, high = self._band
        if not low <= self._temperature_c < high:
            thresholds = self.config.thresholds
            self._level = thresholds.classify(self._temperature_c)
            self._band = thresholds.band(self._level)

    # -- dynamics ----------------------------------------------------------------
    def step(self, power_w: float, dt: SimTime) -> float:
        """Advance the model by ``dt`` with constant dissipated power ``power_w``.

        Returns the new temperature in Celsius.
        """
        return self.step_fs(power_w, int(dt))

    def step_fs(self, power_w: float, dt_fs: int) -> float:
        """:meth:`step` over a raw femtosecond interval (no SimTime built)."""
        if power_w < 0.0:
            raise ThermalError("dissipated power must be non-negative")
        # dt_fs / 10^15 is SimTime.seconds bit for bit.
        dt_s = dt_fs / 1_000_000_000_000_000
        if dt_s < 0.0:  # pragma: no cover - SimTime cannot be negative
            raise ThermalError("time step must be non-negative")
        if dt_s == 0.0:
            return self._temperature_c
        steady = self.config.ambient_c + power_w * self._resistance
        decay = self._decay(dt_s, self._tau)
        previous = self._temperature_c
        current = steady + (previous - steady) * decay
        self._temperature_c = current
        if current > self._peak_c:
            self._peak_c = current
        low, high = self._band
        if not low <= current < high:
            self._settle_level()
        # Trapezoidal accumulation of the average temperature.
        self._integral_c_s += 0.5 * (previous + current) * dt_s
        self._integrated_time_s += dt_s
        return current

    def _decay(self, dt_s: float, tau: float) -> float:
        """Cached ``exp(-dt/tau)``, bounded so varying-duration estimates
        (one per task) cannot grow the cache without limit."""
        key = (dt_s, tau)
        decay = self._decay_cache.get(key)
        if decay is None:
            if len(self._decay_cache) >= 1024:
                self._decay_cache.clear()
            decay = math.exp(-dt_s / tau)
            self._decay_cache[key] = decay
        return decay

    def advance_windows(self, power_w: float, dt: SimTime, count: int) -> None:
        """Advance ``count`` equal sampling windows in one closed-form step.

        Fast accuracy mode only.  With constant power the per-window
        exponential steps form a geometric sequence, so the end temperature,
        the peak (the trajectory is monotone) and the trapezoidal average
        integral all have closed forms.  The results are mathematically
        identical to ``count`` successive :meth:`step` calls and differ only
        by floating-point reassociation (documented tolerance: 1e-6 relative
        on temperatures).
        """
        if count <= 0:
            return
        if count == 1:
            self.step(power_w, dt)
            return
        if power_w < 0.0:
            raise ThermalError("dissipated power must be non-negative")
        dt_s = dt.seconds
        resistance = self._resistance
        decay = self._decay(dt_s, self._tau)
        if decay >= 1.0:  # pragma: no cover - defensive: dt/tau underflow
            for _ in range(count):
                self.step(power_w, dt)
            return
        steady = self.config.ambient_c + power_w * resistance
        previous = self._temperature_c
        offset = previous - steady
        decay_k = decay ** count
        new = steady + offset * decay_k
        self._temperature_c = new
        self._settle_level()
        self._peak_c = max(self._peak_c, previous, new)
        # Closed form of sum(0.5 * (T_i + T_{i+1}) * dt) with T_i geometric.
        self._integral_c_s += dt_s * (
            count * steady + 0.5 * offset * (1.0 + decay) * (1.0 - decay_k) / (1.0 - decay)
        )
        self._integrated_time_s += count * dt_s
        return

    def estimate_after(self, power_w: float, duration: SimTime) -> float:
        """Temperature the chip would reach after ``duration`` at ``power_w``.

        Pure prediction: the internal state is not modified.  The LEM uses it
        to estimate the temperature "at the end of the task execution".
        """
        if power_w < 0.0:
            raise ThermalError("dissipated power must be non-negative")
        if self._sync_hook is not None:
            self._sync_hook()
        steady = self.config.ambient_c + power_w * self._resistance
        duration_s = duration.seconds
        decay = self._decay(duration_s, self._tau) if duration_s > 0 else 1.0
        return steady + (self._temperature_c - steady) * decay
