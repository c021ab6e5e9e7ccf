"""Lazy, event-driven battery/thermal sampling for the fast accuracy mode.

The exact accuracy mode drives the battery monitor and temperature sensor
from a periodic process: every sampling window it flushes the lazily
integrated background energy, reads the ledger, drains the battery by the
window's energy and advances the lumped-RC thermal model by one exponential
step.  That is faithful but expensive — the per-window arithmetic dominates
end-to-end scenario runtime once the kernel hot path is fast.

:class:`FastSampleEngine` produces the same per-window trajectory *lazily*:

* every energy deposit is mirrored into a **power timeline** (via the
  :class:`~repro.power.energy.EnergyAccount` recorder hook), keeping the
  interval each deposit was integrated over, so the per-window energy flux
  can be reconstructed exactly — the PSM background integration is free to
  coalesce arbitrarily long constant-power intervals;
* whenever simulation code *observes* battery or thermal state (the LEM's
  per-task estimates, the GEM's enable algorithm, the end-of-run flush), the
  engine replays all complete windows since the last replay.  Runs of
  windows with identical energy are collapsed into closed-form updates
  (linear state-of-charge drain, geometric temperature decay — see
  :meth:`~repro.battery.model.Battery.drain_windows` and
  :meth:`~repro.thermal.model.ThermalModel.advance_windows`);
* a **crossing guard** process wakes only at sampling boundaries where the
  quantised battery or temperature *level* could possibly change (computed
  from conservative bounds, re-armed when deposited energy exceeds the
  margin), so level-signal waiters — the GEM's sensor watch — still see
  level changes on exactly the window boundary where the exact sampler
  would have published them.  With no waiters the guard sleeps in long
  strides and the monitor processes are effectively skipped entirely.

The replay performs the *same arithmetic* as the exact sampler over the same
windows; only the floating-point association differs (documented tolerances:
1e-9 relative on energies, 1e-6 on temperatures and state of charge).
Decision-visible timing — task grants, power-state transitions, level-signal
change events — is preserved exactly.
"""

from __future__ import annotations

import math
from typing import Callable, List, Tuple

from repro.sim.kernel import Kernel
from repro.sim.process import AnyOf
from repro.sim.simtime import SimTime

__all__ = ["FastSampleEngine"]

_INF = float("inf")

#: Upper bound on guard strides (windows): even with no possible level
#: crossing the guard wakes this often, keeping histories loosely populated
#: and re-validating its bounds.
_MAX_STRIDE = 512

#: Safety factor applied to deposit-energy margins (a deposit consuming more
#: than this fraction of the distance to the nearest level threshold re-arms
#: the guard early).
_MARGIN_SAFETY = 0.5


class FastSampleEngine:
    """Replays battery/thermal sampling windows lazily and in closed form."""

    #: structured-tracing hook (repro.obs); None keeps the hook site to a
    #: single attribute test, so untraced runs stay bit-identical.  Fast
    #: mode publishes sparsely (only at observed boundaries), so traced
    #: ``sample.window`` events are sparse too — level crossings are still
    #: reported on the exact boundary where they become observable.
    _tracer = None
    _trace_source = None
    _traced_battery_level = None
    _traced_thermal_level = None

    def __init__(
        self,
        kernel: Kernel,
        battery,
        thermal,
        ledger,
        monitor,
        sensor,
        interval: SimTime,
        books_flusher: Callable[[], None],
        name: str = "fast_sampler",
    ) -> None:
        self._kernel = kernel
        self._battery = battery
        self._thermal = thermal
        self._ledger = ledger
        self._monitor = monitor
        self._sensor = sensor
        self._name = name
        self._interval_fs = int(interval)
        self._interval_st = SimTime(self._interval_fs)
        self._interval_s = interval.seconds
        self._books_flusher = books_flusher
        # Replay state: last fully replayed window boundary and the running
        # ledger total apportioned to it (what the exact monitor would have
        # read there).
        self._boundary_fs = 0
        self._total_at_boundary = 0.0
        self._entries: List[Tuple[int, int, float]] = []
        self._fan_marks: List[Tuple[int, bool]] = []
        self._fan_at_boundary = bool(thermal._fan_on)
        self._replaying = False
        # Crossing-guard state.
        self._max_background_w = 0.0
        self._watching = False
        self._every_window = False
        self._margin_j = _INF
        self._pending_excess_j = 0.0
        self._reguard_sent = False
        self._reguard_event = kernel.event(f"{name}.reguard")
        self._started = False
        # Install the observation hooks.
        battery._sync_hook = self.sync
        thermal._sync_hook = self.sync
        thermal._fan_listener = self._on_fan_switch
        ledger.attach_recorder(self)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def start(self, max_background_w: float) -> None:
        """Arm the crossing guard; ``max_background_w`` bounds the SoC's
        non-task power (idle/residual/fan), used for conservative
        level-crossing horizons."""
        if self._started:
            return
        self._started = True
        self._max_background_w = max(0.0, max_background_w)
        self._kernel.create_thread(self._guard_loop, f"{self._name}.guard")

    # ------------------------------------------------------------------
    # Deposit recording (EnergyAccount hook)
    # ------------------------------------------------------------------
    def record(self, energy_j: float, span_fs: int, end_fs: int = 0) -> None:
        """Mirror one ledger deposit into the power timeline."""
        if not end_fs:
            end_fs = self._kernel._now_fs
        self._entries.append((end_fs - span_fs, end_fs, energy_j))
        margin = self._margin_j
        if margin != _INF:
            # Only energy *beyond* the assumed background rate consumes the
            # crossing margin: coalesced background intervals are already
            # covered by the guard's horizon bounds.
            excess = energy_j
            if span_fs:
                excess -= self._max_background_w * (span_fs * 1e-15)
            if excess > 0.0:
                self._pending_excess_j += excess
                if self._pending_excess_j >= margin and not self._reguard_sent:
                    self._reguard_sent = True
                    self._reguard_event.notify()

    def _on_fan_switch(self, on: bool) -> None:
        self._fan_marks.append((self._kernel.now_fs, on))

    # ------------------------------------------------------------------
    # Lazy replay
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Replay all complete sampling windows up to the current time.

        Called before every observation of battery/thermal state; a no-op
        (two integer operations) while the simulation stays inside the
        window of the last replay.
        """
        now = self._kernel._now_fs
        target = now - now % self._interval_fs
        if target <= self._boundary_fs or self._replaying:
            return
        self._replay(target)

    def _replay(self, target_fs: int) -> None:
        self._replaying = True
        try:
            # Post all lazily integrated background energy first, exactly
            # like the exact sampler's pre-sample flush: afterwards every
            # source's accounting marker is at `now`, so no deposit can ever
            # straddle an already-replayed boundary.
            self._books_flusher()
            interval = self._interval_fs
            boundary = self._boundary_fs
            count = (target_fs - boundary) // interval
            deltas = [0.0] * count
            keep: List[Tuple[int, int, float]] = []
            for entry in self._entries:
                start, end, energy = entry
                if start == end:
                    # Point deposit.  One exactly on the replay target was
                    # recorded *before* this replay ran, which mirrors the
                    # exact ordering where the depositing process ran before
                    # the boundary sample: it belongs to the window ending
                    # at the target.  Deposits arriving at an already
                    # replayed boundary instead land in the next window,
                    # again matching exact (depositor after the sampler).
                    if start > target_fs:
                        keep.append(entry)
                    elif start == target_fs:
                        deltas[count - 1] += energy
                    else:
                        deltas[(start - boundary) // interval] += energy
                    continue
                if start >= target_fs:
                    keep.append(entry)
                    continue
                if end > target_fs:
                    # Tail fraction beyond the replay range stays pending.
                    keep.append((target_fs, end, energy * (end - target_fs) / (end - start)))
                    hi = target_fs
                else:
                    hi = end
                lo = start if start > boundary else boundary
                if lo >= hi:
                    continue
                power = energy / (end - start)  # joules per femtosecond
                first = (lo - boundary) // interval
                last = (hi - 1 - boundary) // interval
                if first == last:
                    deltas[first] += power * (hi - lo)
                else:
                    deltas[first] += power * (boundary + (first + 1) * interval - lo)
                    per_window = power * interval
                    for index in range(first + 1, last):
                        deltas[index] += per_window
                    deltas[last] += power * (hi - (boundary + last * interval))
            self._entries = keep
            self._apply_windows(deltas, boundary, target_fs)
            # Sequential left-to-right sum: a pairwise reduction would
            # reassociate and drift off the exact trajectory.
            self._total_at_boundary += sum(deltas)
            self._boundary_fs = target_fs
        finally:
            self._replaying = False

    def _apply_windows(self, deltas: List[float], boundary: int, target_fs: int) -> None:
        battery = self._battery
        thermal = self._thermal
        interval = self._interval_fs
        interval_st = self._interval_st
        interval_s = self._interval_s
        marks = self._fan_marks
        if marks and marks[0][0] < target_fs:
            # Rare path: the fan toggled inside the replay range, so the
            # thermal resistance is window-dependent.  Step window by window
            # under the historical fan state (the state the exact sampler
            # would have seen at each window's end).
            pending = [mark for mark in marks if mark[0] < target_fs]
            self._fan_marks = [mark for mark in marks if mark[0] >= target_fs]
            current_fan = thermal._fan_on
            state = self._fan_at_boundary
            mark_index = 0
            for index in range(len(deltas)):
                delta = deltas[index]
                window_end = boundary + (index + 1) * interval
                while mark_index < len(pending) and pending[mark_index][0] < window_end:
                    state = pending[mark_index][1]
                    mark_index += 1
                thermal._set_fan_state(state)
                thermal.step(delta / interval_s, interval_st)
                battery.drain_windows(delta, interval_st, 1)
            while mark_index < len(pending):
                state = pending[mark_index][1]
                mark_index += 1
            self._fan_at_boundary = state
            thermal._set_fan_state(current_fan)
            return
        count = len(deltas)
        index = 0
        while index < count:
            delta = deltas[index]
            stop = index + 1
            while stop < count and deltas[stop] == delta:
                stop += 1
            run = stop - index
            battery.drain_windows(delta, interval_st, run)
            thermal.advance_windows(delta / interval_s, interval_st, run)
            index = stop

    # ------------------------------------------------------------------
    # End-of-run flush
    # ------------------------------------------------------------------
    def final_flush(self) -> None:
        """Reproduce the exact-mode end-of-run sample at the current time.

        Replays pending windows, drains the battery by the tail energy over
        the actual tail interval, applies the sensor's unconditional
        full-window thermal step, and publishes signals and histories.
        """
        self.sync()
        self._books_flusher(True)
        kernel = self._kernel
        now_fs = kernel.now_fs
        total = self._ledger.total_j
        delta = total - self._total_at_boundary
        elapsed_fs = now_fs - self._boundary_fs
        battery = self._battery
        if delta > 0.0:
            battery.draw_energy(
                delta, over=SimTime(elapsed_fs) if elapsed_fs else None
            )
        thermal = self._thermal
        tail = delta if delta > 0.0 else 0.0
        thermal.step(tail / self._interval_s, self._interval_st)
        self._total_at_boundary = total
        self._boundary_fs = now_fs
        self._entries = []
        self._fan_marks = []
        self._fan_at_boundary = bool(thermal._fan_on)
        self._publish()

    def _publish(self) -> None:
        """Write the monitor/sensor signals and histories (sparse in fast mode)."""
        now_fs = self._kernel.now_fs
        battery = self._battery
        thermal = self._thermal
        monitor = self._monitor
        sensor = self._sensor
        soc_value = battery.state_of_charge
        monitor._history.append((now_fs, soc_value))
        monitor.level_signal.write(battery.level)
        monitor.soc_signal.write(soc_value)
        temperature = thermal._temperature_c
        sensor._history.append((now_fs, temperature))
        sensor.temperature_signal.write(temperature)
        sensor.level_signal.write(thermal.level)
        tracer = self._tracer
        if tracer is not None:
            source = self._trace_source or self._name
            tracer.emit(now_fs, "sample.window", source,
                        state_of_charge=soc_value, temperature_c=temperature)
            battery_level = battery.level
            if battery_level is not self._traced_battery_level:
                self._traced_battery_level = battery_level
                tracer.emit(now_fs, "battery.level", source,
                            level=str(battery_level), state_of_charge=soc_value)
            thermal_level = thermal.level
            if thermal_level is not self._traced_thermal_level:
                self._traced_thermal_level = thermal_level
                tracer.emit(now_fs, "thermal.level", source,
                            level=str(thermal_level), temperature_c=temperature)

    # ------------------------------------------------------------------
    # Crossing guard
    # ------------------------------------------------------------------
    def _guard_loop(self):
        kernel = self._kernel
        interval = self._interval_fs
        stride_timer = kernel.event(f"{self._name}.stride")
        timer_handle = None
        while True:
            stride = self._plan()
            wake_fs = self._boundary_fs + stride * interval
            now = kernel.now_fs
            if wake_fs <= now:
                wake_fs = (now // interval + 1) * interval
            if self._watching:
                timer_handle = kernel.schedule_timed(stride_timer, SimTime(wake_fs - now))
                yield AnyOf([stride_timer, self._reguard_event])
                # A reguard wake leaves the stride notification pending;
                # withdraw it so it cannot fire spuriously into a later wait.
                kernel.cancel_timed(timer_handle)
            else:
                yield SimTime(wake_fs - now)
            if kernel.now_fs % interval == 0:
                self.sync()
                self._publish()

    def _plan(self) -> int:
        """Number of windows with no possible level crossing (>= 1)."""
        self.sync()
        monitor_changed = self._monitor.level_signal.changed_event
        sensor_changed = self._sensor.level_signal.changed_event
        level_watchers = bool(
            monitor_changed._waiters
            or monitor_changed._callbacks
            or sensor_changed._waiters
            or sensor_changed._callbacks
        )
        raw_watchers = self._raw_signal_watchers()
        self._watching = level_watchers or raw_watchers
        self._reguard_sent = False
        self._margin_j = _INF
        if raw_watchers:
            # Someone watches the raw per-window signals: fall back to
            # materialising every boundary (exact sampling cadence).
            self._pending_excess_j = 0.0
            self._margin_j = 0.0
            return 1
        if not level_watchers:
            self._pending_excess_j = 0.0
            return _MAX_STRIDE
        stride = int(min(self._thermal_horizon(), self._battery_horizon(), _MAX_STRIDE))
        # Deposits recorded but not yet replayed (the current partial window,
        # including whichever one triggered a reguard) still count against
        # the fresh margin: they will land on upcoming boundaries.
        pending = 0.0
        background = self._max_background_w
        for start, end, energy in self._entries:
            excess = energy
            if end > start:
                excess -= background * ((end - start) * 1e-15)
            if excess > 0.0:
                pending += excess
        self._pending_excess_j = pending
        if pending >= self._margin_j:
            return 1  # a crossing at the very next boundary is possible
        return stride if stride >= 1 else 1

    def _raw_signal_watchers(self) -> bool:
        for signal in (
            self._monitor.soc_signal,
            self._sensor.temperature_signal,
        ):
            changed = signal.changed_event
            if changed._waiters or changed._callbacks or signal._observers:
                return True
        monitor_level = self._monitor.level_signal
        sensor_level = self._sensor.level_signal
        return bool(monitor_level._observers or sensor_level._observers)

    def _thermal_horizon(self) -> float:
        """Windows until a temperature-level crossing could possibly occur."""
        thermal = self._thermal
        config = thermal.config
        thresholds = config.thresholds
        temperature = thermal._temperature_c
        ambient = config.ambient_c
        resistance = config.thermal_resistance_c_per_w
        capacitance = config.thermal_capacitance_j_per_c
        # Fastest possible movement: the fan-reduced time constant.
        tau_fast = resistance * config.fan_resistance_scale * capacitance
        decay_fast = math.exp(-self._interval_s / tau_fast)
        if decay_fast >= 1.0:  # pragma: no cover - defensive
            return 1.0
        log_decay = math.log(decay_fast)
        horizon = _INF
        # Upward: background power alone cannot exceed steady_max; deposits
        # beyond the background rate consume the energy margin instead.
        steady_max = ambient + self._max_background_w * resistance
        upper = None
        if temperature < thresholds.medium_c:
            upper = thresholds.medium_c
        elif temperature < thresholds.high_c:
            upper = thresholds.high_c
        margin = _INF
        if upper is not None:
            margin = (upper - temperature) * capacitance * _MARGIN_SAFETY
            if steady_max > upper and temperature < steady_max:
                ratio = (upper - steady_max) / (temperature - steady_max)
                if ratio > 0.0:
                    horizon = min(horizon, math.log(ratio) / log_decay - 1.0)
                else:  # pragma: no cover - defensive
                    horizon = 1.0
        # Downward: cooling can at best decay toward ambient.
        lower = None
        if temperature >= thresholds.high_c:
            lower = thresholds.high_c
        elif temperature >= thresholds.medium_c:
            lower = thresholds.medium_c
        if lower is not None and temperature > ambient:
            if lower <= ambient:
                horizon = 1.0
            else:
                ratio = (lower - ambient) / (temperature - ambient)
                if 0.0 < ratio < 1.0:
                    horizon = min(horizon, math.log(ratio) / log_decay - 1.0)
        self._set_margin(margin)
        if horizon is _INF:
            return _INF
        return max(1.0, math.floor(horizon))

    def _battery_horizon(self) -> float:
        """Windows until a battery-level crossing could possibly occur."""
        battery = self._battery
        config = battery.config
        if config.on_ac_power:
            return _INF
        thresholds = config.thresholds
        soc = (
            max(0.0, min(1.0, battery._remaining_j / config.capacity_j))
        )
        lower = None
        for threshold in (thresholds.high, thresholds.medium, thresholds.low, thresholds.empty):
            if soc >= threshold:
                lower = threshold
                break
        if lower is None:
            return _INF  # already in the bottom class; no further crossing
        margin_j = (soc - lower) * config.capacity_j
        # Deposits beyond the background rate consume the energy margin; the
        # Peukert factor amplifies the removal, so solve for the smallest
        # deposit that could cross (factor capped via the closed form).
        exponent = config.peukert_exponent
        if exponent > 1.0:
            reference = config.nominal_power_w * self._interval_s
            deposit_margin = min(
                margin_j, (margin_j * reference ** (exponent - 1.0)) ** (1.0 / exponent)
            )
        else:
            deposit_margin = margin_j
        self._set_margin(deposit_margin * _MARGIN_SAFETY)
        per_window = self._max_background_w * self._interval_s
        if per_window <= 0.0 and config.self_discharge_w <= 0.0:
            return _INF
        rate = per_window
        if rate > 0.0 and per_window / self._interval_s > config.nominal_power_w:
            rate = per_window * (
                (per_window / self._interval_s / config.nominal_power_w)
                ** (exponent - 1.0)
            )
        rate += config.self_discharge_w * self._interval_s
        if rate <= 0.0:
            return _INF
        horizon = margin_j / rate - 1.0
        return max(1.0, math.floor(horizon))

    def _set_margin(self, margin_j: float) -> None:
        if margin_j < self._margin_j:
            self._margin_j = margin_j
