"""Clock: the analytic edge schedule of a fixed-period clock.

A :class:`Clock` models a fixed-period, fixed-duty-cycle clock without a
toggling process or output signal: its rising edges are computed from the
creation time, the period and the duty cycle.  The cycle-accurate bus
arbiter is the consumer — it calls :meth:`Clock.next_posedge_fs` to jump
straight to the next edge it must act on, so a clocked model pays no kernel
work per simulated cycle.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.sim.kernel import Kernel
from repro.sim.module import Module
from repro.sim.simtime import SimTime

__all__ = ["Clock"]


class Clock(Module):
    """A clock whose rising edges are computed, not simulated.

    Parameters
    ----------
    kernel:
        Owning kernel.
    name:
        Instance name.
    period:
        Clock period (must be positive).
    duty_cycle:
        Fraction of the period spent high, in (0, 1).  Defaults to 0.5.
    start_high:
        Whether the first phase is the high phase.
    parent:
        Optional parent module.
    """

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        period: SimTime,
        duty_cycle: float = 0.5,
        start_high: bool = True,
        parent: Optional[Module] = None,
    ) -> None:
        super().__init__(kernel, name, parent)
        if period.is_zero:
            raise ConfigurationError("clock period must be positive")
        if not 0.0 < duty_cycle < 1.0:
            raise ConfigurationError(f"duty cycle must be in (0, 1), got {duty_cycle}")
        self.period = period
        self.duty_cycle = duty_cycle
        self.start_high = start_high
        # The high phase rounds to the femtosecond grid; the low phase is
        # derived invariantly so high + low == period holds *exactly* and
        # the edges never drift off the period grid.
        self._period_fs = int(period)
        self._high_time = period * duty_cycle
        self._low_time = period - self._high_time
        self._start_fs = kernel.now_fs

    @property
    def frequency_hz(self) -> float:
        """Clock frequency in hertz."""
        return 1.0 / self.period.seconds

    def next_posedge_fs(self, now_fs: int) -> int:
        """Absolute time (fs) of the first rising edge at or after ``now_fs``.

        The rising edges are ``start + k*period`` for ``k >= 1`` when the
        clock starts high and ``start + low + k*period`` for ``k >= 0``
        otherwise — the instants at which a toggling clock generator's
        output would rise.  Cycle-accurate consumers (the bus arbiter) use
        this to jump straight to the next interesting edge instead of
        waking on every cycle.
        """
        period = self._period_fs
        base = self._start_fs + (period if self.start_high else int(self._low_time))
        if now_fs <= base:
            return base
        return base + -(-(now_fs - base) // period) * period
