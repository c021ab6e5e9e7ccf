"""Battery monitor simulation module.

The monitor closes the loop between the energy ledger and the battery model.
It publishes the quantised :class:`~repro.battery.status.BatteryLevel` and
the state of charge on signals that the LEMs and the GEM read.  The SoC's
sampler drains the battery once per ``sample_interval`` and publishes the
result here (see :meth:`repro.soc.soc.SoC._sample_window`).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.battery.model import Battery
from repro.battery.status import BatteryLevel
from repro.errors import BatteryError
from repro.power.energy import EnergyLedger
from repro.sim.kernel import Kernel
from repro.sim.module import Module
from repro.sim.simtime import SimTime, ms

__all__ = ["BatteryMonitor"]


class BatteryMonitor(Module):
    """Publishes the battery level sampled from the SoC's energy ledger."""

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        battery: Battery,
        ledger: EnergyLedger,
        sample_interval: Optional[SimTime] = None,
        parent: Optional[Module] = None,
    ) -> None:
        super().__init__(kernel, name, parent)
        if sample_interval is not None and sample_interval.is_zero:
            raise BatteryError("battery sample interval must be positive")
        self.battery = battery
        self.sample_interval = sample_interval or ms(1)
        self.level_signal = self.signal("level", battery.level)
        self.soc_signal = self.signal("state_of_charge", battery.state_of_charge)
        # Ledger total and time of the previous sample.
        self._last_total_j = ledger.total_j
        self._last_sample_fs = kernel.now_fs
        #: sampled ``(time_fs, state_of_charge)`` pairs
        self._history: List[Tuple[int, float]] = []

    @property
    def level(self) -> BatteryLevel:
        """Most recently published battery level."""
        return self.level_signal.read()

    @property
    def history(self) -> List[Tuple[SimTime, float]]:
        """Sampled ``(time, state_of_charge)`` pairs."""
        return [(SimTime(when_fs), value) for when_fs, value in self._history]
