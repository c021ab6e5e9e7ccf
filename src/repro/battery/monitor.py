"""Battery monitor simulation module.

The monitor closes the loop between the energy ledger and the battery model.
It publishes the quantised :class:`~repro.battery.status.BatteryLevel` and
the state of charge on signals that the LEMs and the GEM read.  The SoC's
sampler drains the battery once per sample window and publishes the result
here (see :meth:`repro.soc.soc.SoC._sample_window`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.battery.model import Battery
from repro.battery.status import BatteryLevel
from repro.power.energy import EnergyLedger
from repro.sim.kernel import Kernel
from repro.sim.module import Module
from repro.sim.simtime import SimTime

if TYPE_CHECKING:  # pragma: no cover - the SoC owns the record it passes in
    from repro.soc.samples import SampleColumns

__all__ = ["BatteryMonitor"]


class BatteryMonitor(Module):
    """Publishes the battery level sampled from the SoC's energy ledger.

    Its sampled states of charge live in the SoC's
    :class:`~repro.soc.samples.SampleColumns`, which it only reads.
    """

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        battery: Battery,
        ledger: EnergyLedger,
        samples: SampleColumns,
        parent: Optional[Module] = None,
    ) -> None:
        super().__init__(kernel, name, parent)
        self.battery = battery
        self.level_signal = self.signal("level", battery.level)
        self.soc_signal = self.signal("state_of_charge", battery.state_of_charge)
        # Ledger total and time of the previous sample.
        self._last_total_j = ledger.total_j
        self._last_sample_fs = kernel.now_fs
        self._samples = samples

    @property
    def level(self) -> BatteryLevel:
        """Most recently published battery level."""
        return self.level_signal.read()

    @property
    def history(self) -> List[Tuple[SimTime, float]]:
        """Sampled ``(time, state_of_charge)`` pairs."""
        samples = self._samples
        return [
            (SimTime(when_fs), value)
            for when_fs, value in zip(samples.times_fs, samples.state_of_charge)
        ]
