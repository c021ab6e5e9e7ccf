"""Battery monitor simulation module.

The monitor closes the loop between the energy ledger and the battery model:
every ``sample_interval`` it drains the battery by the energy the SoC
consumed since the previous sample and publishes the quantised
:class:`~repro.battery.status.BatteryLevel` on a signal that the LEMs and the
GEM read.
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
    """Samples SoC energy consumption and publishes the battery level."""

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        battery: Battery,
        ledger: EnergyLedger,
        sample_interval: Optional[SimTime] = None,
        pre_sample=None,
        autonomous: bool = True,
        parent: Optional[Module] = None,
    ) -> None:
        super().__init__(kernel, name, parent)
        if sample_interval is not None and sample_interval.is_zero:
            raise BatteryError("battery sample interval must be positive")
        self.battery = battery
        self.ledger = ledger
        self.pre_sample = pre_sample
        self.sample_interval = sample_interval or ms(1)
        self.level_signal = self.signal("level", battery.level)
        self.soc_signal = self.signal("state_of_charge", battery.state_of_charge)
        self._last_total_j = ledger.total_j
        self._last_sample_fs = kernel.now_fs
        self._history: List[Tuple[SimTime, float]] = []
        # ``autonomous=False`` suppresses the sampling thread: an external
        # orchestrator (e.g. the SoC's shared sampler) calls sample_total()
        # on the same schedule, halving the per-sample process activations.
        if autonomous:
            self.add_thread(self._sample_loop, name="sampler")

    @property
    def level(self) -> BatteryLevel:
        """Most recently published battery level."""
        return self.level_signal.read()

    @property
    def history(self) -> List[Tuple[SimTime, float]]:
        """Sampled ``(time, state_of_charge)`` pairs."""
        return list(self._history)

    def sample_now(self) -> BatteryLevel:
        """Force an immediate sample (used by experiment runners at the end)."""
        self._take_sample()
        return self.battery.level

    def _take_sample(self) -> None:
        if self.pre_sample is not None:
            # Let lazily-integrated consumers (PSM background power, fan) post
            # their energy up to now, so the drain is smooth rather than lumpy.
            self.pre_sample()
        self.sample_total(self.ledger.total_j)

    def sample_total(self, total_j: float) -> None:
        """Sample now, given the ledger total ``total_j`` read at this instant.

        Drains the battery by the energy consumed since the previous sample
        and publishes the level.  The SoC's shared sampler flushes the books
        and reads the ledger once per window for both sensors.
        """
        delta = total_j - self._last_total_j
        self._last_total_j = total_j
        kernel = self.kernel
        now_fs = kernel._now_fs
        elapsed_fs = now_fs - self._last_sample_fs
        self._last_sample_fs = now_fs
        battery = self.battery
        if delta > 0.0:
            # Use the actual elapsed time to derive the discharge rate; when the
            # sample is forced with no time elapsed, fall back to nominal rate.
            battery.draw_energy_fs(delta, elapsed_fs or None)
        state_of_charge = battery.state_of_charge
        self._history.append((kernel.now, state_of_charge))
        self.level_signal.write(battery.level)
        self.soc_signal.write(state_of_charge)

    def _sample_loop(self):
        while True:
            yield self.sample_interval
            self._take_sample()
