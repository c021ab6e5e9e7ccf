"""Temperature sensor simulation module.

Like the battery monitor, the sensor periodically converts the energy the SoC
consumed since the previous sample into an average power, advances the
lumped-RC thermal model by one step and publishes both the raw temperature
and the quantised :class:`~repro.thermal.level.TemperatureLevel`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import ThermalError
from repro.power.energy import EnergyLedger
from repro.sim.kernel import Kernel
from repro.sim.module import Module
from repro.sim.simtime import SimTime, ms
from repro.thermal.level import TemperatureLevel
from repro.thermal.model import ThermalModel

__all__ = ["TemperatureSensor"]


class TemperatureSensor(Module):
    """Samples SoC power and publishes the chip temperature."""

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        model: ThermalModel,
        ledger: EnergyLedger,
        sample_interval: Optional[SimTime] = None,
        pre_sample=None,
        autonomous: bool = True,
        parent: Optional[Module] = None,
    ) -> None:
        super().__init__(kernel, name, parent)
        if sample_interval is not None and sample_interval.is_zero:
            raise ThermalError("temperature sample interval must be positive")
        self.model = model
        self.ledger = ledger
        self.pre_sample = pre_sample
        self.sample_interval = sample_interval or ms(1)
        self.temperature_signal = self.signal("temperature_c", model.temperature_c)
        self.level_signal = self.signal("level", model.level)
        self._last_total_j = ledger.total_j
        self._history: List[Tuple[SimTime, float]] = []
        # ``autonomous=False`` suppresses the sampling thread: an external
        # orchestrator (e.g. the SoC's shared sampler) calls sample_total()
        # on the same schedule, halving the per-sample process activations.
        if autonomous:
            self.add_thread(self._sample_loop, name="sampler")

    @property
    def level(self) -> TemperatureLevel:
        """Most recently published temperature class."""
        return self.level_signal.read()

    @property
    def temperature_c(self) -> float:
        """Most recently published temperature."""
        return self.temperature_signal.read()

    @property
    def history(self) -> List[Tuple[SimTime, float]]:
        """Sampled ``(time, temperature_c)`` pairs."""
        return list(self._history)

    def sample_now(self) -> TemperatureLevel:
        """Force an immediate sample (used by experiment runners at the end)."""
        self._take_sample()
        return self.model.level

    def _take_sample(self) -> None:
        if self.pre_sample is not None:
            # Let lazily-integrated consumers (PSM background power, fan) post
            # their energy up to now, so the measured power is smooth.
            self.pre_sample()
        self.sample_total(self.ledger.total_j)

    def sample_total(self, total_j: float) -> None:
        """Sample now, given the ledger total ``total_j`` read at this instant.

        Steps the thermal model by one sample interval at the average power
        since the previous sample and publishes the temperature.
        """
        delta = max(0.0, total_j - self._last_total_j)
        self._last_total_j = total_j
        interval_fs = int(self.sample_interval)
        model = self.model
        # interval_fs / 10^15 is SimTime.seconds bit for bit.
        model.step_fs(delta / (interval_fs / 1_000_000_000_000_000), interval_fs)
        temperature = model.temperature_c
        self._history.append((self.kernel.now, temperature))
        self.temperature_signal.write(temperature)
        self.level_signal.write(model.level)

    def _sample_loop(self):
        while True:
            yield self.sample_interval
            self._take_sample()
