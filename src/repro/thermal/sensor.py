"""Temperature sensor simulation module.

The sensor publishes the raw chip temperature and the quantised
:class:`~repro.thermal.level.TemperatureLevel`.  The SoC's sampler converts
the energy consumed in each ``sample_interval`` into an average power,
advances the lumped-RC thermal model by one step and publishes the result
here (see :meth:`repro.soc.soc.SoC._sample_window`).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import ThermalError
from repro.sim.kernel import Kernel
from repro.sim.module import Module
from repro.sim.simtime import SimTime, ms
from repro.thermal.level import TemperatureLevel
from repro.thermal.model import ThermalModel

__all__ = ["TemperatureSensor"]


class TemperatureSensor(Module):
    """Publishes the chip temperature sampled from the SoC's power."""

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        model: ThermalModel,
        sample_interval: Optional[SimTime] = None,
        parent: Optional[Module] = None,
    ) -> None:
        super().__init__(kernel, name, parent)
        if sample_interval is not None and sample_interval.is_zero:
            raise ThermalError("temperature sample interval must be positive")
        self.model = model
        self.sample_interval = sample_interval or ms(1)
        self.temperature_signal = self.signal("temperature_c", model.temperature_c)
        self.level_signal = self.signal("level", model.level)
        #: sampled ``(time_fs, temperature_c)`` pairs
        self._history: List[Tuple[int, float]] = []

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
        return [(SimTime(when_fs), value) for when_fs, value in self._history]
