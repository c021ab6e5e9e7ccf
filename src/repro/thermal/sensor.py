"""Temperature sensor simulation module.

The sensor publishes the raw chip temperature and the quantised
:class:`~repro.thermal.level.TemperatureLevel`.  The SoC's sampler converts
the energy consumed in each sample window into an average power, advances
the lumped-RC thermal model by one step and publishes the result here (see
:meth:`repro.soc.soc.SoC._sample_window`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.sim.kernel import Kernel
from repro.sim.module import Module
from repro.sim.simtime import SimTime
from repro.thermal.level import TemperatureLevel
from repro.thermal.model import ThermalModel

if TYPE_CHECKING:  # pragma: no cover - the SoC owns the record it passes in
    from repro.soc.samples import SampleColumns

__all__ = ["TemperatureSensor"]


class TemperatureSensor(Module):
    """Publishes the chip temperature sampled from the SoC's power.

    Its sampled temperatures live in the SoC's
    :class:`~repro.soc.samples.SampleColumns`, which it only reads.
    """

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        model: ThermalModel,
        samples: SampleColumns,
        parent: Optional[Module] = None,
    ) -> None:
        super().__init__(kernel, name, parent)
        self.model = model
        self.temperature_signal = self.signal("temperature_c", model.temperature_c)
        self.level_signal = self.signal("level", model.level)
        self._samples = samples

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
        samples = self._samples
        return [
            (SimTime(when_fs), value)
            for when_fs, value in zip(samples.times_fs, samples.temperature_c)
        ]
