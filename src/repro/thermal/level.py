"""Chip temperature coding.

The LEM receives the chip temperature "coded in 3 classes: Low, Medium and
High" (paper, section 1.3).  :class:`TemperatureThresholds` maps a
temperature in degrees Celsius to a :class:`TemperatureLevel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Tuple

from repro._enumtools import dense_index
from repro.errors import ThermalError

__all__ = ["TemperatureLevel", "TemperatureThresholds"]


class TemperatureLevel(Enum):
    """Quantised chip temperature as seen by the energy managers."""

    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"

    @property
    def rank(self) -> int:
        """Ordering helper: LOW=0, MEDIUM=1, HIGH=2."""
        return self._idx

    def __str__(self) -> str:
        return self._str


dense_index(TemperatureLevel)  # _idx doubles as rank, _str for __str__; identity hash


@dataclass(frozen=True)
class TemperatureThresholds:
    """Celsius thresholds separating the three temperature classes.

    A temperature ``t`` maps to ``LOW`` when ``t < medium``, ``MEDIUM`` when
    ``medium <= t < high`` and ``HIGH`` otherwise.
    """

    medium_c: float = 55.0
    high_c: float = 75.0

    def __post_init__(self) -> None:
        if not self.medium_c < self.high_c:
            raise ThermalError("the medium threshold must be below the high threshold")

    def classify(self, temperature_c: float) -> TemperatureLevel:
        """Map a temperature in Celsius to a :class:`TemperatureLevel`."""
        if temperature_c < -273.15:
            raise ThermalError(f"temperature below absolute zero: {temperature_c} C")
        if temperature_c < self.medium_c:
            return TemperatureLevel.LOW
        if temperature_c < self.high_c:
            return TemperatureLevel.MEDIUM
        return TemperatureLevel.HIGH

    def band(self, level: TemperatureLevel) -> Tuple[float, float]:
        """The temperatures ``[low, high)`` that :meth:`classify` maps to ``level``."""
        edges = (-273.15, self.medium_c, self.high_c, float("inf"))
        return edges[level.rank], edges[level.rank + 1]
