"""Battery status coding.

The LEM receives the battery status "coded in 5 classes: Empty, Low, Medium,
High and Full" (paper, section 1.3).  Table 1 additionally distinguishes the
case in which the system runs from an external *power supply* (mains), where
battery preservation is irrelevant; that case is represented here by
:attr:`BatteryLevel.AC_POWER`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Tuple

from repro._enumtools import dense_index
from repro.errors import BatteryError

__all__ = ["BatteryLevel", "BatteryThresholds"]

_INF = float("inf")


class BatteryLevel(Enum):
    """Quantised battery status as seen by the energy managers."""

    EMPTY = "empty"
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"
    FULL = "full"
    AC_POWER = "ac_power"

    @property
    def is_battery(self) -> bool:
        """True for the five genuine battery classes (not mains power)."""
        return self is not BatteryLevel.AC_POWER

    @property
    def rank(self) -> int:
        """Ordering helper: EMPTY=0 ... FULL=4, AC_POWER=5."""
        return self._idx

    def at_least(self, other: "BatteryLevel") -> bool:
        """True when this level is at least as charged as ``other``."""
        return self._idx >= other._idx

    def __str__(self) -> str:
        return self._str


dense_index(BatteryLevel)  # _idx doubles as rank; _str for hot-path __str__


@dataclass(frozen=True)
class BatteryThresholds:
    """State-of-charge thresholds (fractions of capacity) for each class.

    A state of charge ``soc`` maps to:

    * ``EMPTY``  when ``soc < empty``
    * ``LOW``    when ``empty <= soc < low``
    * ``MEDIUM`` when ``low <= soc < medium``
    * ``HIGH``   when ``medium <= soc < high``
    * ``FULL``   when ``soc >= high``
    """

    empty: float = 0.05
    low: float = 0.30
    medium: float = 0.60
    high: float = 0.85

    def __post_init__(self) -> None:
        levels = (self.empty, self.low, self.medium, self.high)
        if any(not 0.0 < value < 1.0 for value in levels):
            raise BatteryError("battery thresholds must be fractions in (0, 1)")
        if not self.empty < self.low < self.medium < self.high:
            raise BatteryError("battery thresholds must be strictly increasing")

    def classify(self, state_of_charge: float) -> BatteryLevel:
        """Map a state of charge in [0, 1] to a :class:`BatteryLevel`."""
        if not 0.0 <= state_of_charge <= 1.0 + 1e-9:
            raise BatteryError(f"state of charge must be in [0, 1], got {state_of_charge}")
        if state_of_charge < self.empty:
            return BatteryLevel.EMPTY
        if state_of_charge < self.low:
            return BatteryLevel.LOW
        if state_of_charge < self.medium:
            return BatteryLevel.MEDIUM
        if state_of_charge < self.high:
            return BatteryLevel.HIGH
        return BatteryLevel.FULL

    def band(self, level: BatteryLevel) -> Tuple[float, float]:
        """The states of charge ``[low, high)`` that :meth:`classify` maps to ``level``."""
        edges = (-_INF, self.empty, self.low, self.medium, self.high, _INF)
        if not level.is_battery:
            raise BatteryError(f"{level} has no state-of-charge band")
        return edges[level.rank], edges[level.rank + 1]

    def representative_soc(self, level: BatteryLevel) -> float:
        """A state of charge that maps back to ``level`` (mid-band value)."""
        bands = {
            BatteryLevel.EMPTY: self.empty / 2.0,
            BatteryLevel.LOW: (self.empty + self.low) / 2.0,
            BatteryLevel.MEDIUM: (self.low + self.medium) / 2.0,
            BatteryLevel.HIGH: (self.medium + self.high) / 2.0,
            BatteryLevel.FULL: (self.high + 1.0) / 2.0,
        }
        try:
            return bands[level]
        except KeyError:
            raise BatteryError(f"{level} has no representative state of charge") from None
