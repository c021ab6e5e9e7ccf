"""ACPI-style power states of an IP block.

The paper's Power State Machine follows the ACPI recommendation: one
*soft-off* state, four *sleep* states ``SL1..SL4`` of increasing depth
(lower residual power, higher wake-up cost) and four *execution* states
``ON1..ON4`` of decreasing speed and power obtained with the
variable-voltage (DVFS) technique — ``ON1`` is the fastest and most
power-hungry operating point, ``ON4`` the slowest and most frugal.
"""

from __future__ import annotations

from enum import Enum
from typing import List, Sequence

from repro._enumtools import dense_index
from repro.errors import PowerModelError

__all__ = ["PowerState", "ON_STATES", "SLEEP_STATES", "ALL_STATES"]


class PowerState(Enum):
    """Power state of an IP block (ACPI-inspired)."""

    OFF = "OFF"
    SL4 = "SL4"
    SL3 = "SL3"
    SL2 = "SL2"
    SL1 = "SL1"
    ON4 = "ON4"
    ON3 = "ON3"
    ON2 = "ON2"
    ON1 = "ON1"

    # -- classification ---------------------------------------------------
    # The classification flags are precomputed per member (see the loop after
    # the class body): these properties sit on the simulation hot path and
    # re-deriving them from the member name on every call was measurable.
    @property
    def is_on(self) -> bool:
        """True for the execution states ``ON1..ON4``."""
        return self._is_on

    @property
    def is_sleep(self) -> bool:
        """True for the sleep states ``SL1..SL4``."""
        return self._is_sleep

    @property
    def is_off(self) -> bool:
        """True only for the soft-off state."""
        return self._is_off

    @property
    def can_execute(self) -> bool:
        """True when the IP can execute instructions in this state."""
        return self._is_on

    @property
    def index(self) -> int:
        """Numeric suffix of ON/SL states (1-4); raises for OFF."""
        if self.is_off:
            raise PowerModelError("the OFF state has no numeric index")
        return int(self.name[2])

    # -- constructors ---------------------------------------------------------
    @staticmethod
    def on_state(index: int) -> "PowerState":
        """Return ``ONn`` for ``index`` in 1..4."""
        if index not in (1, 2, 3, 4):
            raise PowerModelError(f"ON state index must be 1..4, got {index}")
        return PowerState[f"ON{index}"]

    @staticmethod
    def sleep_state(index: int) -> "PowerState":
        """Return ``SLn`` for ``index`` in 1..4."""
        if index not in (1, 2, 3, 4):
            raise PowerModelError(f"sleep state index must be 1..4, got {index}")
        return PowerState[f"SL{index}"]

    @staticmethod
    def from_string(text: str) -> "PowerState":
        """Parse a state name (case-insensitive)."""
        try:
            return PowerState[text.strip().upper()]
        except KeyError:
            raise PowerModelError(f"unknown power state {text!r}") from None

    def __str__(self) -> str:
        return self.value


# Small dense index used by hot-path caches (list indexing and integer dict
# keys are cheaper than hashing enum members); identity hash for the rest.
dense_index(PowerState)
for _member in PowerState:
    _member._is_on = _member.name.startswith("ON")
    _member._is_sleep = _member.name.startswith("SL")
    _member._is_off = _member is PowerState.OFF
del _member

# Hot-path caches pack (source, target) state pairs as idx*16 + idx; growing
# the enum past 16 members would silently alias cache slots.
assert len(PowerState) <= 16, "packed cache keys assume <= 16 power states"


ON_STATES: Sequence[PowerState] = (
    PowerState.ON1,
    PowerState.ON2,
    PowerState.ON3,
    PowerState.ON4,
)
"""Execution states ordered from fastest (ON1) to slowest (ON4)."""

SLEEP_STATES: Sequence[PowerState] = (
    PowerState.SL1,
    PowerState.SL2,
    PowerState.SL3,
    PowerState.SL4,
)
"""Sleep states ordered from shallowest (SL1) to deepest (SL4)."""

ALL_STATES: List[PowerState] = list(ON_STATES) + list(SLEEP_STATES) + [PowerState.OFF]
"""All nine states of the paper's PSM."""
