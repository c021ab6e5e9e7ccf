"""Post-simulation analysis of PSM behaviour.

These helpers turn the residency and transition statistics kept by each
:class:`~repro.power.psm.PowerStateMachine` (and, optionally, the traced
state signals) into the summaries used by reports and tests: state residency
percentages and transition counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.power.psm import PowerStateMachine
from repro.power.states import PowerState
from repro.sim.simtime import SimTime, ZERO_TIME

__all__ = ["StateResidency", "psm_residency", "transition_summary"]


@dataclass
class StateResidency:
    """Residency summary of one PSM."""

    psm_name: str
    total: SimTime
    by_state: Dict[PowerState, SimTime] = field(default_factory=dict)

    def fraction(self, state: PowerState) -> float:
        """Fraction of the covered time spent in ``state``."""
        if self.total.is_zero:
            return 0.0
        return self.by_state.get(state, ZERO_TIME) / self.total

    def sleep_fraction(self) -> float:
        """Fraction of time spent in any sleep or off state."""
        return sum(self.fraction(state) for state in self.by_state if not state.is_on)

    def dominant_state(self) -> Optional[PowerState]:
        """The state with the largest residency (``None`` when empty)."""
        if not self.by_state:
            return None
        return max(self.by_state, key=lambda state: self.by_state[state].femtoseconds)

    def as_dict(self) -> Dict[str, float]:
        """State-name -> fraction mapping."""
        return {str(state): self.fraction(state) for state in self.by_state}


def psm_residency(psm: PowerStateMachine) -> StateResidency:
    """Summarise where a PSM spent its time (call after ``flush_energy``)."""
    residency = psm.residency()
    total = ZERO_TIME
    for duration in residency.values():
        total = total + duration
    return StateResidency(psm_name=psm.name, total=total, by_state=dict(residency))


def transition_summary(psms: Sequence[PowerStateMachine]) -> Dict[str, int]:
    """Aggregate transition counts (``"SRC->DST" -> count``) over many PSMs."""
    summary: Dict[str, int] = {}
    for psm in psms:
        for key, count in psm.transition_counts.items():
            summary[key] = summary.get(key, 0) + count
    return summary
