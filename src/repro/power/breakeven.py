"""Break-even time analysis for sleep-state decisions.

The LEM compares its *prediction of the idle time* with the minimum idle time
for which switching to a low-power state actually saves energy — the
*break-even time* of that state.  For an idle period of length ``T`` the two
alternatives cost:

* staying put:           ``E_stay  = P_idle · T``
* entering a low state:  ``E_sleep = E_tr + P_sleep · (T - T_tr)``

where ``E_tr`` / ``T_tr`` are the round-trip transition energy and latency
and ``P_sleep`` the residual power of the low state.  The break-even time is
the smallest ``T`` for which ``E_sleep <= E_stay`` *and* the transition fits
inside the idle period (``T >= T_tr``)::

    T_be = max(T_tr, (E_tr - P_sleep · T_tr) / (P_idle - P_sleep))

:class:`BreakEvenAnalyzer` evaluates this for every sleep/off state of an IP
and answers the question the LEM actually asks: *given a predicted idle time,
which reachable state saves the most energy?*
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import PowerModelError
from repro.power.characterization import PowerCharacterization
from repro.power.states import SLEEP_STATES, PowerState
from repro.power.transitions import TransitionTable
from repro.sim.simtime import SimTime, sec

__all__ = ["break_even_time", "BreakEvenEntry", "BreakEvenAnalyzer"]


def break_even_time(
    idle_power_w: float,
    sleep_power_w: float,
    transition_energy_j: float,
    transition_latency: SimTime,
) -> Optional[SimTime]:
    """Break-even time of one low-power state.

    Returns ``None`` when the state can never break even (its residual power
    is not lower than the idle power it would replace).
    """
    if idle_power_w < 0.0 or sleep_power_w < 0.0 or transition_energy_j < 0.0:
        raise PowerModelError("powers and energies must be non-negative")
    if sleep_power_w >= idle_power_w:
        return None
    numerator = transition_energy_j - sleep_power_w * transition_latency.seconds
    threshold_s = numerator / (idle_power_w - sleep_power_w)
    threshold = sec(max(threshold_s, 0.0))
    return max(threshold, transition_latency)


@dataclass(frozen=True)
class BreakEvenEntry:
    """Break-even figures of one candidate low-power state."""

    state: PowerState
    break_even: Optional[SimTime]
    round_trip_energy_j: float
    round_trip_latency: SimTime
    sleep_power_w: float

    @property
    def reachable(self) -> bool:
        """True when the state can pay back its transition cost at all."""
        return self.break_even is not None

    def saving_j(self, stay: float, idle_time: SimTime) -> float:
        """Energy saved (possibly negative) by using this state for ``idle_time``
        instead of staying put, which costs ``stay`` joules (hoisted by callers
        that evaluate several entries for the same idle period)."""
        if idle_time.femtoseconds < self.round_trip_latency.femtoseconds:
            # The transition does not even fit in the idle window.
            return stay - (self.round_trip_energy_j + stay)
        residual_time = idle_time - self.round_trip_latency
        go = self.round_trip_energy_j + self.sleep_power_w * residual_time.seconds
        return stay - go


class BreakEvenAnalyzer:
    """Pre-computes break-even times for every low-power state of an IP."""

    def __init__(
        self,
        characterization: PowerCharacterization,
        transitions: TransitionTable,
        reference_on_state: PowerState = PowerState.ON1,
        candidate_states: Optional[Sequence[PowerState]] = None,
        include_off: bool = True,
    ) -> None:
        if not reference_on_state.is_on:
            raise PowerModelError("the reference state for break-even analysis must be an ON state")
        self.characterization = characterization
        self.transitions = transitions
        self.reference_on_state = reference_on_state
        if candidate_states is None:
            candidate_states = list(SLEEP_STATES) + ([PowerState.OFF] if include_off else [])
        self.candidate_states = list(candidate_states)
        self._entries: Dict[PowerState, BreakEvenEntry] = {}
        self._compute()
        # Iteration order for the hot selection loop, avoiding per-call
        # enum-keyed dict lookups.
        self._candidate_entries = [self._entries[state] for state in self.candidate_states]
        # The stay-put idle power is a constant of the analyzer.
        self._reference_idle_power_w = self.characterization.idle_power_w(self.reference_on_state)

    def _compute(self) -> None:
        idle_power = self.characterization.idle_power_w(self.reference_on_state)
        for state in self.candidate_states:
            if state.is_on:
                raise PowerModelError(f"{state} is not a low-power state")
            round_trip = self.transitions.round_trip_cost(self.reference_on_state, state)
            sleep_power = self.characterization.residual_power_w(state)
            threshold = break_even_time(
                idle_power_w=idle_power,
                sleep_power_w=sleep_power,
                transition_energy_j=round_trip.energy_j,
                transition_latency=round_trip.latency,
            )
            self._entries[state] = BreakEvenEntry(
                state=state,
                break_even=threshold,
                round_trip_energy_j=round_trip.energy_j,
                round_trip_latency=round_trip.latency,
                sleep_power_w=sleep_power,
            )

    # -- queries -----------------------------------------------------------
    def entry(self, state: PowerState) -> BreakEvenEntry:
        """Break-even entry of one candidate state."""
        try:
            return self._entries[state]
        except KeyError:
            raise PowerModelError(f"{state} is not a candidate low-power state") from None

    @property
    def entries(self) -> List[BreakEvenEntry]:
        """All candidate entries, shallowest first."""
        return [self._entries[state] for state in self.candidate_states]

    def break_even(self, state: PowerState) -> Optional[SimTime]:
        """Break-even time of ``state`` (``None`` if unreachable)."""
        return self.entry(state).break_even

    def best_state_for(self, predicted_idle: SimTime, allow_off: bool = True) -> Optional[PowerState]:
        """Deepest worthwhile state for an idle period of ``predicted_idle``.

        Returns ``None`` when no low-power state breaks even, in which case
        the LEM keeps the IP in its current ON state.
        """
        best_state: Optional[PowerState] = None
        best_saving = 0.0
        # The stay-put cost is the same for every entry, so hoist it and let
        # the entries evaluate the shared saving formula from it.
        predicted_fs = int(predicted_idle)
        stay = self._reference_idle_power_w * predicted_idle.seconds
        for entry in self._candidate_entries:
            if entry.state.is_off and not allow_off:
                continue
            break_even = entry.break_even
            if break_even is None:
                continue
            if predicted_fs < break_even:
                continue
            saving = entry.saving_j(stay, predicted_idle)
            if saving > best_saving:
                best_saving = saving
                best_state = entry.state
        return best_state

    def summary(self) -> Dict[str, Optional[float]]:
        """Break-even times in microseconds, keyed by state name."""
        return {
            str(entry.state): (None if entry.break_even is None else entry.break_even.seconds * 1e6)
            for entry in self.entries
        }
