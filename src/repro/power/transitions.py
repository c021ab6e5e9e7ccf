"""Power-state transition costs.

The DPM algorithm of the paper "considers the cost in terms of delay and
power dissipation of the transition between two power states".  This module
provides:

* :class:`TransitionCost` — the (energy, latency) pair of one transition;
* :class:`TransitionTable` — the complete cost matrix plus the legality of
  each transition (the PSM refuses transitions that are not listed);
* :func:`default_transition_table` — a cost matrix generated from a few
  intuitive knobs (deeper sleep states cost more to enter and leave, DVFS
  changes between ON states are comparatively cheap).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro.errors import InvalidTransitionError, PowerModelError
from repro.power.states import ON_STATES, SLEEP_STATES, PowerState
from repro.sim.simtime import SimTime, us, ZERO_TIME

__all__ = ["StateGraph", "TransitionCost", "TransitionTable", "default_transition_table"]

#: A transition table as a directed graph: each state's allowed targets.
StateGraph = Mapping[PowerState, FrozenSet[PowerState]]


@dataclass(frozen=True)
class TransitionCost:
    """Energy and latency of one power-state transition."""

    energy_j: float
    latency: SimTime

    def __post_init__(self) -> None:
        if self.energy_j < 0.0:
            raise PowerModelError("transition energy must be non-negative")

    @staticmethod
    def zero() -> "TransitionCost":
        """A free, instantaneous transition (used for self-transitions)."""
        return TransitionCost(0.0, ZERO_TIME)


class TransitionTable:
    """Cost matrix of the allowed transitions between power states.

    A transition that is not present in the table is illegal: the PSM will
    raise :class:`~repro.errors.InvalidTransitionError` if asked to perform
    it.  Self-transitions are always legal and free.
    """

    def __init__(self, costs: Mapping[Tuple[PowerState, PowerState], TransitionCost]) -> None:
        self._costs: Dict[Tuple[PowerState, PowerState], TransitionCost] = dict(costs)
        for (source, target), cost in self._costs.items():
            if not isinstance(cost, TransitionCost):
                raise PowerModelError(f"cost of {source}->{target} is not a TransitionCost")
            if source == target and (cost.energy_j != 0.0 or not cost.latency.is_zero):
                raise PowerModelError("self-transitions must be free")
        # Dense cost matrix for the PSM hot path, indexed by
        # ``source._idx * 16 + target._idx`` (``None`` where the transition
        # is not listed).  A tuple, so the table stays read-only.
        dense: List[Optional[TransitionCost]] = [None] * (16 * len(PowerState))
        for (source, target), cost in self._costs.items():
            dense[source._idx * 16 + target._idx] = cost
        self.dense_costs: Tuple[Optional[TransitionCost], ...] = tuple(dense)

    # -- queries ---------------------------------------------------------
    def is_allowed(self, source: PowerState, target: PowerState) -> bool:
        """True if the PSM may switch from ``source`` to ``target``."""
        return source == target or (source, target) in self._costs

    def cost(self, source: PowerState, target: PowerState) -> TransitionCost:
        """Cost of the ``source -> target`` transition."""
        if source == target:
            return TransitionCost.zero()
        try:
            return self._costs[(source, target)]
        except KeyError:
            raise InvalidTransitionError(
                f"transition {source} -> {target} is not allowed by the transition table"
            ) from None

    def energy_j(self, source: PowerState, target: PowerState) -> float:
        """Energy of the transition in joules."""
        return self.cost(source, target).energy_j

    def latency(self, source: PowerState, target: PowerState) -> SimTime:
        """Latency of the transition."""
        return self.cost(source, target).latency

    def round_trip_cost(self, on_state: PowerState, low_state: PowerState) -> TransitionCost:
        """Combined cost of entering ``low_state`` from ``on_state`` and returning."""
        enter = self.cost(on_state, low_state)
        leave = self.cost(low_state, on_state)
        return TransitionCost(enter.energy_j + leave.energy_j, enter.latency + leave.latency)

    @property
    def transitions(self) -> Iterable[Tuple[PowerState, PowerState]]:
        """All explicitly listed (source, target) pairs."""
        return list(self._costs)

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """Serializable view keyed by ``"SRC->DST"``."""
        return {
            f"{source}->{target}": {
                "energy_j": cost.energy_j,
                "latency_us": cost.latency.seconds * 1e6,
            }
            for (source, target), cost in self._costs.items()
        }


def default_transition_table(
    reference_power_w: float = 0.15,
    dvfs_latency: Optional[SimTime] = None,
    sleep_entry_latency: Optional[Mapping[PowerState, SimTime]] = None,
    wakeup_latency: Optional[Mapping[PowerState, SimTime]] = None,
) -> TransitionTable:
    """Generate a full transition table with sensible default costs.

    Parameters
    ----------
    reference_power_w:
        Typical active power of the IP; transition energies are expressed as
        this power integrated over a state-dependent settling time, which
        keeps the table consistent when an IP is re-characterised.
    dvfs_latency:
        Latency of a voltage/frequency change between two ON states
        (default 10 µs, a typical PLL/regulator settling time).
    sleep_entry_latency / wakeup_latency:
        Optional per-state overrides of the sleep entry / exit latencies.

    The defaults encode the usual DPM trade-off: the deeper the sleep state,
    the lower its residual power (see the characterisation) but the higher
    the entry/exit latency and energy, hence the longer the break-even time.
    """
    if reference_power_w <= 0.0:
        raise PowerModelError("reference power must be positive")
    dvfs_lat = dvfs_latency or us(10)
    entry_defaults: Dict[PowerState, SimTime] = {
        PowerState.SL1: us(20),
        PowerState.SL2: us(60),
        PowerState.SL3: us(200),
        PowerState.SL4: us(600),
        PowerState.OFF: us(1500),
    }
    wake_defaults: Dict[PowerState, SimTime] = {
        PowerState.SL1: us(30),
        PowerState.SL2: us(100),
        PowerState.SL3: us(350),
        PowerState.SL4: us(1000),
        PowerState.OFF: us(3000),
    }
    if sleep_entry_latency:
        entry_defaults.update(sleep_entry_latency)
    if wakeup_latency:
        wake_defaults.update(wakeup_latency)

    costs: Dict[Tuple[PowerState, PowerState], TransitionCost] = {}

    def add(source: PowerState, target: PowerState, latency: SimTime, energy_scale: float) -> None:
        energy = reference_power_w * latency.seconds * energy_scale
        costs[(source, target)] = TransitionCost(energy, latency)

    # DVFS moves between any two ON states.
    for source in ON_STATES:
        for target in ON_STATES:
            if source is target:
                continue
            add(source, target, dvfs_lat, energy_scale=0.5)

    low_states = list(SLEEP_STATES) + [PowerState.OFF]
    for low in low_states:
        for on_state in ON_STATES:
            # Entering a low-power state from any ON state.
            add(on_state, low, entry_defaults[low], energy_scale=0.6)
            # Waking up back into any ON state.
            add(low, on_state, wake_defaults[low], energy_scale=1.0)

    # Moving between low-power states goes through a partial wake-up: allow
    # it, with a cost equal to the larger of the two wake-up costs.
    for source in low_states:
        for target in low_states:
            if source is target:
                continue
            latency = max(wake_defaults[source], entry_defaults[target])
            add(source, target, latency, energy_scale=0.8)

    return TransitionTable(costs)
