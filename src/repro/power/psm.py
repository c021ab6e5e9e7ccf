"""The Power State Machine (PSM) simulation module.

The PSM is the hardware component that sits next to each IP and physically
switches it between the ACPI-style power states.  It is deliberately dumb:
*which* state to use is the Local Energy Manager's decision; the PSM only

* validates and executes the requested transitions, paying their energy and
  latency cost (taken from the :class:`~repro.power.transitions.TransitionTable`),
* publishes the current state on a signal so the functional IP knows at
  which speed it may execute,
* integrates the *background* power of the IP (idle power in ON states,
  residual power in sleep/off states) into the IP's energy account, and
* keeps residency statistics per state, which the analysis layer turns into
  temperature and energy figures.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional

from repro.errors import InvalidTransitionError, PowerModelError
from repro.power.characterization import PowerCharacterization
from repro.power.energy import EnergyAccount, EnergyCategory
from repro.power.states import PowerState
from repro.power.transitions import TransitionTable
from repro.sim.kernel import Kernel
from repro.sim.module import Module
from repro.sim.simtime import SimTime

__all__ = ["PowerStateMachine"]


class PowerStateMachine(Module):
    """Per-IP power state machine with transition costs and energy accounting.

    Parameters
    ----------
    kernel:
        Simulation kernel.
    name:
        Instance name (typically ``"<ip>.psm"`` via the parent argument).
    characterization:
        Power characterisation of the attached IP.
    transitions:
        Allowed transitions and their costs.
    energy_account:
        Ledger that receives background and transition energy.  The
        functional IP charges its *active* (task) energy to the same account.
    initial_state:
        State at time zero (default ``ON1``).
    parent:
        Optional parent module.
    """

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        characterization: PowerCharacterization,
        transitions: TransitionTable,
        energy_account: EnergyAccount,
        initial_state: PowerState = PowerState.ON1,
        parent: Optional[Module] = None,
        fast: bool = False,
        sample_interval: Optional[SimTime] = None,
    ) -> None:
        super().__init__(kernel, name, parent)
        self.characterization = characterization
        self.transitions = transitions
        self.energy_account = energy_account
        # Authoritative state lives in plain attributes (updated immediately);
        # the signals mirror them one delta later for traces and observers.
        self._state = initial_state
        self._in_transition = False
        self.state_signal = self.signal("state", initial_state)
        self.in_transition = self.signal("in_transition", False)
        self.transition_complete = self.event("transition_complete")
        self._request_event = self.event("request")
        self._requested_state: Optional[PowerState] = None
        self._busy = False
        self._last_account_fs: int = kernel.now_fs
        # Residency in raw femtoseconds, keyed by the dense PowerState._idx.
        self._residency_fs: list = [0] * len(PowerState)
        # States that appeared in the books even with zero accumulated time
        # (a zero-latency transition): residency() must still list them.
        self._residency_touched: set = set()
        self._label_cache: Dict[int, str] = {}
        self._transition_count = 0
        self._transition_counts: Dict[str, int] = defaultdict(int)
        # Fast accuracy mode serves transitions synchronously: the request
        # starts the transition inline and a timed event callback finishes
        # it, so no dedicated process (and none of its two activations per
        # transition) exists.  Completion times, transition_complete delta
        # notifications and all bookkeeping match the process exactly.
        self._fast = fast
        self._fast_source: Optional[PowerState] = None
        self._fast_target: Optional[PowerState] = None
        self._fast_cost = None
        # Direct completion hooks (fast mode): called synchronously when a
        # transition completes, replacing a delta-notified event for
        # callback-style consumers (the LEM's inline grant path).  Process
        # waiters still get the delta notification.
        self._completion_hooks: list = []
        # In exact mode the per-sample flush integrates background power (and
        # residency) for the *elapsed part of an in-flight transition* at
        # every sample boundary — behaviour pinned by the golden metrics.
        # Fast mode has no per-sample flush, so mid-transition integration is
        # quantised to the same boundaries instead (see
        # _integrate_background); a full (unquantised) integration is used
        # by the end-of-run flush, as in exact mode.
        self._sample_interval_fs: int = int(sample_interval) if sample_interval else 0
        if fast:
            self._fast_complete = self.event("fast_complete")
            self._fast_complete.add_callback(self._finish_fast_transition)
        else:
            self.add_thread(self._transition_process, name="transitions")

    #: structured-tracing hook (repro.obs); None keeps the hook site to a
    #: single attribute test, so untraced runs stay bit-identical
    _tracer = None
    #: source label for emitted events (the IP name); falls back to the
    #: PSM's own module name when instrumentation did not set one
    _trace_name = None

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------
    @property
    def state(self) -> PowerState:
        """The current power state."""
        return self._state

    @property
    def is_transitioning(self) -> bool:
        """True while a transition is in flight."""
        return self._in_transition

    @property
    def transition_count(self) -> int:
        """Number of completed transitions."""
        return self._transition_count

    @property
    def transition_counts(self) -> Dict[str, int]:
        """Completed transitions keyed by ``"SRC->DST"``."""
        return dict(self._transition_counts)

    def residency(self) -> Dict[PowerState, SimTime]:
        """Time spent so far in each state (up to the last accounting point)."""
        return {
            state: SimTime(self._residency_fs[state._idx])
            for state in PowerState
            if self._residency_fs[state._idx] > 0 or state._idx in self._residency_touched
        }

    # ------------------------------------------------------------------
    # Requests (called by the LEM / GEM)
    # ------------------------------------------------------------------
    def request_state(self, target: PowerState) -> None:
        """Ask the PSM to move to ``target``.

        The request is served by the PSM's own process; callers that need to
        know when the IP is actually in the new state should wait with
        :meth:`wait_for_state`.
        """
        if not isinstance(target, PowerState):
            raise PowerModelError(f"requested state must be a PowerState, got {target!r}")
        if not self.transitions.is_allowed(self.state, target) and self._requested_state is None:
            raise InvalidTransitionError(
                f"{self.name}: transition {self.state} -> {target} is not allowed"
            )
        self._requested_state = target
        if self._fast:
            if not self._in_transition:
                self._serve_fast()
            return
        self._request_event.notify()

    def wait_for_state(self, target: PowerState):
        """Generator helper: ``yield from psm.wait_for_state(ON2)``."""
        while self.state is not target or self.is_transitioning:
            yield self.transition_complete

    def transition_latency(self, target: PowerState) -> SimTime:
        """Latency the PSM would pay to reach ``target`` from the current state."""
        return self.transitions.latency(self.state, target)

    # ------------------------------------------------------------------
    # Busy bookkeeping (called by the functional IP)
    # ------------------------------------------------------------------
    def set_busy(self, busy: bool) -> None:
        """Tell the PSM whether the IP is actively executing a task.

        While busy, the task energy is charged by the IP itself, so the PSM
        suspends background-power integration to avoid double counting.
        """
        if busy and not self.state.can_execute:
            raise PowerModelError(
                f"{self.name}: IP cannot execute in state {self.state}"
            )
        self._integrate_background()
        self._busy = busy

    # ------------------------------------------------------------------
    # Energy integration
    # ------------------------------------------------------------------
    def flush_energy(self, full: bool = False) -> None:
        """Integrate background power up to the current simulated time.

        Experiment runners call this once at the end of a simulation so that
        the last interval (between the final event and the end time) is
        charged to the account.  ``full`` forces unquantised integration of
        an in-flight transition (fast-mode end-of-run flush only).
        """
        self._integrate_background(full)

    def _integrate_background(self, full: bool = True) -> None:
        now_fs = self.kernel._now_fs
        end_fs = now_fs
        if self._in_transition and self._fast and not full:
            # Quantise mid-transition integration to the sample boundaries
            # where the exact per-sample flush would have performed it.
            interval = self._sample_interval_fs
            if interval:
                end_fs = now_fs - now_fs % interval
        elapsed_fs = end_fs - self._last_account_fs
        if elapsed_fs <= 0:
            return
        state = self._state
        idx = state._idx
        self._residency_fs[idx] += elapsed_fs
        if not self._busy:
            power = self.characterization.idle_powers[idx]
            if power > 0.0:
                category = EnergyCategory.IDLE if state._is_on else EnergyCategory.SLEEP
                # elapsed_fs / 10^15 matches SimTime.seconds bit for bit
                # without allocating the SimTime.
                self.energy_account.add_energy(
                    power * (elapsed_fs / 1_000_000_000_000_000),
                    category,
                    _span_fs=elapsed_fs,
                    _end_fs=end_fs if end_fs != now_fs else 0,
                )
        self._last_account_fs = end_fs

    # ------------------------------------------------------------------
    # Fast-mode synchronous transitions
    # ------------------------------------------------------------------
    def _serve_fast(self) -> None:
        """Start serving the pending request inline (fast accuracy mode)."""
        while True:
            target = self._requested_state
            if target is None:
                return
            self._requested_state = None
            source = self._state
            if target is source:
                self.transition_complete.notify()
                continue
            cost = self.transitions.dense_costs[source._idx * 16 + target._idx]
            if cost is None:
                cost = self.transitions.cost(source, target)  # raises: not allowed
            self._integrate_background()
            self._in_transition = True
            self.in_transition.write_if_watched(True)
            if not cost.latency.is_zero:
                self._fast_source = source
                self._fast_target = target
                self._fast_cost = cost
                self._fast_complete.notify_after(cost.latency)
                return
            self._complete_transition(source, target, cost)

    def _finish_fast_transition(self) -> None:
        """Timed-event callback: the in-flight transition's latency elapsed."""
        if not self._in_transition:  # pragma: no cover - defensive
            return
        source = self._fast_source
        target = self._fast_target
        cost = self._fast_cost
        self._fast_source = None
        self._fast_target = None
        self._fast_cost = None
        self._complete_transition(source, target, cost)
        # A newer request that arrived mid-flight is served next — matching
        # the process's behaviour of completing first, then re-looping.
        if self._requested_state is not None:
            self._serve_fast()

    def _complete_transition(self, source: PowerState, target: PowerState, cost) -> None:
        """Transition-completion bookkeeping, shared by both modes.

        In fast mode the quantised integration first bills any
        sample-boundary slices of the transition interval that the exact
        per-sample flush would have billed while the transition was in
        flight; status mirrors are waiter-gated and direct completion hooks
        fire.  In exact mode the legacy unconditional writes and delta
        notification are preserved bit for bit.
        """
        fast = self._fast
        if fast:
            self._integrate_background(full=False)
        self._last_account_fs = self.kernel.now_fs
        self._residency_fs[source._idx] += cost.latency
        self._residency_touched.add(source._idx)
        self.energy_account.add_energy(cost.energy_j, EnergyCategory.TRANSITION)
        self._state = target
        self._in_transition = False
        self._transition_count += 1
        label_key = source._idx * 16 + target._idx
        label = self._label_cache.get(label_key)
        if label is None:
            label = f"{source}->{target}"
            self._label_cache[label_key] = label
        self._transition_counts[label] += 1
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(
                self.kernel.now_fs, "psm.transition",
                self._trace_name or self.name,
                from_state=str(source), to_state=str(target),
                latency_us=int(cost.latency) / 1e9,
                energy_j=cost.energy_j,
            )
        if fast:
            self.state_signal.write_if_watched(target)
            self.in_transition.write_if_watched(False)
            for hook in self._completion_hooks:
                hook()
            complete = self.transition_complete
            if complete._waiters or complete._callbacks:
                complete.notify_delta()
        else:
            self.state_signal.write(target)
            self.in_transition.write(False)
            self.transition_complete.notify_delta()

    # ------------------------------------------------------------------
    # Internal transition process
    # ------------------------------------------------------------------
    def _transition_process(self):
        while True:
            if self._requested_state is None:
                yield self._request_event
                continue
            target = self._requested_state
            self._requested_state = None
            source = self.state
            if target is source:
                self.transition_complete.notify()
                continue
            cost = self.transitions.dense_costs[source._idx * 16 + target._idx]
            if cost is None:
                cost = self.transitions.cost(source, target)  # raises: not allowed
            # Close the books on the time spent in the old state.
            self._integrate_background()
            self._in_transition = True
            self.in_transition.write(True)
            if not cost.latency.is_zero:
                yield cost.latency
            # The transition interval itself is charged as transition energy;
            # the completion tail moves the accounting marker past it without
            # billing idle power.
            self._complete_transition(source, target, cost)
