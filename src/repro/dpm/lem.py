"""The Local Energy Manager (LEM).

One LEM is attached to each IP (paper, section 1.3).  Its job:

* when the IP requests a task execution, forward the request to the GEM (if
  present), wait for the GEM enable, *estimate the battery status and chip
  temperature at the end of the task*, and select the execution state with
  the policy's rules (Table 1).  If the rules answer a sleep state — the
  battery is empty or the chip is too hot for a non-critical task — the task
  is *deferred*: the IP is parked in that sleep state and the situation is
  re-evaluated periodically until an ON state is selected;
* when the IP becomes inactive, predict the idle time, compare it with the
  break-even time of each low-power state and switch the PSM to the deepest
  state that pays off (or apply the fixed timeout, for timeout policies);
* keep a per-task decision log used by the analysis layer.

The LEM is where all the flexibility of the architecture lives (the paper
keeps the GEM intentionally simple): rules, predictor, policy and the
break-even analysis are all injectable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, List, Optional

from repro.battery.model import Battery
from repro.dpm.levels import BusLevel, RuleContext
from repro.dpm.policies import DpmPolicy, RuleBasedPolicy
from repro.dpm.predictor import IdlePredictor, default_predictor
from repro.errors import ConfigurationError
from repro.power.breakeven import BreakEvenAnalyzer
from repro.power.characterization import PowerCharacterization
from repro.power.psm import PowerStateMachine
from repro.power.states import PowerState
from repro.sim.event import Event
from repro.sim.kernel import Kernel
from repro.sim.module import Module
from repro.sim.process import AnyOf, WaitSpec
from repro.sim.simtime import SimTime, us
from repro.soc.bus import Bus
from repro.soc.task import Task, TaskPriority
from repro.thermal.model import ThermalModel

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.dpm.gem import GlobalEnergyManager

__all__ = ["LemConfig", "TaskGrant", "LemDecision", "LocalEnergyManager"]


@dataclass
class LemConfig:
    """Tunable parameters of a Local Energy Manager."""

    #: how often a deferred task re-evaluates the rules (battery/temperature
    #: conditions change slowly compared with task durations)
    reevaluation_interval: SimTime = us(200)
    #: whether the LEM may use the soft-off state for long idle periods
    allow_off: bool = True
    #: state used to park the IP while a task is deferred by the rules
    defer_state: PowerState = PowerState.SL1
    #: state assumed when estimating the energy/duration of the next task
    estimation_state: PowerState = PowerState.ON1

    def __post_init__(self) -> None:
        if self.reevaluation_interval.is_zero:
            raise ConfigurationError("re-evaluation interval must be positive")
        if self.defer_state.is_on:
            raise ConfigurationError("the defer state must be a sleep/off state")
        if not self.estimation_state.is_on:
            raise ConfigurationError("the estimation state must be an ON state")


@dataclass
class TaskGrant:
    """Handle returned to the IP for one task request."""

    task: Task
    event: Event
    request_time: SimTime
    granted: bool = False
    state: Optional[PowerState] = None


@dataclass
class LemDecision:
    """Log entry describing how one task request was resolved."""

    task_name: str
    priority: TaskPriority
    battery: str
    temperature: str
    selected_state: PowerState
    request_time: SimTime
    grant_time: SimTime
    deferrals: int = 0
    bus: str = "low"
    #: energy the other IPs had requested from the GEM (0 without a GEM)
    other_ip_energy_j: float = 0.0


@dataclass
class _IdleRecord:
    """Bookkeeping for one idle period."""

    start: SimTime
    hint: Optional[SimTime] = None
    sequence: int = 0


class LocalEnergyManager(Module):
    """Per-IP energy manager implementing the paper's LEM."""

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        ip_name: str,
        psm: PowerStateMachine,
        characterization: PowerCharacterization,
        battery: Battery,
        thermal: ThermalModel,
        breakeven: BreakEvenAnalyzer,
        policy: Optional[DpmPolicy] = None,
        predictor: Optional[IdlePredictor] = None,
        gem: Optional["GlobalEnergyManager"] = None,
        bus: Optional[Bus] = None,
        static_priority: int = 1,
        config: Optional[LemConfig] = None,
        parent: Optional[Module] = None,
        fast: bool = False,
        decision_log: Optional[List[LemDecision]] = None,
    ) -> None:
        super().__init__(kernel, name, parent)
        if static_priority < 1:
            raise ConfigurationError("static priority must be >= 1 (1 is the highest)")
        self.ip_name = ip_name
        self.psm = psm
        self.characterization = characterization
        self.battery = battery
        self.thermal = thermal
        self.bus = bus
        self.breakeven = breakeven
        self.policy = policy or RuleBasedPolicy()
        self.predictor = predictor or default_predictor()
        self.gem = gem
        self.static_priority = static_priority
        self.config = config or LemConfig()
        self.decisions: List[LemDecision] = []
        #: run-wide log shared by the LEMs of one SoC: every decision of
        #: every IP, in grant order
        self.decision_log = decision_log
        self.sleep_decisions = 0
        self.deferral_count = 0
        self._pending_grant: Optional[TaskGrant] = None
        self._executing = False
        self._request_event = self.event("task_request")
        # One reusable grant event: requests are strictly sequential (the
        # LEM rejects overlapping requests), so each grant's wait/notify pair
        # finishes before the next one starts.
        self._grant_event = self.event("grant")
        self._idle_event = self.event("idle_start")
        self._idle_record: Optional[_IdleRecord] = None
        self._idle_sequence = 0
        self._last_completion: Optional[SimTime] = None
        # Fast accuracy mode: the straight-line request path (enabled, rules
        # answer an ON state) is served inline at submit time, with the
        # grant finalised by a transition_complete callback instead of a
        # process wake; idle decisions run from a delta-event callback.  The
        # request-serving process remains for the deferral/disabled paths,
        # and the idle process remains for timeout policies (which wait).
        self._fast = fast
        self._fast_awaiting: Optional[tuple] = None
        self._fast_estimate: Optional[tuple] = None
        if fast:
            psm._completion_hooks.append(self._fast_grant_on_complete)
            self._fast_idle_event = self.event("idle_decide")
            self._fast_idle_event.add_callback(self._fast_idle_decision)
            # GEM scenarios serve via a delta-event callback: it runs after
            # every same-instant submission/registration (exactly when the
            # serving process would have run) without the process wake.
            self._fast_serve_event = self.event("serve_step")
            self._fast_serve_event.add_callback(self._fast_serve_step)
        self.add_thread(self._serve_requests, name="serve")
        if not (fast and not self.policy.uses_timeout):
            self.add_thread(self._manage_idle, name="idle")
        if self.gem is not None:
            self.gem.register_lem(self, static_priority)

    #: structured-tracing hook (repro.obs); None keeps every hook site to a
    #: single attribute test, so untraced runs stay bit-identical
    _tracer = None

    # ------------------------------------------------------------------
    # IP-facing interface
    # ------------------------------------------------------------------
    def submit_task_request(self, task: Task) -> TaskGrant:
        """Called by the IP before executing ``task``; returns the grant handle."""
        if self._pending_grant is not None:
            raise ConfigurationError(
                f"LEM {self.name!r} already has an outstanding request; "
                "IPs execute one task at a time"
            )
        now = self.kernel.now
        # Close the current idle period and train the predictor with it.
        if self._last_completion is not None:
            actual_idle = now - self._last_completion
            self.predictor.update(actual_idle)
        self._idle_sequence += 1
        self._idle_record = None
        grant = TaskGrant(task=task, event=self._grant_event, request_time=now)
        self._pending_grant = grant
        if self.gem is not None:
            estimated = self._estimate_task_energy(task)
            self.gem.register_request(self.ip_name, estimated)
        if self._fast:
            if self.gem is None:
                if self._fast_submit(grant):
                    return grant
            else:
                # Always defer to the delta callback: it runs after every
                # same-instant submission has registered with the GEM
                # (exactly when the serving process would run), so another
                # IP submitting at the same femtosecond is still reflected
                # in this request's pending-energy estimate.
                self._fast_serve_event.notify_delta()
                return grant
        self._request_event.notify()
        return grant

    # ------------------------------------------------------------------
    # Fast-mode inline serving
    # ------------------------------------------------------------------
    def _fast_submit(self, grant: TaskGrant) -> bool:
        """Serve the straight-line request path inline; False to delegate.

        Only without a GEM: a grant is then invisible to every other IP, and
        the serving process would run within the same simulated instant and
        observe exactly the same battery/thermal state, so estimating and
        starting the PSM transition here changes no figure and no event
        time — only the number of kernel activations.  With a GEM, granting
        inline would reorder the grant against other IPs' same-instant
        submissions (the pending-rank sequence the GEM sees), so the
        process path is kept.
        """
        if self.gem is not None:
            return False
        return self._fast_try_grant(grant)

    def _fast_serve_step(self) -> None:
        """Delta-callback serve step for GEM scenarios.

        Falls back to the serving process for the paths that need to wait
        and re-evaluate (GEM-disabled, rule deferrals); the process then
        re-estimates within the same simulated instant, so its decisions
        and their timing are unchanged.
        """
        grant = self._pending_grant
        if grant is None or grant.granted or self._fast_awaiting is not None:
            return
        if self.gem is not None and not self.gem.is_enabled(self.ip_name):
            self._request_event.notify()
            return
        if not self._fast_try_grant(grant):
            self._request_event.notify()

    def _fast_try_grant(self, grant: TaskGrant) -> bool:
        """Estimate, select and grant (or await the transition); shared tail
        of the two inline fast paths.  False means the rules answered a
        sleep state — a deferral the serving process must own (it runs the
        periodic re-evaluation loop)."""
        context = self._estimate_context(grant.task)
        selected = self.policy.select_on_state(context)
        if not selected.is_on:
            return False
        psm = self.psm
        if psm.state is not selected or psm.is_transitioning:
            psm.request_state(selected)
            if psm.state is not selected or psm.is_transitioning:
                # Grant when the in-flight transition lands (callback).
                self._fast_awaiting = (grant, selected, context, 0)
                return True
        self._finalize_grant(grant, selected, context, 0)
        return True

    def _fast_grant_on_complete(self) -> None:
        """transition_complete callback: finalise a waiting inline grant."""
        awaiting = self._fast_awaiting
        if awaiting is None:
            return
        grant, selected, context, deferrals = awaiting
        psm = self.psm
        if psm.state is not selected or psm.is_transitioning:
            return  # another transition is still in flight; keep waiting
        self._fast_awaiting = None
        self._finalize_grant(grant, selected, context, deferrals)

    def _finalize_grant(
        self, grant: TaskGrant, selected: PowerState, context: RuleContext, deferrals: int
    ) -> None:
        grant.state = selected
        grant.granted = True
        self._pending_grant = None
        self._executing = True
        if self.gem is not None:
            self.gem.note_request_served(self.ip_name)
        if not self._fast:
            # The decision log is an analysis artefact; fast mode keeps the
            # counters but skips the per-task record (documented).
            decision = LemDecision(
                task_name=grant.task.name,
                priority=grant.task.priority,
                battery=str(context.battery),
                temperature=str(context.temperature),
                selected_state=selected,
                request_time=grant.request_time,
                grant_time=self.kernel.now,
                deferrals=deferrals,
                bus=str(context.bus),
                other_ip_energy_j=context.other_ip_energy_j,
            )
            self.decisions.append(decision)
            if self.decision_log is not None:
                self.decision_log.append(decision)
        tracer = self._tracer
        if tracer is not None:
            now_fs = self.kernel.now_fs
            tracer.emit(
                now_fs, "lem.decision", self.ip_name,
                task=grant.task.name,
                state=str(selected),
                priority=str(grant.task.priority),
                battery=str(context.battery),
                temperature=str(context.temperature),
                bus=str(context.bus),
                deferrals=deferrals,
                wait_us=(now_fs - int(grant.request_time)) / 1e9,
                other_ip_energy_j=context.other_ip_energy_j,
            )
        grant.event.notify()

    def _fast_idle_decision(self) -> None:
        """Delta-event callback replacing the idle process (non-timeout)."""
        record = self._idle_record
        if record is None or self._idle_sequence != record.sequence:
            return
        predicted = record.hint
        if predicted is None or not getattr(self.policy, "uses_idle_hint", False):
            predicted = self.predictor.predict()
        target = self.policy.select_idle_state(predicted, self.breakeven)
        if target is None:
            return
        if self._idle_sequence != record.sequence:  # pragma: no cover - defensive
            return
        if not self.config.allow_off and target.is_off:
            target = PowerState.SL4
        psm = self.psm
        if psm.state is not target and not psm.is_transitioning:
            psm.request_state(target)
            self.sleep_decisions += 1
            tracer = self._tracer
            if tracer is not None:
                tracer.emit(self.kernel.now_fs, "lem.sleep", self.ip_name,
                            state=str(target), reason="idle")

    def notify_task_complete(self, task: Task, next_idle_hint: Optional[SimTime] = None) -> None:
        """Called by the IP right after ``task`` finished executing."""
        now = self.kernel.now
        self._last_completion = now
        self._executing = False
        if self.gem is not None:
            self.gem.clear_request(self.ip_name)
        self._idle_sequence += 1
        self._idle_record = _IdleRecord(start=now, hint=next_idle_hint, sequence=self._idle_sequence)
        idle_event = self._idle_event
        if idle_event._waiters or idle_event._callbacks:
            idle_event.notify()
        if self._fast and not self.policy.uses_timeout:
            if next_idle_hint is not None and int(next_idle_hint) > 0:
                # A positive idle hint guarantees the IP yields before its
                # next submission, so the decision can run inline: nothing
                # can bump the idle sequence within this instant.
                self._fast_idle_decision()
            else:
                # Decide in the next delta cycle (after the IP's activation
                # has run on — it may submit the next task back-to-back,
                # which the sequence check must see first, exactly as the
                # process variant would).
                self._fast_idle_event.notify_delta()

    # ------------------------------------------------------------------
    # GEM-facing interface
    # ------------------------------------------------------------------
    @property
    def is_busy(self) -> bool:
        """True while the IP has a pending or running task."""
        return self._pending_grant is not None or self._executing

    @property
    def has_pending_request(self) -> bool:
        """True while a task request is waiting for its grant."""
        return self._pending_grant is not None

    def force_low_power(self, state: PowerState) -> None:
        """GEM request to park the IP in ``state`` (only honoured while idle).

        If the IP is already in a sleep or off state the request is a no-op:
        the GEM's intent is to stop the IP from running, not to wake it out
        of a deeper (cheaper) state it reached on its own.
        """
        if state.is_on:
            raise ConfigurationError("the GEM can only force sleep/off states")
        if self.is_busy or not self.psm.state.is_on:
            return
        if self.psm.state is not state and not self.psm.is_transitioning:
            self.psm.request_state(state)
            self.sleep_decisions += 1
            tracer = self._tracer
            if tracer is not None:
                tracer.emit(self.kernel.now_fs, "lem.sleep", self.ip_name,
                            state=str(state), reason="forced")

    # ------------------------------------------------------------------
    # Estimation helpers
    # ------------------------------------------------------------------
    def _estimate_task_energy(self, task: Task) -> float:
        cached = self._fast_estimate
        if cached is not None and cached[0] is task:
            return cached[1]
        value = self.characterization.task_energy_j(
            self.config.estimation_state, task.cycles, task.instruction_class
        )
        if self._fast:
            # The GEM registration and the serve step estimate the same task
            # back to back; reusing the identical float is bit-safe.
            self._fast_estimate = (task, value)
        return value

    def _estimate_context(self, task: Task) -> RuleContext:
        """Project battery and temperature to the end of the task (section 1.3)."""
        other_energy = 0.0
        if self.gem is not None:
            other_energy = self.gem.pending_energy_excluding(self.ip_name)
        own_energy = self._estimate_task_energy(task)
        own_duration = self.characterization.execution_time(self.config.estimation_state, task.cycles)
        battery_level = self.battery.level_if_drawn(own_energy + other_energy)
        own_duration_s = own_duration.seconds
        own_power = own_energy / own_duration_s if own_duration_s > 0 else 0.0
        other_power = other_energy / own_duration_s if own_duration_s > 0 else 0.0
        projected_c = self.thermal.estimate_after(own_power + other_power, own_duration)
        temperature_level = self.thermal.config.thresholds.classify(projected_c)
        bus = self.bus
        return RuleContext(
            priority=task.priority,
            battery=battery_level,
            temperature=temperature_level,
            other_ip_energy_j=other_energy,
            bus=BusLevel.LOW if bus is None else bus.occupancy_level(),
        )

    # ------------------------------------------------------------------
    # Request serving process
    # ------------------------------------------------------------------
    def _serve_requests(self) -> Generator[WaitSpec, None, None]:
        while True:
            if self._pending_grant is None:
                yield self._request_event
                continue
            grant = self._pending_grant
            deferrals = 0
            while True:
                # 1. Wait for the GEM enable (if a GEM is present).
                while self.gem is not None and not self.gem.is_enabled(self.ip_name):
                    yield AnyOf([self.gem.enable_changed, self._reeval_timer()])
                # 2. Apply the rules; a sleep answer defers the task.
                context = self._estimate_context(grant.task)
                selected = self.policy.select_on_state(context)
                if selected.is_on:
                    break
                deferrals += 1
                self.deferral_count += 1
                tracer = self._tracer
                if tracer is not None:
                    tracer.emit(
                        self.kernel.now_fs, "lem.deferral", self.ip_name,
                        task=grant.task.name, state=str(self.config.defer_state),
                    )
                if self.psm.state is not self.config.defer_state and not self.psm.is_transitioning:
                    self.psm.request_state(self.config.defer_state)
                yield self._reeval_timer()
            # 3. Move the PSM to the selected ON state and grant.
            if self.psm.state is not selected or self.psm.is_transitioning:
                self.psm.request_state(selected)
                yield from self.psm.wait_for_state(selected)
            self._finalize_grant(grant, selected, context, deferrals)

    def _reeval_timer(self) -> Event:
        """A one-shot event that fires after the re-evaluation interval."""
        timer = self.event("reeval")
        timer.notify_after(self.config.reevaluation_interval)
        return timer

    # ------------------------------------------------------------------
    # Idle management process
    # ------------------------------------------------------------------
    def _manage_idle(self) -> Generator[WaitSpec, None, None]:
        while True:
            yield self._idle_event
            record = self._idle_record
            if record is None:
                continue
            if self.policy.uses_timeout and self.policy.idle_timeout is not None:
                # Classic timeout policy: wait, then sleep if still idle.
                yield self.policy.idle_timeout
                if self._idle_sequence != record.sequence:
                    continue
                target = self.policy.timeout_state
            else:
                predicted = record.hint
                if predicted is None or not getattr(self.policy, "uses_idle_hint", False):
                    predicted = self.predictor.predict()
                target = self.policy.select_idle_state(predicted, self.breakeven)
            if target is None:
                continue
            if self._idle_sequence != record.sequence:
                continue
            if not self.config.allow_off and target.is_off:
                target = PowerState.SL4
            if self.psm.state is not target and not self.psm.is_transitioning:
                self.psm.request_state(target)
                self.sleep_decisions += 1
                tracer = self._tracer
                if tracer is not None:
                    reason = (
                        "timeout"
                        if self.policy.uses_timeout and self.policy.idle_timeout is not None
                        else "idle"
                    )
                    tracer.emit(self.kernel.now_fs, "lem.sleep", self.ip_name,
                                state=str(target), reason=reason)
