"""The discrete-event scheduler (SystemC-like evaluate/update/delta kernel).

The :class:`Kernel` implements the classic SystemC 2.0 scheduling algorithm:

1. *Evaluate phase*: run every runnable process.  Processes may write
   primitive channels (signals), notify events immediately, or schedule
   delta/timed notifications.
2. *Update phase*: apply the pending writes of every primitive channel that
   requested an update.
3. *Delta notification phase*: fire delta-notified events, making their
   waiters runnable.  If any process became runnable, repeat from step 1 at
   the same simulated time (one *delta cycle* has elapsed).
4. Otherwise advance simulated time to the earliest timed notification and
   repeat, until there is no pending activity, the requested duration has
   elapsed, or :meth:`Kernel.stop` was called.

The kernel is deliberately independent from the module system: it only knows
about :class:`~repro.sim.event.Event` and
:class:`~repro.sim.process.Process` objects, which keeps it easy to test in
isolation and to reuse for non-hardware models (the battery and thermal
models are sampled by a plain process, for instance).

All four steps run in one loop in one frame per :meth:`Kernel.run` call
(:meth:`Kernel._simulate`; :meth:`Kernel.initialize` runs the same loop
without advancing time).  Its counters accumulate in locals and are added
to :attr:`Kernel.stats` when the loop exits, also by an exception.  The
loop works on raw integer femtoseconds and reaches the timed queue only
through its bound ``push``, ``next_time_fs`` and ``pop_due``, so the python
and native queues share it.  A cached ``SimTime`` view of the current
instant is rebuilt on demand, so :attr:`Kernel.now` stays the public value
type without per-advance allocation.  The dominant activation, a thread
woken from a pure timed wait (``yield SimTime``), touches no waiter list and
no cancellation: the loop resumes its generator directly and re-arms the
next timed wait with one push.  :meth:`Kernel.end_run_by` lets code running
inside a run pull its end in (never push it out).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Deque, Generator, Iterable, List, Optional, Set

from repro.errors import SchedulingError, SimulationError
from repro.sim.event import Event, TimedHandle, TimedQueue
from repro.sim.native import BackendResolution, load as _load_native_core, resolve_backend
from repro.sim.process import MethodProcess, Process, ThreadProcess, WaitSpec
from repro.sim.simtime import SimTime, ZERO_TIME

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (signal imports kernel)
    from repro.sim.signal import Signal

__all__ = ["Kernel", "KernelStatistics"]


@dataclass
class KernelStatistics:
    """Counters describing how much work a simulation performed."""

    process_activations: int = 0
    delta_cycles: int = 0
    timed_notifications: int = 0
    immediate_notifications: int = 0
    signal_updates: int = 0
    events_created: int = 0
    processes_created: int = 0
    time_advances: int = 0
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """Return the statistics as a plain dictionary."""
        data = {
            "process_activations": self.process_activations,
            "delta_cycles": self.delta_cycles,
            "timed_notifications": self.timed_notifications,
            "immediate_notifications": self.immediate_notifications,
            "signal_updates": self.signal_updates,
            "events_created": self.events_created,
            "processes_created": self.processes_created,
            "time_advances": self.time_advances,
        }
        data.update(self.extra)
        return data


class Kernel:
    """Discrete-event scheduler with SystemC evaluate/update/delta semantics.

    ``backend`` selects the timed-queue implementation: ``"python"`` (the
    reference heap, default), ``"native"`` (the compiled heap of
    :mod:`repro.sim._nativecore`, bit-identical pop order) or ``"auto"``;
    ``None`` consults ``REPRO_SIM_BACKEND``.  An explicit ``native`` request
    falls back to Python when the extension is not built — the resolution
    (with the fallback reason) is exposed as :attr:`backend_resolution`.
    """

    def __init__(self, backend: Optional[str] = None) -> None:
        resolution = resolve_backend(backend)
        self.backend_resolution: BackendResolution = resolution
        self.backend: str = resolution.backend
        self._now_fs: int = 0
        self._now: Optional[SimTime] = ZERO_TIME  # cached SimTime view of _now_fs
        self._runnable: Deque[Process] = deque()
        # The delta/update queues preserve insertion order (lists) but use
        # side sets for O(1) dedup — membership scans dominated the hot path.
        self._delta_events: List[Event] = []
        self._delta_scheduled: Set[Event] = set()
        self._update_queue: List["Signal[Any]"] = []
        self._update_scheduled: Set["Signal[Any]"] = set()
        if resolution.backend == "native":
            self._timed = _load_native_core().TimedQueue()
        else:
            self._timed = TimedQueue()
        self._processes: List[Process] = []
        #: absolute end of the current run in femtoseconds (None: no end)
        self._end_fs: Optional[int] = None
        self._initialized = False
        self._stop_requested = False
        self._running = False
        self.stats = KernelStatistics()

    # ------------------------------------------------------------------
    # Factory helpers
    # ------------------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a new :class:`Event` owned by this kernel."""
        self.stats.events_created += 1
        return Event(self, name)

    def create_thread(
        self, func: Callable[[], Generator[WaitSpec, None, None]], name: str
    ) -> ThreadProcess:
        """Create and register a thread process from a generator function."""
        process = ThreadProcess(self, name, func)
        self.register_process(process)
        return process

    def create_method(
        self,
        func: Callable[[], None],
        sensitivity: Iterable[Event],
        name: str,
        dont_initialize: bool = False,
    ) -> MethodProcess:
        """Create and register a method process with a static sensitivity list."""
        process = MethodProcess(self, name, func, dont_initialize=dont_initialize)
        process.set_sensitivity(list(sensitivity))
        self.register_process(process)
        return process

    def register_process(self, process: Process) -> None:
        """Register an externally created process with the scheduler."""
        self._processes.append(process)
        self.stats.processes_created += 1
        if self._initialized:
            # Processes created after initialisation start immediately,
            # running up to their first wait (like sc_spawn).
            process.start()
            self.stats.process_activations += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> SimTime:
        """Current simulated time."""
        now = self._now
        if now is None:
            # Lazily materialised: most time advances (pure timed waits) are
            # never observed through the SimTime view.
            now = self._now = SimTime(self._now_fs)
        return now

    @property
    def now_fs(self) -> int:
        """Current simulated time as raw integer femtoseconds."""
        return self._now_fs

    # ------------------------------------------------------------------
    # Scheduling requests (called by events, signals and processes)
    # ------------------------------------------------------------------
    def schedule_immediate(self, event: Event) -> None:
        """Immediate notification: wake waiters within the current phase."""
        self.stats.immediate_notifications += 1
        self._runnable.extend(event.fire())

    def schedule_delta(self, event: Event) -> None:
        """Delta notification: fire the event in the next delta cycle."""
        scheduled = self._delta_scheduled
        if event not in scheduled:
            scheduled.add(event)
            self._delta_events.append(event)

    def schedule_timed(self, event: Event, delay: SimTime) -> TimedHandle:
        """Timed notification of ``event`` after ``delay``."""
        self.stats.timed_notifications += 1
        return self._timed.push(self._now_fs + delay, event)

    def schedule_process_timeout(self, process: Process, delay: SimTime) -> TimedHandle:
        """Resume ``process`` after ``delay`` (a ``yield duration`` wait)."""
        self.stats.timed_notifications += 1
        return self._timed.push(self._now_fs + delay, process)

    def cancel_timed(self, handle: TimedHandle) -> None:
        """Cancel a previously scheduled timed notification."""
        self._timed.cancel(handle)

    def request_update(self, channel: "Signal[Any]") -> None:
        """Queue a primitive channel for the next update phase."""
        scheduled = self._update_scheduled
        if channel not in scheduled:
            scheduled.add(channel)
            self._update_queue.append(channel)

    def stop(self) -> None:
        """Request the simulation to stop at the end of the current delta."""
        self._stop_requested = True

    def end_run_by(self, when_fs: int) -> None:
        """Pull the end of the current :meth:`run` in to ``when_fs``.

        The end only ever moves earlier: a time past the current end is
        ignored.  Activity due exactly at the new end still runs, as at the
        end of any ``run(duration)``.
        """
        if not self._running:
            raise SimulationError("end_run_by() needs a running simulation")
        if when_fs < self._now_fs:
            raise SchedulingError("cannot end a run before the current time")
        end_fs = self._end_fs
        if end_fs is None or when_fs < end_fs:
            self._end_fs = when_fs

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def initialize(self) -> None:
        """Start every registered process (runs them to their first wait)."""
        if self._initialized:
            return
        self._initialized = True
        for process in self._processes:
            process.start()
            self.stats.process_activations += 1
        # Resolve any activity generated during initialisation at time zero.
        self._simulate(False)

    def run(self, duration: Optional[SimTime] = None) -> SimTime:
        """Run the simulation.

        Parameters
        ----------
        duration:
            If given, simulate for at most this much additional simulated
            time.  If omitted, run until there is no pending activity or
            :meth:`stop` is called.

        Returns
        -------
        SimTime
            The simulated time at which execution stopped.
        """
        if self._running:
            raise SimulationError("kernel.run() is not reentrant")
        if duration is not None and not isinstance(duration, SimTime):
            raise TypeError(
                f"run() duration must be a SimTime, not {type(duration).__name__}"
            )
        self._running = True
        self._stop_requested = False
        self._end_fs = None if duration is None else self._now_fs + duration
        try:
            if not self._initialized:
                self.initialize()
            self._simulate(True)
            return self.now
        finally:
            self._running = False
            self._end_fs = None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _simulate(self, advance: bool) -> None:
        """Run delta cycles until none is runnable, then (with ``advance``)
        move to the next timed notification and repeat, until starvation,
        the end of the run or :meth:`stop`.

        A pure timed wake resumes its generator right here and re-arms a
        ``yield SimTime`` with one push; every other wait goes through the
        process's own methods.
        """
        runnable = self._runnable
        popleft = runnable.popleft
        extend = runnable.extend
        append = runnable.append
        timed = self._timed
        push = timed.push
        next_time_fs = timed.next_time_fs
        pop_due = timed.pop_due
        now_fs = self._now_fs
        activations = 0
        delta_cycles = 0
        signal_updates = 0
        timed_notifications = 0
        time_advances = 0
        try:
            while True:
                while (runnable or self._delta_events or self._update_queue) and not self._stop_requested:
                    # Evaluate phase.
                    while runnable:
                        process = popleft()
                        if process.terminated:
                            continue
                        if process._waiting_events or process._pending_timeout is not None:
                            # An event wake: withdraw the rest of the wait (the
                            # other events of an AnyOf).  A timed wake arrives
                            # with its handle already cleared and skips this.
                            process._clear_waits()
                        if type(process) is ThreadProcess and (generator := process._generator) is not None:
                            try:
                                spec = next(generator)
                            except StopIteration:
                                process.terminated = True
                            else:
                                if process.terminated:
                                    # Self-kill: close the now suspended
                                    # generator so its finally blocks run.
                                    process._generator = None
                                    generator.close()
                                elif type(spec) is SimTime:
                                    timed_notifications += 1
                                    process._pending_timeout = push(now_fs + spec, process)
                                else:
                                    process._arm(spec)
                        else:
                            process._advance()
                        activations += 1
                    # Update phase.
                    updates = self._update_queue
                    if updates:
                        self._update_queue = []
                        self._update_scheduled.clear()
                        for channel in updates:
                            channel.update()
                        signal_updates += len(updates)
                    # Delta notification phase.
                    delta_events = self._delta_events
                    if delta_events:
                        self._delta_events = []
                        self._delta_scheduled.clear()
                        for event in delta_events:
                            extend(event.fire())
                    delta_cycles += 1
                if not advance or self._stop_requested:
                    return
                # Time advance.
                next_fs = next_time_fs()
                end_fs = self._end_fs
                if next_fs is None or (end_fs is not None and next_fs > end_fs):
                    if end_fs is not None and now_fs < end_fs:
                        # The end of run(duration) (or starvation before
                        # it): report the requested end, so repeated
                        # run() calls stay monotonic.
                        self._now_fs = end_fs
                        self._now = None
                    return
                now_fs = self._now_fs = next_fs
                self._now = None  # SimTime view rebuilt on demand (see now)
                time_advances += 1
                for payload in pop_due(next_fs):
                    if payload.__class__ is Event:
                        extend(payload.fire())
                    else:
                        # Pure timed wake of a process (the dominant case):
                        # drop the consumed handle so the wake skips all
                        # wait bookkeeping.
                        payload._pending_timeout = None
                        append(payload)
        finally:
            stats = self.stats
            stats.process_activations += activations
            stats.delta_cycles += delta_cycles
            stats.signal_updates += signal_updates
            stats.timed_notifications += timed_notifications
            stats.time_advances += time_advances
