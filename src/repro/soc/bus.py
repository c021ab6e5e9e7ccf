"""Shared on-chip bus with arbitration, occupancy statistics and two timing
modes.

The GEM conditions its decisions on "the status of the SoC resources
(battery energy, chip temperature, bus occupation, etc.)".  This module
provides the bus occupation part: a single shared bus that masters acquire
for a number of word transfers, with either first-come-first-served or
priority arbitration, and a quantised :class:`BusLevel` the energy managers
(and user rule tables) consume next to the battery and temperature levels.

Two timing modes are supported:

``event_driven`` (default)
    Grants happen immediately whenever the bus frees up and transfer
    durations are exact (``words / words_per_second``).  No clock exists.

``cycle_accurate``
    The bus owns a :class:`~repro.sim.clock.Clock` and arbitrates on its
    rising edges: requests queue at any time, but grants land only on
    posedges and transfer durations are quantised to whole bus cycles
    (``ceil(words / words_per_cycle)``).  Arbitration is *batched*: instead
    of waking twice per cycle on a toggling clock, the bus computes the next
    **interesting** edge analytically (pending request while free, in-flight
    release, owner cancellation) and jumps to it with one timed event,
    reproducing the classic posedge pipeline's delta ordering — edge, then
    arbiter in the following evaluate phase — so grant instants are
    identical to a per-cycle arbiter on a toggling clock, at event-driven
    cost.  The clock has no process or signal: it only computes edges.

The bus is cancellation-safe: a master that is killed (or otherwise stops
waiting) while queued can no longer wedge the arbiter — dead requests are
dropped at grant time, and :meth:`Bus.cancel` withdraws a request (or aborts
an in-flight transfer) explicitly.  :meth:`Bus.transfer` cleans up after
itself from a ``finally`` block, so a killed thread process releases its
claim on the bus automatically.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Deque, Dict, Generator, List, Optional, Tuple

from repro._enumtools import dense_index
from repro.errors import ConfigurationError
from repro.sim.clock import Clock
from repro.sim.event import Event
from repro.sim.kernel import Kernel
from repro.sim.module import Module
from repro.sim.process import WaitSpec
from repro.sim.simtime import SimTime, ZERO_TIME, sec

__all__ = [
    "BUS_TIMING_MODES",
    "Bus",
    "BusLevel",
    "BusRequest",
    "BusStatistics",
    "BusThresholds",
]

#: accepted values of the ``timing`` constructor parameter
BUS_TIMING_MODES = ("event_driven", "cycle_accurate")


class BusLevel(Enum):
    """Quantised bus occupation as seen by the energy managers.

    Mirrors the battery (5 classes) and temperature (3 classes) codings of
    the paper's section 1.3: the bus contributes 3 occupation classes.
    """

    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"

    @property
    def rank(self) -> int:
        """Ordering helper: LOW=0, MEDIUM=1, HIGH=2."""
        return self._idx

    def __str__(self) -> str:
        return self._str


dense_index(BusLevel)  # _idx doubles as rank, _str for __str__; identity hash


@dataclass(frozen=True)
class BusThresholds:
    """Occupancy fractions separating the three bus classes.

    An occupancy ``x`` (busy fraction in [0, 1]) maps to ``LOW`` when
    ``x < medium``, ``MEDIUM`` when ``medium <= x < high`` and ``HIGH``
    otherwise.
    """

    medium: float = 0.40
    high: float = 0.75

    def __post_init__(self) -> None:
        if not 0.0 < self.medium < self.high < 1.0:
            raise ConfigurationError(
                "bus thresholds must satisfy 0 < medium < high < 1, got "
                f"medium={self.medium!r}, high={self.high!r}"
            )

    def classify(self, occupancy: float) -> BusLevel:
        """Map a busy fraction in [0, 1] to a :class:`BusLevel`."""
        if occupancy < self.medium:
            return BusLevel.LOW
        if occupancy < self.high:
            return BusLevel.MEDIUM
        return BusLevel.HIGH


@dataclass
class BusRequest:
    """One master's claim on the bus, from queueing to release.

    Returned by :meth:`Bus.request`; pass it to :meth:`Bus.cancel` to
    withdraw it (while queued) or abort it (while owning the bus).
    """

    master: str
    words: int
    priority: int
    event: Event
    arrival: SimTime
    duration: SimTime
    granted: bool = False
    completed: bool = False
    cancelled: bool = False
    grant_time: Optional[SimTime] = None


@dataclass
class BusStatistics:
    """Aggregate bus statistics.

    Wait-time accounting is grant-based: ``total_wait_time`` and
    ``grant_count`` are both updated at grant time, so
    :meth:`average_wait` is correct at any instant of the run (not only
    after the matching releases).  ``transfer_count``/``words_transferred``
    count *completed* transfers; an in-flight transfer shows up in
    occupancy through the ``in_flight`` argument of :meth:`occupancy`.
    """

    transfer_count: int = 0
    grant_count: int = 0
    cancelled_count: int = 0
    words_transferred: int = 0
    busy_time: SimTime = ZERO_TIME
    total_wait_time: SimTime = ZERO_TIME
    per_master_words: Dict[str, int] = field(default_factory=dict)

    def occupancy(self, elapsed: SimTime, in_flight: SimTime = ZERO_TIME) -> float:
        """Fraction of ``elapsed`` during which the bus was busy.

        ``in_flight`` credits the portion of a transfer still in progress
        (release has not happened yet); :meth:`Bus.occupancy` passes it so a
        mid-transfer reading does not underreport.
        """
        if elapsed.is_zero:
            return 0.0
        return min(1.0, (self.busy_time + in_flight) / elapsed)

    def average_wait(self) -> SimTime:
        """Average time a granted request waited for the bus."""
        if self.grant_count == 0:
            return ZERO_TIME
        return self.total_wait_time / self.grant_count


class Bus(Module):
    """Single shared bus.

    Parameters
    ----------
    kernel:
        Simulation kernel.
    name:
        Instance name.
    words_per_second:
        Transfer bandwidth in words per second.
    arbitration:
        ``"fifo"`` (first come, first served) or ``"priority"`` (lowest
        priority number wins; ties broken by arrival order).
    timing:
        ``"event_driven"`` (immediate grants, exact durations — the default)
        or ``"cycle_accurate"`` (grants on clock posedges, durations
        quantised to whole bus cycles).
    words_per_cycle:
        Words moved per bus cycle in cycle-accurate mode; together with
        ``words_per_second`` it fixes the bus clock frequency
        (``words_per_second / words_per_cycle``).
    thresholds:
        Occupancy thresholds of the :class:`BusLevel` coding.
    level_window:
        Trailing window over which :meth:`occupancy_level` measures the
        busy fraction.  Defaults to the time the bus needs to move 8192
        words, so the level tracks *current* contention instead of the
        lifetime average (which dilutes toward LOW on long runs and would
        make bus-conditioned rules blind to a late saturation burst).
    """

    #: default :attr:`level_window`, expressed in words of traffic
    LEVEL_WINDOW_WORDS = 8192

    #: structured-tracing hook (repro.obs); None keeps every hook site to a
    #: single attribute test, so untraced runs stay bit-identical
    _tracer = None

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        words_per_second: float = 50e6,
        arbitration: str = "priority",
        timing: str = "event_driven",
        words_per_cycle: int = 1,
        thresholds: Optional[BusThresholds] = None,
        level_window: Optional[SimTime] = None,
        parent: Optional[Module] = None,
    ) -> None:
        super().__init__(kernel, name, parent)
        if words_per_second <= 0.0:
            raise ConfigurationError("bus bandwidth must be positive")
        if arbitration not in ("fifo", "priority"):
            raise ConfigurationError(f"unknown arbitration policy {arbitration!r}")
        if timing not in BUS_TIMING_MODES:
            raise ConfigurationError(
                f"unknown bus timing mode {timing!r} "
                f"(expected one of: {', '.join(BUS_TIMING_MODES)})"
            )
        if not isinstance(words_per_cycle, int) or words_per_cycle < 1:
            raise ConfigurationError(
                f"words_per_cycle must be a positive integer, got {words_per_cycle!r}"
            )
        self.words_per_second = words_per_second
        self.arbitration = arbitration
        self.timing = timing
        self.words_per_cycle = words_per_cycle
        self.thresholds = thresholds or BusThresholds()
        self.stats = BusStatistics()
        self.busy_signal = self.signal("busy", False)
        # Quantised occupancy as of the *last bus transaction* (grant,
        # release or cancel) — the windowed occupancy decays between
        # transactions, so on-demand consumers (the GEM/LEM) call
        # occupancy_level() instead of reading this signal, and the signal
        # is only maintained while some process waits on its change.
        self.level_signal = self.signal("level", BusLevel.LOW)
        if level_window is None:
            level_window = sec(self.LEVEL_WINDOW_WORDS / words_per_second)
        elif level_window.is_zero:
            raise ConfigurationError("the bus level window must be positive")
        self.level_window = level_window
        self._queue: List[BusRequest] = []
        self._owner: Optional[BusRequest] = None
        self._start_fs = kernel.now_fs
        # Completed busy intervals (start_fs, end_fs) young enough to
        # intersect the level window; trimmed on append and on read.
        self._busy_log: Deque[Tuple[int, int]] = deque()
        self.clock: Optional[Clock] = None
        if timing == "cycle_accurate":
            # One word batch per rising edge; grant instants come from the
            # clock's analytic edge schedule (Clock.next_posedge_fs).
            self.clock = Clock(
                kernel,
                "clk",
                period=sec(words_per_cycle / words_per_second),
                parent=self,
            )
            # Batched arbitration plumbing: a timed event jumps to the next
            # interesting posedge; its callback re-notifies through a delta
            # event so the arbiter method runs one evaluate phase *after*
            # the edge instant begins — exactly where a method statically
            # sensitive to a toggling clock's posedge would run (toggle
            # write, update, posedge delta, arbiter evaluate).
            self._arb_scheduled_fs: Optional[int] = None
            self._arb_timer = self.event("arb_edge")
            self._arb_timer.add_callback(self._on_arb_timer)
            self._arb_fire = self.event("arb_fire")
            self.add_method(
                self._on_posedge,
                sensitivity=[self._arb_fire],
                name="arbiter",
                dont_initialize=True,
            )

    # -- queries ------------------------------------------------------------
    @property
    def is_busy(self) -> bool:
        """True while a transfer is in progress."""
        return self._owner is not None

    def occupancy(self) -> float:
        """Busy fraction since the bus was created, including the portion of
        an in-flight transfer already elapsed (a mid-transfer reading — the
        GEM's usual one — must not underreport)."""
        return self.stats.occupancy(
            SimTime(self.kernel.now_fs - self._start_fs), self._in_flight()
        )

    def recent_occupancy(self, window: Optional[SimTime] = None) -> float:
        """Busy fraction over the trailing ``window`` (default
        :attr:`level_window`), including the in-flight transfer.

        Unlike the lifetime :meth:`occupancy` this measures *current*
        contention, which is what the energy managers' quantised bus level
        needs: a saturation burst registers immediately and fades once the
        bus has been idle for a window, regardless of how long the run is.
        """
        retention_fs = int(self.level_window)
        window_fs = retention_fs if window is None else int(window)
        if not 0 < window_fs <= retention_fs:
            raise ConfigurationError(
                f"occupancy window must be positive and at most the level "
                f"window ({SimTime(retention_fs)}), got {SimTime(window_fs)}"
            )
        now_fs = self.kernel.now_fs
        elapsed_fs = now_fs - self._start_fs
        if elapsed_fs <= 0:
            return 0.0
        log = self._busy_log
        # The log retains level_window of history; trim with *that* cutoff
        # only, so a narrower diagnostic window never discards intervals
        # later default-window readings still need.
        retention_cutoff_fs = now_fs - min(retention_fs, elapsed_fs)
        while log and log[0][1] <= retention_cutoff_fs:
            log.popleft()
        span_fs = min(window_fs, elapsed_fs)
        cutoff_fs = now_fs - span_fs
        busy_fs = sum(
            end - max(start, cutoff_fs) for start, end in log if end > cutoff_fs
        )
        owner = self._owner
        if owner is not None and owner.grant_time is not None:
            busy_fs += now_fs - max(int(owner.grant_time), cutoff_fs)
        return min(1.0, busy_fs / span_fs)

    def occupancy_level(self) -> BusLevel:
        """The quantised :class:`BusLevel` of :meth:`recent_occupancy`."""
        return self.thresholds.classify(self.recent_occupancy())

    def cycles_for(self, words: int) -> int:
        """Whole bus cycles needed for ``words`` (cycle-accurate mode)."""
        if words <= 0:
            raise ConfigurationError("word count must be positive")
        return -(-words // self.words_per_cycle)  # ceil division

    def transfer_duration(self, words: int) -> SimTime:
        """Time needed to move ``words`` words once the bus is granted.

        Exact in event-driven mode; rounded up to whole bus cycles in
        cycle-accurate mode.
        """
        if self.clock is not None:
            return SimTime(self.cycles_for(words) * int(self.clock.period))
        if words <= 0:
            raise ConfigurationError("word count must be positive")
        return sec(words / self.words_per_second)

    # -- master interface ------------------------------------------------------
    def request(self, master: str, words: int, priority: int = 0) -> BusRequest:
        """Queue a transfer request and return its handle.

        In event-driven mode the request may be granted synchronously
        (``request.granted`` is then already true); in cycle-accurate mode
        grants only ever land on the next clock posedge.  The caller waits
        on ``request.event`` when not yet granted, holds the bus for
        ``request.duration`` once granted, and finishes with
        :meth:`complete` — or :meth:`cancel` to withdraw.

        Contract: a master must stay parked on ``request.event`` (possibly
        inside an ``AnyOf`` with a timeout) from submission until granted.
        A queued request whose master is not waiting when arbitration runs
        is treated as abandoned and dropped — call :meth:`cancel` first if
        you intend to stop waiting.  After any wake-up, check
        ``request.cancelled``: a third party may have withdrawn the request
        (the event is notified so the master never sleeps through it).
        """
        handle = BusRequest(
            master=master,
            words=words,
            priority=priority,
            event=self.kernel.event(f"{self.name}.grant.{master}"),
            arrival=self.kernel.now,
            duration=self.transfer_duration(words),
        )
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(self.kernel.now_fs, "bus.request", self.name,
                        master=master, words=words, priority=priority)
        self._queue.append(handle)
        if self.clock is None:
            self._try_grant(fresh=handle)
        else:
            self._schedule_arbitration()
        return handle

    def transfer(
        self, master: str, words: int, priority: int = 0
    ) -> Generator[WaitSpec, None, None]:
        """Generator: acquire the bus, move ``words`` words, release.

        Use from a thread process as ``yield from bus.transfer("ip0", 128)``.
        Cancellation-safe: if the calling process is killed while queued or
        mid-transfer, the ``finally`` block withdraws the request so the bus
        can never be wedged by a dead master.
        """
        handle = self.request(master, words, priority)
        try:
            if not handle.granted:
                yield handle.event
                if handle.cancelled:
                    return  # withdrawn by a third party while queued
            yield handle.duration
            self.complete(handle)
        finally:
            if not handle.completed and not handle.cancelled:
                self.cancel(handle)

    def complete(self, request: BusRequest) -> None:
        """Release the bus at the end of ``request``'s transfer."""
        if request.cancelled:
            return
        if self._owner is not request:
            raise ConfigurationError("bus released by a master that does not own it")
        self._owner = None
        request.completed = True
        self._log_busy(int(request.grant_time), self.kernel.now_fs)
        stats = self.stats
        stats.transfer_count += 1
        stats.words_transferred += request.words
        stats.busy_time = stats.busy_time + request.duration
        per_master = stats.per_master_words
        per_master[request.master] = per_master.get(request.master, 0) + request.words
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(self.kernel.now_fs, "bus.release", self.name,
                        master=request.master, words=request.words)
        if self.clock is None:
            self._try_grant()
        else:
            self._schedule_arbitration()
        if self._owner is None:
            self.busy_signal.write(False)
        self._update_level()

    def cancel(self, request: BusRequest) -> bool:
        """Withdraw ``request``: dequeue it, or abort its in-flight transfer.

        Returns True when something was actually withdrawn.  Aborting an
        in-flight transfer credits the busy time already consumed (the bus
        *was* occupied) but counts no completed transfer and no words.  A
        master still parked on ``request.event`` is woken (and must check
        ``request.cancelled``); a mid-transfer owner cancelled by a third
        party finishes its timed wait normally and finds :meth:`complete` a
        no-op.
        """
        if request.completed or request.cancelled:
            return False
        request.cancelled = True
        self.stats.cancelled_count += 1
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(self.kernel.now_fs, "bus.cancel", self.name,
                        master=request.master, granted=request.granted)
        if request.event.waiter_count:
            request.event.notify()
        if request is self._owner:
            self._owner = None
            if request.grant_time is not None:
                self._log_busy(int(request.grant_time), self.kernel.now_fs)
                held = self.kernel.now - request.grant_time
                if held > request.duration:  # pragma: no cover - defensive
                    held = request.duration
                self.stats.busy_time = self.stats.busy_time + held
            if self.clock is None:
                self._try_grant()
            else:
                self._schedule_arbitration()
            if self._owner is None:
                self.busy_signal.write(False)
        else:
            try:
                self._queue.remove(request)
            except ValueError:  # pragma: no cover - defensive
                pass
        self._update_level()
        return True

    # -- internals ----------------------------------------------------------------
    def _log_busy(self, start_fs: int, end_fs: int) -> None:
        """Record one completed busy interval for the level window."""
        if end_fs <= start_fs:
            return
        log = self._busy_log
        log.append((start_fs, end_fs))
        cutoff_fs = end_fs - int(self.level_window)
        while log and log[0][1] <= cutoff_fs:
            log.popleft()

    def _in_flight(self) -> SimTime:
        """Busy time of the current transfer not yet credited to the stats."""
        owner = self._owner
        if owner is None or owner.grant_time is None:
            return ZERO_TIME
        return self.kernel.now - owner.grant_time

    def _on_posedge(self) -> None:
        """Cycle-accurate arbitration: grant (at most) once per armed edge."""
        self._try_grant()

    def _on_arb_timer(self) -> None:
        """Timed-event callback at an armed posedge: defer one delta cycle.

        Fires during the kernel's time advance, before the edge instant's
        first evaluate phase; the delta re-notification pushes the arbiter
        to the *second* evaluate phase, after same-instant requesters (who
        wake in the first) have queued and parked on their grant events.
        """
        self._arb_scheduled_fs = None
        self._arb_fire.notify_delta()

    def _schedule_arbitration(self) -> None:
        """Arm the batched arbiter for the next interesting rising edge.

        Called whenever a grant could become possible: a request while the
        bus is free, a release, or a cancellation of the owner.  While the
        bus is busy (or the queue is empty) there is nothing to arbitrate
        and no per-cycle work happens at all.
        """
        if self._owner is not None or not self._queue:
            return
        now_fs = self.kernel.now_fs
        edge_fs = self.clock.next_posedge_fs(now_fs)
        if edge_fs == now_fs:
            # Already on the grid (releases and on-grid requests): the
            # arbiter still runs in the next-but-one evaluate phase of this
            # instant, matching the per-cycle pipeline's same-edge re-grant.
            self._arb_fire.notify_delta()
            return
        if self._arb_scheduled_fs is not None:
            # A pending arm is always at the first posedge >= its earlier
            # scheduling instant, which is this same edge; don't double-arm.
            return
        self._arb_scheduled_fs = edge_fs
        self.kernel.schedule_timed(self._arb_timer, SimTime(edge_fs - now_fs))

    def _is_dead(self, request: BusRequest, fresh: Optional[BusRequest]) -> bool:
        """True when nobody can ever consume a grant of ``request``.

        Per the :meth:`request` contract a queued master stays parked on
        its grant event until granted, so at arbitration time it either
        still waits there, is the master submitting right now (``fresh`` —
        it has not yielded yet), or is gone: killed while queued, or timed
        out and moved on without cancelling.  Granting to a gone master
        would wedge the bus forever.
        """
        if request.cancelled:
            return True
        return request is not fresh and request.event.waiter_count == 0

    def _select_next(self) -> Optional[BusRequest]:
        if not self._queue:
            return None
        if self.arbitration == "fifo":
            return self._queue[0]
        return min(self._queue, key=lambda request: (request.priority, request.arrival.femtoseconds))

    def _try_grant(self, fresh: Optional[BusRequest] = None) -> None:
        if self._owner is not None:
            return
        # Drop dead requests before arbitrating: a cancelled entry must not
        # shadow a live lower-priority one, and a killed waiter must never
        # be granted (its grant would wedge the bus forever).
        dead = [request for request in self._queue if self._is_dead(request, fresh)]
        for request in dead:
            self._queue.remove(request)
            if not request.cancelled:
                request.cancelled = True
                self.stats.cancelled_count += 1
                tracer = self._tracer
                if tracer is not None:
                    tracer.emit(self.kernel.now_fs, "bus.cancel", self.name,
                                master=request.master, granted=False)
        request = self._select_next()
        if request is None:
            self.busy_signal.write(False)
            return
        self._queue.remove(request)
        self._owner = request
        request.granted = True
        request.grant_time = self.kernel.now
        stats = self.stats
        stats.grant_count += 1
        stats.total_wait_time = stats.total_wait_time + (request.grant_time - request.arrival)
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(
                self.kernel.now_fs, "bus.grant", self.name,
                master=request.master, words=request.words,
                wait_us=int(request.grant_time - request.arrival) / 1e9,
            )
        self.busy_signal.write(True)
        self._update_level()
        request.event.notify()

    def _update_level(self) -> None:
        """Refresh the quantised occupancy signal (grant/release/cancel).

        Like the IP busy mirror, the signal — and the occupancy computation
        behind it — is skipped entirely while nothing waits on it: the GEM
        and LEM poll :meth:`occupancy_level` on demand, so on a typical run
        this keeps level bookkeeping off the per-transaction hot path.
        """
        level = self.level_signal
        changed = level.changed_event
        if changed._waiters or changed._callbacks:
            level.write(self.occupancy_level())
