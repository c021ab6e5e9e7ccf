"""Events and the timed notification queue of the discrete-event kernel.

An :class:`Event` is the fundamental synchronisation primitive, modelled on
SystemC's ``sc_event``:

* processes *wait* on events (dynamically, by yielding them, or statically,
  through a method process' sensitivity list);
* anyone may *notify* an event, either immediately (within the current
  evaluation phase), after a delta cycle, or after a simulated-time delay.

The kernel owns a :class:`TimedQueue` of pending timed notifications, ordered
by (time, insertion sequence) so that simultaneous notifications preserve
insertion order, which keeps simulations deterministic.  The queue works on
raw integer femtoseconds — the kernel converts :class:`~repro.sim.simtime.SimTime`
values once at the scheduling boundary and everything below runs on plain
``int`` comparisons.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Union

from repro.sim.simtime import SimTime

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.kernel import Kernel
    from repro.sim.process import Process

__all__ = ["Event", "TimedHandle", "TimedQueue"]

#: the cancellation handle :meth:`TimedQueue.push` returns (a heap item of
#: the python queue, an entry object of the native one)
TimedHandle = Any


class Event:
    """A notifiable synchronisation point.

    Parameters
    ----------
    kernel:
        The kernel this event belongs to.  Events can only wake processes
        registered with the same kernel.
    name:
        Optional hierarchical name used in traces and error messages.
    """

    __slots__ = ("_kernel", "name", "_waiters", "_callbacks")

    def __init__(self, kernel: "Kernel", name: str = "") -> None:
        self._kernel = kernel
        self.name = name or f"event_{id(self):x}"
        self._waiters: List["Process"] = []
        self._callbacks: List[Callable[[], None]] = []

    # -- introspection --------------------------------------------------
    @property
    def kernel(self) -> "Kernel":
        """The kernel that schedules this event."""
        return self._kernel

    @property
    def waiter_count(self) -> int:
        """Number of processes currently waiting on this event."""
        return len(self._waiters)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Event({self.name!r}, waiters={len(self._waiters)})"

    # -- registration (used by the kernel / processes) -------------------
    def add_waiter(self, process: "Process") -> None:
        """Register ``process`` to be woken on the next notification."""
        if process not in self._waiters:
            self._waiters.append(process)

    def remove_waiter(self, process: "Process") -> None:
        """Remove ``process`` from the waiter list if present."""
        try:
            self._waiters.remove(process)
        except ValueError:
            pass

    def add_callback(self, callback: Callable[[], None]) -> None:
        """Register a permanent callback invoked at every notification.

        Callbacks are used internally for static sensitivity of method
        processes and for tracing; unlike waiters they are not cleared after
        a notification fires.
        """
        self._callbacks.append(callback)

    def remove_callback(self, callback: Callable[[], None]) -> None:
        """Detach a callback registered with :meth:`add_callback`."""
        self._callbacks.remove(callback)

    # -- notification ----------------------------------------------------
    def notify(self, delay: Optional[SimTime] = None) -> None:
        """Notify the event.

        ``notify()`` with no argument is an *immediate* notification: waiting
        processes become runnable in the current evaluation phase.
        ``notify(ZERO_TIME)`` is a *delta* notification and
        ``notify(delay)`` with a non-zero delay is a *timed* notification.
        """
        if delay is None:
            self._kernel.schedule_immediate(self)
        elif delay.is_zero:
            self._kernel.schedule_delta(self)
        else:
            self._kernel.schedule_timed(self, delay)

    def notify_delta(self) -> None:
        """Notify after one delta cycle (same simulated time)."""
        self._kernel.schedule_delta(self)

    def notify_after(self, delay: SimTime) -> None:
        """Notify after ``delay`` of simulated time."""
        self._kernel.schedule_timed(self, delay)

    # -- firing (kernel only) ---------------------------------------------
    def fire(self) -> List["Process"]:
        """Wake all waiters and run callbacks; return the processes woken.

        This is called by the kernel when the notification matures.  The
        waiter list is cleared: dynamic waits are one-shot, as in SystemC.
        """
        woken, self._waiters = self._waiters, []
        for callback in self._callbacks:
            callback()
        return woken


class TimedQueue:
    """Priority queue of timed notifications, ordered by absolute time.

    Heap items are plain lists ``[time_fs, sequence, payload, cancelled]``
    which double as the cancellation handles — one allocation per
    notification, compared lexicographically at C speed (the unique
    ``sequence`` guarantees the ``payload`` element is never compared).
    ``payload`` is either an :class:`Event` to fire or a
    :class:`~repro.sim.process.Process` to resume directly (used for
    ``yield some_duration`` timeouts).  Times are raw integer femtoseconds.

    Cancelled entries are flagged lazily and skipped on pop; to keep long
    runs with many cancellations from leaking heap slots, the heap is
    compacted whenever dead entries outnumber the live ones.
    """

    #: minimum number of dead entries before a compaction is considered
    COMPACT_THRESHOLD = 64

    def __init__(self) -> None:
        self._heap: list = []
        self._next_sequence = 0
        self._live = 0
        self._dead = 0  # cancelled entries still occupying heap slots

    def __len__(self) -> int:
        return self._live

    @property
    def heap_size(self) -> int:
        """Number of heap slots in use, including cancelled entries."""
        return len(self._heap)

    def push(self, when_fs: int, payload: Union[Event, "Process"]) -> list:
        """Schedule ``payload`` at absolute time ``when_fs``; returns a handle.

        The returned handle may be passed to :meth:`cancel` to withdraw the
        notification.
        """
        seq = self._next_sequence
        self._next_sequence = seq + 1
        entry = [when_fs, seq, payload, False]
        heapq.heappush(self._heap, entry)
        self._live += 1
        return entry

    def cancel(self, entry: list) -> None:
        """Cancel a previously pushed entry (no-op if already fired)."""
        if not entry[3]:
            entry[3] = True
            self._live -= 1
            self._dead += 1
            if self._dead > self._live and self._dead >= self.COMPACT_THRESHOLD:
                self._compact()

    def next_time_fs(self) -> Optional[int]:
        """Absolute femtosecond time of the earliest pending entry, if any."""
        heap = self._heap
        while heap and heap[0][3]:
            heapq.heappop(heap)
            self._dead -= 1
        if not heap:
            return None
        return heap[0][0]

    def pop_due(self, now_fs: int) -> list:
        """Pop and return all payloads whose time is exactly ``now_fs``."""
        due = []
        heap = self._heap
        pop = heapq.heappop
        while heap:
            entry = heap[0]
            if entry[3]:
                pop(heap)
                self._dead -= 1
                continue
            if entry[0] != now_fs:
                break
            pop(heap)
            self._live -= 1
            # Mark as consumed so a later cancel() of this handle is a no-op.
            entry[3] = True
            due.append(entry[2])
        return due

    def _compact(self) -> None:
        """Drop cancelled entries wholesale and rebuild the heap.

        Heap keys ``(time_fs, sequence)`` are unique, so re-heapifying the
        surviving items reproduces exactly the original pop order.
        """
        self._heap = [entry for entry in self._heap if not entry[3]]
        heapq.heapify(self._heap)
        self._dead = 0
