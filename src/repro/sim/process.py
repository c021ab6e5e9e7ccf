"""Processes: the concurrent units of behaviour in the simulation kernel.

Two kinds of processes exist, mirroring SystemC:

* **Thread processes** (:class:`ThreadProcess`) wrap a generator function.
  The generator ``yield``\\ s *wait specifications* and is resumed by the
  kernel when the wait matures.  Valid wait specifications are:

  - a :class:`~repro.sim.simtime.SimTime` duration,
  - an :class:`~repro.sim.event.Event`,
  - an :class:`AnyOf` combinator over events,
  - ``None`` (wait on the process' static sensitivity, if any).

* **Method processes** (:class:`MethodProcess`) wrap a plain callable that is
  re-invoked from scratch every time an event in its static sensitivity list
  is notified.  Method processes never suspend.

The dominant wait in this library is ``yield SimTime`` (a pure timed wait):
the arming logic and the kernel's wake path special-case it so a timed
wake touches no waiter lists and no cancellation.

Users normally do not instantiate these classes directly; they call
:meth:`repro.sim.module.Module.add_thread` and
:meth:`repro.sim.module.Module.add_method`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, Iterable, List, Optional, Sequence, Union

from repro.errors import SchedulingError
from repro.sim.event import Event
from repro.sim.simtime import SimTime

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Kernel

__all__ = ["AnyOf", "Process", "ThreadProcess", "MethodProcess", "WaitSpec"]


class AnyOf:
    """Wait specification: resume when *any* of the given events fires."""

    __slots__ = ("events",)

    def __init__(self, events: Iterable[Event]) -> None:
        self.events: List[Event] = list(events)
        if not self.events:
            raise SchedulingError("AnyOf requires at least one event")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AnyOf({[e.name for e in self.events]})"


WaitSpec = Union[SimTime, Event, AnyOf, None]


class Process:
    """Common base for thread and method processes."""

    __slots__ = (
        "kernel",
        "name",
        "static_sensitivity",
        "terminated",
        "_pending_timeout",
        "_waiting_events",
    )

    def __init__(self, kernel: "Kernel", name: str) -> None:
        self.kernel = kernel
        self.name = name
        self.static_sensitivity: List[Event] = []
        self.terminated = False
        self._pending_timeout = None  # TimedEntry handle for a pending timed wait
        self._waiting_events: List[Event] = []

    # -- wiring -----------------------------------------------------------
    def set_sensitivity(self, events: Sequence[Event]) -> None:
        """Define the static sensitivity list of this process."""
        self.static_sensitivity = list(events)

    # -- kernel interface ---------------------------------------------------
    def start(self) -> None:
        """Called once at the start of simulation."""
        raise NotImplementedError

    def _advance(self) -> None:
        """Run the process up to its next wait; called by the kernel on a wake.

        A process woken by an event still waits on the rest of that wait
        (the other events of an :class:`AnyOf`); the kernel withdraws them
        with :meth:`_clear_waits` first.
        """
        raise NotImplementedError

    def kill(self) -> None:
        """Terminate the process, withdrawing any pending wait.

        The process is removed from every event waiter list and its pending
        timeout (if any) is cancelled, so nothing will ever resume it again.
        Killing an already terminated process is a no-op.
        """
        if self.terminated:
            return
        self.terminated = True
        self._clear_waits()

    def _clear_waits(self) -> None:
        if self._waiting_events:
            for event in self._waiting_events:
                event.remove_waiter(self)
            self._waiting_events = []
        if self._pending_timeout is not None:
            self.kernel.cancel_timed(self._pending_timeout)
            self._pending_timeout = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = type(self).__name__
        return f"{kind}({self.name!r}, terminated={self.terminated})"


class ThreadProcess(Process):
    """A generator-based process (SystemC ``SC_THREAD`` analogue)."""

    __slots__ = ("_func", "_generator")

    def __init__(
        self,
        kernel: "Kernel",
        name: str,
        func: Callable[[], Generator[WaitSpec, None, None]],
    ) -> None:
        super().__init__(kernel, name)
        self._func = func
        self._generator: Optional[Generator[WaitSpec, None, None]] = None

    def start(self) -> None:
        """Create the generator and run it up to its first wait."""
        if self.terminated:  # killed before the simulation started
            return
        result = self._func()
        if result is None:
            # A plain function with no yield: it ran to completion already.
            self.terminated = True
            return
        self._generator = result
        self._advance()

    def kill(self) -> None:
        """Terminate the thread, running its pending ``finally`` blocks.

        On top of the base cleanup the suspended generator is closed, which
        raises ``GeneratorExit`` at the suspension point — ``try/finally``
        cleanup in the generator (e.g. withdrawing a queued bus request)
        runs exactly as it would for ordinary generator disposal.

        A process may also kill *itself* (directly or through a synchronous
        call made from its own frame): the executing generator cannot be
        closed from within, so termination completes — and the ``finally``
        blocks run — when the generator reaches its next ``yield``.
        """
        if self.terminated:
            return
        super().kill()
        generator = self._generator
        if generator is None:
            return
        if generator.gi_running:
            return  # self-kill: _advance closes the generator at its next yield
        self._generator = None
        generator.close()

    # -- internals ----------------------------------------------------------
    def _advance(self) -> None:
        generator = self._generator
        if generator is None:
            self.terminated = True
            return
        try:
            spec = next(generator)
        except StopIteration:
            self.terminated = True
            return
        if self.terminated:
            # The process killed itself while executing; now that the
            # generator is suspended it can be closed (finally blocks run).
            self._generator = None
            generator.close()
            return
        if isinstance(spec, SimTime):
            # Dominant wait: a plain timed delay, no event registration.
            self._pending_timeout = self.kernel.schedule_process_timeout(self, spec)
            return
        self._arm(spec)

    def _arm(self, spec: WaitSpec) -> None:
        """Register the wait described by ``spec`` with the kernel."""
        if spec is None:
            if not self.static_sensitivity:
                raise SchedulingError(
                    f"process {self.name!r} yielded None but has no static sensitivity"
                )
            for event in self.static_sensitivity:
                event.add_waiter(self)
                self._waiting_events.append(event)
            return
        if isinstance(spec, SimTime):  # pragma: no cover - handled in _advance
            self._pending_timeout = self.kernel.schedule_process_timeout(self, spec)
            return
        if isinstance(spec, Event):
            spec.add_waiter(self)
            self._waiting_events.append(spec)
            return
        if isinstance(spec, AnyOf):
            for event in spec.events:
                event.add_waiter(self)
                self._waiting_events.append(event)
            return
        raise SchedulingError(
            f"process {self.name!r} yielded an invalid wait specification: {spec!r}"
        )


class MethodProcess(Process):
    """A callable re-run on every notification of its sensitivity list."""

    __slots__ = ("_func", "dont_initialize")

    def __init__(
        self,
        kernel: "Kernel",
        name: str,
        func: Callable[[], None],
        dont_initialize: bool = False,
    ) -> None:
        super().__init__(kernel, name)
        self._func = func
        self.dont_initialize = dont_initialize

    def start(self) -> None:
        """Run once at time zero (unless ``dont_initialize``) and re-arm."""
        if self.terminated:  # killed before the simulation started
            return
        self._rearm()
        if not self.dont_initialize:
            self._func()

    def _advance(self) -> None:
        self._rearm()
        self._func()

    def _rearm(self) -> None:
        for event in self.static_sensitivity:
            event.add_waiter(self)
