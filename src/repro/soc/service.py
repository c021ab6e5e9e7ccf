"""Service requests between IP blocks.

The paper's functional IPs execute tasks "on the basis of some external
service requests coming from the other IP blocks or from outside the SoC".
The Table-2 experiments drive each IP with a pre-generated workload, but the
library also supports the request-driven mode through a simple channel:

* :class:`ServiceRequest` — a task wrapped with its originator and timestamp;
* :class:`ServiceChannel` — an unbounded FIFO with an event that wakes the
  consumer, usable directly from thread processes;
* :class:`ServiceRequestGenerator` — a module that converts a workload into
  service requests pushed onto a channel (i.e. a traffic source "outside the
  SoC").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional

from repro.errors import WorkloadError
from repro.sim.event import Event
from repro.sim.kernel import Kernel
from repro.sim.module import Module
from repro.sim.process import WaitSpec
from repro.sim.simtime import SimTime, ZERO_TIME
from repro.soc.task import Task
from repro.soc.workload import Workload

__all__ = ["ServiceRequest", "ServiceChannel", "ServiceRequestGenerator"]


@dataclass(frozen=True)
class ServiceRequest:
    """One request for a task execution, sent to an IP."""

    task: Task
    source: str = "external"
    issue_time: SimTime = ZERO_TIME


class ServiceChannel:
    """Unbounded FIFO of service requests with a not-empty event."""

    def __init__(self, kernel: Kernel, name: str = "service") -> None:
        self._kernel = kernel
        self.name = name
        self._queue: List[ServiceRequest] = []
        self.request_event: Event = kernel.event(f"{name}.request")
        self._closed = False
        self._pushed = 0
        self._popped = 0

    # -- producer side ------------------------------------------------------
    def push(self, request: ServiceRequest) -> None:
        """Append a request and wake the consumer."""
        if self._closed:
            raise WorkloadError(f"service channel {self.name!r} is closed")
        self._queue.append(request)
        self._pushed += 1
        self.request_event.notify()

    def push_task(self, task: Task, source: str = "external") -> None:
        """Convenience wrapper building the :class:`ServiceRequest`."""
        self.push(ServiceRequest(task=task, source=source, issue_time=self._kernel.now))

    def close(self) -> None:
        """Mark the channel as finished; consumers drain and stop."""
        self._closed = True
        self.request_event.notify()

    # -- consumer side ----------------------------------------------------------
    @property
    def is_closed(self) -> bool:
        """True once the producer called :meth:`close`."""
        return self._closed

    @property
    def pending(self) -> int:
        """Number of queued, not yet consumed requests."""
        return len(self._queue)

    @property
    def pushed_count(self) -> int:
        """Total number of requests ever pushed."""
        return self._pushed

    @property
    def popped_count(self) -> int:
        """Total number of requests consumed."""
        return self._popped

    def try_pop(self) -> Optional[ServiceRequest]:
        """Pop the oldest request, or ``None`` when the queue is empty."""
        if not self._queue:
            return None
        self._popped += 1
        return self._queue.pop(0)

    def wait_and_pop(self) -> Generator[WaitSpec, None, Optional[ServiceRequest]]:
        """Generator helper: wait until a request is available and pop it.

        Returns ``None`` if the channel is closed and drained.  Use as
        ``request = yield from channel.wait_and_pop()``.
        """
        while True:
            request = self.try_pop()
            if request is not None:
                return request
            if self._closed:
                return None
            yield self.request_event


class ServiceRequestGenerator(Module):
    """Pushes the tasks of a workload onto a channel with their idle gaps."""

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        workload: Workload,
        channel: ServiceChannel,
        source: str = "external",
        close_when_done: bool = True,
        parent: Optional[Module] = None,
    ) -> None:
        super().__init__(kernel, name, parent)
        self.workload = workload
        self.channel = channel
        self.source = source
        self.close_when_done = close_when_done
        self.issued = 0
        self.add_thread(self._generate, name="generate")

    def _generate(self) -> Generator[WaitSpec, None, None]:
        for item in self.workload:
            self.channel.push_task(item.task, source=self.source)
            self.issued += 1
            if item.idle_after.femtoseconds > 0:
                yield item.idle_after
        if self.close_when_done:
            self.channel.close()
