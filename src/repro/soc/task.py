"""Tasks: the unit of work a functional IP executes.

The paper groups the instructions an IP executes into *tasks* (sequences of
instructions).  The IP sends a task execution request to its LEM before each
task; the LEM decides the power state, the PSM applies it and only then does
the IP execute.

This module defines the task description (:class:`Task`), the four task
priority classes of the paper (:class:`TaskPriority`) and the execution
record (:class:`TaskExecution`) from which the evaluation metrics — average
delay overhead in particular — are computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from repro._enumtools import dense_index
from repro.errors import WorkloadError
from repro.power.characterization import InstructionClass
from repro.power.states import PowerState
from repro.sim.simtime import SimTime, ZERO_TIME, sec

__all__ = ["TaskPriority", "Task", "TaskExecution"]


class TaskPriority(Enum):
    """Task priority, "coded in 4 classes: Low, Medium, High and Very high"."""

    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"
    VERY_HIGH = "very_high"

    @property
    def rank(self) -> int:
        """Ordering helper: LOW=0 ... VERY_HIGH=3."""
        return self._idx

    def __str__(self) -> str:
        return self._str


dense_index(TaskPriority)  # _idx doubles as rank, _str for __str__; identity hash


@dataclass(frozen=True)
class Task:
    """Description of one task (a sequence of instructions).

    Parameters
    ----------
    name:
        Identifier used in traces and reports.
    cycles:
        Number of clock cycles the task needs (independent of the ON state;
        slower states stretch the wall-clock time, not the cycle count).
    priority:
        The task priority class the LEM rules consume.
    instruction_class:
        Dominant instruction type, which scales the energy per cycle.
    """

    name: str
    cycles: int
    priority: TaskPriority = TaskPriority.MEDIUM
    instruction_class: InstructionClass = InstructionClass.ALU

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkloadError("task name must be non-empty")
        if self.cycles <= 0:
            raise WorkloadError(f"task {self.name!r} must have a positive cycle count")

    def reference_duration(self, max_frequency_hz: float) -> SimTime:
        """Execution time at the maximum clock frequency (the paper's baseline)."""
        if max_frequency_hz <= 0.0:
            raise WorkloadError("maximum frequency must be positive")
        return sec(self.cycles / max_frequency_hz)


@dataclass
class TaskExecution:
    """Record of one executed task, filled in by the functional IP."""

    task: Task
    ip_name: str
    request_time: SimTime = ZERO_TIME
    grant_time: SimTime = ZERO_TIME
    completion_time: SimTime = ZERO_TIME
    power_state: Optional[PowerState] = None
    energy_j: float = 0.0
    reference_duration: SimTime = ZERO_TIME
    reference_energy_j: float = 0.0

    # -- derived figures -------------------------------------------------

    @property
    def execution_time(self) -> SimTime:
        """Time between the grant and the completion."""
        return self.completion_time - self.grant_time

    @property
    def total_latency(self) -> SimTime:
        """Time between the request and the completion."""
        return self.completion_time - self.request_time

    @property
    def delay_overhead(self) -> float:
        """Fractional delay overhead versus the maximum-frequency reference.

        A value of ``0.0`` means the task completed exactly as fast as the
        reference; ``3.0`` means it took four times as long (300 % overhead).
        """
        if self.reference_duration.is_zero:
            raise WorkloadError("reference duration is not set on this execution record")
        actual = self.total_latency.seconds
        reference = self.reference_duration.seconds
        return max(0.0, (actual - reference) / reference)

    @property
    def energy_saving(self) -> float:
        """Fractional energy saving versus the maximum-frequency reference."""
        if self.reference_energy_j <= 0.0:
            raise WorkloadError("reference energy is not set on this execution record")
        return (self.reference_energy_j - self.energy_j) / self.reference_energy_j

    def as_dict(self) -> dict:
        """Serializable summary of this execution."""
        return {
            "task": self.task.name,
            "ip": self.ip_name,
            "priority": str(self.task.priority),
            "cycles": self.task.cycles,
            "state": None if self.power_state is None else str(self.power_state),
            "request_time_s": self.request_time.seconds,
            "grant_time_s": self.grant_time.seconds,
            "completion_time_s": self.completion_time.seconds,
            "energy_j": self.energy_j,
            "delay_overhead": self.delay_overhead if not self.reference_duration.is_zero else None,
        }
