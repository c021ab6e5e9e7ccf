"""Workload generation.

The functional IP blocks of the paper's evaluation are "pure traffic
generators": each IP "executes a sequence of tasks or remains in idle state
for a fixed time", and "different types of input statistics have been
considered ... in some sequences the IP is often busy, in some it is often in
idle state".

A :class:`Workload` is an ordered list of :class:`WorkloadItem` entries, each
pairing a :class:`~repro.soc.task.Task` with the idle gap that follows it.
The generator functions below build the statistics used by the experiments:

* :func:`periodic_workload` — fixed task size, fixed idle gap;
* :func:`high_activity_workload` — short idle gaps, the "often busy" case;
* :func:`low_activity_workload` — long idle gaps, the "often idle" case;
* :func:`bursty_workload` — back-to-back bursts separated by long pauses;
* :func:`random_workload` — fully parameterised uniform-random traffic;
* :func:`scenario_a_workload` — the mixed sequence of the paper's rows A1–A4.

All random generators take an explicit seed so simulations are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.errors import WorkloadError
from repro.power.characterization import InstructionClass
from repro.sim.simtime import SimTime, ZERO_TIME, ms, us
from repro.soc.task import Task, TaskPriority

__all__ = [
    "WorkloadItem",
    "Workload",
    "periodic_workload",
    "random_workload",
    "high_activity_workload",
    "low_activity_workload",
    "bursty_workload",
    "scenario_a_workload",
]

#: The fields of one :meth:`Workload.as_dicts` entry.
_ITEM_FIELDS = frozenset({"task", "cycles", "priority", "instruction_class", "idle_after_fs"})


@dataclass(frozen=True)
class WorkloadItem:
    """One task plus the idle gap that separates it from the next request."""

    task: Task
    idle_after: SimTime = ZERO_TIME


@dataclass
class Workload:
    """An ordered sequence of workload items."""

    items: List[WorkloadItem] = field(default_factory=list)
    name: str = "workload"

    def __post_init__(self) -> None:
        for item in self.items:
            if not isinstance(item, WorkloadItem):
                raise WorkloadError("workload items must be WorkloadItem instances")

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[WorkloadItem]:
        return iter(self.items)

    def __getitem__(self, index: int) -> WorkloadItem:
        return self.items[index]

    # -- statistics -----------------------------------------------------------
    @property
    def task_count(self) -> int:
        """Number of tasks."""
        return len(self.items)

    @property
    def total_cycles(self) -> int:
        """Sum of the cycle counts of every task."""
        return sum(item.task.cycles for item in self.items)

    @property
    def total_idle(self) -> SimTime:
        """Sum of the idle gaps."""
        total = ZERO_TIME
        for item in self.items:
            total = total + item.idle_after
        return total

    def busy_fraction(self, max_frequency_hz: float) -> float:
        """Fraction of time the IP is busy when running at maximum frequency."""
        busy_s = self.total_cycles / max_frequency_hz
        idle_s = self.total_idle.seconds
        if busy_s + idle_s == 0.0:
            return 0.0
        return busy_s / (busy_s + idle_s)

    def priorities(self) -> List[TaskPriority]:
        """Priority of each task, in order."""
        return [item.task.priority for item in self.items]

    def with_priority(self, priority: TaskPriority) -> "Workload":
        """Copy of this workload with every task forced to ``priority``."""
        items = [
            WorkloadItem(
                Task(
                    name=item.task.name,
                    cycles=item.task.cycles,
                    priority=priority,
                    instruction_class=item.task.instruction_class,
                ),
                item.idle_after,
            )
            for item in self.items
        ]
        return Workload(items=items, name=f"{self.name}@{priority}")

    def scaled_idle(self, factor: float) -> "Workload":
        """Copy of this workload with every idle gap multiplied by ``factor``."""
        if factor < 0.0:
            raise WorkloadError("idle scaling factor must be non-negative")
        items = [WorkloadItem(item.task, item.idle_after * factor) for item in self.items]
        return Workload(items=items, name=f"{self.name}xidle{factor:g}")

    # -- (de)serialisation -------------------------------------------------------
    def as_dicts(self) -> List[dict]:
        """Serializable representation of every item.

        Idle gaps are stored as an exact femtosecond integer
        (``idle_after_fs``) so a round trip is lossless — campaign job hashes
        and platform-spec hashes depend on it.
        """
        return [
            {
                "task": item.task.name,
                "cycles": item.task.cycles,
                "priority": str(item.task.priority),
                "instruction_class": str(item.task.instruction_class),
                "idle_after_fs": item.idle_after.femtoseconds,
            }
            for item in self.items
        ]

    @staticmethod
    def from_dicts(entries: Iterable[dict], name: str = "workload") -> "Workload":
        """Rebuild a workload from :meth:`as_dicts` output.

        An entry without ``idle_after_fs`` has no idle gap; an unknown field
        (such as a float idle gap of an earlier format) is an error.
        """
        items = []
        for entry in entries:
            unknown = entry.keys() - _ITEM_FIELDS
            if unknown:
                raise WorkloadError(
                    f"workload {name!r}: unknown item field(s) {sorted(unknown)}; an item "
                    "has task, cycles, priority, instruction_class and idle_after_fs "
                    "(the idle gap in integer femtoseconds)"
                )
            task = Task(
                name=entry["task"],
                cycles=int(entry["cycles"]),
                priority=TaskPriority(entry.get("priority", "medium")),
                instruction_class=InstructionClass(entry.get("instruction_class", "alu")),
            )
            idle = SimTime(int(entry.get("idle_after_fs", 0)))
            items.append(WorkloadItem(task, idle))
        return Workload(items=items, name=name)


def _choose_priority(rng: random.Random, priorities: Sequence[TaskPriority]) -> TaskPriority:
    return priorities[rng.randrange(len(priorities))]


def periodic_workload(
    task_count: int,
    cycles: int = 100_000,
    idle: SimTime = ms(1),
    priority: TaskPriority = TaskPriority.MEDIUM,
    instruction_class: InstructionClass = InstructionClass.ALU,
    name: str = "periodic",
) -> Workload:
    """Identical tasks separated by identical idle gaps."""
    if task_count <= 0:
        raise WorkloadError("task count must be positive")
    items = [
        WorkloadItem(
            Task(f"{name}-{index}", cycles, priority, instruction_class),
            idle,
        )
        for index in range(task_count)
    ]
    return Workload(items=items, name=name)


def random_workload(
    task_count: int,
    seed: int = 0,
    cycles_range: Tuple[int, int] = (20_000, 200_000),
    idle_range: Tuple[SimTime, SimTime] = (us(200), ms(2)),
    priorities: Sequence[TaskPriority] = tuple(TaskPriority),
    instruction_classes: Sequence[InstructionClass] = tuple(InstructionClass),
    name: str = "random",
) -> Workload:
    """Uniform-random traffic with configurable ranges."""
    if task_count <= 0:
        raise WorkloadError("task count must be positive")
    if cycles_range[0] <= 0 or cycles_range[0] > cycles_range[1]:
        raise WorkloadError("invalid cycle range")
    if idle_range[0].femtoseconds > idle_range[1].femtoseconds:
        raise WorkloadError("invalid idle range")
    rng = random.Random(seed)
    items = []
    for index in range(task_count):
        cycles = rng.randint(cycles_range[0], cycles_range[1])
        idle_fs = rng.randint(idle_range[0].femtoseconds, idle_range[1].femtoseconds)
        task = Task(
            name=f"{name}-{index}",
            cycles=cycles,
            priority=_choose_priority(rng, priorities),
            instruction_class=instruction_classes[rng.randrange(len(instruction_classes))],
        )
        items.append(WorkloadItem(task, SimTime(idle_fs)))
    return Workload(items=items, name=name)


def high_activity_workload(
    task_count: int = 40,
    seed: int = 1,
    priorities: Sequence[TaskPriority] = tuple(TaskPriority),
    name: str = "high-activity",
) -> Workload:
    """The "often busy" statistic: long tasks, short idle gaps (~80 % busy)."""
    return random_workload(
        task_count=task_count,
        seed=seed,
        cycles_range=(80_000, 240_000),
        idle_range=(us(50), us(400)),
        priorities=priorities,
        name=name,
    )


def low_activity_workload(
    task_count: int = 40,
    seed: int = 2,
    priorities: Sequence[TaskPriority] = tuple(TaskPriority),
    name: str = "low-activity",
) -> Workload:
    """The "often idle" statistic: short tasks, long idle gaps (~15 % busy)."""
    return random_workload(
        task_count=task_count,
        seed=seed,
        cycles_range=(20_000, 80_000),
        idle_range=(ms(1), ms(4)),
        priorities=priorities,
        name=name,
    )


def bursty_workload(
    burst_count: int = 6,
    tasks_per_burst: int = 8,
    seed: int = 3,
    cycles_range: Tuple[int, int] = (40_000, 120_000),
    intra_burst_idle: SimTime = us(20),
    inter_burst_idle: SimTime = ms(6),
    priorities: Sequence[TaskPriority] = tuple(TaskPriority),
    name: str = "bursty",
) -> Workload:
    """Bursts of back-to-back tasks separated by long pauses.

    This is the statistic where predictive shutdown matters most: the long
    inter-burst gaps are worth a deep sleep state, the short intra-burst gaps
    are not.
    """
    if burst_count <= 0 or tasks_per_burst <= 0:
        raise WorkloadError("burst count and tasks per burst must be positive")
    rng = random.Random(seed)
    items: List[WorkloadItem] = []
    for burst in range(burst_count):
        for position in range(tasks_per_burst):
            cycles = rng.randint(cycles_range[0], cycles_range[1])
            last_in_burst = position == tasks_per_burst - 1
            idle = inter_burst_idle if last_in_burst else intra_burst_idle
            task = Task(
                name=f"{name}-{burst}-{position}",
                cycles=cycles,
                priority=_choose_priority(rng, priorities),
            )
            items.append(WorkloadItem(task, idle))
    return Workload(items=items, name=name)


def scenario_a_workload(seed: int = 11, task_count: int = 40) -> Workload:
    """The common task sequence of the single-IP scenarios A1–A4.

    Half of the sequence is busy (short idle gaps), half is idle-heavy (long
    gaps), matching the paper's "in some sequences the IP is often busy, in
    some it is often in idle state"; priorities are mixed so the Table-1 rows
    that depend on the priority are all exercised.
    """
    if task_count < 2:
        raise WorkloadError("the scenario A workload needs at least two tasks")
    busy = high_activity_workload(task_count=task_count // 2, seed=seed, name="A-busy")
    idle_heavy = low_activity_workload(
        task_count=task_count - task_count // 2, seed=seed + 1, name="A-idle"
    )
    return Workload(items=list(busy.items) + list(idle_heavy.items), name="scenario-A")
