"""SoC substrate: tasks, workloads, functional IPs, the bus and the SoC
builder that wires everything together (Fig. 1 of the paper)."""

from repro.soc.bus import Bus, BusLevel, BusRequest, BusStatistics, BusThresholds
from repro.soc.ip import FunctionalIP
from repro.soc.soc import IpInstance, IpSpec, SoC, SocConfig, build_soc
from repro.soc.task import Task, TaskExecution, TaskPriority
from repro.soc.workload import (
    Workload,
    WorkloadItem,
    bursty_workload,
    high_activity_workload,
    low_activity_workload,
    periodic_workload,
    random_workload,
)

__all__ = [
    "Bus",
    "BusLevel",
    "BusRequest",
    "BusStatistics",
    "BusThresholds",
    "FunctionalIP",
    "IpInstance",
    "IpSpec",
    "SoC",
    "SocConfig",
    "Task",
    "TaskExecution",
    "TaskPriority",
    "Workload",
    "WorkloadItem",
    "build_soc",
    "bursty_workload",
    "high_activity_workload",
    "low_activity_workload",
    "periodic_workload",
    "random_workload",
]
