"""Tests for tasks, priorities and workload generators."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import WorkloadError
from repro.power import InstructionClass, PowerState, default_characterization
from repro.sim import ms, us, ZERO_TIME
from repro.soc import (
    Task,
    TaskExecution,
    TaskPriority,
    Workload,
    WorkloadItem,
    bursty_workload,
    high_activity_workload,
    low_activity_workload,
    periodic_workload,
    random_workload,
)


def busy_fraction(workload, max_frequency_hz=200e6):
    """Share of the workload's time spent executing at ``max_frequency_hz``."""
    busy_s = workload.total_cycles / max_frequency_hz
    return busy_s / (busy_s + workload.total_idle.seconds)


class TestTaskPriority:
    def test_four_classes(self):
        assert len(TaskPriority) == 4

    def test_rank_ordering(self):
        assert TaskPriority.VERY_HIGH.rank > TaskPriority.HIGH.rank
        assert TaskPriority.HIGH.rank > TaskPriority.MEDIUM.rank
        assert TaskPriority.MEDIUM.rank > TaskPriority.LOW.rank


class TestTask:
    def test_valid_task(self):
        task = Task("t0", 1000, TaskPriority.HIGH, InstructionClass.DSP)
        assert task.cycles == 1000
        assert task.priority is TaskPriority.HIGH

    def test_invalid_tasks_rejected(self):
        with pytest.raises(WorkloadError):
            Task("", 1000)
        with pytest.raises(WorkloadError):
            Task("t0", 0)
        with pytest.raises(WorkloadError):
            Task("t0", -5)

    def test_reference_duration(self):
        task = Task("t0", 200_000)
        assert task.reference_duration(200e6).seconds == pytest.approx(1e-3)
        with pytest.raises(WorkloadError):
            task.reference_duration(0.0)


class TestTaskExecution:
    def test_delay_overhead(self):
        task = Task("t0", 200_000)
        record = TaskExecution(
            task=task,
            ip_name="ip0",
            request_time=ZERO_TIME,
            grant_time=us(100),
            completion_time=us(1100),
            reference_duration=us(1000),
            reference_energy_j=1.0,
            energy_j=0.5,
        )
        assert record.grant_time - record.request_time == us(100)
        assert record.execution_time == us(1000)
        assert record.total_latency == us(1100)
        assert record.delay_overhead == pytest.approx(0.1)
        assert record.energy_saving == pytest.approx(0.5)

    def test_missing_reference_rejected(self):
        record = TaskExecution(task=Task("t0", 10), ip_name="ip0")
        with pytest.raises(WorkloadError):
            record.delay_overhead  # noqa: B018
        with pytest.raises(WorkloadError):
            record.energy_saving  # noqa: B018

    def test_as_dict(self):
        record = TaskExecution(
            task=Task("t0", 10),
            ip_name="ip0",
            reference_duration=us(1),
            completion_time=us(2),
        )
        record.power_state = PowerState.ON2
        data = record.as_dict()
        assert data["task"] == "t0"
        assert data["state"] == "ON2"


class TestWorkloadContainer:
    def test_statistics(self):
        workload = periodic_workload(task_count=5, cycles=100_000, idle=ms(1))
        assert len(workload) == 5
        assert workload.total_cycles == 500_000
        assert workload.total_idle == ms(5)
        assert 0.0 < busy_fraction(workload) < 1.0

    def test_iteration_and_indexing(self):
        workload = periodic_workload(task_count=3)
        assert [item.task.name for item in workload] == [w.task.name for w in workload.items]
        assert workload[0].task.cycles == workload.items[0].task.cycles

    def test_with_priority(self):
        workload = periodic_workload(task_count=3, priority=TaskPriority.LOW)
        promoted = workload.with_priority(TaskPriority.VERY_HIGH)
        assert all(item.task.priority is TaskPriority.VERY_HIGH for item in promoted)
        # original untouched
        assert all(item.task.priority is TaskPriority.LOW for item in workload)

    def test_scaled_idle(self):
        workload = periodic_workload(task_count=3, idle=ms(1))
        scaled = workload.scaled_idle(2.0)
        assert scaled.total_idle == ms(6)
        with pytest.raises(WorkloadError):
            workload.scaled_idle(-1.0)

    def test_serialisation_round_trip(self):
        workload = random_workload(task_count=8, seed=3)
        rebuilt = Workload.from_dicts(workload.as_dicts(), name="rebuilt")
        assert rebuilt.task_count == workload.task_count
        assert rebuilt.total_cycles == workload.total_cycles
        assert [i.task.priority for i in rebuilt] == [i.task.priority for i in workload]

    def test_serialisation_is_lossless_to_the_femtosecond(self):
        # random_workload draws idle gaps at femtosecond granularity; a float
        # microsecond round trip used to destroy the low-order digits.
        workload = random_workload(task_count=16, seed=5)
        rebuilt = Workload.from_dicts(workload.as_dicts())
        assert [i.idle_after for i in rebuilt] == [i.idle_after for i in workload]
        # Stable representation: two round trips serialize identically (this
        # is what keeps campaign job hashes reproducible).
        assert rebuilt.as_dicts() == workload.as_dicts()

    def test_serialisation_rejects_legacy_microsecond_key(self):
        entries = [
            {"task": "t0", "cycles": 1000, "priority": "medium",
             "instruction_class": "alu", "idle_after_us": 2.5}
        ]
        with pytest.raises(WorkloadError, match="'idle_after_us'.*idle_after_fs"):
            Workload.from_dicts(entries)

    def test_serialisation_emits_only_the_lossless_key(self):
        workload = random_workload(task_count=3, seed=9)
        for entry in workload.as_dicts():
            assert "idle_after_fs" in entry
            assert "idle_after_us" not in entry

    def test_invalid_items_rejected(self):
        with pytest.raises(WorkloadError):
            Workload(items=["not an item"])


class TestGenerators:
    def test_periodic_workload_valid(self):
        workload = periodic_workload(task_count=4, cycles=1000)
        assert all(item.task.cycles == 1000 for item in workload)
        with pytest.raises(WorkloadError):
            periodic_workload(task_count=0)

    def test_random_workload_determinism(self):
        first = random_workload(task_count=20, seed=7)
        second = random_workload(task_count=20, seed=7)
        assert first.as_dicts() == second.as_dicts()
        different = random_workload(task_count=20, seed=8)
        assert first.as_dicts() != different.as_dicts()

    def test_random_workload_validation(self):
        with pytest.raises(WorkloadError):
            random_workload(task_count=0)
        with pytest.raises(WorkloadError):
            random_workload(task_count=1, cycles_range=(100, 10))
        with pytest.raises(WorkloadError):
            random_workload(task_count=1, idle_range=(ms(2), ms(1)))

    def test_activity_levels_differ(self):
        busy = high_activity_workload(task_count=30, seed=1)
        idle = low_activity_workload(task_count=30, seed=1)
        assert busy_fraction(busy) > 0.5
        assert busy_fraction(idle) < 0.3

    def test_bursty_structure(self):
        workload = bursty_workload(burst_count=3, tasks_per_burst=4)
        assert len(workload) == 12
        # Last item of each burst carries the long inter-burst idle.
        idles = [item.idle_after for item in workload]
        assert idles[3] > idles[0]
        assert idles[7] > idles[4]
        with pytest.raises(WorkloadError):
            bursty_workload(burst_count=0)

    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=10_000))
    def test_random_workload_sizes(self, count, seed):
        workload = random_workload(task_count=count, seed=seed)
        assert workload.task_count == count
        assert workload.total_cycles > 0
        assert all(item.task.cycles > 0 for item in workload)
