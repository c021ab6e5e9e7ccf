"""Unit tests for the discrete-event kernel: events, processes, scheduling."""

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim import AnyOf, Kernel, ns, us, ZERO_TIME


@pytest.fixture
def kernel():
    return Kernel()


class TestTimedWaits:
    def test_single_timed_wait(self, kernel):
        log = []

        def proc():
            log.append(("start", kernel.now.nanoseconds))
            yield ns(10)
            log.append(("after", kernel.now.nanoseconds))

        kernel.create_thread(proc, "proc")
        kernel.run()
        assert log == [("start", 0.0), ("after", 10.0)]

    def test_sequential_waits_accumulate(self, kernel):
        times = []

        def proc():
            for _ in range(5):
                yield ns(3)
                times.append(kernel.now.nanoseconds)

        kernel.create_thread(proc, "proc")
        kernel.run()
        assert times == [3.0, 6.0, 9.0, 12.0, 15.0]

    def test_run_with_duration_stops_at_end(self, kernel):
        ticks = []

        def proc():
            while True:
                yield ns(10)
                ticks.append(kernel.now.nanoseconds)

        kernel.create_thread(proc, "proc")
        end = kernel.run(ns(35))
        assert ticks == [10.0, 20.0, 30.0]
        assert end == ns(35)

    def test_run_is_resumable(self, kernel):
        ticks = []

        def proc():
            while True:
                yield ns(10)
                ticks.append(kernel.now.nanoseconds)

        kernel.create_thread(proc, "proc")
        kernel.run(ns(25))
        kernel.run(ns(25))
        assert ticks == [10.0, 20.0, 30.0, 40.0, 50.0]
        assert kernel.now == ns(50)

    def test_concurrent_tickers_each_fire_every_period(self, kernel):
        fired = {index: 0 for index in range(4)}

        def ticker(index):
            def proc():
                while True:
                    yield ns(100)
                    fired[index] += 1
            return proc

        for index in fired:
            kernel.create_thread(ticker(index), f"ticker{index}")
        kernel.run(us(500))
        assert fired == {index: 5000 for index in fired}

    def test_two_processes_interleave_deterministically(self, kernel):
        order = []

        def fast():
            while kernel.now < ns(30):
                yield ns(10)
                order.append(("fast", kernel.now.nanoseconds))

        def slow():
            while kernel.now < ns(30):
                yield ns(15)
                order.append(("slow", kernel.now.nanoseconds))

        kernel.create_thread(fast, "fast")
        kernel.create_thread(slow, "slow")
        kernel.run(ns(100))
        # At t=30 both processes are due; the one whose wait was scheduled
        # first (slow, armed at t=15) resumes first: insertion order is kept.
        assert order == [
            ("fast", 10.0),
            ("slow", 15.0),
            ("fast", 20.0),
            ("slow", 30.0),
            ("fast", 30.0),
        ]

    def test_starvation_ends_run_without_duration(self, kernel):
        def proc():
            yield ns(5)

        kernel.create_thread(proc, "proc")
        end = kernel.run()
        assert end == ns(5)
        assert not kernel.pending_activity


class TestEvents:
    def test_timed_event_wakes_waiter(self, kernel):
        event = kernel.event("go")
        log = []

        def waiter():
            yield event
            log.append(kernel.now.nanoseconds)

        def notifier():
            yield ns(7)
            event.notify()

        kernel.create_thread(waiter, "waiter")
        kernel.create_thread(notifier, "notifier")
        kernel.run()
        assert log == [7.0]

    def test_notify_after_delay(self, kernel):
        event = kernel.event("go")
        log = []

        def waiter():
            yield event
            log.append(kernel.now.nanoseconds)

        def notifier():
            event.notify_after(ns(42))
            return
            yield  # pragma: no cover

        kernel.create_thread(waiter, "waiter")
        kernel.create_thread(notifier, "notifier")
        kernel.run()
        assert log == [42.0]

    def test_delta_notification_keeps_time(self, kernel):
        event = kernel.event("go")
        log = []

        def waiter():
            yield event
            log.append(kernel.now.nanoseconds)

        def notifier():
            yield ns(5)
            event.notify_delta()

        kernel.create_thread(waiter, "waiter")
        kernel.create_thread(notifier, "notifier")
        kernel.run()
        assert log == [5.0]

    def test_any_of_wakes_on_first_event(self, kernel):
        early = kernel.event("early")
        late = kernel.event("late")
        log = []

        def waiter():
            yield AnyOf([early, late])
            log.append(kernel.now.nanoseconds)

        def notifier():
            early.notify_after(ns(3))
            late.notify_after(ns(9))
            return
            yield  # pragma: no cover

        kernel.create_thread(waiter, "waiter")
        kernel.create_thread(notifier, "notifier")
        kernel.run()
        assert log == [3.0]

    def test_any_of_withdraws_the_other_events(self, kernel):
        early = kernel.event("early")
        late = kernel.event("late")
        log = []

        def waiter():
            yield AnyOf([early, late])
            log.append(kernel.now.nanoseconds)
            assert late.waiter_count == 0
            # The late event fires mid-delay and must not cut it short.
            yield ns(20)
            log.append(kernel.now.nanoseconds)

        def notifier():
            early.notify_after(ns(3))
            late.notify_after(ns(9))
            return
            yield  # pragma: no cover

        kernel.create_thread(waiter, "waiter")
        kernel.create_thread(notifier, "notifier")
        kernel.run()
        assert log == [3.0, 23.0]

    def test_event_wait_is_one_shot(self, kernel):
        event = kernel.event("go")
        wakeups = []

        def waiter():
            yield event
            wakeups.append(kernel.now.nanoseconds)
            # Not waiting again: further notifications must not wake us.

        def notifier():
            yield ns(1)
            event.notify()
            yield ns(1)
            event.notify()

        kernel.create_thread(waiter, "waiter")
        kernel.create_thread(notifier, "notifier")
        kernel.run()
        assert wakeups == [1.0]

    def test_anyof_requires_events(self, kernel):
        with pytest.raises(SchedulingError):
            AnyOf([])


class TestMethodProcesses:
    def test_method_runs_on_each_notification(self, kernel):
        event = kernel.event("tick")
        calls = []

        kernel.create_method(lambda: calls.append(kernel.now.nanoseconds), [event], "m",
                             dont_initialize=True)

        def driver():
            for _ in range(3):
                yield ns(10)
                event.notify()

        kernel.create_thread(driver, "driver")
        kernel.run()
        assert calls == [10.0, 20.0, 30.0]

    def test_method_initialization_call(self, kernel):
        event = kernel.event("tick")
        calls = []
        kernel.create_method(lambda: calls.append(kernel.now.nanoseconds), [event], "m")
        kernel.run()
        assert calls == [0.0]


class TestKernelControl:
    def test_stop_halts_simulation(self, kernel):
        ticks = []

        def proc():
            while True:
                yield ns(10)
                ticks.append(kernel.now.nanoseconds)
                if len(ticks) == 3:
                    kernel.stop()

        kernel.create_thread(proc, "proc")
        kernel.run()
        assert ticks == [10.0, 20.0, 30.0]

    def test_run_not_reentrant(self, kernel):
        def proc():
            with pytest.raises(SimulationError):
                kernel.run()
            yield ns(1)

        kernel.create_thread(proc, "proc")
        kernel.run()

    def test_invalid_wait_spec_raises(self, kernel):
        def proc():
            yield "not a wait spec"

        kernel.create_thread(proc, "proc")
        with pytest.raises(SchedulingError):
            kernel.run()

    def test_yield_none_without_sensitivity_raises(self, kernel):
        def proc():
            yield None

        kernel.create_thread(proc, "proc")
        with pytest.raises(SchedulingError):
            kernel.run()

    def test_statistics_counted(self, kernel):
        def proc():
            for _ in range(4):
                yield ns(1)

        kernel.create_thread(proc, "proc")
        kernel.run()
        stats = kernel.stats.as_dict()
        assert stats["processes_created"] == 1
        assert stats["timed_notifications"] == 4
        assert stats["process_activations"] >= 5

    def test_process_registered_after_start_runs(self, kernel):
        log = []

        def late():
            yield ns(2)
            log.append(("late", kernel.now.nanoseconds))

        def spawner():
            yield ns(5)
            kernel.create_thread(late, "late")

        kernel.create_thread(spawner, "spawner")
        kernel.run()
        assert log == [("late", 7.0)]


class TestProcessKill:
    def test_kill_clears_a_pending_timed_wait(self, kernel):
        log = []

        def victim():
            yield us(10)
            log.append("victim")  # pragma: no cover - must not run

        def killer(process):
            def proc():
                yield us(1)
                process.kill()
            return proc

        process = kernel.create_thread(victim, "victim")
        kernel.create_thread(killer(process), "killer")
        kernel.run()
        assert log == []
        assert process.terminated
        assert not kernel.pending_activity

    def test_kill_removes_the_process_from_event_waiters(self, kernel):
        log = []
        event = kernel.event("gate")

        def victim():
            yield event
            log.append("victim")  # pragma: no cover - must not run

        def driver(process):
            def proc():
                yield us(1)
                process.kill()
                event.notify()
                yield us(1)
            return proc

        process = kernel.create_thread(victim, "victim")
        kernel.create_thread(driver(process), "driver")
        kernel.run()
        assert log == []
        assert event.waiter_count == 0

    def test_kill_runs_finally_blocks(self, kernel):
        cleanup = []

        def victim():
            try:
                yield us(10)
            finally:
                cleanup.append("cleaned")

        def killer(process):
            def proc():
                yield us(1)
                process.kill()
            return proc

        process = kernel.create_thread(victim, "victim")
        kernel.create_thread(killer(process), "killer")
        kernel.run()
        assert cleanup == ["cleaned"]

    def test_kill_is_idempotent_and_safe_after_termination(self, kernel):
        def short():
            yield ns(1)

        process = kernel.create_thread(short, "short")
        kernel.run()
        assert process.terminated
        process.kill()  # no-op
        process.kill()
        assert process.terminated

    def test_kill_before_start_prevents_any_execution(self, kernel):
        log = []

        def victim():
            log.append("started")
            yield ns(1)

        process = kernel.create_thread(victim, "victim")
        process.kill()
        kernel.run()
        assert log == []
        assert process.terminated

    def test_self_kill_terminates_at_the_next_yield(self, kernel):
        log = []
        cleanup = []
        holder = {}

        def victim():
            try:
                log.append("before")
                holder["p"].kill()  # self-kill from the executing frame
                log.append("after-kill")
                yield us(1)
                log.append("resumed")  # pragma: no cover - must not run
            finally:
                cleanup.append("cleaned")

        def bystander():
            yield us(5)
            log.append("bystander")

        holder["p"] = kernel.create_thread(victim, "victim")
        kernel.create_thread(bystander, "bystander")
        kernel.run()
        # The self-killing frame runs to its next yield, then terminates
        # with its finally blocks; the rest of the simulation continues.
        assert log == ["before", "after-kill", "bystander"]
        assert cleanup == ["cleaned"]
        assert holder["p"].terminated
