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


class TestStatisticsByHand:
    """Every ``KernelStatistics`` counter of small runs, counted by hand."""

    def test_mixed_process_set(self, kernel):
        from repro.sim import Signal

        log = []
        e2, e3, d = kernel.event("e2"), kernel.event("e3"), kernel.event("d")
        watched = Signal(kernel, "watched", 0)
        unwatched = Signal(kernel, "unwatched", 0)
        extra = kernel.event("extra")  # 6 events: 4 here + 2 changed events

        def driver():
            yield ns(10)                 # timed 1
            watched.write(1)             # update with a waiter (the method)
            unwatched.write(1)           # update without waiters
            e2.notify()                  # immediate: wakes the AnyOf waiter
            d.notify(ZERO_TIME)          # delta: wakes the event waiter
            yield ns(10)                 # timed 2
            watched.write(2)
            e3.notify(ns(5))             # timed 3: fires with nobody waiting
            kernel.stop()                # the method wake is left runnable
            yield ns(10)                 # timed 4

        def event_waiter():
            yield d
            log.append(("d", kernel.now.nanoseconds))

        def any_waiter():
            yield AnyOf([e2, e3])
            log.append(("any", kernel.now.nanoseconds, e3.waiter_count))

        def method():
            log.append(("method", kernel.now.nanoseconds, watched.read()))

        kernel.create_thread(driver, "driver")
        kernel.create_thread(event_waiter, "event_waiter")
        kernel.create_thread(any_waiter, "any_waiter")
        kernel.create_method(method, [watched.changed_event], "method", dont_initialize=True)
        assert extra.waiter_count == 0

        # initialise: 4 starts.  t=10: delta 1 runs driver and any_waiter and
        # updates both signals; delta 2 runs event_waiter and the method.
        # t=20: delta 3 runs driver, whose stop() ends the run with the
        # method runnable again.
        assert kernel.run() == ns(20)
        assert kernel.stats.as_dict() == {
            "process_activations": 9,
            "delta_cycles": 3,
            "timed_notifications": 4,
            "immediate_notifications": 1,
            "signal_updates": 3,
            "events_created": 6,
            "processes_created": 4,
            "time_advances": 2,
        }
        # Resumed: delta 4 runs the method at t=20; t=25 fires e3 into no
        # waiter (no delta cycle); t=30 delta 5 ends the driver.
        assert kernel.run() == ns(30)
        assert kernel.stats.as_dict() == {
            "process_activations": 11,
            "delta_cycles": 5,
            "timed_notifications": 4,
            "immediate_notifications": 1,
            "signal_updates": 3,
            "events_created": 6,
            "processes_created": 4,
            "time_advances": 4,
        }
        assert log == [
            ("any", 10.0, 0),
            ("d", 10.0),
            ("method", 10.0, 1),
            ("method", 20.0, 2),
        ]

    def test_a_delta_cycle_with_nothing_to_evaluate_is_counted(self, kernel):
        from repro.sim import Signal

        signal = Signal(kernel, "s", 0)
        signal.write(1)                          # an update nobody watches
        kernel.event("e").notify(ZERO_TIME)      # a delta nobody waits on
        assert kernel.run() == ZERO_TIME
        stats = kernel.stats
        assert (stats.delta_cycles, stats.process_activations, stats.signal_updates) == (1, 0, 1)
        assert stats.time_advances == 0

    def test_counters_are_flushed_when_a_process_raises(self, kernel):
        def ticker():
            while True:
                yield ns(1)

        def failing():
            yield ns(2)
            raise RuntimeError("boom")

        kernel.create_thread(ticker, "ticker")
        kernel.create_thread(failing, "failing")
        with pytest.raises(RuntimeError):
            kernel.run()
        # Starts (2) and t=1 (1); at t=2 the failing process, queued
        # first, raises before the ticker runs.
        assert kernel.now == ns(2)
        assert kernel.stats.process_activations == 3
        assert kernel.stats.delta_cycles == 1
        assert kernel.stats.time_advances == 2
        assert kernel.stats.timed_notifications == 3


class TestEndRunBy:
    """``Kernel.end_run_by`` can only pull the end of a run in."""

    def make_ticker(self, kernel, ticks, hook=None):
        def ticker():
            while True:
                yield ns(10)
                ticks.append(kernel.now_fs)
                if hook is not None:
                    hook(len(ticks))

        kernel.create_thread(ticker, "ticker")

    def test_pulls_the_end_in_and_runs_activity_due_at_it(self, kernel):
        ticks = []
        self.make_ticker(kernel, ticks, lambda n: n == 2 and kernel.end_run_by(int(ns(40))))
        assert kernel.run(ns(100)) == ns(40)
        assert ticks == [int(ns(t)) for t in (10, 20, 30, 40)]

    def test_a_later_end_is_ignored(self, kernel):
        ticks = []

        def hook(n):
            if n == 1:
                kernel.end_run_by(int(ns(30)))
            elif n == 2:
                kernel.end_run_by(int(ns(90)))  # later than the current end

        self.make_ticker(kernel, ticks, hook)
        assert kernel.run(ns(100)) == ns(30)
        assert len(ticks) == 3

    def test_ends_an_unbounded_run(self, kernel):
        ticks = []
        self.make_ticker(kernel, ticks, lambda n: n == 1 and kernel.end_run_by(int(ns(25))))
        assert kernel.run() == ns(25)
        assert len(ticks) == 2

    def test_the_end_lasts_only_for_one_run(self, kernel):
        ticks = []
        self.make_ticker(kernel, ticks, lambda n: n == 1 and kernel.end_run_by(int(ns(10))))
        assert kernel.run(ns(50)) == ns(10)
        assert kernel.run(ns(50)) == ns(60)
        assert len(ticks) == 6

    def test_rejects_the_past_and_calls_outside_a_run(self, kernel):
        seen = []

        def proc():
            yield ns(20)
            with pytest.raises(SchedulingError):
                kernel.end_run_by(int(ns(10)))
            seen.append(kernel.now)

        kernel.create_thread(proc, "proc")
        with pytest.raises(SimulationError):
            kernel.end_run_by(int(ns(5)))
        assert kernel.run(ns(100)) == ns(100)
        assert seen == [ns(20)]
