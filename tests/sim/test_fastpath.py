"""Tests for the event-driven fast path: clocks without a toggling process,
the integer-femtosecond timed queue (lazy-cancellation compaction), and determinism of
simultaneous timed notifications."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.sim import Clock, Kernel, fs, ns, us
from repro.sim.event import TimedQueue


class TestTimedQueueCompaction:
    def test_len_counts_live_entries_only(self):
        queue = TimedQueue()
        handles = [queue.push(100 + i, object()) for i in range(10)]
        assert len(queue) == 10
        for handle in handles[:4]:
            queue.cancel(handle)
        assert len(queue) == 6
        # Cancelling twice is a no-op.
        queue.cancel(handles[0])
        assert len(queue) == 6

    def test_cancelled_entries_do_not_leak_heap_slots(self):
        queue = TimedQueue()
        live = queue.push(10**9, "live")
        dead = []
        # Push/cancel far more entries than the compaction threshold; without
        # compaction the heap would keep every slot until pop time.
        for i in range(10 * TimedQueue.COMPACT_THRESHOLD):
            dead.append(queue.push(1000 + i, i))
            queue.cancel(dead[-1])
        assert len(queue) == 1
        assert len(queue._heap) <= 2 * TimedQueue.COMPACT_THRESHOLD
        assert queue.next_time_fs() == 10**9
        assert queue.pop_due(10**9) == ["live"]
        assert live[3]  # consumed handles read as cancelled

    def test_compaction_preserves_pop_order(self):
        reference = TimedQueue()
        compacted = TimedQueue()
        times = [5, 3, 3, 9, 1, 7, 3, 9, 2, 8] * 30
        ref_handles, cmp_handles = [], []
        for index, when in enumerate(times):
            ref_handles.append(reference.push(when, (when, index)))
            cmp_handles.append(compacted.push(when, (when, index)))
        # Cancel the same arbitrary subset in both queues; only the compacted
        # queue is pushed over the compaction threshold afterwards.
        for index in range(0, len(times), 3):
            reference.cancel(ref_handles[index])
            compacted.cancel(cmp_handles[index])
        extra = [compacted.push(10_000 + i, None) for i in range(2 * TimedQueue.COMPACT_THRESHOLD)]
        for handle in extra:
            compacted.cancel(handle)

        def drain(queue):
            order = []
            while True:
                when = queue.next_time_fs()
                if when is None:
                    return order
                order.extend(queue.pop_due(when))
        assert drain(compacted) == drain(reference)

    def test_kernel_pending_activity_ignores_cancelled_only_timed_entries(self):
        kernel = Kernel()
        event = kernel.event("never")
        handle = kernel.schedule_timed(event, ns(100))
        assert len(kernel._timed) == 1
        kernel.cancel_timed(handle)
        # Cancelled-only entries are not live work: the queue reports none.
        assert len(kernel._timed) == 0


class TestSimultaneousTimedDeterminism:
    @given(
        delays=st.lists(
            st.integers(min_value=1, max_value=8), min_size=2, max_size=24
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_same_instant_notifications_fire_in_schedule_order(self, delays):
        """Timed notifications maturing at the same instant preserve the
        order in which they were scheduled, mixing event notifications and
        process timeouts, across repeated runs."""

        def run_once():
            kernel = Kernel()
            log = []

            def waiter(index, event):
                def proc():
                    yield event
                    log.append(("event", index, int(kernel.now)))
                return proc

            def sleeper(index, delay):
                def proc():
                    yield ns(delay)
                    log.append(("timeout", index, int(kernel.now)))
                return proc

            events = []
            for index, delay in enumerate(delays):
                if index % 2 == 0:
                    event = kernel.event(f"e{index}")
                    events.append((event, delay))
                    kernel.create_thread(waiter(index, event), f"w{index}")
                else:
                    kernel.create_thread(sleeper(index, delay), f"s{index}")
            # Schedule the event notifications after the threads exist so the
            # waiters are armed; notify_after shares the timed queue with the
            # process timeouts above.
            def scheduler():
                for event, delay in events:
                    event.notify_after(ns(delay))
                return
                yield  # pragma: no cover - makes this a generator

            kernel.create_thread(scheduler, "scheduler")
            kernel.run()
            return log

        first = run_once()
        second = run_once()
        assert first == second
        # All notifications matured, and within one instant the wake order
        # follows the scheduling order (stable by sequence number).
        assert len(first) == len(delays)
        times = [entry[2] for entry in first]
        assert times == sorted(times)


class TestVirtualClock:
    def test_virtual_clock_creates_no_activity(self):
        kernel = Kernel()
        clock = Clock(kernel, "clk", period=ns(10))
        kernel.initialize()
        assert not clock.processes and not clock.signals
        assert not (kernel._runnable or kernel._delta_events or kernel._update_queue or len(kernel._timed))
        # Edges are computed, never simulated.
        kernel.run(us(1))
        assert clock.next_posedge_fs(kernel.now_fs) == int(us(1))
        assert kernel.stats.process_activations == 0

    def test_duty_cycle_phases_sum_to_period_exactly(self):
        kernel = Kernel()
        # Adversarial period (prime femtosecond count) and duty cycle: the
        # high phase rounds, the low phase must absorb the remainder.
        period = fs(10_000_019)
        clock = Clock(kernel, "clk", period=period, duty_cycle=1.0 / 3.0)
        assert clock._high_time + clock._low_time == period

    def test_invalid_parameters_rejected(self):
        kernel = Kernel()
        with pytest.raises(ConfigurationError):
            Clock(kernel, "clk", period=ns(0))
        with pytest.raises(ConfigurationError):
            Clock(kernel, "clk2", period=ns(10), duty_cycle=1.5)
