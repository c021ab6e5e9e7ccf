"""Conformance and resolution tests for the compiled kernel core.

The native backend replaces exactly one data structure — the timed
notification heap — so its contract is narrow and testable in isolation:
for any interleaving of ``push``/``cancel``/``pop_due`` the compiled queue
must report the same lengths, the same ``next_time_fs`` and the same pop
*order* (ties included: entries at one instant pop in push order) as the
pure-Python reference.  On top sit the resolution rules (``python`` /
``native`` / ``auto`` / ``REPRO_SIM_BACKEND``) and a whole-kernel
equivalence check.
"""

import random

import pytest

from repro.errors import ConfigurationError
from repro.sim import Kernel, Simulator, us
from repro.sim import native
from repro.sim.event import TimedQueue as PythonQueue
from repro.sim.native import BackendResolution, available, resolve_backend

requires_native = pytest.mark.skipif(
    not available(), reason="native core extension not built"
)


def native_queue():
    return native.load().TimedQueue()


# ----------------------------------------------------------------------
# Queue conformance
# ----------------------------------------------------------------------
@requires_native
class TestQueueConformance:
    def test_fifo_order_among_ties(self):
        """Entries at the same femtosecond pop in push order."""
        py, nat = PythonQueue(), native_queue()
        for queue in (py, nat):
            for tag in range(20):
                queue.push(100, ("tie", tag))
            queue.push(50, "early")
        assert nat.pop_due(50) == py.pop_due(50) == ["early"]
        assert nat.pop_due(100) == py.pop_due(100) == [("tie", i) for i in range(20)]
        assert len(nat) == len(py) == 0

    def test_cancelled_entries_never_pop(self):
        py, nat = PythonQueue(), native_queue()
        handles = [(py.push(10 * i, i), nat.push(10 * i, i)) for i in range(10)]
        for py_handle, nat_handle in handles[::2]:
            py.cancel(py_handle)
            nat.cancel(nat_handle)
        for when in range(0, 100, 10):
            assert nat.pop_due(when) == py.pop_due(when)

    def test_cancel_after_pop_is_a_noop(self):
        nat = native_queue()
        handle = nat.push(5, "x")
        assert nat.pop_due(5) == ["x"]
        nat.cancel(handle)  # must not corrupt counters
        assert len(nat) == 0
        assert nat.next_time_fs() is None

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_randomized_interleaving_matches_reference(self, seed):
        """The load-bearing check: thousands of random operations, compared
        step by step — pop order, earliest time, live length, heap slots
        (the compaction policy is part of the contract)."""
        rng = random.Random(seed)
        py, nat = PythonQueue(), native_queue()
        live = []  # (py_handle, nat_handle) pairs still cancellable
        clock = 0
        for step in range(5000):
            roll = rng.random()
            if roll < 0.55:
                when = clock + rng.randrange(0, 50)
                payload = step
                live.append((py.push(when, payload), nat.push(when, payload)))
            elif roll < 0.85 and live:
                py_handle, nat_handle = live.pop(rng.randrange(len(live)))
                py.cancel(py_handle)
                nat.cancel(nat_handle)
            else:
                py_next = py.next_time_fs()
                nat_next = nat.next_time_fs()
                assert nat_next == py_next
                if py_next is not None:
                    clock = py_next
                    assert nat.pop_due(clock) == py.pop_due(clock)
            assert len(nat) == len(py)
            assert nat.heap_size == py.heap_size
        # Drain completely; the full remaining order must agree.
        while (when := py.next_time_fs()) is not None:
            assert nat.next_time_fs() == when
            assert nat.pop_due(when) == py.pop_due(when)
        assert nat.next_time_fs() is None
        assert len(nat) == 0

    def test_compact_threshold_parity(self):
        assert native_queue().COMPACT_THRESHOLD == PythonQueue.COMPACT_THRESHOLD

    def test_push_beyond_int64_femtoseconds_raises(self):
        nat = native_queue()
        with pytest.raises(OverflowError):
            nat.push(2**63, "too far")
        # ~9.2e3 simulated seconds is fine.
        nat.push(2**63 - 1, "edge")
        assert nat.next_time_fs() == 2**63 - 1

    def test_entry_handle_exposes_state(self):
        nat = native_queue()
        handle = nat.push(42, "payload")
        assert handle.when_fs == 42
        assert handle.payload == "payload"
        assert not handle.cancelled
        nat.cancel(handle)
        assert handle.cancelled


# ----------------------------------------------------------------------
# Backend resolution
# ----------------------------------------------------------------------
class TestResolveBackend:
    def test_python_is_the_default(self, monkeypatch):
        monkeypatch.delenv(native.ENV_VAR, raising=False)
        resolution = resolve_backend()
        assert resolution == BackendResolution("python", "python")
        assert not resolution.fell_back
        assert resolution.describe() == "python"

    def test_environment_variable_is_consulted(self, monkeypatch):
        monkeypatch.setenv(native.ENV_VAR, "python")
        assert resolve_backend().backend == "python"
        monkeypatch.setenv(native.ENV_VAR, "auto")
        assert resolve_backend().requested == "auto"

    def test_explicit_argument_wins_over_environment(self, monkeypatch):
        monkeypatch.setenv(native.ENV_VAR, "native")
        assert resolve_backend("python") == BackendResolution("python", "python")

    def test_unknown_backend_is_rejected(self, monkeypatch):
        with pytest.raises(ConfigurationError):
            resolve_backend("fortran")
        monkeypatch.setenv(native.ENV_VAR, "fortran")
        with pytest.raises(ConfigurationError):
            resolve_backend()

    def test_native_falls_back_with_a_reason(self, monkeypatch):
        monkeypatch.setattr(native, "_probe", (None, "compiled core not importable: no build"))
        resolution = resolve_backend("native")
        assert resolution.backend == "python"
        assert resolution.fell_back
        assert "no build" in resolution.describe()

    def test_auto_falls_back_silently(self, monkeypatch):
        monkeypatch.setattr(native, "_probe", (None, "compiled core not importable: no build"))
        resolution = resolve_backend("auto")
        assert resolution == BackendResolution("python", "auto")
        assert not resolution.fell_back

    @requires_native
    def test_native_resolves_when_built(self):
        assert resolve_backend("native") == BackendResolution("native", "native")
        assert resolve_backend("auto") == BackendResolution("native", "auto")


# ----------------------------------------------------------------------
# Kernel integration
# ----------------------------------------------------------------------
class TestKernelBackend:
    def test_kernel_records_its_resolution(self):
        kernel = Kernel(backend="python")
        assert kernel.backend == "python"
        assert kernel.backend_resolution.requested == "python"

    def test_simulator_report_carries_the_backend(self):
        simulator = Simulator(backend="python")
        simulator.kernel.run(us(1))
        assert simulator.backend == "python"
        assert simulator.backend_resolution.requested == "python"

    def test_unknown_backend_raises_at_construction(self):
        with pytest.raises(ConfigurationError):
            Kernel(backend="fortran")

    @requires_native
    def test_native_kernel_uses_the_compiled_queue(self):
        kernel = Kernel(backend="native")
        assert kernel.backend == "native"
        assert type(kernel._timed).__module__ == "repro.sim._nativecore"

    @requires_native
    def test_identical_wake_trace_on_both_backends(self):
        """One schedule, both backends: every process wakes at the same
        femtosecond in the same order, cancellations included."""

        def run(backend):
            kernel = Kernel(backend=backend)
            trace = []

            def poller(name, period_us):
                def proc():
                    while True:
                        yield us(period_us)
                        trace.append((name, kernel.now_fs))
                return proc

            def canceller():
                timer = kernel.event("t")
                handle = kernel.schedule_timed(timer, us(7))
                yield us(3)
                kernel.cancel_timed(handle)
                trace.append(("cancelled", kernel.now_fs))
                yield timer  # never fires; thread parks forever

            for name, period in (("a", 3), ("b", 5), ("c", 7)):
                kernel.create_thread(poller(name, period), name)
            kernel.create_thread(canceller, "canceller")
            kernel.run(us(200))
            return trace

        assert run("native") == run("python")
