"""Tests for signals, modules and the clock."""

import pytest

from repro.errors import ConfigurationError, ElaborationError
from repro.sim import (
    Clock,
    Kernel,
    Module,
    Signal,
    Simulator,
    ns,
)


@pytest.fixture
def kernel():
    return Kernel()


class TestSignalSemantics:
    def test_write_is_not_visible_until_update(self, kernel):
        sig = Signal(kernel, "s", 0)
        observed = []

        def writer():
            sig.write(42)
            observed.append(("writer-after-write", sig.read()))
            yield ns(1)
            observed.append(("writer-next-time", sig.read()))

        kernel.create_thread(writer, "writer")
        kernel.run()
        assert observed == [("writer-after-write", 0), ("writer-next-time", 42)]

    def test_changed_event_fires_only_on_change(self, kernel):
        sig = Signal(kernel, "s", 5)
        wakeups = []

        def watcher():
            while True:
                yield sig.changed_event
                wakeups.append((kernel.now_fs / 1e6, sig.read()))

        def driver():
            yield ns(1)
            sig.write(5)   # no change: no wakeup
            yield ns(1)
            sig.write(7)   # change
            yield ns(1)
            sig.write(7)   # no change
            yield ns(1)
            sig.write(9)   # change

        kernel.create_thread(watcher, "watcher")
        kernel.create_thread(driver, "driver")
        kernel.run()
        assert wakeups == [(2.0, 7), (4.0, 9)]
        assert sig.read() == 9
        # Writes of the visible value request no update at all.
        assert kernel.stats.signal_updates == 2

    def test_last_write_in_delta_wins(self, kernel):
        sig = Signal(kernel, "s", 0)

        def writer():
            sig.write(1)
            sig.write(2)
            sig.write(3)
            yield ns(1)

        kernel.create_thread(writer, "writer")
        kernel.run()
        assert sig.read() == 3
        # Three writes in one delta cycle, one update.
        assert kernel.stats.signal_updates == 1


class TestModules:
    def test_hierarchy_and_names(self, kernel):
        top = Module(kernel, "top")
        child = Module(kernel, "child", parent=top)
        grandchild = Module(kernel, "leaf", parent=child)
        assert grandchild.name == "top.child.leaf"
        assert [m.name for m in top.walk()] == ["top", "top.child", "top.child.leaf"]
        assert top.find("child.leaf") is grandchild

    def test_duplicate_child_name_rejected(self, kernel):
        top = Module(kernel, "top")
        Module(kernel, "a", parent=top)
        with pytest.raises(ElaborationError):
            Module(kernel, "a", parent=top)

    def test_empty_name_rejected(self, kernel):
        with pytest.raises(ElaborationError):
            Module(kernel, "")

    def test_find_missing_raises(self, kernel):
        top = Module(kernel, "top")
        with pytest.raises(ElaborationError):
            top.find("ghost")

    def test_module_signal_names_are_hierarchical(self, kernel):
        top = Module(kernel, "top")
        sig = top.signal("state", 0)
        assert sig.name == "top.state"

    def test_design_tree_contains_children(self, kernel):
        top = Module(kernel, "top")
        Module(kernel, "child", parent=top)
        tree = top.design_tree()
        assert "top" in tree and "child" in tree


class TestSimulatorFacade:
    def test_simulator_runs_module_processes(self):
        sim = Simulator()
        kernel = sim.kernel

        class Counter(Module):
            def __init__(self, kernel, name):
                super().__init__(kernel, name)
                self.count = self.signal("count", 0)
                self.add_thread(self._run)

            def _run(self):
                while True:
                    yield ns(10)
                    self.count.write(self.count.read() + 1)

        counter = sim.add_module(Counter(kernel, "counter"))
        sim.kernel.run(ns(55))
        assert counter.count.read() == 5

    def test_add_module_rejects_non_top(self):
        sim = Simulator()
        top = Module(sim.kernel, "top")
        child = Module(sim.kernel, "child", parent=top)
        with pytest.raises(ElaborationError):
            sim.add_module(child)

    def test_find_by_path(self):
        sim = Simulator()
        top = Module(sim.kernel, "top")
        child = Module(sim.kernel, "child", parent=top)
        sim.add_module(top)
        assert sim.find("top.child") is child
        with pytest.raises(ElaborationError):
            sim.find("nope")


class TestClock:
    def test_invalid_parameters_rejected(self):
        kernel = Kernel()
        with pytest.raises(ConfigurationError):
            Clock(kernel, "clk", period=ns(0))
        with pytest.raises(ConfigurationError):
            Clock(kernel, "clk2", period=ns(10), duty_cycle=1.5)

    def test_frequency_and_cycles(self):
        kernel = Kernel()
        clock = Clock(kernel, "clk", period=ns(10))
        assert clock.frequency_hz == pytest.approx(1e8)
