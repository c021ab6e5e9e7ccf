"""Tests for the Power State Machine simulation module."""

import pytest

from repro.errors import PowerModelError
from repro.power import (
    EnergyAccount,
    EnergyCategory,
    PowerState,
    PowerStateMachine,
    default_characterization,
    default_transition_table,
)
from repro.sim import Simulator, ms, us


def build_psm(initial_state=PowerState.ON1):
    sim = Simulator()
    account = EnergyAccount("ip0")
    psm = PowerStateMachine(
        sim.kernel,
        "psm",
        characterization=default_characterization(),
        transitions=default_transition_table(),
        energy_account=account,
        initial_state=initial_state,
    )
    sim.add_module(psm)
    return sim, psm, account


class TestTransitions:
    def test_initial_state(self):
        _, psm, _ = build_psm()
        assert psm.state is PowerState.ON1
        assert not psm.is_transitioning
        assert psm.transition_count == 0

    def test_transition_changes_state_after_latency(self):
        sim, psm, _ = build_psm()
        observed = []

        class Driver:
            pass

        def driver():
            psm.request_state(PowerState.SL1)
            yield from psm.wait_for_state(PowerState.SL1)
            observed.append((sim.now.seconds, psm.state))

        sim.kernel.create_thread(driver, "driver")
        sim.kernel.run(ms(10))
        expected_latency = default_transition_table().latency(PowerState.ON1, PowerState.SL1)
        assert observed[0][1] is PowerState.SL1
        assert observed[0][0] == pytest.approx(expected_latency.seconds, rel=1e-6)
        assert psm.transition_count == 1
        assert psm.transition_counts["ON1->SL1"] == 1

    def test_transition_energy_charged(self):
        sim, psm, account = build_psm()

        def driver():
            psm.request_state(PowerState.ON4)
            yield from psm.wait_for_state(PowerState.ON4)

        sim.kernel.create_thread(driver, "driver")
        sim.kernel.run(ms(10))
        expected = default_transition_table().energy_j(PowerState.ON1, PowerState.ON4)
        assert account.breakdown.get(EnergyCategory.TRANSITION, 0.0) == pytest.approx(expected)

    def test_request_same_state_is_noop(self):
        sim, psm, _ = build_psm()

        def driver():
            psm.request_state(PowerState.ON1)
            yield us(100)

        sim.kernel.create_thread(driver, "driver")
        sim.kernel.run(ms(1))
        assert psm.transition_count == 0
        assert psm.state is PowerState.ON1

    def test_invalid_request_type_rejected(self):
        _, psm, _ = build_psm()
        with pytest.raises(PowerModelError):
            psm.request_state("ON1")

    def test_sequence_of_transitions(self):
        sim, psm, _ = build_psm()
        visited = []

        def driver():
            for target in (PowerState.ON3, PowerState.SL2, PowerState.ON2):
                psm.request_state(target)
                yield from psm.wait_for_state(target)
                visited.append(psm.state)

        sim.kernel.create_thread(driver, "driver")
        sim.kernel.run(ms(50))
        assert visited == [PowerState.ON3, PowerState.SL2, PowerState.ON2]
        assert psm.transition_count == 3

    def test_transition_latency_query(self):
        _, psm, _ = build_psm()
        table = default_transition_table()
        assert psm.transition_latency(PowerState.SL3) == table.latency(PowerState.ON1, PowerState.SL3)


class TestEnergyIntegration:
    def test_idle_energy_integrated_over_time(self):
        sim, psm, account = build_psm()
        sim.kernel.run(ms(10))
        psm.flush_energy()
        char = default_characterization()
        expected = char.idle_power_w(PowerState.ON1) * 0.010
        assert account.breakdown.get(EnergyCategory.IDLE, 0.0) == pytest.approx(expected, rel=1e-6)

    def test_sleep_energy_integrated_in_sleep_state(self):
        sim, psm, account = build_psm()

        def driver():
            psm.request_state(PowerState.SL4)
            yield from psm.wait_for_state(PowerState.SL4)

        sim.kernel.create_thread(driver, "driver")
        sim.kernel.run(ms(20))
        psm.flush_energy()
        assert account.breakdown.get(EnergyCategory.SLEEP, 0.0) > 0.0

    def test_busy_interval_not_charged_as_idle(self):
        sim, psm, account = build_psm()

        def driver():
            psm.set_busy(True)
            yield ms(10)
            psm.set_busy(False)

        sim.kernel.create_thread(driver, "driver")
        sim.kernel.run(ms(10))
        psm.flush_energy()
        assert account.breakdown.get(EnergyCategory.IDLE, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_busy_in_sleep_state_rejected(self):
        sim, psm, _ = build_psm(initial_state=PowerState.SL1)

        def driver():
            with pytest.raises(PowerModelError):
                psm.set_busy(True)
            yield us(1)

        sim.kernel.create_thread(driver, "driver")
        sim.kernel.run(ms(1))

    def test_residency_accumulates(self):
        sim, psm, _ = build_psm()

        def driver():
            yield ms(5)
            psm.request_state(PowerState.SL1)
            yield from psm.wait_for_state(PowerState.SL1)
            yield ms(5)

        sim.kernel.create_thread(driver, "driver")
        sim.kernel.run(ms(30))
        psm.flush_energy()
        residency = psm.residency()
        assert residency[PowerState.ON1].seconds > 0.004
        assert residency[PowerState.SL1].seconds > 0.004
