"""Tests for the functional IP and the SoC builder."""

import pytest

from repro.dpm import DpmSetup
from repro.errors import ConfigurationError
from repro.power import (
    EnergyAccount,
    PowerState,
    PowerStateMachine,
    default_characterization,
    default_transition_table,
)
from repro.sim import Simulator, ms, sec, us
from repro.soc import (
    FunctionalIP,
    IpSpec,
    ServiceChannel,
    ServiceRequestGenerator,
    SocConfig,
    Task,
    build_soc,
    periodic_workload,
)


class ImmediateGrantStub:
    """Minimal LEM stand-in: grants every request instantly at the current state."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.completions = []

    def submit_task_request(self, task):
        class _Grant:
            granted = True
            event = None
            state = None
        return _Grant()

    def notify_task_complete(self, task, next_idle_hint=None):
        self.completions.append((task.name, next_idle_hint))


def build_ip(workload=None, channel=None):
    sim = Simulator()
    characterization = default_characterization()
    account = EnergyAccount("ip0")
    psm = PowerStateMachine(
        sim.kernel,
        "psm",
        characterization=characterization,
        transitions=default_transition_table(),
        energy_account=account,
    )
    sim.add_module(psm)
    ip = FunctionalIP(
        sim.kernel,
        "ip0",
        characterization=characterization,
        psm=psm,
        energy_account=account,
        workload=workload,
        service_channel=channel,
    )
    sim.add_module(ip)
    stub = ImmediateGrantStub(sim.kernel)
    ip.connect_lem(stub)
    return sim, ip, stub, account


class TestFunctionalIP:
    def test_requires_exactly_one_task_source(self):
        sim = Simulator()
        characterization = default_characterization()
        account = EnergyAccount("ip0")
        psm = PowerStateMachine(
            sim.kernel, "psm", characterization, default_transition_table(), account
        )
        with pytest.raises(ConfigurationError):
            FunctionalIP(sim.kernel, "ip0", characterization, psm, account)
        with pytest.raises(ConfigurationError):
            FunctionalIP(
                sim.kernel,
                "ip1",
                characterization,
                psm,
                account,
                workload=periodic_workload(1),
                service_channel=ServiceChannel(sim.kernel),
            )

    def test_bus_words_without_bus_rejected(self):
        sim = Simulator()
        characterization = default_characterization()
        account = EnergyAccount("ip0")
        psm = PowerStateMachine(
            sim.kernel, "psm", characterization, default_transition_table(), account
        )
        with pytest.raises(ConfigurationError):
            FunctionalIP(
                sim.kernel,
                "ip0",
                characterization,
                psm,
                account,
                workload=periodic_workload(1),
                bus_words_per_task=16,
            )

    def test_executes_workload_and_records(self):
        workload = periodic_workload(task_count=4, cycles=100_000, idle=ms(1))
        sim, ip, stub, account = build_ip(workload=workload)
        sim.kernel.run(sec(1))
        assert ip.done
        assert ip.tasks_executed == 4
        assert len(ip.executions) == 4
        assert len(stub.completions) == 4
        # Executed at ON1 (the PSM's initial state): zero delay overhead.
        for record in ip.executions:
            assert record.power_state is PowerState.ON1
            assert record.delay_overhead == pytest.approx(0.0, abs=1e-9)
        assert ip.total_task_energy_j == pytest.approx(
            4 * ip.reference_energy_j(workload[0].task), rel=1e-9
        )

    def test_idle_hint_passed_to_lem(self):
        workload = periodic_workload(task_count=2, cycles=1000, idle=ms(3))
        sim, ip, stub, _ = build_ip(workload=workload)
        sim.kernel.run(sec(1))
        assert stub.completions[0][1] == ms(3)

    def test_cannot_run_without_lem(self):
        sim = Simulator()
        characterization = default_characterization()
        account = EnergyAccount("ip0")
        psm = PowerStateMachine(
            sim.kernel, "psm", characterization, default_transition_table(), account
        )
        sim.add_module(psm)
        ip = FunctionalIP(
            sim.kernel,
            "ip0",
            characterization,
            psm,
            account,
            workload=periodic_workload(1),
        )
        sim.add_module(ip)
        with pytest.raises(ConfigurationError):
            sim.kernel.run(ms(1))

    def test_double_lem_rejected(self):
        sim, ip, stub, _ = build_ip(workload=periodic_workload(1))
        with pytest.raises(ConfigurationError):
            ip.connect_lem(stub)

    def test_channel_driven_ip(self):
        sim = Simulator()
        characterization = default_characterization()
        account = EnergyAccount("ip0")
        psm = PowerStateMachine(
            sim.kernel, "psm", characterization, default_transition_table(), account
        )
        sim.add_module(psm)
        channel = ServiceChannel(sim.kernel, "svc")
        ip = FunctionalIP(
            sim.kernel,
            "ip0",
            characterization,
            psm,
            account,
            service_channel=channel,
        )
        sim.add_module(ip)
        ip.connect_lem(ImmediateGrantStub(sim.kernel))
        generator = ServiceRequestGenerator(
            sim.kernel, "gen", periodic_workload(task_count=3, cycles=50_000, idle=ms(1)), channel
        )
        sim.add_module(generator)
        sim.kernel.run(sec(1))
        assert ip.done
        assert ip.tasks_executed == 3


class TestSocBuilder:
    def test_build_validates_inputs(self):
        with pytest.raises(ConfigurationError):
            build_soc([])
        spec = IpSpec(name="ip0", workload=periodic_workload(1))
        with pytest.raises(ConfigurationError):
            build_soc([spec, IpSpec(name="ip0", workload=periodic_workload(1))])
        with pytest.raises(ConfigurationError):
            IpSpec(name="", workload=periodic_workload(1))
        with pytest.raises(ConfigurationError):
            IpSpec(name="x", workload=periodic_workload(1), static_priority=0)

    def test_build_structure_matches_fig1(self):
        specs = [
            IpSpec(name=f"ip{i}", workload=periodic_workload(2, idle=ms(1)), static_priority=i + 1)
            for i in range(3)
        ]
        soc = build_soc(specs, SocConfig(use_gem=True, with_bus=True), DpmSetup.paper())
        assert len(soc.instances) == 3
        assert soc.gem is not None
        assert soc.bus is not None
        assert soc.fan is not None
        assert soc.battery_monitor is not None
        assert soc.temperature_sensor is not None
        assert {ip.basename for ip in soc.ips} == {"ip0", "ip1", "ip2"}
        assert soc.instance("ip1").spec.static_priority == 2
        with pytest.raises(ConfigurationError):
            soc.instance("ghost")
        tree = soc.design_tree()
        assert "gem" in tree and "ip0" in tree and "battery_monitor" in tree

    def test_run_until_done_completes_workloads(self):
        specs = [IpSpec(name="ip0", workload=periodic_workload(3, cycles=50_000, idle=ms(1)))]
        soc = build_soc(specs, SocConfig(), DpmSetup.paper())
        end = soc.run_until_done(max_time=sec(2))
        assert soc.all_done
        assert end.seconds < 2.0
        assert soc.total_energy_j() > 0.0

    def test_max_time_caps_run(self):
        # A workload with huge idle gaps cannot finish within the budget.
        specs = [IpSpec(name="ip0", workload=periodic_workload(100, cycles=50_000, idle=ms(50)))]
        soc = build_soc(specs, SocConfig(), DpmSetup.paper())
        end = soc.run_until_done(max_time=ms(20))
        assert not soc.all_done
        assert end.femtoseconds <= ms(25).femtoseconds
        with pytest.raises(ConfigurationError):
            soc.run_until_done(max_time=ms(0))

    def test_baseline_setup_never_sleeps(self):
        specs = [IpSpec(name="ip0", workload=periodic_workload(3, cycles=50_000, idle=ms(2)))]
        soc = build_soc(specs, SocConfig(), DpmSetup.always_on())
        soc.run_until_done(max_time=sec(2))
        psm = soc.instance("ip0").psm
        assert psm.transition_count == 0
        assert psm.state is PowerState.ON1

    def test_paper_setup_sleeps_during_long_idle(self):
        specs = [IpSpec(name="ip0", workload=periodic_workload(3, cycles=50_000, idle=ms(5)))]
        soc = build_soc(specs, SocConfig(), DpmSetup.paper())
        soc.run_until_done(max_time=sec(2))
        psm = soc.instance("ip0").psm
        assert psm.transition_count > 0
        residency = psm.residency()
        assert any(not state.is_on and duration.femtoseconds > 0 for state, duration in residency.items())
