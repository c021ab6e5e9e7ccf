"""Tests for the Local Energy Manager and the Global Energy Manager."""

import pytest

from repro.battery import BatteryConfig
from repro.dpm import BusLevel, DpmSetup, GemConfig, LemConfig
from repro.errors import ConfigurationError
from repro.power import PowerState
from repro.sim import ms, sec, us
from repro.soc import IpSpec, SocConfig, Task, TaskPriority, Workload, WorkloadItem, build_soc, periodic_workload
from repro.thermal import ThermalConfig


def workload_with_priorities(priorities, cycles=100_000, idle=ms(2)):
    items = [
        WorkloadItem(Task(f"t{i}", cycles, priority), idle)
        for i, priority in enumerate(priorities)
    ]
    return Workload(items=items, name="priorities")


def build_single_ip_soc(
    workload,
    dpm=None,
    battery_soc=0.95,
    thermal=None,
    use_gem=False,
    priorities=(1,),
):
    specs = [
        IpSpec(name=f"ip{i}", workload=workload, static_priority=priority)
        for i, priority in enumerate(priorities)
    ]
    config = SocConfig(
        battery=BatteryConfig(capacity_j=250.0, initial_state_of_charge=battery_soc),
        thermal=thermal or ThermalConfig(ambient_c=35.0, initial_c=35.0),
        use_gem=use_gem,
    )
    return build_soc(specs, config, dpm or DpmSetup.paper())


class TestLemConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LemConfig(reevaluation_interval=ms(0))
        with pytest.raises(ConfigurationError):
            LemConfig(defer_state=PowerState.ON1)
        with pytest.raises(ConfigurationError):
            LemConfig(estimation_state=PowerState.SL1)


class TestLemTaskServing:
    def test_selects_states_from_rules_full_battery(self):
        workload = workload_with_priorities(
            [TaskPriority.VERY_HIGH, TaskPriority.HIGH, TaskPriority.MEDIUM, TaskPriority.LOW]
        )
        soc = build_single_ip_soc(workload)
        soc.run_until_done(max_time=sec(1))
        decisions = soc.instance("ip0").lem.decisions
        # Battery Full + temperature Low: rows 11/12 of Table 1.
        assert [d.selected_state for d in decisions] == [
            PowerState.ON1,
            PowerState.ON1,
            PowerState.ON1,
            PowerState.ON2,
        ]

    def test_selects_on4_with_low_battery(self):
        workload = workload_with_priorities(
            [TaskPriority.VERY_HIGH, TaskPriority.HIGH, TaskPriority.LOW]
        )
        soc = build_single_ip_soc(workload, battery_soc=0.20)
        soc.run_until_done(max_time=sec(1))
        decisions = soc.instance("ip0").lem.decisions
        assert all(d.selected_state is PowerState.ON4 for d in decisions)

    def test_grant_records_waiting_time(self):
        workload = periodic_workload(task_count=3, cycles=100_000, idle=ms(4))
        soc = build_single_ip_soc(workload)
        soc.run_until_done(max_time=sec(1))
        decisions = soc.instance("ip0").lem.decisions
        assert len(decisions) == 3
        # The later tasks must pay a wake-up latency (the IP slept in between).
        assert decisions[1].waiting_time.femtoseconds > 0

    def test_executions_track_delay_overhead(self):
        workload = periodic_workload(
            task_count=3, cycles=100_000, idle=ms(2), priority=TaskPriority.LOW
        )
        soc = build_single_ip_soc(workload)
        soc.run_until_done(max_time=sec(1))
        executions = soc.instance("ip0").ip.executions
        # LOW priority with a Full battery runs at ON2 (1.33x slower).
        for record in executions:
            assert record.power_state is PowerState.ON2
            assert record.delay_overhead > 0.25

    def test_single_outstanding_request_enforced(self):
        workload = periodic_workload(task_count=1, cycles=1000)
        soc = build_single_ip_soc(workload)
        lem = soc.instance("ip0").lem
        lem.submit_task_request(Task("extra", 1000))
        with pytest.raises(ConfigurationError):
            lem.submit_task_request(Task("extra2", 1000))

    def test_force_low_power_rejected_for_on_state(self):
        workload = periodic_workload(task_count=1, cycles=1000)
        soc = build_single_ip_soc(workload)
        lem = soc.instance("ip0").lem
        with pytest.raises(ConfigurationError):
            lem.force_low_power(PowerState.ON2)

    def test_static_priority_validation(self):
        with pytest.raises(ConfigurationError):
            IpSpec(name="x", workload=periodic_workload(1), static_priority=0)


class TestLemIdleManagement:
    def test_long_idle_puts_ip_to_sleep(self):
        workload = periodic_workload(task_count=4, cycles=50_000, idle=ms(8))
        soc = build_single_ip_soc(workload)
        soc.run_until_done(max_time=sec(2))
        psm = soc.instance("ip0").psm
        residency = psm.residency()
        sleep_time = sum(
            (duration.seconds for state, duration in residency.items() if not state.is_on), 0.0
        )
        assert sleep_time > 0.01
        assert soc.instance("ip0").lem.sleep_decisions > 0

    def test_short_idles_stop_triggering_sleep_once_trained(self):
        # 20 us gaps are far below every break-even time.  The cold-start
        # predictor may mispredict the first few idles, but once trained the
        # LEM must stop paying for useless sleep transitions.
        workload = periodic_workload(task_count=10, cycles=50_000, idle=us(20))
        soc = build_single_ip_soc(workload)
        soc.run_until_done(max_time=sec(1))
        psm = soc.instance("ip0").psm
        sleep_entries = sum(
            count
            for key, count in psm.transition_counts.items()
            if "->SL" in key or "->OFF" in key
        )
        assert sleep_entries <= 4  # only the early mispredictions

    def test_timeout_policy_sleeps_after_timeout(self):
        workload = periodic_workload(task_count=3, cycles=50_000, idle=ms(6))
        soc = build_single_ip_soc(workload, dpm=DpmSetup.fixed_timeout(ms(2), PowerState.SL2))
        soc.run_until_done(max_time=sec(1))
        psm = soc.instance("ip0").psm
        assert any("->SL2" in key for key in psm.transition_counts)

    def test_oracle_policy_uses_hint(self):
        # Idle gaps far below any break-even time: the oracle must never sleep,
        # even though the (untrained) predictor would have guessed 1 ms.
        workload = periodic_workload(task_count=5, cycles=50_000, idle=us(40))
        soc = build_single_ip_soc(workload, dpm=DpmSetup.oracle())
        soc.run_until_done(max_time=sec(1))
        psm = soc.instance("ip0").psm
        assert all("SL" not in key and "OFF" not in key for key in psm.transition_counts)

    def test_predictor_trained_with_observed_idles(self):
        workload = periodic_workload(task_count=6, cycles=50_000, idle=ms(3))
        soc = build_single_ip_soc(workload)
        soc.run_until_done(max_time=sec(1))
        predictor = soc.instance("ip0").lem.predictor
        assert predictor.observation_count == 5  # gaps between 6 tasks
        assert predictor.predict().seconds == pytest.approx(3e-3, rel=0.2)


class TestGem:
    def make_multi_ip_soc(self, battery_soc, priorities=(1, 2, 3, 4), idle=ms(2), dpm=None):
        workload = periodic_workload(task_count=3, cycles=100_000, idle=idle)
        specs = [
            IpSpec(name=f"ip{p}", workload=workload, static_priority=p) for p in priorities
        ]
        config = SocConfig(
            battery=BatteryConfig(capacity_j=250.0, initial_state_of_charge=battery_soc),
            thermal=ThermalConfig(ambient_c=35.0, initial_c=35.0, thermal_resistance_c_per_w=15.0),
            use_gem=True,
        )
        return build_soc(specs, config, dpm or DpmSetup.paper())

    def test_gem_config_validation(self):
        with pytest.raises(ConfigurationError):
            GemConfig(high_priority_count=0)
        with pytest.raises(ConfigurationError):
            GemConfig(evaluation_interval=ms(0))
        with pytest.raises(ConfigurationError):
            GemConfig(forced_state=PowerState.ON1)

    def test_all_enabled_with_good_battery(self):
        soc = self.make_multi_ip_soc(battery_soc=0.95)
        soc.run_until_done(max_time=sec(1))
        assert soc.all_done
        assert all(soc.gem.enabled_map.values())
        assert soc.gem.fan_activations == 0

    def test_low_battery_restricts_low_priority(self):
        soc = self.make_multi_ip_soc(battery_soc=0.20)
        soc.simulator.kernel.run(ms(1))
        enabled = soc.gem.enabled_map
        assert enabled["ip1"] and enabled["ip2"]
        # ip3/ip4 may be temporarily disabled while higher-priority requests wait.
        assert soc.gem.evaluation_count > 0
        soc.run_until_done(max_time=sec(2))
        assert soc.all_done  # low-priority IPs are delayed, not starved

    def test_pending_energy_bookkeeping(self):
        soc = self.make_multi_ip_soc(battery_soc=0.95)
        gem = soc.gem
        gem.register_request("ip1", 0.5)
        gem.register_request("ip2", 0.25)
        assert gem.pending_energy_excluding("ip1") == pytest.approx(0.25)
        assert gem.pending_energy_excluding("ip3") == pytest.approx(0.75)
        gem.clear_request("ip1")
        assert gem.pending_energy_excluding("ip3") == pytest.approx(0.25)
        with pytest.raises(ConfigurationError):
            gem.register_request("ghost", 0.1)
        with pytest.raises(ConfigurationError):
            gem.register_request("ip1", -1.0)
        with pytest.raises(ConfigurationError):
            gem.clear_request("ghost")

    def test_priority_registration(self):
        soc = self.make_multi_ip_soc(battery_soc=0.95)
        assert soc.gem.priority_of("ip1") == 1
        assert soc.gem.priority_of("ip4") == 4
        assert set(soc.gem.ip_names) == {"ip1", "ip2", "ip3", "ip4"}
        with pytest.raises(ConfigurationError):
            soc.gem.priority_of("ghost")

    def test_duplicate_lem_registration_rejected(self):
        soc = self.make_multi_ip_soc(battery_soc=0.95)
        lem = soc.instance("ip1").lem
        with pytest.raises(ConfigurationError):
            soc.gem.register_lem(lem, 1)

    def test_fan_switched_on_in_thermal_emergency(self):
        # Start the chip above the High threshold with an empty-ish battery:
        # the GEM's third branch must disable everything and start the fan.
        workload = periodic_workload(task_count=2, cycles=50_000, idle=ms(1))
        specs = [IpSpec(name="ip1", workload=workload, static_priority=1)]
        config = SocConfig(
            battery=BatteryConfig(capacity_j=250.0, initial_state_of_charge=0.20),
            thermal=ThermalConfig(ambient_c=70.0, initial_c=90.0),
            use_gem=True,
        )
        soc = build_soc(specs, config, DpmSetup.paper())
        soc.run_until_done(max_time=sec(2))
        assert soc.gem.fan_activations > 0
        assert soc.fan.total_on_time.femtoseconds > 0

    def test_low_battery_run_prefers_slow_states(self):
        soc = self.make_multi_ip_soc(battery_soc=0.20, idle=ms(6))
        soc.run_until_done(max_time=sec(3))
        assert soc.all_done
        for name in ("ip1", "ip2", "ip3", "ip4"):
            decisions = soc.instance(name).lem.decisions
            assert decisions
            assert all(d.selected_state is PowerState.ON4 for d in decisions)


class TestBusAwareResourceView:
    """The GEM's resource view and the LEM context include bus occupation."""

    def make_bus_soc(self, timing="event_driven", words=4096):
        workload = periodic_workload(task_count=3, cycles=100_000, idle=ms(1))
        specs = [
            IpSpec(name=f"ip{p}", workload=workload, static_priority=p,
                   bus_words_per_task=words)
            for p in (1, 2)
        ]
        config = SocConfig(
            use_gem=True,
            with_bus=True,
            bus_words_per_second=2e6,
            bus_timing=timing,
            bus_words_per_cycle=8,
        )
        return build_soc(specs, config, DpmSetup.paper())

    def test_resource_view_without_a_bus(self):
        workload = periodic_workload(task_count=1, cycles=50_000, idle=ms(1))
        soc = build_soc(
            [IpSpec(name="ip0", workload=workload)],
            SocConfig(use_gem=True),
            DpmSetup.paper(),
        )
        soc.run_until_done(max_time=sec(1))
        view = soc.gem.resource_view()
        assert view.bus is BusLevel.LOW
        assert view.bus_occupancy == 0.0
        assert view.battery is soc.battery.level
        assert view.temperature is soc.thermal.level
        assert "bus=low" in view.describe()

    def test_resource_view_reports_bus_occupation(self):
        soc = self.make_bus_soc()
        soc.run_until_done(max_time=sec(1))
        assert soc.all_done
        view = soc.gem.resource_view()
        assert view.bus_occupancy > 0.0
        assert view.bus is soc.bus.occupancy_level()
        assert soc.gem.bus_level() is soc.bus.occupancy_level()
        assert soc.bus.stats.transfer_count == 6  # 2 IPs x 3 tasks

    def test_lem_context_records_the_bus_level(self):
        soc = self.make_bus_soc()
        soc.run_until_done(max_time=sec(1))
        decisions = [d for lem in soc.lems for d in lem.decisions]
        assert decisions
        levels = {decision.bus for decision in decisions}
        assert levels <= {"low", "medium", "high"}
        # Heavy per-task traffic on a slow bus: at least one decision was
        # taken while the bus was measurably occupied.
        assert soc.bus.occupancy() > 0.0

    def test_cycle_accurate_bus_soc_runs_end_to_end(self):
        soc = self.make_bus_soc(timing="cycle_accurate")
        soc.run_until_done(max_time=sec(1))
        assert soc.all_done
        # Batched arbitration: the CA bus owns a clock but runs no
        # process for it — edges are computed analytically.
        assert soc.bus.clock is not None and not soc.bus.clock.processes
        assert soc.bus.stats.transfer_count == 6
