"""SoC builder: wires IPs, PSMs, LEMs, GEM, battery, thermal sensor and bus.

This module turns a declarative description (:class:`IpSpec` per IP plus a
:class:`SocConfig`) into a ready-to-run :class:`SoC` — the structure of the
paper's Fig. 1: every IP gets a PSM and a LEM; the optional GEM, battery
monitor, temperature sensor, supplementary fan and shared bus are SoC-level
singletons.

The same builder produces both the DPM configuration under study and the
paper's baseline (maximum frequency, never sleep): only the
:class:`~repro.dpm.controller.DpmSetup` changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.battery.model import Battery, BatteryConfig
from repro.battery.monitor import BatteryMonitor
from repro.errors import ConfigurationError
from repro.power.breakeven import BreakEvenAnalyzer
from repro.power.characterization import PowerCharacterization, default_characterization
from repro.power.energy import EnergyLedger
from repro.power.psm import PowerStateMachine
from repro.power.states import PowerState
from repro.power.transitions import TransitionTable, default_transition_table
from repro.sim.module import Module
from repro.sim.simtime import SimTime, ms, sec
from repro.sim.simulator import Simulator
from repro.soc.bus import Bus
from repro.soc.ip import FunctionalIP
from repro.soc.workload import Workload
from repro.thermal.fan import Fan
from repro.thermal.model import ThermalConfig, ThermalModel
from repro.thermal.sensor import TemperatureSensor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (dpm imports soc.task)
    from repro.dpm.controller import DpmSetup
    from repro.dpm.gem import GlobalEnergyManager
    from repro.dpm.lem import LocalEnergyManager

__all__ = ["IpSpec", "SocConfig", "IpInstance", "SoC", "build_soc"]


@dataclass
class IpSpec:
    """Declarative description of one IP block."""

    name: str
    workload: Workload
    static_priority: int = 1
    characterization: Optional[PowerCharacterization] = None
    transitions: Optional[TransitionTable] = None
    initial_state: PowerState = PowerState.ON1
    bus_words_per_task: int = 0
    #: arbitration priority on the shared bus; ``None`` reuses the static
    #: priority (lower wins), the historical behaviour
    bus_priority: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("IP name must be non-empty")
        if self.static_priority < 1:
            raise ConfigurationError("static priority must be >= 1")
        if self.bus_priority is not None and self.bus_priority < 0:
            raise ConfigurationError("bus priority must be >= 0")


@dataclass
class SocConfig:
    """SoC-level configuration shared by every IP."""

    name: str = "soc"
    battery: BatteryConfig = field(default_factory=BatteryConfig)
    thermal: ThermalConfig = field(default_factory=ThermalConfig)
    sample_interval: SimTime = field(default_factory=lambda: ms(1))
    use_gem: bool = False
    with_fan: bool = True
    fan_power_w: float = 0.05
    with_bus: bool = False
    bus_words_per_second: float = 50e6
    bus_arbitration: str = "priority"
    bus_timing: str = "event_driven"
    bus_words_per_cycle: int = 1
    trace_states: bool = False

    def __post_init__(self) -> None:
        if self.sample_interval.is_zero:
            raise ConfigurationError("sample interval must be positive")


@dataclass
class IpInstance:
    """One built IP with its power-management entourage."""

    spec: IpSpec
    ip: FunctionalIP
    psm: PowerStateMachine
    lem: "LocalEnergyManager"
    characterization: PowerCharacterization


class SoC(Module):
    """The elaborated SoC of Fig. 1, ready to simulate."""

    #: structured-tracing hook (repro.obs); None keeps every hook site to a
    #: single attribute test, so untraced runs stay bit-identical
    _tracer = None
    #: last battery/thermal levels reported on the trace (level-change
    #: detection; seeded by repro.obs.instrument)
    _traced_battery_level = None
    _traced_thermal_level = None

    def __init__(self, simulator: Simulator, config: SocConfig) -> None:
        super().__init__(simulator.kernel, config.name)
        self.simulator = simulator
        self.config = config
        self.ledger = EnergyLedger()
        self.battery = Battery(config.battery)
        self.thermal = ThermalModel(config.thermal)
        # Both sensors sample on the same schedule, so the SoC drives them
        # from one shared thread (monitor first, sensor second — the same
        # order in which their autonomous loops would have been activated):
        # one process activation, one books flush and one ledger read per
        # sample instead of two, with an observable behaviour identical to
        # independent samplers.
        self.battery_monitor = BatteryMonitor(
            simulator.kernel,
            "battery_monitor",
            self.battery,
            self.ledger,
            sample_interval=config.sample_interval,
            pre_sample=self.flush_power_books,
            autonomous=False,
            parent=self,
        )
        self.temperature_sensor = TemperatureSensor(
            simulator.kernel,
            "temperature_sensor",
            self.thermal,
            self.ledger,
            sample_interval=config.sample_interval,
            pre_sample=self.flush_power_books,
            autonomous=False,
            parent=self,
        )
        self.fast_engine = None
        if simulator.accuracy.is_fast:
            # Fast accuracy mode: no periodic sampler process at all — the
            # engine replays windows lazily (closed-form batches) and a
            # crossing guard materialises only the boundaries where a level
            # signal change could be observed.
            from repro.soc.sampling import FastSampleEngine

            self.fast_engine = FastSampleEngine(
                kernel=simulator.kernel,
                battery=self.battery,
                thermal=self.thermal,
                ledger=self.ledger,
                monitor=self.battery_monitor,
                sensor=self.temperature_sensor,
                interval=config.sample_interval,
                books_flusher=self.flush_power_books,
                name=f"{config.name}.fast_sampler",
            )
        else:
            self.add_thread(self._shared_sample_loop, name="sampler")
        self.fan: Optional[Fan] = None
        if config.with_fan:
            self.fan = Fan(
                simulator.kernel,
                "fan",
                self.thermal,
                self.ledger.account("fan"),
                power_w=config.fan_power_w,
                parent=self,
            )
        self.bus: Optional[Bus] = None
        if config.with_bus:
            self.bus = Bus(
                simulator.kernel,
                "bus",
                words_per_second=config.bus_words_per_second,
                arbitration=config.bus_arbitration,
                timing=config.bus_timing,
                words_per_cycle=config.bus_words_per_cycle,
                parent=self,
            )
        self.gem: Optional[GlobalEnergyManager] = None
        self.instances: List[IpInstance] = []

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def ips(self) -> List[FunctionalIP]:
        """The functional IP blocks, in creation order."""
        return [instance.ip for instance in self.instances]

    @property
    def lems(self) -> List[LocalEnergyManager]:
        """The local energy managers, in creation order."""
        return [instance.lem for instance in self.instances]

    @property
    def psms(self) -> List[PowerStateMachine]:
        """The power state machines, in creation order."""
        return [instance.psm for instance in self.instances]

    def instance(self, name: str) -> IpInstance:
        """Look up one IP instance by name."""
        for candidate in self.instances:
            if candidate.spec.name == name:
                return candidate
        raise ConfigurationError(f"SoC has no IP named {name!r}")

    @property
    def all_done(self) -> bool:
        """True once every IP finished its task source."""
        return all(ip.done for ip in self.ips)

    def total_energy_j(self) -> float:
        """SoC-wide energy consumed so far."""
        return self.ledger.total_j

    # ------------------------------------------------------------------
    # Execution helpers
    # ------------------------------------------------------------------
    def run_until_done(
        self,
        max_time: SimTime = sec(10),
        check_interval: SimTime = ms(5),
    ) -> SimTime:
        """Simulate until every IP finished (or ``max_time`` elapsed).

        Returns the simulated time at the end of the run.  Energy books are
        flushed so the ledger reflects the full interval.
        """
        if max_time.is_zero:
            raise ConfigurationError("max_time must be positive")
        kernel = self.simulator.kernel
        ips = self.ips
        end_fs = int(max_time)
        step_fs = int(check_interval)
        while kernel._now_fs < end_fs and not all(ip.done for ip in ips):
            remaining_fs = end_fs - kernel._now_fs
            kernel.run(check_interval if step_fs < remaining_fs else SimTime(remaining_fs))
        self.flush()
        return kernel.now

    def _shared_sample_loop(self):
        """One periodic process sampling battery and temperature in order."""
        interval = self.config.sample_interval
        sample_window = self._sample_window
        while True:
            yield interval
            sample_window()

    def _sample_window(self) -> None:
        """One exact sample: post the books once, read the ledger once, then
        drain the battery and step the thermal model on that reading."""
        self.flush_power_books()
        total = self.ledger.total_j
        self.battery_monitor.sample_total(total)
        self.temperature_sensor.sample_total(total)
        if self._tracer is not None:
            self._trace_sample()

    def _trace_sample(self) -> None:
        """Emit one ``sample.window`` event plus any level crossings."""
        tracer = self._tracer
        now_fs = self.kernel.now_fs
        soc_value = self.battery.state_of_charge
        temperature = self.thermal.temperature_c
        tracer.emit(now_fs, "sample.window", self.name,
                    state_of_charge=soc_value, temperature_c=temperature)
        battery_level = self.battery.level
        if battery_level is not self._traced_battery_level:
            self._traced_battery_level = battery_level
            tracer.emit(now_fs, "battery.level", self.name,
                        level=str(battery_level), state_of_charge=soc_value)
        thermal_level = self.thermal.level
        if thermal_level is not self._traced_thermal_level:
            self._traced_thermal_level = thermal_level
            tracer.emit(now_fs, "thermal.level", self.name,
                        level=str(thermal_level), temperature_c=temperature)

    def flush_power_books(self, full: bool = False) -> None:
        """Post the lazily integrated background/fan energy up to now.

        ``full`` forces unquantised integration of in-flight PSM transitions
        (fast-mode end-of-run flush; a no-op in exact mode).
        """
        for instance in self.instances:
            instance.psm.flush_energy(full)
        if self.fan is not None:
            self.fan.flush_energy()

    def flush(self) -> None:
        """Close the energy books of every PSM and the fan, and resample sensors."""
        if self.fast_engine is not None:
            self.fast_engine.final_flush()
            return
        self._sample_window()


def build_soc(
    ip_specs: Sequence[IpSpec],
    soc_config: Optional[SocConfig] = None,
    dpm: Optional[DpmSetup] = None,
    simulator: Optional[Simulator] = None,
    accuracy: Optional[object] = None,
    backend: Optional[str] = None,
) -> SoC:
    """Build the complete SoC of Fig. 1.

    Parameters
    ----------
    ip_specs:
        One :class:`IpSpec` per IP block.
    soc_config:
        SoC-level configuration (battery, thermal, GEM, bus, sampling).
    dpm:
        The power-management setup; defaults to the paper's DPM
        (:meth:`DpmSetup.paper`).
    simulator:
        Optional pre-existing simulator to build into.
    accuracy:
        Accuracy mode of the run (:class:`~repro.sim.accuracy.AccuracyMode`
        or its name).  Defaults to ``exact``; when a ``simulator`` is passed
        its mode wins and a conflicting ``accuracy`` raises.
    backend:
        Kernel backend of the run (``"python"``, ``"native"`` or ``"auto"``;
        see :mod:`repro.sim.native`).  Defaults to the ``REPRO_SIM_BACKEND``
        environment variable; when a ``simulator`` is passed its backend
        wins and a conflicting explicit ``backend`` raises.
    """
    # Imported here (not at module level) to keep repro.soc importable on its
    # own: repro.dpm depends on repro.soc.task, so a module-level import in
    # the other direction would create a cycle.
    from repro.dpm.controller import DpmSetup
    from repro.dpm.gem import GlobalEnergyManager
    from repro.dpm.lem import LocalEnergyManager
    from repro.sim.accuracy import AccuracyMode

    if not ip_specs:
        raise ConfigurationError("at least one IP is required")
    names = [spec.name for spec in ip_specs]
    if len(names) != len(set(names)):
        raise ConfigurationError("IP names must be unique")
    soc_config = soc_config or SocConfig()
    dpm = dpm or DpmSetup.paper()
    if simulator is None:
        simulator = Simulator(
            name=soc_config.name,
            accuracy=AccuracyMode.from_name(accuracy),
            backend=backend,
        )
    else:
        if accuracy is not None and AccuracyMode.from_name(accuracy) is not simulator.accuracy:
            raise ConfigurationError(
                f"accuracy {accuracy!r} conflicts with the simulator's mode "
                f"{simulator.accuracy.value!r}"
            )
        if backend is not None:
            from repro.sim.native import resolve_backend

            if resolve_backend(backend).backend != simulator.backend:
                raise ConfigurationError(
                    f"backend {backend!r} conflicts with the simulator's "
                    f"backend {simulator.backend!r}"
                )
    soc = SoC(simulator, soc_config)
    simulator.add_module(soc)

    if soc_config.use_gem:
        soc.gem = GlobalEnergyManager(
            simulator.kernel,
            "gem",
            battery_monitor=soc.battery_monitor,
            temperature_sensor=soc.temperature_sensor,
            fan=soc.fan,
            bus=soc.bus,
            config=dpm.gem_config,
            parent=soc,
            fast=simulator.accuracy.is_fast,
        )

    for spec in ip_specs:
        characterization = spec.characterization or default_characterization()
        transitions = spec.transitions or default_transition_table(
            reference_power_w=characterization.active_power_w(PowerState.ON1)
        )
        account = soc.ledger.account(spec.name)
        psm = PowerStateMachine(
            simulator.kernel,
            f"{spec.name}_psm",
            characterization=characterization,
            transitions=transitions,
            energy_account=account,
            initial_state=spec.initial_state,
            parent=soc,
            fast=simulator.accuracy.is_fast,
            sample_interval=soc_config.sample_interval,
        )
        breakeven = BreakEvenAnalyzer(characterization, transitions)
        lem = LocalEnergyManager(
            simulator.kernel,
            f"{spec.name}_lem",
            ip_name=spec.name,
            psm=psm,
            characterization=characterization,
            battery=soc.battery,
            thermal=soc.thermal,
            breakeven=breakeven,
            policy=dpm.make_policy(),
            predictor=dpm.make_predictor(),
            gem=soc.gem,
            bus=soc.bus,
            static_priority=spec.static_priority,
            config=dpm.lem_config,
            parent=soc,
            fast=simulator.accuracy.is_fast,
        )
        ip = FunctionalIP(
            simulator.kernel,
            spec.name,
            characterization=characterization,
            psm=psm,
            energy_account=account,
            workload=spec.workload,
            bus=soc.bus,
            bus_words_per_task=spec.bus_words_per_task if soc.bus is not None else 0,
            bus_priority=(
                spec.static_priority if spec.bus_priority is None else spec.bus_priority
            ),
            parent=soc,
        )
        ip.connect_lem(lem)
        soc.instances.append(
            IpInstance(spec=spec, ip=ip, psm=psm, lem=lem, characterization=characterization)
        )
        if soc_config.trace_states:
            simulator.watch(psm.state_signal)

    if soc.fast_engine is not None:
        # The crossing guard's conservative horizons need an upper bound on
        # the SoC's non-task power: every IP idling in its hungriest state
        # plus the fan.  Started after the GEM so the guard's first plan
        # already sees the registered level-signal waiters.
        background_w = sum(
            instance.characterization.idle_power_w(PowerState.ON1)
            for instance in soc.instances
        )
        if soc.fan is not None:
            background_w += soc.fan.power_w
        soc.fast_engine.start(max_background_w=background_w)

    return soc
