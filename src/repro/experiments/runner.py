"""Experiment runner.

:func:`run_scenario` builds and simulates one platform with one DPM setup and
returns the raw artefacts (SoC, executions, wall-clock figures).
:func:`run_comparison` runs the platform twice — once with the DPM under
study and once with the paper's reference configuration (maximum frequency,
never sleep) — and reduces the two runs to the Table-2 metrics.

Every runner takes a :class:`~repro.platform.spec.PlatformSpec` or the name
of a registered platform (a paper row such as ``"A1"``, a library platform
or a user-registered one).  A ``None`` DPM setup defers to the spec's own
:class:`~repro.platform.spec.PolicyDef` (when present) and the spec's GEM
tunables are applied to whichever setup runs.
"""

from __future__ import annotations

import time as _wallclock
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis.metrics import ScenarioMetrics, compare_runs
from repro.dpm.controller import DpmSetup
from repro.errors import ExperimentError
from repro.platform import registry
from repro.platform.build import build_soc_config, compile_ip, platform_setup
from repro.platform.spec import PlatformSpec
from repro.power.states import PowerState
from repro.sim.accuracy import AccuracyMode
from repro.sim.simtime import SimTime, ms
from repro.soc.soc import SoC, build_soc
from repro.soc.task import TaskExecution

__all__ = [
    "BaselineFigures",
    "RunArtifacts",
    "run_baseline",
    "run_comparison",
    "run_scenario",
]


@dataclass
class BaselineFigures:
    """The figures of a baseline run that Table-2 metrics actually consume.

    Unlike :class:`RunArtifacts` this is plain picklable data, so a campaign
    can compute the baseline of a (scenario, accuracy-mode) cell once and
    share it across every job of the grid.
    """

    scenario: str
    setup: str
    accuracy: str
    total_energy_j: float
    average_rise_c: float
    peak_temperature_c: float
    all_tasks_completed: bool

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view for JSON storage."""
        return {
            "scenario": self.scenario,
            "setup": self.setup,
            "accuracy": self.accuracy,
            "total_energy_j": self.total_energy_j,
            "average_rise_c": self.average_rise_c,
            "peak_temperature_c": self.peak_temperature_c,
            "all_tasks_completed": self.all_tasks_completed,
        }

    @staticmethod
    def from_dict(value) -> "BaselineFigures":
        """Rebuild from :meth:`as_dict` output."""
        return BaselineFigures(
            scenario=str(value["scenario"]),
            setup=str(value["setup"]),
            accuracy=str(value.get("accuracy", "exact")),
            total_energy_j=float(value["total_energy_j"]),
            average_rise_c=float(value["average_rise_c"]),
            peak_temperature_c=float(value["peak_temperature_c"]),
            all_tasks_completed=bool(value["all_tasks_completed"]),
        )


@dataclass
class RunArtifacts:
    """Everything produced by one simulated run of a scenario."""

    scenario: str
    setup: str
    soc: SoC
    end_time: SimTime
    wall_clock_s: float
    executions: List[TaskExecution] = field(default_factory=list)
    accuracy: AccuracyMode = AccuracyMode.EXACT
    #: Where the run's event/waveform trace was written (None when untraced).
    trace_path: Optional[Path] = None
    #: Kernel backend the run resolved to ("python" or "native").
    backend: str = "python"
    #: Why an explicit native request fell back (empty when it did not).
    backend_reason: str = ""

    @property
    def total_energy_j(self) -> float:
        """SoC energy consumed during the run."""
        return self.soc.total_energy_j()

    @property
    def average_rise_c(self) -> float:
        """Average chip temperature rise above ambient during the run."""
        return self.soc.thermal.average_rise_c

    @property
    def peak_temperature_c(self) -> float:
        """Peak chip temperature reached during the run."""
        return self.soc.thermal.peak_c

    @property
    def all_tasks_completed(self) -> bool:
        """True when every IP drained its workload within the time budget."""
        return self.soc.all_done

    def cycles_simulated(self) -> float:
        """Simulated time expressed in reference (ON1) clock cycles."""
        characterization = self.soc.instances[0].characterization
        period = characterization.operating_points.point(PowerState.ON1).clock_period
        return self.end_time / period

    def kilocycles_per_second(self) -> float:
        """Simulation speed in kilo clock cycles per wall-clock second."""
        if self.wall_clock_s <= 0.0:
            return 0.0
        return self.cycles_simulated() / self.wall_clock_s / 1e3

    def bus_summary(self) -> Optional[Dict[str, float]]:
        """Shared-bus figures of the run, or ``None`` on bus-less platforms."""
        bus = self.soc.bus
        if bus is None:
            return None
        return {
            "occupancy_pct": 100.0 * bus.occupancy(),
            "transfer_count": float(bus.stats.transfer_count),
            "words_transferred": float(bus.stats.words_transferred),
            "average_wait_us": bus.stats.average_wait().seconds * 1e6,
            "cancelled_count": float(bus.stats.cancelled_count),
        }

    def per_ip_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-IP energy, task count and mean delay overhead."""
        summary: Dict[str, Dict[str, float]] = {}
        for instance in self.soc.instances:
            executions = instance.ip.executions
            overheads = [execution.delay_overhead for execution in executions]
            summary[instance.spec.name] = {
                "energy_j": instance.ip.energy_account.total_j,
                "tasks": float(len(executions)),
                "mean_delay_overhead_pct": (
                    100.0 * sum(overheads) / len(overheads) if overheads else 0.0
                ),
                "transitions": float(instance.psm.transition_count),
            }
        return summary


def _as_scenario(scenario) -> PlatformSpec:
    """The validated spec of ``scenario``: a spec, or a registered name."""
    if isinstance(scenario, PlatformSpec):
        return scenario.validate()
    if isinstance(scenario, str):
        if registry.has_platform(scenario):
            return registry.platform_by_name(scenario)
        raise ExperimentError(
            f"unknown scenario {scenario!r}; valid names: "
            f"{', '.join(registry.platform_names())}. Custom platforms can be "
            "registered with repro.platform.register_platform or loaded from a "
            "spec file with repro.platform.load_platform."
        )
    raise ExperimentError(
        f"cannot run {scenario!r}: expected a PlatformSpec or a registered "
        "platform name"
    )


def _resolve_trace_request(spec: PlatformSpec, trace):
    """Turn run_scenario's ``trace`` argument into a TraceRequest or None.

    ``None`` defers to the ``trace:`` section of ``spec``; ``False``
    disables tracing regardless of the spec; a
    :class:`~repro.obs.session.TraceRequest` is used as-is.
    """
    if trace is False:
        return None
    if trace is None:
        if not spec.trace.enabled:
            # The common case: repro.obs stays entirely unimported.
            return None
        from repro.obs.session import TraceRequest

        return TraceRequest.from_trace_def(spec.trace)
    from repro.obs.session import TraceRequest

    if isinstance(trace, TraceRequest):
        return trace
    raise ExperimentError(
        f"trace must be a TraceRequest, None or False, got {trace!r}"
    )


def run_scenario(
    scenario: "PlatformSpec | str",
    setup: Optional[DpmSetup] = None,
    accuracy: "AccuracyMode | str | None" = None,
    trace=None,
    backend: Optional[str] = None,
) -> RunArtifacts:
    """Build and simulate ``scenario`` once under ``setup``.

    ``setup`` defaults to the spec's own policy, else the paper DPM.
    ``trace`` controls event tracing: ``None`` (default) follows the
    platform spec's ``trace:`` section, ``False`` forces tracing off, and a
    :class:`~repro.obs.session.TraceRequest` traces the run explicitly.

    ``backend`` selects the kernel backend (``"python"``, ``"native"`` or
    ``"auto"``; ``None`` consults ``REPRO_SIM_BACKEND``).  The resolved
    backend — and the fallback reason, when a native request could not be
    honoured — is recorded on the returned :class:`RunArtifacts`.
    """
    spec = _as_scenario(scenario)
    setup = platform_setup(spec, setup, DpmSetup.paper, use_policy=True)
    mode = AccuracyMode.from_name(accuracy)
    request = _resolve_trace_request(spec, trace)
    soc = build_soc(
        [compile_ip(ipdef).ip_spec(ipdef) for ipdef in spec.ips],
        build_soc_config(spec),
        setup,
        accuracy=mode,
        backend=backend,
    )
    session = None
    if request is not None:
        from repro.obs.session import TraceSession

        session = TraceSession(request, stem=spec.name)
        session.attach(soc)
    wall_start = _wallclock.perf_counter()  # repro-lint: allow[DET-WALLCLOCK]
    end_time = soc.run_until_done(max_time=ms(spec.max_time_ms))
    wall_elapsed = _wallclock.perf_counter() - wall_start  # repro-lint: allow[DET-WALLCLOCK]
    trace_path = None
    if session is not None:
        trace_path = session.finish(end_time=end_time)
    executions: List[TaskExecution] = []
    for instance in soc.instances:
        executions.extend(instance.ip.executions)
    if not executions:
        raise ExperimentError(
            f"scenario {spec.name!r} executed no tasks under setup {setup.name!r}"
        )
    resolution = soc.simulator.backend_resolution
    return RunArtifacts(
        scenario=spec.name,
        setup=setup.name,
        soc=soc,
        end_time=end_time,
        wall_clock_s=wall_elapsed,
        executions=executions,
        accuracy=mode,
        trace_path=trace_path,
        backend=resolution.backend,
        backend_reason=resolution.reason,
    )


def run_baseline(
    scenario: "PlatformSpec | str",
    baseline: Optional[DpmSetup] = None,
    accuracy: "AccuracyMode | str | None" = None,
    backend: Optional[str] = None,
) -> BaselineFigures:
    """Run the reference configuration once and reduce it to plain figures."""
    spec = _as_scenario(scenario)
    baseline = platform_setup(spec, baseline, DpmSetup.always_on)
    mode = AccuracyMode.from_name(accuracy)
    # The baseline never traces: a spec-enabled trace would clobber the DPM
    # run's output file and the reference run is not the run under study.
    run = run_scenario(spec, baseline, accuracy=mode, trace=False, backend=backend)
    return BaselineFigures(
        scenario=spec.name,
        setup=baseline.name,
        accuracy=mode.value,
        total_energy_j=run.total_energy_j,
        average_rise_c=run.average_rise_c,
        peak_temperature_c=run.peak_temperature_c,
        all_tasks_completed=run.all_tasks_completed,
    )


def run_comparison(
    scenario: "PlatformSpec | str",
    dpm: Optional[DpmSetup] = None,
    baseline: Optional[DpmSetup] = None,
    accuracy: "AccuracyMode | str | None" = None,
    baseline_figures: Optional[BaselineFigures] = None,
    trace=None,
    backend: Optional[str] = None,
) -> ScenarioMetrics:
    """Run ``scenario`` with the DPM and with the baseline; return Table-2 metrics.

    ``baseline_figures`` (e.g. from a campaign's shared-baseline cache)
    skips the baseline run entirely; runs are deterministic, so the shared
    figures are identical to a freshly computed baseline.

    ``trace`` applies to the DPM run only (semantics as in
    :func:`run_scenario`); the baseline run is never traced.  ``backend``
    applies to both runs.
    """
    spec = _as_scenario(scenario)
    dpm = platform_setup(spec, dpm, DpmSetup.paper, use_policy=True)
    baseline = platform_setup(spec, baseline, DpmSetup.always_on)
    mode = AccuracyMode.from_name(accuracy)
    dpm_run = run_scenario(spec, dpm, accuracy=mode, trace=trace, backend=backend)
    if baseline_figures is None:
        baseline_figures = run_baseline(spec, baseline, accuracy=mode, backend=backend)
    if not dpm_run.all_tasks_completed:
        raise ExperimentError(
            f"scenario {spec.name!r}: the DPM run did not finish within the time budget"
        )
    if not baseline_figures.all_tasks_completed:
        raise ExperimentError(
            f"scenario {spec.name!r}: the baseline run did not finish within the time budget"
        )
    metrics = compare_runs(
        scenario=spec.name,
        dpm_energy_j=dpm_run.total_energy_j,
        baseline_energy_j=baseline_figures.total_energy_j,
        dpm_rise_c=dpm_run.average_rise_c,
        baseline_rise_c=baseline_figures.average_rise_c,
        dpm_executions=dpm_run.executions,
        dpm_peak_c=dpm_run.peak_temperature_c,
        baseline_peak_c=baseline_figures.peak_temperature_c,
        simulated_time_s=dpm_run.end_time.seconds,
        wall_clock_s=dpm_run.wall_clock_s,
        kilocycles_per_second=dpm_run.kilocycles_per_second(),
        per_ip=dpm_run.per_ip_summary(),
        bus=dpm_run.bus_summary(),
    )
    return metrics
