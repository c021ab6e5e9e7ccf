"""End-to-end tracing tests: sinks, schema conformance and bit-identity.

The central contract of ``repro.obs`` is that tracing is *observationally
free*: a traced run, in any sink format, produces bit-identical metrics and
kernel counters to an untraced one in both accuracy modes (and, in exact
mode, to the pinned goldens), because the hooks only record events.
"""

import json
from pathlib import Path

import pytest

from repro.dpm import DpmSetup
from repro.experiments import run_comparison
from repro.experiments.runner import run_scenario
from repro.obs import TraceRequest, validate_event

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "scenario_metrics.json"

_FLOAT_FIELDS = (
    "energy_saving_pct",
    "temperature_reduction_pct",
    "average_delay_overhead_pct",
    "dpm_energy_j",
    "baseline_energy_j",
    "dpm_average_rise_c",
    "baseline_average_rise_c",
    "dpm_peak_c",
    "baseline_peak_c",
    "simulated_time_s",
)


def _metric_hexes(metrics):
    return {field: getattr(metrics, field).hex() for field in _FLOAT_FIELDS}


@pytest.mark.parametrize("scenario_name", ["A1", "B"])
@pytest.mark.parametrize("accuracy", ["exact", "fast"])
@pytest.mark.parametrize("fmt", ["jsonl", "perfetto", "vcd"])
def test_traced_run_is_bit_identical_to_untraced(tmp_path, scenario_name, accuracy, fmt):
    untraced = run_comparison(
        scenario_name, DpmSetup.paper(),
        accuracy=accuracy, trace=False,
    )
    request = TraceRequest(format=fmt, path=str(tmp_path / f"t.{fmt}"))
    traced = run_comparison(
        scenario_name, DpmSetup.paper(),
        accuracy=accuracy, trace=request,
    )
    assert _metric_hexes(traced) == _metric_hexes(untraced)
    assert traced.tasks_executed == untraced.tasks_executed
    assert (tmp_path / f"t.{fmt}").is_file()
    # The DPM run's kernel does exactly the same work traced or not.
    untraced_run = run_scenario(scenario_name, DpmSetup.paper(),
                                accuracy=accuracy, trace=False)
    traced_run = run_scenario(scenario_name, DpmSetup.paper(),
                              accuracy=accuracy, trace=request)
    assert (traced_run.soc.simulator.kernel.stats.as_dict()
            == untraced_run.soc.simulator.kernel.stats.as_dict())


@pytest.mark.parametrize("scenario_name", ["A1", "B"])
def test_traced_exact_run_matches_golden(tmp_path, scenario_name):
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        golden = json.load(handle)[scenario_name]
    request = TraceRequest(format="jsonl", path=str(tmp_path / "t.jsonl"))
    metrics = run_comparison(
        scenario_name, DpmSetup.paper(), trace=request
    )
    for field in _FLOAT_FIELDS:
        assert getattr(metrics, field).hex() == golden[field], field


@pytest.mark.parametrize("accuracy", ["exact", "fast"])
def test_every_emitted_event_validates_against_the_schema(tmp_path, accuracy):
    path = tmp_path / "events.jsonl"
    run_scenario("B", accuracy=accuracy,
                 trace=TraceRequest(format="jsonl", path=str(path)))
    events = [json.loads(line) for line in path.read_text().splitlines()]
    assert events, "a traced run must emit events"
    for event in events:
        validate_event(event)
    kinds = {event["kind"] for event in events}
    # The core lifecycle kinds must all appear on a multi-IP run.
    for expected in ("sim.backend", "task.request", "task.start",
                     "task.complete", "psm.state", "psm.transition",
                     "lem.decision", "sample.window"):
        assert expected in kinds, expected


def test_trace_records_the_resolved_backend(tmp_path):
    """Every traced run opens with one sim.backend event naming the kernel
    backend and interpreter version actually in effect."""
    import platform

    path = tmp_path / "backend.jsonl"
    run_scenario("A1", trace=TraceRequest(format="jsonl", path=str(path)),
                 backend="python")
    events = [json.loads(line) for line in path.read_text().splitlines()]
    backend_events = [e for e in events if e["kind"] == "sim.backend"]
    assert len(backend_events) == 1
    event = backend_events[0]
    assert event["t_fs"] == 0
    assert event["backend"] == "python"
    assert event["python"] == platform.python_version()
    assert "reason" not in event  # an honoured request has nothing to explain


def test_trace_records_the_native_backend_when_built(tmp_path):
    from repro.sim.native import available

    if not available():
        pytest.skip("native core extension not built")
    path = tmp_path / "backend.jsonl"
    run_scenario("A1", trace=TraceRequest(format="jsonl", path=str(path)),
                 backend="native")
    events = [json.loads(line) for line in path.read_text().splitlines()]
    event = next(e for e in events if e["kind"] == "sim.backend")
    assert event["backend"] == "native"
    assert event["core_version"]


def test_event_timestamps_are_monotonic(tmp_path):
    path = tmp_path / "events.jsonl"
    run_scenario("A1", trace=TraceRequest(format="jsonl", path=str(path)))
    stamps = [json.loads(line)["t_fs"] for line in path.read_text().splitlines()]
    assert stamps == sorted(stamps)
    assert all(isinstance(stamp, int) and stamp >= 0 for stamp in stamps)


def test_disabled_tracer_leaves_no_hook_attached(tmp_path):
    """trace=False must leave every component's _tracer at the class default."""
    run = run_scenario("A1", trace=False)
    soc = run.soc
    assert soc._tracer is None
    for instance in soc.instances:
        assert instance.ip._tracer is None
        assert instance.psm._tracer is None
        assert instance.lem._tracer is None
    # The class attribute itself must stay None (hooks are per-instance).
    from repro.power.psm import PowerStateMachine
    from repro.soc.ip import FunctionalIP

    assert PowerStateMachine._tracer is None
    assert FunctionalIP._tracer is None


def test_untraced_run_never_imports_the_obs_package():
    """The disabled-tracer path is a bare attribute test: an untraced run
    must not even import repro.obs (runs in a subprocess so this test's own
    imports cannot contaminate sys.modules)."""
    import subprocess
    import sys

    code = (
        "import sys\n"
        "from repro.experiments.runner import run_scenario\n"
        "run_scenario('A1', accuracy='fast', trace=False)\n"
        "run_scenario('A1', accuracy='fast')\n"  # default trace=None
        "loaded = [m for m in sys.modules if m.startswith('repro.obs')]\n"
        "assert not loaded, loaded\n"
        "print('clean')\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=False
    )
    assert result.returncode == 0, result.stderr
    assert "clean" in result.stdout


class TestPerfettoDocument:
    @pytest.fixture(scope="class")
    def document(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("perfetto") / "b.json"
        run_scenario("B", trace=TraceRequest(format="perfetto", path=str(path)))
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    def test_chrome_trace_shape(self, document):
        assert isinstance(document["traceEvents"], list)
        assert document["displayTimeUnit"] == "ms"
        for event in document["traceEvents"]:
            assert "ph" in event and "pid" in event

    def test_one_named_track_per_source(self, document):
        names = [e for e in document["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"]
        labels = {e["args"]["name"] for e in names}
        # Scenario B has two IPs; each needs its own named track.
        assert {"ip1", "ip2"} <= labels

    def test_psm_residency_slices_are_balanced(self, document):
        begins = [e for e in document["traceEvents"]
                  if e.get("cat") == "psm" and e["ph"] == "b"]
        ends = [e for e in document["traceEvents"]
                if e.get("cat") == "psm" and e["ph"] == "e"]
        assert begins and len(begins) == len(ends)

    def test_decision_instants_present(self, document):
        instants = {e["name"] for e in document["traceEvents"] if e["ph"] == "i"}
        assert "lem.decision" in instants

    def test_task_slices_present(self, document):
        tasks = [e for e in document["traceEvents"]
                 if e["ph"] == "X" and e.get("cat") == "task"]
        assert tasks
        for event in tasks:
            assert event["dur"] >= 0


def test_perfetto_bus_ownership_slices(tmp_path):
    from repro.platform import PlatformBuilder

    spec = (
        PlatformBuilder("bus-perfetto")
        .bus(words_per_second=5e6)
        .ip("a", workload={"kind": "high_activity", "task_count": 5, "seed": 1},
            bus_words_per_task=2048)
        .ip("b", workload={"kind": "low_activity", "task_count": 5, "seed": 2},
            priority=3, bus_words_per_task=2048)
        .build()
    )
    path = tmp_path / "bus.json"
    run_scenario(spec, trace=TraceRequest(format="perfetto", path=str(path)))
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    bus_slices = [e for e in document["traceEvents"]
                  if e.get("cat") == "bus" and e["ph"] == "b"]
    assert bus_slices, "bus ownership must appear as async slices"


def test_vcd_trace_written(tmp_path):
    path = tmp_path / "a1.vcd"
    run_scenario("A1", trace=TraceRequest(format="vcd", path=str(path)))
    text = path.read_text()
    assert "$timescale" in text and "$enddefinitions" in text
    assert "ON1" in text


def test_event_filter_restricts_jsonl_output(tmp_path):
    path = tmp_path / "psm.jsonl"
    run_scenario("A1", trace=TraceRequest(format="jsonl", path=str(path),
                                          events=("psm",)))
    kinds = {json.loads(line)["kind"] for line in path.read_text().splitlines()}
    assert kinds == {"psm.state", "psm.transition"}


def test_spec_driven_trace_roundtrip(tmp_path):
    """A PlatformSpec's trace section drives tracing with trace=None."""
    from repro.platform import PlatformBuilder, PlatformSpec

    path = tmp_path / "spec.jsonl"
    spec = (
        PlatformBuilder("spec-traced")
        .trace(format="jsonl", path=str(path))
        .ip("solo", workload={"kind": "low_activity", "task_count": 4, "seed": 9})
        .build()
    )
    rebuilt = PlatformSpec.from_dict(spec.to_dict())
    assert rebuilt.trace == spec.trace
    run = run_scenario(rebuilt)
    assert run.trace_path == path
    assert path.is_file()


def test_baseline_run_is_never_traced(tmp_path):
    """run_comparison traces the DPM run only — the baseline must not
    clobber (or double-write) the trace file."""
    path = tmp_path / "only_dpm.jsonl"
    run_comparison("A1", DpmSetup.paper(),
                   trace=TraceRequest(format="jsonl", path=str(path)))
    sources = {json.loads(line)["source"]
               for line in path.read_text().splitlines()
               if json.loads(line)["kind"] == "psm.state"}
    # One psm.state per IP of ONE run, not two.
    assert len(sources) == 1
