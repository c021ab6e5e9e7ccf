"""The battery and temperature sample records, kept as columns.

Each sampled instant appends one row to the SoC's ``SampleColumns``: an
exact femtosecond time and one float each for state of charge and
temperature.  The battery monitor's and the temperature sensor's
``history`` pair the time column with their value column, so readers see
the same ``(SimTime, float)`` lists as before, at a fraction of the memory.
"""

import gc
import json
import tracemalloc

import pytest

from repro.dpm import DpmSetup
from repro.experiments.differential import _oracle_structural
from repro.experiments.runner import run_scenario
from repro.obs import TraceRequest
from repro.platform import registry
from repro.sim import SimTime, ms
from repro.soc import IpSpec, SocConfig, build_soc, periodic_workload

#: bound on the memory one sample window keeps for the rest of the run
MAX_BYTES_PER_WINDOW = 96


def _idle_soc(interval=ms(1), accuracy="exact"):
    """One IP whose single short task ends at once; the rest is sampling."""
    spec = IpSpec(name="ip0", workload=periodic_workload(1, cycles=1_000))
    config = SocConfig(sample_interval=interval)
    return build_soc(
        [spec], config, DpmSetup.paper(), accuracy=accuracy, backend="python"
    )


def test_bytes_kept_per_sample_window():
    soc = _idle_soc()
    kernel = soc.simulator.kernel
    short, extra = 500, 4_000
    tracemalloc.start()
    try:
        kernel.run(ms(short))
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        kernel.run(ms(extra))
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    samples = len(soc.battery_monitor.history)
    assert samples == short + extra
    assert grown / extra <= MAX_BYTES_PER_WINDOW


@pytest.mark.parametrize("accuracy", ["exact", "fast"])
def test_columns_hold_what_was_published(tmp_path, accuracy):
    path = tmp_path / "events.jsonl"
    traced = run_scenario(
        "sustained-throttled", accuracy=accuracy,
        trace=TraceRequest(format="jsonl", path=str(path))
    )
    untraced = run_scenario("sustained-throttled", accuracy=accuracy, trace=False)
    published = [
        (event["t_fs"], repr(event["state_of_charge"]), repr(event["temperature_c"]))
        for event in map(json.loads, path.read_text().splitlines())
        if event["kind"] == "sample.window"
    ]
    for artifacts in (traced, untraced):
        soc = artifacts.soc
        battery = soc.battery_monitor.history
        thermal = soc.temperature_sensor.history
        assert [when for when, _ in battery] == [when for when, _ in thermal]
        recorded = [
            (int(when), repr(charge), repr(temperature))
            for (when, charge), (_, temperature) in zip(battery, thermal)
        ]
        assert recorded == published
    assert len(published) > 1


@pytest.mark.parametrize("accuracy", ["exact", "fast"])
def test_sample_time_past_int64_reads_back_exactly(accuracy):
    interval = SimTime(2**63 + 12_345)
    soc = _idle_soc(interval, accuracy)
    soc.simulator.kernel.run(interval)
    soc.flush()
    times = [int(when) for when, _ in soc.battery_monitor.history]
    assert times[-1] == 2**63 + 12_345
    assert [int(when) for when, _ in soc.temperature_sensor.history] == times


def _old_structural_detail(history):
    """The battery check of the structural oracle, over ``history`` pairs."""
    for (_, soc_prev), (t_next, soc_next) in zip(history, history[1:]):
        if soc_next > soc_prev + 1e-15:
            return (
                f"battery SoC rose while discharging: {soc_prev!r} -> "
                f"{soc_next!r} at {t_next!r}"
            )
    return None


def test_forced_charge_rise_keeps_the_structural_failure_text():
    spec = registry.platform_by_name("A1")
    base = run_scenario(spec, accuracy="exact", trace=False)
    assert _oracle_structural(spec, base).status == "pass"
    column = base.soc.samples.state_of_charge
    assert len(column) > 10
    column[7] = column[6] + 1e-3
    expected = _old_structural_detail(base.soc.battery_monitor.history)
    assert expected is not None and "at SimTime(" in expected
    verdict = _oracle_structural(spec, base)
    assert verdict.status == "fail"
    assert verdict.detail == expected
