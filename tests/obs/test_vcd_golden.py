"""VCD waveform golden: every registered platform in both accuracy modes.

The golden pins the byte content of ``--trace vcd`` output (PSM state
lines plus the bus busy line).  One case differs in kind: on a
cycle-accurate bus a release and a re-grant can fall in different delta
cycles of one instant, and a waveform may show the ``0`` then ``1`` glitch
at that timestamp or not.  That case is compared after *settling* — keeping
the last value per signal and timestamp and dropping values equal to the
signal's previous one — which is what a waveform viewer displays anyway.

Regenerate with ``PYTHONPATH=src python tests/obs/test_vcd_golden.py``.
"""

import json
from functools import lru_cache
from pathlib import Path
from typing import Dict, List

import pytest

from repro.experiments.runner import run_scenario
from repro.obs import TraceRequest
from repro.platform import PlatformSpec
from repro.platform.registry import platform_by_name, platform_names

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "vcd_traces.json"

#: The settled-comparison case: phone-bursty's bus switched to cycle-accurate.
CYCLE_ACCURATE = "phone-bursty@cycle_accurate"


@lru_cache(maxsize=None)
def _golden() -> Dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def _cycle_accurate_phone() -> PlatformSpec:
    data = platform_by_name("phone-bursty").to_dict()
    data["bus"] = dict(data["bus"], timing="cycle_accurate")
    return PlatformSpec.from_dict(data)


def _vcd(spec, accuracy: str, tmp_path: Path) -> str:
    path = tmp_path / "trace.vcd"
    run_scenario(spec, accuracy=accuracy,
                 trace=TraceRequest(format="vcd", path=str(path)))
    return path.read_text(encoding="utf-8")


def settle(vcd: str) -> str:
    """Keep the last value per signal and timestamp; drop non-changes."""
    header, marker, body = vcd.partition("$enddefinitions $end\n")
    stamps: List[int] = []
    values: Dict[int, Dict[str, str]] = {}
    for line in body.splitlines():
        if line.startswith("#"):
            stamps.append(int(line[1:]))
            values.setdefault(stamps[-1], {})
        else:
            value, identifier = line.split(" ")
            values[stamps[-1]][identifier] = value
    order = [line.split()[3] for line in header.splitlines()
             if line.startswith("$var ")]
    out = [header, marker]
    last: Dict[str, str] = {}
    written = None
    for stamp in sorted(values):
        changes = {identifier: value for identifier, value in values[stamp].items()
                   if last.get(identifier) != value}
        if not changes:
            continue
        out.append(f"#{stamp}\n")
        written = stamp
        # Within one stamp the lines keep their declaration order.
        for identifier in sorted(changes, key=order.index):
            out.append(f"{changes[identifier]} {identifier}\n")
        last.update(changes)
    if stamps and stamps[-1] != written:
        out.append(f"#{stamps[-1]}\n")
    return "".join(out)


@pytest.mark.parametrize("accuracy", ["exact", "fast"])
@pytest.mark.parametrize("name", platform_names())
def test_vcd_matches_golden_bytes(tmp_path, name, accuracy):
    assert _vcd(name, accuracy, tmp_path) == _golden()[name]


@pytest.mark.parametrize("accuracy", ["exact", "fast"])
def test_cycle_accurate_vcd_matches_golden_after_settling(tmp_path, accuracy):
    produced = _vcd(_cycle_accurate_phone(), accuracy, tmp_path)
    assert settle(produced) == settle(_golden()[CYCLE_ACCURATE])


def test_golden_covers_every_registered_platform():
    assert sorted(_golden()) == sorted(platform_names() + [CYCLE_ACCURATE])


if __name__ == "__main__":  # pragma: no cover - golden regeneration helper
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        traces = {name: _vcd(name, "exact", Path(scratch)) for name in platform_names()}
        traces[CYCLE_ACCURATE] = _vcd(_cycle_accurate_phone(), "exact", Path(scratch))
    GOLDEN_PATH.write_text(json.dumps(traces, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
