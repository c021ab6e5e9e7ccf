"""Shared plumbing of the benchmark: checkout paths, scratch space, statistics.

Every file of the benchmark imports this module first.  It puts the
checkout's ``src/`` on ``sys.path`` (the program is benchmarked from source,
never from an installed copy) and points temporary files and Hypothesis'
storage at ``.bench_out/`` inside the checkout, so a run reads and writes
nothing outside it.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, Sequence, Tuple, TypeVar

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

T = TypeVar("T")

#: The workload seed whose digests ``reference.json`` pins.
DEFAULT_SEED = 0


#: Host seconds one :func:`reference_loop` takes on a quiet 2.1 GHz Xeon vCPU,
#: the host the baseline was measured on.  Host-time metrics are reported as
#: they would read on that host (see :func:`host_scale`).
NOMINAL_REFERENCE_S = 0.0076


def _reference_work() -> int:
    table: Dict[int, int] = {}
    total = 0
    for index in range(60_000):
        table[index & 1023] = total
        total += index * index % 7
    return total


def reference_loop() -> float:
    """Host seconds of a fixed pure-Python loop that uses no program code.

    The benchmark's host was a shared VM whose speed drifted by 20-40% in
    phases of seconds to minutes, changing every host timing alike.  Timing
    this loop next to each sample measures that drift.
    """
    start = time.perf_counter()
    _reference_work()
    return time.perf_counter() - start


def host_scale(reference_s: float) -> float:
    """Factor that turns a rate measured at ``reference_s`` into one at nominal speed."""
    return reference_s / NOMINAL_REFERENCE_S


def timed(work: Callable[[], T]) -> Tuple[T, float, float]:
    """Run ``work``; return its result, its host seconds and its host-speed factor.

    The reference loop runs just before and just after ``work``; dividing
    the host seconds by the factor gives the time at nominal host speed.
    """
    before = reference_loop()
    start = time.perf_counter()
    result = work()
    elapsed = time.perf_counter() - start
    after = reference_loop()
    return result, elapsed, host_scale((before + after) / 2)


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/repro`` to benchmark."""


def prepare_environment() -> None:
    """Make the checkout's sources importable and keep scratch files inside it.

    Raises :class:`MissingProgram` when the checkout has no ``src/repro``.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program sources under {SRC}/repro")
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # Children (set-up probes, pool workers) inherit these.
    os.environ["TMPDIR"] = str(tmp)
    os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = str(OUT / "hypothesis")
    tempfile.tempdir = str(tmp)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def digest(value: Any) -> str:
    """SHA-256 of the canonical JSON form of ``value``."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and first/third quartiles (``statistics.quantiles`` method)."""
    if len(values) == 1:
        only = float(values[0])
        return {"q1": only, "median": only, "q3": only}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def load_json(name: str) -> Any:
    with open(BENCH_DIR / name, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_json(path: Path, value: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(value, handle, indent=1, sort_keys=True)
        handle.write("\n")
