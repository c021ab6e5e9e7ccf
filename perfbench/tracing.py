"""The traced run: spans at the program's public boundaries plus package self time.

:class:`Tracer` wraps public functions of each layer from outside the
program (module attributes are swapped for timing wrappers and restored on
:meth:`Tracer.remove`).  Every wrapped call records a span — name, start,
end and the index of the enclosing span — in memory.  Alongside the spans a
deterministic profiler (:mod:`cProfile`) attributes self time to the
``repro.<pkg>`` package, the standard library, built-in functions or other
code.  Time inside ``SoC.run_until_done`` goes to a second profiler, so the
simulate phase's package self times can be checked against its span.
"""

from __future__ import annotations

import cProfile
import sysconfig
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import common

#: (name, start, end, parent index or -1)
Span = Tuple[str, float, float, int]

ORACLES = ("exact_vs_fast", "backend_parity", "bus_timing", "policy", "structural", "lint_reach")
PACKAGES = (
    "analysis", "battery", "campaign", "dpm", "experiments", "fuzz", "lint", "obs",
    "platform", "power", "sim", "soc", "thermal",
)

_STDLIB = sysconfig.get_paths()["stdlib"]
_REPRO = str(common.SRC / "repro") + "/"


def package_of(code: Any) -> str:
    """Which bucket a profiled code object's self time belongs to."""
    if isinstance(code, str):
        return "builtins"
    filename = code.co_filename
    if filename.startswith(_REPRO):
        head = filename[len(_REPRO):].split("/", 1)
        return head[0] if len(head) == 2 else "repro"
    if "/site-packages/hypothesis/" in filename:
        return "hypothesis"
    if filename.startswith(_STDLIB) and "site-packages" not in filename:
        return "stdlib"
    return "other"


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []
        #: counters read from objects the wrapped calls return or receive
        self.counts: Dict[str, float] = defaultdict(float)
        self.outer = cProfile.Profile()
        self.inner = cProfile.Profile()

    # -- spans ----------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent)
        self._stack.pop()

    def wrap(self, owner: Any, attr: str, name: str,
             after: Optional[Callable[[tuple, Any], None]] = None,
             simulate: bool = False) -> None:
        """Replace ``owner.attr`` by a wrapper recording a ``name`` span."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            if simulate:
                tracer.outer.disable()
                tracer.inner.enable()
            try:
                result = original(*args, **kwargs)
            finally:
                if simulate:
                    tracer.inner.disable()
                    tracer.outer.enable()
                tracer.close(index)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append(lambda: setattr(owner, attr, original))

    def install(self) -> None:
        """Wrap every public boundary the per-layer report splits time at."""
        import repro.campaign.executor as executor
        import repro.experiments.differential as differential
        import repro.experiments.runner as runner
        import repro.fuzz.harness as harness
        import repro.lint
        import repro.lint.reach as reach
        import repro.platform.registry as registry
        from repro.campaign.store import ResultStore
        from repro.soc.soc import SoC
        from workloads import soc_counts

        def count_soc(args: tuple, end_time: Any) -> None:
            for key, value in soc_counts(args[0], end_time).items():
                self.counts[key] += value

        self.wrap(runner, "_as_scenario", "resolve")
        self.wrap(executor, "build_scenario", "resolve")
        self.wrap(registry, "platform_by_name", "resolve")
        self.wrap(runner, "build_soc", "build")
        self.wrap(SoC, "run_until_done", "simulate", after=count_soc, simulate=True)
        self.wrap(runner, "compare_runs", "reduce")
        self.wrap(ResultStore, "put", "store.put")
        self.wrap(ResultStore, "get", "store.get")
        self.wrap(harness, "run_differential", "differential")
        for oracle in ORACLES:
            self.wrap(differential, f"_oracle_{oracle}", f"oracle.{oracle}")
        self.wrap(repro.lint, "lint_spec", "lint")
        self.wrap(reach, "compute_reach", "lint.reach")

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reduction ----------------------------------------------------------
    def total(self, name: str) -> float:
        """Time in ``name`` spans not nested in another ``name`` span."""
        total = 0.0
        for span_name, start, end, parent in self.spans:
            if span_name != name:
                continue
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                total += end - start
        return total

    @staticmethod
    def self_times(profile: cProfile.Profile) -> Dict[str, float]:
        buckets: Dict[str, float] = defaultdict(float)
        for entry in profile.getstats():
            buckets[package_of(entry.code)] += entry.inlinetime
        return buckets

    @staticmethod
    def call_count(profile: cProfile.Profile, module_file: str, function: str) -> int:
        count = 0
        for entry in profile.getstats():
            code = entry.code
            if (not isinstance(code, str) and code.co_name == function
                    and code.co_filename.endswith(module_file)):
                count += entry.callcount
        return count

    def dump(self) -> Dict[str, Any]:
        """Spans in a plain form for the trace file."""
        origin = self.spans[0][1] if self.spans else 0.0
        return {
            "spans": [
                {"name": name, "start_s": start - origin, "end_s": end - origin, "parent": parent}
                for name, start, end, parent in self.spans
            ]
        }
