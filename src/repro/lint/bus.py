"""Bus analyzer: can the declared traffic actually fit on the bus?

* ``BUS-SATURATED`` — the aggregate word rate the workloads generate
  (each IP's total ``bus_words_per_task x tasks`` spread over its own
  minimum runtime) exceeds ``words_per_second``; transfers will queue
  without bound and tasks cannot complete on time.
* ``BUS-HOT`` — the same estimate exceeds 80% of the bandwidth; the run
  works but contention (and CA rounding) dominates timing.
* ``BUS-CA-DIVISIBILITY`` — cycle-accurate timing rounds every transfer
  up to whole bus cycles; transfer sizes not divisible by
  ``words_per_cycle`` silently pay extra cycles on every task.
* ``BUS-UNUSED`` — the bus is enabled but no IP declares traffic.
"""

from __future__ import annotations

from typing import List

from repro.lint.findings import Finding, Severity
from repro.lint.model import SpecModel

__all__ = ["analyze_bus"]

#: BUS-HOT threshold: fraction of the bandwidth the estimate may use.
_HOT_FRACTION = 0.8


def analyze_bus(model: SpecModel) -> List[Finding]:
    bus = model.spec.bus
    if not bus.enabled:
        return []
    findings: List[Finding] = []
    demand_w_per_s = 0.0
    talkers = 0
    for ip_model in model.ips:
        words_per_task = ip_model.ip.bus_words_per_task
        if words_per_task <= 0:
            continue
        talkers += 1
        if (bus.timing == "cycle_accurate"
                and words_per_task % bus.words_per_cycle != 0):
            findings.append(Finding(
                code="BUS-CA-DIVISIBILITY",
                severity=Severity.WARN,
                path=f"{ip_model.path}.bus_words_per_task",
                message=(
                    f"{words_per_task} words per task is not a multiple of the "
                    f"bus's words_per_cycle ({bus.words_per_cycle}); every "
                    "cycle-accurate transfer rounds up to whole bus cycles"
                ),
                suggestion="pad or trim the transfer to a whole-cycle multiple",
            ))
        duration_s = ip_model.min_duration_s()
        if ip_model.facts is None or not duration_s:
            continue
        demand_w_per_s += (
            words_per_task * ip_model.facts.task_count / duration_s
        )
    if talkers == 0:
        findings.append(Finding(
            code="BUS-UNUSED",
            severity=Severity.INFO,
            path="platform.bus",
            message="the bus is enabled but no IP sets bus_words_per_task",
            suggestion="disable the bus or declare per-task traffic",
        ))
        return findings
    utilisation = demand_w_per_s / bus.words_per_second
    if utilisation > 1.0:
        findings.append(Finding(
            code="BUS-SATURATED",
            severity=Severity.ERROR,
            path="platform.bus.words_per_second",
            message=(
                f"aggregate traffic needs ~{demand_w_per_s:.3g} words/s but the "
                f"bus delivers {bus.words_per_second:.3g} words/s "
                f"({utilisation:.0%} utilisation); transfers queue without bound"
            ),
            suggestion="raise words_per_second or shrink the transfer sizes",
        ))
    elif utilisation > _HOT_FRACTION:
        findings.append(Finding(
            code="BUS-HOT",
            severity=Severity.INFO,
            path="platform.bus.words_per_second",
            message=(
                f"aggregate traffic uses ~{utilisation:.0%} of the bus "
                "bandwidth; contention will dominate transfer timing"
            ),
            suggestion="leave headroom below 80% for arbitration stalls",
        ))
    return findings
