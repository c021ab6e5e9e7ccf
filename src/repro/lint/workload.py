"""Workload analyzer: can the declared work run at all, and is DPM relevant?

* ``WORKLOAD-UNFINISHABLE`` — the workload's minimum wall time (every
  cycle at ON1 frequency plus the mandatory idle gaps — utilisation of
  the horizon > 1) exceeds ``max_time_ms``; even a perfect power manager
  cannot complete the run, so completion-gated metrics are meaningless.
* ``WORKLOAD-EMPTY-TASK`` — a workload that cannot be instantiated, so
  the build fails at run time: a valid spec whose generator rejects its
  arguments, or (in a spec that skipped validation, which rejects it) an
  explicit item with a non-positive cycle count.
* ``WORKLOAD-NEVER-IDLE`` — a workload with zero idle time: the DPM has
  no window to ever act in, so the platform measures nothing but the
  baseline.
"""

from __future__ import annotations

from typing import List

from repro.lint.findings import Finding, Severity
from repro.lint.model import IpModel, SpecModel

__all__ = ["analyze_workload"]


def _analyze_ip(model: SpecModel, ip_model: IpModel) -> List[Finding]:
    findings: List[Finding] = []
    path = f"{ip_model.path}.workload"
    wdef = ip_model.ip.workload

    if wdef.kind == "explicit":
        for index, item in enumerate(wdef.items or []):
            cycles = item.get("cycles")
            if isinstance(cycles, (int, float)) and not isinstance(cycles, bool) \
                    and cycles <= 0:
                findings.append(Finding(
                    code="WORKLOAD-EMPTY-TASK",
                    severity=Severity.ERROR,
                    path=f"{path}.items[{index}]",
                    message=(
                        f"task {item.get('task')!r} has {cycles} cycles; a task "
                        "needs a positive cycle count to exist"
                    ),
                    suggestion="give the task real work or delete the item",
                ))

    if ip_model.workload is None:
        if ip_model.workload_error and not findings:
            # The build failed for a reason the explicit-item check did not
            # already explain; surface it rather than silently skipping.
            findings.append(Finding(
                code="WORKLOAD-EMPTY-TASK",
                severity=Severity.ERROR,
                path=path,
                message=f"workload cannot be instantiated: {ip_model.workload_error}",
            ))
        return findings

    duration_s = ip_model.min_duration_s() or 0.0
    horizon_s = model.horizon_s
    if duration_s > horizon_s:
        findings.append(Finding(
            code="WORKLOAD-UNFINISHABLE",
            severity=Severity.ERROR,
            path=path,
            message=(
                f"needs at least {duration_s * 1e3:.4g} ms even at full speed "
                f"with zero DPM overhead, but max_time_ms is "
                f"{model.spec.max_time_ms:g} ms (utilisation "
                f"{duration_s / horizon_s:.2f} > 1)"
            ),
            suggestion="raise max_time_ms or shrink the workload",
        ))
    if ip_model.workload.task_count and ip_model.workload.total_idle.is_zero:
        findings.append(Finding(
            code="WORKLOAD-NEVER-IDLE",
            severity=Severity.INFO,
            path=path,
            message=(
                "the workload has no idle time at all; the power manager "
                "never gets a window to act"
            ),
            suggestion="add idle gaps if DPM behaviour is the point of the run",
        ))
    return findings


def analyze_workload(model: SpecModel) -> List[Finding]:
    findings: List[Finding] = []
    for ip_model in model.ips:
        findings.extend(_analyze_ip(model, ip_model))
    return findings
