"""The spec lint driver: build the model once, run the five analyzers."""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.lint.bus import analyze_bus
from repro.lint.findings import Finding, LintReport
from repro.lint.model import SpecModel, build_model
from repro.lint.policy import analyze_policy
from repro.lint.psm import analyze_psm
from repro.lint.rules import analyze_rules
from repro.lint.workload import analyze_workload
from repro.platform.spec import PlatformSpec

__all__ = ["ANALYZERS", "lint_spec"]

#: The analyzers in reporting order (rule table first: it decides policy).
ANALYZERS: Tuple[Callable[[SpecModel], List[Finding]], ...] = (
    analyze_rules,
    analyze_psm,
    analyze_policy,
    analyze_bus,
    analyze_workload,
)


def lint_spec(spec: PlatformSpec, reach: bool = False) -> LintReport:
    """Run every spec analyzer over one (already validated) platform.

    With ``reach=True`` the trajectory-reachability envelope is computed
    first (:func:`repro.lint.reach.compute_reach`) and attached to the
    model, making the rules/psm/policy analyzers trajectory-aware; the
    report hands it back as :attr:`LintReport.reach`.
    """
    model = build_model(spec)
    if reach:
        from repro.lint.reach import compute_reach

        model.reach = compute_reach(model)
    report = LintReport(subject=spec.name, reach=model.reach)
    for analyze in ANALYZERS:
        report.extend(analyze(model))
    return report
