"""``repro.lint`` — static analysis of platform specs and of the library.

Three layers:

* **Spec analyzers** (:func:`lint_spec`): five constraint-level analyses
  over a :class:`~repro.platform.spec.PlatformSpec` — selection-rule
  structure, PSM reachability/break-even, policy knobs, bus saturation and
  workload feasibility.  They catch specs that validate but can never
  save energy (or never finish) *before* a simulation runs.
* **Trajectory reachability** (:func:`~repro.lint.reach.compute_reach`,
  ``lint_spec(reach=True)``): interval abstract interpretation of the
  spec's battery/thermal/bus dynamics over the workload horizon, yielding
  the reachable ``(priority, battery, temperature, bus)`` context envelope
  with entry-time bounds.  The rules/psm/policy analyzers consume it for
  trajectory-aware findings, and the ``lint_reach`` differential oracle
  (:func:`repro.experiments.run_differential`) proves its soundness
  against the decision log of real runs.
* **Determinism self-check** (:func:`~repro.lint.selfcheck.selfcheck`):
  an AST lint over ``src/repro`` guarding the bit-identity contracts —
  no wall clocks, no global RNG, no float time math in the kernel.

CLI: ``repro-dpm lint [SPECS...|--self] [--reach] [--strict]`` (exit 0
clean, 1 findings, 2 unreadable/invalid input) and ``repro-dpm reach SPEC``
for the envelope timeline report.
"""

from repro.lint.engine import ANALYZERS, lint_spec
from repro.lint.findings import CODES, Finding, LintReport, Severity
from repro.lint.intervals import Interval
from repro.lint.model import SpecModel, build_model, spec_rule_table
from repro.lint.reach import IpReach, LevelSpan, ReachResult, compute_reach
from repro.lint.selfcheck import lint_paths, lint_source, selfcheck

__all__ = [
    "ANALYZERS",
    "CODES",
    "Finding",
    "Interval",
    "IpReach",
    "LevelSpan",
    "LintReport",
    "ReachResult",
    "Severity",
    "SpecModel",
    "build_model",
    "compute_reach",
    "lint_paths",
    "lint_source",
    "lint_spec",
    "selfcheck",
    "spec_rule_table",
]
