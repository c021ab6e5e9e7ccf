"""The typed findings model shared by every analyzer.

A :class:`Finding` is one diagnostic: a stable ``code`` (documented in the
README's "Linting" section and in :data:`CODES`), a :class:`Severity`, the
dotted path into the spec tree (or ``file:line`` for the determinism
self-check), a human message and — where the fix is mechanical — a
suggestion.  Analyzers return plain lists of findings; :class:`LintReport`
aggregates them, orders them most-severe-first and maps them onto the CLI
exit-code contract (0 clean / 1 findings / 2 bad input).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - keeps findings a leaf module
    from repro.lint.reach import ReachResult

__all__ = ["CODES", "Finding", "LintReport", "Severity"]


class Severity(Enum):
    """Finding severity, ordered ``error > warn > info``."""

    ERROR = "error"
    WARN = "warn"
    INFO = "info"

    @property
    def rank(self) -> int:
        """Ordering helper: ERROR=2, WARN=1, INFO=0."""
        return {"error": 2, "warn": 1, "info": 0}[self.value]

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Every code an analyzer may emit, with its one-line documentation.  The
#: README table is generated from the same text; tests assert that every
#: emitted finding uses a registered code.
CODES: Dict[str, str] = {
    # -- rules analyzer ---------------------------------------------------
    "RULES-SHADOWED": "rule is unreachable: earlier rules match every input it accepts",
    "RULES-CONTRADICTION": "two rules accept identical inputs but select different states",
    "RULES-DUPLICATE": "two rules accept identical inputs and select the same state",
    "RULES-UNCOVERED": "no rule matches part of the priority x battery x temperature x bus lattice",
    "RULE-DEAD-TRAJECTORY": "rule only matches contexts outside the reachable trajectory envelope",
    # -- psm analyzer -----------------------------------------------------
    "PSM-UNBUILDABLE": "the IP's power model cannot be built, so every run of the spec fails",
    "PSM-UNREACHABLE": "low-power state has no entry transition from any ON state",
    "PSM-NO-WAKE": "low-power state is absorbing: no wake transition back to any ON state",
    "PSM-SLEEP-POWER": "sleep-state residual power >= idle power, the state can never break even",
    "PSM-BREAK-EVEN": "break-even time exceeds the platform's whole simulated horizon",
    "PSM-BREAK-EVEN-IDLE": "break-even time exceeds the workload's largest idle gap",
    # -- policy analyzer --------------------------------------------------
    "POLICY-TIMEOUT": "fixed timeout is below the IP's minimum break-even time",
    "POLICY-GEM-INERT": "GEM battery thresholds can never trigger given the battery model",
    "POLICY-STATE-UNKNOWN": "policy names a sleep state the IP's transition table cannot reach",
    "POLICY-GEM-UNREACHABLE": "GEM gating levels lie outside the reachable battery/thermal envelope",
    # -- bus analyzer -----------------------------------------------------
    "BUS-SATURATED": "aggregate workload traffic exceeds the bus bandwidth",
    "BUS-HOT": "aggregate workload traffic exceeds 80% of the bus bandwidth",
    "BUS-CA-DIVISIBILITY": "cycle-accurate transfer sizes are not multiples of words_per_cycle",
    "BUS-UNUSED": "bus is enabled but no IP generates any bus traffic",
    # -- workload analyzer ------------------------------------------------
    "WORKLOAD-UNFINISHABLE": "workload cannot finish inside max_time_ms even at full speed",
    "WORKLOAD-EMPTY-TASK": "explicit workload item has zero (or negative) cycles",
    "WORKLOAD-NEVER-IDLE": "workload has no idle time at all, DPM can never act",
    # -- determinism self-check (repro-dpm lint --self) -------------------
    "DET-WALLCLOCK": "wall-clock call in simulation code (breaks bit-identical replay)",
    "DET-RANDOM": "module-level random.* call (unseeded; use a seeded random.Random)",
    "DET-FLOAT-TIME": "raw float arithmetic against femtosecond time in sim/ hot paths",
    "DET-SET-ORDER": "iteration over an unordered set where order may reach the kernel",
}


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by an analyzer."""

    code: str
    severity: Severity
    path: str
    message: str
    suggestion: str = ""

    def describe(self) -> str:
        """One-line rendering: ``severity CODE path: message (suggestion)``."""
        line = f"{self.severity.value:<5} {self.code:<22} {self.path}: {self.message}"
        if self.suggestion:
            line += f" ({self.suggestion})"
        return line

    def to_dict(self) -> dict:
        """JSON-serialisable form (used by the fuzz-corpus lint sidecars)."""
        data = {
            "code": self.code,
            "severity": self.severity.value,
            "path": self.path,
            "message": self.message,
        }
        if self.suggestion:
            data["suggestion"] = self.suggestion
        return data


@dataclass
class LintReport:
    """All findings for one lint subject, plus the exit-code mapping."""

    subject: str
    findings: List[Finding] = field(default_factory=list)
    #: the trajectory envelope the analyzers consulted
    #: (``lint_spec(reach=True)``), else None
    reach: Optional["ReachResult"] = None

    def extend(self, findings: Iterable[Finding]) -> None:
        self.findings.extend(findings)

    def sorted(self) -> List[Finding]:
        """Most severe first; stable within a severity (analyzer order)."""
        return sorted(self.findings, key=lambda f: -f.severity.rank)

    def count(self, severity: Severity) -> int:
        return sum(1 for finding in self.findings if finding.severity is severity)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def worst(self) -> Optional[Severity]:
        """The highest severity present, or ``None`` when clean."""
        if not self.findings:
            return None
        return max((f.severity for f in self.findings), key=lambda s: s.rank)

    def is_clean(self, strict: bool = False) -> bool:
        """Exit-code contract: errors/warnings always fail; ``strict``
        additionally fails on info-level findings."""
        worst = self.worst
        if worst is None:
            return True
        if strict:
            return False
        return worst is Severity.INFO

    def describe(self) -> str:
        """Multi-line report: subject header, findings, summary line."""
        lines = [f"{self.subject}:"]
        for finding in self.sorted():
            lines.append(f"  {finding.describe()}")
        if not self.findings:
            lines.append("  clean")
        else:
            lines.append(
                "  -- {} error(s), {} warning(s), {} info".format(
                    self.count(Severity.ERROR),
                    self.count(Severity.WARN),
                    self.count(Severity.INFO),
                )
            )
        return "\n".join(lines)
