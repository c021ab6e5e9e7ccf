"""PSM analyzer: state-graph reachability and break-even feasibility.

Walks each IP's transition table (the default one, scaled to the IP's
characterisation, or the spec's custom ``psm``) as a directed graph:

* ``PSM-UNBUILDABLE`` — every run fails building the IP's power model, e.g.
  its break-even analysis needs an ON1 round trip the table forbids.
* ``PSM-UNREACHABLE`` — a low-power state that appears in the table but has
  no path from the IP's initial state; it can never be entered.
* ``PSM-NO-WAKE`` — a reachable low-power state with no path back to any ON
  state.  Entering it strands the IP (absorbing state), which on a live
  platform means a task that never gets served again.
* ``PSM-SLEEP-POWER`` — residual power >= ON1 idle power: sleeping in this
  state costs at least as much as staying idle, so it can never break even
  (:func:`repro.power.breakeven.break_even_time` returns ``None``).
* ``PSM-BREAK-EVEN`` — the break-even idle time is longer than the whole
  simulated horizon (``max_time_ms``); no idle period inside a run can
  ever amortise the transition energy.
* ``PSM-BREAK-EVEN-IDLE`` — only with a trajectory envelope attached
  (``lint --reach``): the break-even time fits the horizon but exceeds the
  IP's largest *workload* idle gap, so no real idle period between tasks
  can amortise the state either — the horizon check alone was too lax.
"""

from __future__ import annotations

from typing import List

from repro.lint.findings import Finding, Severity
from repro.lint.model import LOW_STATES, IpModel, SpecModel
from repro.power.states import PowerState
from repro.sim.simtime import sec

__all__ = ["analyze_psm"]


def _analyze_ip(model: SpecModel, ip_model: IpModel) -> List[Finding]:
    findings: List[Finding] = []
    path = f"{ip_model.path}.psm"
    present = set(ip_model.graph).union(*ip_model.graph.values())
    initial = ip_model.initial
    if ip_model.power.error is not None:
        findings.append(Finding(
            code="PSM-UNBUILDABLE",
            severity=Severity.ERROR,
            path=path,
            message=f"no run can build this power model: {ip_model.power.error}",
            suggestion="give every sleep and off state an ON1 entry and wake transition",
        ))
    for state in LOW_STATES:
        if state not in present:
            continue  # removed from the table entirely: simply unavailable
        if state not in ip_model.forward:
            findings.append(Finding(
                code="PSM-UNREACHABLE",
                severity=Severity.WARN,
                path=path,
                message=(
                    f"{state} appears in the transition table but has no "
                    f"path from the initial state {initial}"
                ),
                suggestion=f"add an entry transition into {state} or remove it",
            ))
            continue
        # Reachable low-power state: is there a way back to execution?
        if not any(s.is_on for s in ip_model.power.reachable[state]):
            findings.append(Finding(
                code="PSM-NO-WAKE",
                severity=Severity.ERROR,
                path=path,
                message=(
                    f"{state} is absorbing: reachable from {initial} but no "
                    "transition path leads back to any ON state"
                ),
                suggestion=f"add a wake transition {state} -> ON1",
            ))

    if ip_model.breakeven is not None:
        horizon = sec(model.horizon_s)
        max_idle_gap_s = None
        if model.reach is not None:
            ip_reach = model.reach.ips[ip_model.index]
            if ip_reach.priorities:  # only meaningful when the IP has tasks
                max_idle_gap_s = ip_reach.max_idle_gap_s
        for entry in ip_model.breakeven.entries:
            if entry.break_even is None:
                idle_w = ip_model.characterization.idle_power_w(PowerState.ON1)
                findings.append(Finding(
                    code="PSM-SLEEP-POWER",
                    severity=Severity.WARN,
                    path=path,
                    message=(
                        f"{entry.state} draws {entry.sleep_power_w:.4g} W asleep, "
                        f">= the ON1 idle power {idle_w:.4g} W; it can never "
                        "save energy"
                    ),
                    suggestion=f"lower residual_fraction.{entry.state}",
                ))
            elif entry.break_even > horizon:
                findings.append(Finding(
                    code="PSM-BREAK-EVEN",
                    severity=Severity.WARN,
                    path=path,
                    message=(
                        f"{entry.state} breaks even only after "
                        f"{entry.break_even.seconds * 1e6:.3g} us — longer than "
                        f"the whole {model.spec.max_time_ms:g} ms horizon, so no "
                        "idle period can amortise its transition cost"
                    ),
                    suggestion=(
                        f"cheapen the {entry.state} transitions or drop the state"
                    ),
                ))
            elif (
                max_idle_gap_s is not None
                and entry.break_even.seconds > max_idle_gap_s
            ):
                findings.append(Finding(
                    code="PSM-BREAK-EVEN-IDLE",
                    severity=Severity.INFO,
                    path=path,
                    message=(
                        f"{entry.state} breaks even after "
                        f"{entry.break_even.seconds * 1e6:.3g} us, but the "
                        f"workload's largest idle gap is only "
                        f"{max_idle_gap_s * 1e6:.3g} us; no idle period "
                        "between tasks can amortise its transition cost"
                    ),
                    suggestion=(
                        f"cheapen the {entry.state} transitions or lengthen "
                        "the workload's idle periods"
                    ),
                ))
    return findings


def analyze_psm(model: SpecModel) -> List[Finding]:
    findings: List[Finding] = []
    for ip_model in model.ips:
        findings.extend(_analyze_ip(model, ip_model))
    return findings
