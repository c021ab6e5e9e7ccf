"""Policy analyzer: knobs that defeat the power manager they configure.

* ``POLICY-TIMEOUT`` — a ``fixed-timeout`` policy whose timeout is below
  the break-even time of the state it sleeps into.  On every idle period
  between the timeout and the break-even time, sleeping *loses* energy
  versus staying idle; the paper's 2-competitive choice is timeout ==
  break-even time.
* ``POLICY-GEM-INERT`` — the GEM is enabled but the platform runs on AC
  power: the battery level is pinned to ``ac_power``, which the GEM's
  battery thresholds classify as unlimited, so its battery-driven gating
  can never trigger.
* ``POLICY-STATE-UNKNOWN`` — the policy (defer state, GEM forced state,
  the fixed-timeout sleep state, or a selection rule) names a low-power
  state some IP's transition table cannot enter from ON1; the command
  would fault or be ignored at runtime.
* ``POLICY-GEM-UNREACHABLE`` — only with a trajectory envelope attached
  (``lint --reach``): the GEM is enabled on battery power, but neither a
  poor battery level (empty/low) nor a high temperature is inside the
  reachable envelope for this horizon, so the GEM can never gate anything
  — a softer, trajectory-aware sibling of ``POLICY-GEM-INERT``.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.battery.status import BatteryLevel
from repro.lint.findings import Finding, Severity
from repro.lint.model import SpecModel
from repro.power.states import PowerState
from repro.sim.simtime import ms
from repro.thermal.level import TemperatureLevel

__all__ = ["analyze_policy"]

#: The sleep state DpmSetup.fixed_timeout() uses (repro.dpm.policies).
_FIXED_TIMEOUT_SLEEP = PowerState.SL2
#: Its default timeout (ms) when the spec leaves timeout_ms unset.
_FIXED_TIMEOUT_DEFAULT_MS = 2.0


def _check_timeout(model: SpecModel) -> List[Finding]:
    policy = model.spec.policy
    if policy is None or policy.name != "fixed-timeout":
        return []
    timeout = ms(policy.timeout_ms if policy.timeout_ms is not None
                 else _FIXED_TIMEOUT_DEFAULT_MS)
    findings: List[Finding] = []
    for ip_model in model.ips:
        if ip_model.breakeven is None:
            continue
        entry = ip_model.breakeven.entry(_FIXED_TIMEOUT_SLEEP) \
            if _FIXED_TIMEOUT_SLEEP in ip_model.complete_states else None
        candidates = [entry] if entry is not None else ip_model.breakeven.entries
        thresholds = [e.break_even for e in candidates if e.break_even is not None]
        if not thresholds:
            continue
        minimum = min(thresholds)
        if timeout < minimum:
            findings.append(Finding(
                code="POLICY-TIMEOUT",
                severity=Severity.WARN,
                path="platform.policy.timeout_ms",
                message=(
                    f"timeout {timeout.seconds * 1e3:g} ms is below the minimum "
                    f"break-even time {minimum.seconds * 1e6:.3g} us of IP "
                    f"{ip_model.ip.name!r}; idle periods between the two make "
                    "sleeping a net energy loss"
                ),
                suggestion="set timeout_ms to at least the break-even time",
            ))
    return findings


def _check_gem(model: SpecModel) -> List[Finding]:
    spec = model.spec
    if not spec.gem.enabled or not spec.battery.on_ac_power:
        return []
    return [Finding(
        code="POLICY-GEM-INERT",
        severity=Severity.WARN,
        path="platform.gem",
        message=(
            "the GEM is enabled but the platform is on AC power: the battery "
            "level is pinned to 'ac_power', so the GEM's battery thresholds "
            "can never trigger (only thermal gating remains)"
        ),
        suggestion="disable the GEM or drop battery.on_ac_power",
    )]


def _check_gem_reach(model: SpecModel) -> List[Finding]:
    spec = model.spec
    reach = model.reach
    if reach is None or not spec.gem.enabled or spec.battery.on_ac_power:
        return []
    # The GEM gates on a poor battery (empty/low) or a high temperature
    # (repro.dpm.gem._BATTERY_POOR / _TEMPERATURE_OK).  The envelope already
    # over-approximates anything the run can present, so an empty
    # intersection proves the GEM inert on this platform and horizon.
    poor_battery = {BatteryLevel.EMPTY, BatteryLevel.LOW} & set(reach.battery_set)
    high_temperature = TemperatureLevel.HIGH in reach.temperature_set
    if poor_battery or high_temperature:
        return []
    return [Finding(
        code="POLICY-GEM-UNREACHABLE",
        severity=Severity.INFO,
        path="platform.gem",
        message=(
            "the GEM is enabled, but the reachable envelope over the "
            f"{spec.max_time_ms:g} ms horizon contains neither a poor "
            "battery level (empty/low) nor a high temperature; its gating "
            "can never trigger on this platform"
        ),
        suggestion="disable the GEM or lengthen the horizon",
    )]


def _referenced_states(model: SpecModel) -> List[Tuple[str, PowerState]]:
    """(spec path, low-power state) pairs the configuration commands."""
    referenced: List[Tuple[str, PowerState]] = []
    policy = model.spec.policy
    if policy is not None:
        if policy.defer_state is not None:
            referenced.append(("platform.policy.defer_state",
                               PowerState(policy.defer_state)))
        if policy.name == "fixed-timeout":
            referenced.append(("platform.policy", _FIXED_TIMEOUT_SLEEP))
    if model.spec.gem.enabled and model.spec.gem.forced_state is not None:
        referenced.append(("platform.gem.forced_state",
                           PowerState(model.spec.gem.forced_state)))
    if model.table is not None:
        for index, rule in enumerate(model.table.rules):
            if rule.state.is_sleep:
                referenced.append((f"platform.policy.rules[{index}]", rule.state))
    return referenced


def _check_referenced_states(model: SpecModel) -> List[Finding]:
    findings: List[Finding] = []
    reported: Set[Tuple[str, PowerState, str]] = set()
    for path, state in _referenced_states(model):
        for ip_model in model.ips:
            if state in ip_model.power.entry_states:
                continue
            key = (path, state, ip_model.ip.name)
            if key in reported:
                continue
            reported.add(key)
            findings.append(Finding(
                code="POLICY-STATE-UNKNOWN",
                severity=Severity.WARN,
                path=path,
                message=(
                    f"names {state}, but IP {ip_model.ip.name!r} has no "
                    f"transition into {state} from any ON state"
                ),
                suggestion="add the entry transition or pick another state",
            ))
    return findings


def analyze_policy(model: SpecModel) -> List[Finding]:
    findings = _check_timeout(model)
    findings.extend(_check_gem(model))
    findings.extend(_check_gem_reach(model))
    findings.extend(_check_referenced_states(model))
    return findings
