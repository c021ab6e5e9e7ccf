"""Greedy spec-level delta debugging for failing platforms.

Hypothesis already shrinks the *primitives* it drew; this minimizer works on
the spec tree itself, so it also applies to corpus entries and hand-written
platforms that Hypothesis never saw.  It repeatedly tries structural
simplifications — drop an IP, drop an optional section, shrink a workload —
and keeps every change under which the caller's predicate still holds
(normally "`run_differential` still fails"), until a fixed point.

The predicate is injectable, which keeps the reduction logic unit-testable
without running a single simulation.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List

from repro.errors import PlatformError
from repro.platform.spec import IpDef, PlatformSpec

__all__ = ["minimize_spec"]

#: optional top-level sections a minimal repro usually doesn't need
_DROPPABLE_SECTIONS = ("gem", "policy", "thermal", "battery", "trace")

#: per-IP optional fields (unset by default) worth clearing
_DROPPABLE_IP_FIELDS = tuple(field.name for field in dataclasses.fields(IpDef) if field.default is None)

#: workload count knobs to walk downward
_COUNT_FIELDS = ("task_count", "burst_count", "tasks_per_burst")


def _candidates(data: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One-step simplifications of the spec dictionary, most drastic first."""
    out: List[Dict[str, Any]] = []
    ips = data.get("ips", [])

    def clone(**overrides: Any) -> Dict[str, Any]:
        new = {key: value for key, value in data.items()}
        new.update(overrides)
        return new

    # Drop whole IPs (keep at least one).
    if len(ips) > 1:
        for index in range(len(ips)):
            out.append(clone(ips=[ip for i, ip in enumerate(ips) if i != index]))
    # Drop optional top-level sections.
    for section in _DROPPABLE_SECTIONS:
        if section in data:
            new = clone()
            del new[section]
            out.append(new)
    # Drop the bus (and the per-IP traffic that requires it).
    if "bus" in data:
        new = clone(
            ips=[
                {
                    key: value
                    for key, value in ip.items()
                    if key not in ("bus_words_per_task", "bus_priority")
                }
                for ip in ips
            ]
        )
        del new["bus"]
        out.append(new)
    # Per-IP simplifications.
    for index, ip in enumerate(ips):
        for field in _DROPPABLE_IP_FIELDS:
            if field in ip:
                new_ip = {key: value for key, value in ip.items() if key != field}
                out.append(clone(ips=[*ips[:index], new_ip, *ips[index + 1:]]))
        workload = ip.get("workload")
        if isinstance(workload, dict):
            for field in _COUNT_FIELDS:
                count = workload.get(field)
                if isinstance(count, int) and count > 1:
                    new_workload = dict(workload)
                    new_workload[field] = count // 2
                    new_ip = dict(ip)
                    new_ip["workload"] = new_workload
                    out.append(clone(ips=[*ips[:index], new_ip, *ips[index + 1:]]))
            items = workload.get("items")
            if isinstance(items, list) and len(items) > 1:
                for drop in range(len(items)):
                    new_workload = dict(workload)
                    new_workload["items"] = [
                        item for i, item in enumerate(items) if i != drop
                    ]
                    new_ip = dict(ip)
                    new_ip["workload"] = new_workload
                    out.append(clone(ips=[*ips[:index], new_ip, *ips[index + 1:]]))
    return out


def minimize_spec(
    spec: PlatformSpec,
    still_fails: Callable[[PlatformSpec], bool],
    max_rounds: int = 50,
) -> PlatformSpec:
    """Greedily simplify ``spec`` while ``still_fails(candidate)`` holds.

    ``still_fails`` must return True for the *input* spec, else there is
    nothing to minimize and the spec is returned unchanged.  Candidates
    that no longer validate are skipped silently (a dropped section can
    orphan a dependent field); the first accepted candidate restarts the
    scan, so the result is a local fixed point.
    """
    if not still_fails(spec):
        return spec
    current = spec.to_dict()
    for _ in range(max_rounds):
        for candidate_data in _candidates(current):
            try:
                candidate = PlatformSpec.from_dict(candidate_data)
            except PlatformError:
                continue
            if still_fails(candidate):
                current = candidate.to_dict()
                break
        else:
            break  # no candidate helped: fixed point
    return PlatformSpec.from_dict(current)
