"""The named-platform registry.

Maps case-insensitive names to :class:`~repro.platform.spec.PlatformSpec`
objects.  The six paper scenarios (A1–A4, B, C) are registered as thin
built-in specs at import time, built by :func:`single_ip_platform` and
:func:`multi_ip_platform` — the same two builders campaign grids, sweeps and
benchmarks use for paper-shaped platforms.  The pinned goldens of
``tests/golden/scenario_metrics.json`` are reproduced bit-identically
through this path.

User platforms are added with :func:`register_platform` (or
:meth:`~repro.platform.builder.PlatformBuilder.register`); every consumer of
scenario names — the runners, the CLI, campaign specs — resolves through
:func:`platform_by_name`, so a registered platform is immediately usable
everywhere.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Sequence

from repro.errors import PlatformError
from repro.platform.spec import (
    BatteryDef,
    GemDef,
    IpDef,
    PlatformSpec,
    ThermalDef,
    WorkloadDef,
)

__all__ = [
    "PAPER_PLATFORM_NAMES",
    "has_platform",
    "multi_ip_platform",
    "paper_platforms",
    "platform_by_name",
    "platform_names",
    "register_platform",
    "single_ip_platform",
    "unregister_platform",
]

#: The paper's Table-2 rows, in order.
PAPER_PLATFORM_NAMES = ("A1", "A2", "A3", "A4", "B", "C")

_REGISTRY: Dict[str, PlatformSpec] = {}


# ----------------------------------------------------------------------
# Registry operations
# ----------------------------------------------------------------------
def register_platform(spec: PlatformSpec, overwrite: bool = False) -> PlatformSpec:
    """Publish ``spec`` under its (case-insensitive) name.

    Built-in paper platforms cannot be overwritten — the goldens pin them.
    """
    spec.validate()
    key = spec.name.lower()
    if spec.name.upper() in PAPER_PLATFORM_NAMES and key in _REGISTRY:
        raise PlatformError(
            f"the paper platform {spec.name!r} is built in and cannot be replaced"
        )
    if key in _REGISTRY and not overwrite:
        raise PlatformError(
            f"a platform named {spec.name!r} is already registered "
            "(pass overwrite=True to replace it)"
        )
    # Snapshot the spec: the registry must not alias an object the caller
    # may keep mutating (platform_by_name deep-copies on read for the same
    # reason).
    _REGISTRY[key] = copy.deepcopy(spec)
    return spec


def unregister_platform(name: str) -> None:
    """Remove a user-registered platform (built-ins are protected)."""
    if name.upper() in PAPER_PLATFORM_NAMES:
        raise PlatformError(f"the paper platform {name!r} is built in and cannot be removed")
    try:
        del _REGISTRY[name.lower()]
    except KeyError:
        raise PlatformError(f"no platform named {name!r} is registered") from None


def has_platform(name: str) -> bool:
    """True when ``name`` resolves to a registered platform."""
    return name.lower() in _REGISTRY


def platform_by_name(name: str) -> PlatformSpec:
    """A deep copy of the registered platform (callers may mutate freely)."""
    try:
        spec = _REGISTRY[name.lower()]
    except KeyError:
        raise PlatformError(
            f"unknown platform {name!r}; registered platforms: "
            f"{', '.join(platform_names())}"
        ) from None
    return copy.deepcopy(spec)


def platform_names() -> List[str]:
    """All registered names: the paper rows first, then customs, sorted."""
    customs = sorted(
        spec.name for key, spec in _REGISTRY.items()
        if spec.name not in PAPER_PLATFORM_NAMES
    )
    return list(PAPER_PLATFORM_NAMES) + customs


def paper_platforms() -> List[PlatformSpec]:
    """Fresh copies of the six paper platforms, in Table-2 order."""
    return [platform_by_name(name) for name in PAPER_PLATFORM_NAMES]


# ----------------------------------------------------------------------
# Paper-shaped platforms: the six rows and the grids that vary them
# ----------------------------------------------------------------------
def single_ip_platform(
    name: str, battery: str, temperature: str, task_count: int = 40, seed: int = 11
) -> PlatformSpec:
    """A row-A platform: one IP running the scenario-A sequence, no GEM."""
    return PlatformSpec(
        name=name,
        description=f"single IP, battery {battery}, temperature {temperature}",
        ips=[
            IpDef(
                name="ip1",
                workload=WorkloadDef(kind="scenario_a", seed=seed, task_count=task_count),
                static_priority=1,
            )
        ],
        battery=BatteryDef(condition=battery),
        thermal=ThermalDef(condition=temperature),
        gem=GemDef(enabled=False),
    )


def multi_ip_platform(
    name: str,
    battery: str,
    temperature: str,
    high_activity_ips: Sequence[int],
    task_count: int = 24,
    seed: int = 21,
) -> PlatformSpec:
    """A row-B/C platform: a GEM plus four IPs with static priorities 1-4.

    The 1-based IP indices in ``high_activity_ips`` run the high-activity
    sequence, the others the low-activity one; IP ``i`` draws its workload
    from ``seed + i``.
    """
    if not high_activity_ips or not set(high_activity_ips) <= {1, 2, 3, 4}:
        raise PlatformError(
            f"high_activity_ips must name IPs 1-4, got {list(high_activity_ips)!r}"
        )
    ips = []
    for index in range(1, 5):
        busy = index in high_activity_ips
        workload = WorkloadDef(
            kind="high_activity" if busy else "low_activity",
            task_count=task_count,
            seed=seed + index,
            name=f"ip{index}-{'busy' if busy else 'idle'}",
        )
        ips.append(IpDef(name=f"ip{index}", workload=workload, static_priority=index))
    return PlatformSpec(
        name=name,
        description=(
            f"GEM + 4 IPs, battery {battery}, temperature {temperature}, "
            f"high activity on IPs {sorted(high_activity_ips)}"
        ),
        ips=ips,
        battery=BatteryDef(condition=battery),
        thermal=ThermalDef(condition=temperature),
        gem=GemDef(enabled=True),
    )


def _register_builtins() -> None:
    for spec in (
        single_ip_platform("A1", "full", "low"),
        single_ip_platform("A2", "low", "low"),
        single_ip_platform("A3", "full", "high"),
        single_ip_platform("A4", "low", "high"),
        multi_ip_platform("B", "low", "low", high_activity_ips=(1, 2)),
        multi_ip_platform("C", "low", "low", high_activity_ips=(3, 4)),
    ):
        _REGISTRY[spec.name.lower()] = spec.validate()


_register_builtins()
