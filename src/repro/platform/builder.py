"""Fluent construction of :class:`~repro.platform.spec.PlatformSpec` trees.

Writing the dataclass tree by hand is fine for files; in Python the builder
reads better and validates at the end::

    spec = (
        PlatformBuilder("octa")
        .describe("asymmetric 8-IP platform")
        .battery("low")
        .thermal("high")
        .gem(high_priority_count=3)
        .ip("big0", workload={"kind": "high_activity", "task_count": 12, "seed": 7},
            priority=1, max_frequency_hz=400e6)
        .ip("little0", workload={"kind": "low_activity", "task_count": 12, "seed": 8},
            priority=5, max_frequency_hz=100e6, max_voltage_v=0.9)
        .build()
    )

The builder is a keyword layer over the spec reader: each method stores
its keywords (``None`` meaning "unset") as the plain-data section of the
spec, and :meth:`build` reads the whole document with
:meth:`PlatformSpec.from_dict`, so a wrongly typed or unknown keyword
raises :class:`~repro.errors.PlatformError` with a dotted path, exactly as
in a spec file.  :meth:`register` additionally publishes the spec in the
named platform registry.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Union

from repro.errors import PlatformError
from repro.platform.spec import IP_ROLES, OperatingPointDef, PlatformSpec, PsmDef, WorkloadDef

__all__ = ["PlatformBuilder"]


def _section(**fields: Any) -> Dict[str, Any]:
    """The plain-data form of keyword arguments, unset (``None``) ones dropped."""
    return {key: value for key, value in fields.items() if value is not None}


def _as_workload(value: Union[WorkloadDef, Mapping[str, Any], None], ip: str) -> WorkloadDef:
    if value is None:
        raise PlatformError(f"ip {ip!r}: a workload is required (WorkloadDef or mapping)")
    if isinstance(value, WorkloadDef):
        return value
    if isinstance(value, Mapping):
        return WorkloadDef.from_dict(value, f"ip {ip!r}: workload")
    raise PlatformError(
        f"ip {ip!r}: workload must be a WorkloadDef or a mapping, got {type(value).__name__}"
    )


def _as_psm(value: Union[PsmDef, Mapping[str, Any], None], ip: str) -> Optional[PsmDef]:
    if value is None or isinstance(value, PsmDef):
        return value
    if isinstance(value, Mapping):
        return PsmDef.from_dict(value, f"ip {ip!r}: psm")
    raise PlatformError(
        f"ip {ip!r}: psm must be a PsmDef or a mapping, got {type(value).__name__}"
    )


class PlatformBuilder:
    """Accumulates a platform document, one fluent call at a time."""

    def __init__(self, name: str) -> None:
        self._data: Dict[str, Any] = {"name": name, "ips": []}

    # -- metadata -------------------------------------------------------
    def describe(self, description: str) -> "PlatformBuilder":
        """Set the human-readable description."""
        self._data["description"] = description
        return self

    # -- SoC-level sections --------------------------------------------
    def battery(self, condition: Optional[str] = None, **fields: Any) -> "PlatformBuilder":
        """Battery condition preset and/or explicit :class:`BatteryDef` fields."""
        self._data["battery"] = _section(condition=condition, **fields)
        return self

    def thermal(self, condition: Optional[str] = None, **fields: Any) -> "PlatformBuilder":
        """Thermal condition preset and/or explicit :class:`ThermalDef` fields."""
        self._data["thermal"] = _section(condition=condition, **fields)
        return self

    def gem(self, **fields: Any) -> "PlatformBuilder":
        """Enable the Global Energy Manager (optionally tuning it)."""
        self._data["gem"] = _section(enabled=True, **fields)
        return self

    def policy(self, name: str = "paper", **fields: Any) -> "PlatformBuilder":
        """Set the platform's default power-management policy."""
        self._data["policy"] = _section(name=name, **fields)
        return self

    def max_time_ms(self, value: float) -> "PlatformBuilder":
        """Simulation time budget in milliseconds."""
        self._data["max_time_ms"] = float(value)
        return self

    def sample_interval_us(self, value: float) -> "PlatformBuilder":
        """Battery/temperature sampling interval in microseconds."""
        self._data["sample_interval_us"] = float(value)
        return self

    def fan(self, power_w: float = 0.05) -> "PlatformBuilder":
        """Fit the supplementary fan (the GEM's worst-case action)."""
        self._data["with_fan"] = True
        self._data["fan_power_w"] = float(power_w)
        return self

    def bus(
        self,
        words_per_second: float = 50e6,
        arbitration: str = "priority",
        timing: str = "event_driven",
        words_per_cycle: int = 1,
    ) -> "PlatformBuilder":
        """Fit the shared bus (see :class:`~repro.platform.spec.BusDef`)."""
        self._data["bus"] = _section(
            enabled=True,
            words_per_second=float(words_per_second),
            arbitration=arbitration,
            timing=timing,
            words_per_cycle=words_per_cycle,
        )
        return self

    def trace(
        self,
        format: str = "jsonl",
        path: Optional[str] = None,
        events: Optional[Any] = None,
    ) -> "PlatformBuilder":
        """Enable event tracing (see :class:`~repro.platform.spec.TraceDef`)."""
        self._data["trace"] = _section(
            enabled=True,
            format=format,
            path=path,
            events=list(events) if events is not None else None,
        )
        return self

    # -- IPs ------------------------------------------------------------
    def ip(
        self,
        name: str,
        workload: Union[WorkloadDef, Mapping[str, Any], None] = None,
        priority: int = 1,
        initial_state: str = "ON1",
        bus_words_per_task: int = 0,
        bus_priority: Optional[int] = None,
        operating_points: Optional[Any] = None,
        psm: Union[PsmDef, Mapping[str, Any], None] = None,
        **characterization: Any,
    ) -> "PlatformBuilder":
        """Add one IP block.

        ``workload`` is a :class:`WorkloadDef` or its mapping form;
        ``operating_points`` a list of :class:`OperatingPointDef` (or
        mappings); any remaining keyword goes to the characterisation knobs
        of :class:`IpDef` (``max_frequency_hz``, ``idle_activity``, ...).
        """
        points = None
        if operating_points is not None:
            points = [
                (point if isinstance(point, OperatingPointDef)
                 else OperatingPointDef.from_dict(point, f"ip {name!r}: operating_points[{index}]")
                 ).to_dict()
                for index, point in enumerate(operating_points)
            ]
        wdef = _as_workload(workload, name)
        psm_def = _as_psm(psm, name)
        for key in characterization:
            if IP_ROLES.get(key) != "power":
                # worded as the IpDef constructor's own error for the keyword
                raise PlatformError(
                    f"ip {name!r}: IpDef.__init__() got an unexpected keyword argument {key!r}"
                )
        self._data["ips"].append(_section(
            name=name,
            workload=wdef.to_dict(),
            static_priority=priority,
            initial_state=initial_state,
            bus_words_per_task=bus_words_per_task,
            bus_priority=bus_priority,
            operating_points=points,
            psm=psm_def.to_dict() if psm_def is not None else None,
            **characterization,
        ))
        return self

    # -- terminal operations -------------------------------------------
    def build(self) -> PlatformSpec:
        """Read, validate and return the accumulated spec."""
        return PlatformSpec.from_dict(self._data)

    def register(self, overwrite: bool = False) -> PlatformSpec:
        """Validate, publish under the spec's name, and return the spec."""
        from repro.platform.registry import register_platform

        spec = self.build()
        register_platform(spec, overwrite=overwrite)
        return spec
