"""Declarative platform specifications: user-defined SoCs as data.

This layer makes the *platform itself* a first-class, serializable object:

* :mod:`repro.platform.spec` — the :class:`PlatformSpec` dataclass tree
  (:class:`IpDef`, :class:`OperatingPointDef`, :class:`PsmDef`,
  :class:`PolicyDef`, :class:`WorkloadDef`, :class:`BatteryDef`,
  :class:`ThermalDef`, :class:`GemDef`) with schema validation whose errors
  name the offending path;
* :mod:`repro.platform.serialize` — lossless JSON/TOML round-trip;
* :mod:`repro.platform.build` — the per-section builders of the runnable
  objects (:func:`build_ip_spec`, :func:`build_soc_config`,
  :func:`platform_setup`) that :func:`repro.experiments.run_scenario` uses;
* :mod:`repro.platform.builder` — the fluent :class:`PlatformBuilder`;
* :mod:`repro.platform.registry` — named platforms; the six paper rows are
  registered as thin built-in specs that reproduce the pinned goldens
  bit-identically, built by :func:`single_ip_platform` and
  :func:`multi_ip_platform`.

A spec (or the name of a registered one) is the only description of a run
the runners accept, and a new scenario is a file::

    repro-dpm platform run --spec my_soc.json
"""

from repro.platform.build import (
    build_dpm_setup,
    build_ip_spec,
    build_soc_config,
    build_workload,
    platform_setup,
)
from repro.platform.builder import PlatformBuilder
from repro.platform.registry import (
    PAPER_PLATFORM_NAMES,
    has_platform,
    multi_ip_platform,
    paper_platforms,
    platform_by_name,
    platform_names,
    register_platform,
    single_ip_platform,
    unregister_platform,
)
from repro.platform.serialize import (
    load_platform,
    load_spec_dict,
    save_platform,
    spec_from_json,
    spec_from_toml,
    spec_hash,
    spec_to_json,
    spec_to_toml,
)
from repro.platform.diff import diff_specs, render_spec_diff
from repro.platform.library import (
    LIBRARY_PLATFORM_NAMES,
    iot_duty_cycle,
    library_platforms,
    phone_bursty,
    register_library,
    server_diurnal,
    sustained_throttled,
)
from repro.platform.spec import (
    SPEC_FORMAT,
    BatteryDef,
    BusDef,
    GemDef,
    IpDef,
    OperatingPointDef,
    PlatformSpec,
    PolicyDef,
    PsmDef,
    ThermalDef,
    TraceDef,
    TransitionDef,
    WorkloadDef,
)

#: the named workload library rides along with every platform import, so
#: "phone-bursty" etc. resolve as scenario names everywhere immediately
register_library()

__all__ = [
    "LIBRARY_PLATFORM_NAMES",
    "PAPER_PLATFORM_NAMES",
    "SPEC_FORMAT",
    "BatteryDef",
    "BusDef",
    "GemDef",
    "IpDef",
    "OperatingPointDef",
    "PlatformBuilder",
    "PlatformSpec",
    "PolicyDef",
    "PsmDef",
    "ThermalDef",
    "TraceDef",
    "TransitionDef",
    "WorkloadDef",
    "build_dpm_setup",
    "diff_specs",
    "build_ip_spec",
    "build_soc_config",
    "build_workload",
    "has_platform",
    "iot_duty_cycle",
    "library_platforms",
    "load_platform",
    "load_spec_dict",
    "multi_ip_platform",
    "paper_platforms",
    "phone_bursty",
    "platform_by_name",
    "platform_names",
    "platform_setup",
    "register_library",
    "register_platform",
    "render_spec_diff",
    "save_platform",
    "server_diurnal",
    "single_ip_platform",
    "sustained_throttled",
    "spec_from_json",
    "spec_from_toml",
    "spec_hash",
    "spec_to_json",
    "spec_to_toml",
    "unregister_platform",
]
