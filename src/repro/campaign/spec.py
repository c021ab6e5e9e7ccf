"""Declarative campaign specifications.

A *campaign* is a grid of experiments: scenarios x DPM setups x seeds x
parameter overrides.  The grid is described by a :class:`CampaignSpec`, which
can be built in Python or loaded from a JSON/TOML file, so new evaluation
grids (including *new scenarios*) can be defined without touching the
platform registry::

    {
      "name": "paper-grid",
      "scenarios": ["A1", "B",
                    {"kind": "single_ip", "name": "hot-low",
                     "battery": "low", "temperature": "high",
                     "task_count": 24},
                    {"kind": "platform", "file": "specs/my_soc.json"}],
      "setups": ["paper", "greedy-sleep",
                 {"name": "fixed-timeout", "timeout_ms": 2.0}],
      "seeds": [1, 2, 3],
      "overrides": [{}, {"task_count": 12}]
    }

Scenario entries may be paper row names, registered platform names, inline
``single_ip``/``multi_ip`` dictionaries, or ``platform`` entries referencing
a :class:`~repro.platform.spec.PlatformSpec` (inline under ``"spec"`` or via
a ``"file"`` path).  Platform entries are normalized to the *canonical
inline spec*, so their job hashes depend only on the platform's content —
moving or reformatting the spec file does not invalidate stored results.
Every entry runs as a :class:`~repro.platform.spec.PlatformSpec`:
``single_ip``/``multi_ip`` entries are built by
:func:`~repro.platform.registry.single_ip_platform` and
:func:`~repro.platform.registry.multi_ip_platform`, the builders of the
paper rows, and their fields are checked when the campaign is loaded.

:meth:`CampaignSpec.jobs` expands the grid into :class:`JobSpec` objects.
Every job is a *pure data* description (plain dictionaries), picklable for
the worker pool and stable under hashing: :attr:`JobSpec.job_id` is the
SHA-256 of the canonical JSON encoding, which is what the result store uses
as the content address for caching and ``--resume``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.dpm.controller import DpmSetup
from repro.errors import CampaignError
from repro.platform.registry import multi_ip_platform, single_ip_platform
from repro.platform.spec import BATTERY_CONDITIONS, THERMAL_CONDITIONS, PlatformSpec
from repro.sim.simtime import ms

__all__ = [
    "CampaignSpec",
    "JobSpec",
    "PAPER_SCENARIO_DEFS",
    "build_scenario",
    "build_setup",
    "canonical_json",
    "job_hash",
    "normalize_scenario",
    "normalize_setup",
]


# ----------------------------------------------------------------------
# Canonical encoding / hashing
# ----------------------------------------------------------------------
def canonical_json(value: Any) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def job_hash(value: Mapping[str, Any]) -> str:
    """Content address of a job description (first 16 hex digits of SHA-256)."""
    return hashlib.sha256(canonical_json(dict(value)).encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Scenario descriptions
# ----------------------------------------------------------------------
#: The paper's six scenarios as declarative dictionaries, so a spec file can
#: reference them by name ("A1" .. "C") and a grid seed can still re-seed them.
PAPER_SCENARIO_DEFS: Dict[str, Dict[str, Any]] = {
    "A1": {"kind": "single_ip", "name": "A1", "battery": "full", "temperature": "low"},
    "A2": {"kind": "single_ip", "name": "A2", "battery": "low", "temperature": "low"},
    "A3": {"kind": "single_ip", "name": "A3", "battery": "full", "temperature": "high"},
    "A4": {"kind": "single_ip", "name": "A4", "battery": "low", "temperature": "high"},
    "B": {
        "kind": "multi_ip",
        "name": "B",
        "battery": "low",
        "temperature": "low",
        "high_activity_ips": [1, 2],
    },
    "C": {
        "kind": "multi_ip",
        "name": "C",
        "battery": "low",
        "temperature": "low",
        "high_activity_ips": [3, 4],
    },
}

_SCENARIO_FIELDS: Dict[str, Dict[str, Any]] = {
    "single_ip": {
        "required": {"name", "battery", "temperature"},
        "optional": {"task_count", "workload_seed", "max_time_ms"},
    },
    "multi_ip": {
        "required": {"name", "battery", "temperature", "high_activity_ips"},
        "optional": {"task_count", "seed", "max_time_ms"},
    },
}


def normalize_scenario(value: Union[str, Mapping[str, Any]]) -> Dict[str, Any]:
    """Turn a scenario entry of a spec into a validated plain dictionary.

    Accepts one of the paper's row names (``"A1"`` .. ``"C"``), the name of
    any registered platform, or a dictionary with a ``kind`` of
    ``"single_ip"`` / ``"multi_ip"`` / ``"platform"``.  Platform entries
    reference a spec file (``"file"``) or carry the spec inline (``"spec"``);
    either way the normalized form inlines the *canonical* spec dictionary,
    so the job hash depends on the platform's content, never on file paths
    or formatting.
    """
    if isinstance(value, str):
        if value.upper() in PAPER_SCENARIO_DEFS:
            return dict(PAPER_SCENARIO_DEFS[value.upper()])
        from repro.platform.registry import has_platform, platform_by_name

        if has_platform(value):
            spec = platform_by_name(value)
            return {"kind": "platform", "name": spec.name, "spec": spec.to_dict()}
        raise CampaignError(
            f"unknown scenario {value!r} (expected one of "
            f"{', '.join(sorted(PAPER_SCENARIO_DEFS))}, or a registered "
            "platform name)"
        )
    if not isinstance(value, Mapping):
        raise CampaignError(f"scenario entries must be names or mappings, got {value!r}")
    scenario = dict(value)
    kind = scenario.get("kind")
    if kind == "platform":
        return _normalize_platform_scenario(scenario)
    if kind == "paper":
        merged = normalize_scenario(str(scenario.get("name", "")))
        for key, item in scenario.items():
            if key not in ("kind",):
                merged[key] = item
        merged["kind"] = merged.get("kind", "single_ip")
        scenario, kind = merged, merged["kind"]
    if kind not in _SCENARIO_FIELDS:
        raise CampaignError(
            f"unknown scenario kind {kind!r} (expected 'single_ip', 'multi_ip' or 'paper')"
        )
    fields = _SCENARIO_FIELDS[kind]
    missing = fields["required"] - set(scenario)
    if missing:
        raise CampaignError(
            f"scenario {scenario.get('name', '?')!r} is missing fields: {sorted(missing)}"
        )
    unknown = set(scenario) - fields["required"] - fields["optional"] - {"kind"}
    if unknown:
        raise CampaignError(
            f"scenario {scenario['name']!r} has unknown fields: {sorted(unknown)}"
        )
    if "high_activity_ips" in scenario:
        scenario["high_activity_ips"] = sorted(int(i) for i in scenario["high_activity_ips"])
    _check_values(scenario)
    return scenario


def _check_values(scenario: Mapping[str, Any]) -> None:
    """Reject a ``single_ip``/``multi_ip`` field no run could use."""
    name = scenario["name"]

    def check(field_name: str, ok: bool, expected: str) -> None:
        if field_name in scenario and not ok:
            raise CampaignError(
                f"scenario {name!r}: {field_name} must be {expected}, "
                f"got {scenario[field_name]!r}"
            )

    def is_int(value: Any) -> bool:
        return isinstance(value, int) and not isinstance(value, bool)

    battery, temperature = scenario["battery"], scenario["temperature"]
    check("battery", str(battery).lower() in BATTERY_CONDITIONS,
          f"one of {', '.join(BATTERY_CONDITIONS)}")
    check("temperature", str(temperature).lower() in THERMAL_CONDITIONS,
          f"one of {', '.join(THERMAL_CONDITIONS)}")
    # The scenario-A sequence splits into a busy and an idle-heavy half.
    least = 2 if scenario["kind"] == "single_ip" else 1
    count = scenario.get("task_count")
    check("task_count", is_int(count) and count >= least, f"an integer >= {least}")
    for seed_field in ("workload_seed", "seed"):
        check(seed_field, is_int(scenario.get(seed_field)), "an integer")
    budget = scenario.get("max_time_ms")
    check("max_time_ms", isinstance(budget, (int, float)) and budget > 0,
          "a positive number")
    ips = scenario.get("high_activity_ips")
    check("high_activity_ips", bool(ips) and set(ips) <= {1, 2, 3, 4},
          "a non-empty list of IP indices 1-4")


def _anchor_platform_file(entry: Any, base_dir: str) -> Any:
    """Resolve a platform entry's relative ``file`` against ``base_dir``."""
    if (
        isinstance(entry, Mapping)
        and entry.get("kind") == "platform"
        and isinstance(entry.get("file"), str)
        and not os.path.isabs(entry["file"])
    ):
        anchored = dict(entry)
        anchored["file"] = os.path.join(base_dir, anchored["file"])
        return anchored
    return entry


def _normalize_platform_scenario(scenario: Dict[str, Any]) -> Dict[str, Any]:
    """Validate and canonicalise a ``kind: "platform"`` scenario entry."""
    from repro.errors import PlatformError
    from repro.platform.spec import PlatformSpec

    unknown = set(scenario) - {"kind", "name", "spec", "file", "max_time_ms"}
    if unknown:
        raise CampaignError(
            f"platform scenario entry has unknown fields: {sorted(unknown)} "
            "(allowed: kind, name, spec, file, max_time_ms)"
        )
    spec_dict = scenario.get("spec")
    if spec_dict is None:
        path = scenario.get("file")
        if not path:
            raise CampaignError(
                "a platform scenario entry needs an inline 'spec' or a 'file' path"
            )
        from repro.platform.serialize import load_spec_dict

        try:
            spec_dict = load_spec_dict(path)
        except (PlatformError, OSError) as error:
            raise CampaignError(f"cannot load platform spec {path!r}: {error}") from None
    if "max_time_ms" in scenario:
        spec_dict = dict(spec_dict)
        spec_dict["max_time_ms"] = float(scenario["max_time_ms"])
    try:
        spec = PlatformSpec.from_dict(spec_dict)
    except PlatformError as error:
        raise CampaignError(f"invalid platform scenario: {error}") from None
    return {"kind": "platform", "name": spec.name, "spec": spec.to_dict()}


def build_scenario(scenario: Mapping[str, Any], seed: Optional[int] = None) -> PlatformSpec:
    """The :class:`PlatformSpec` of a scenario description.

    ``seed``, when given, replaces the workload seed of the description so a
    campaign can sweep seeds without editing the scenario entry.  On a
    ``platform`` entry, every IP whose workload kind takes a seed draws from
    ``seed + ip_index``, so the IPs stay decorrelated.
    """
    description = normalize_scenario(scenario)
    kind = description["kind"]
    if kind == "platform":
        spec = PlatformSpec.from_dict(description["spec"])
        if seed is not None:
            for index, ip in enumerate(spec.ips):
                if ip.workload.kind not in ("explicit", "periodic"):
                    ip.workload.seed = seed + index
        return spec
    name = description["name"]
    battery = description["battery"].lower()
    temperature = description["temperature"].lower()
    if kind == "single_ip":
        spec = single_ip_platform(
            name, battery, temperature,
            task_count=description.get("task_count", 40),
            seed=seed if seed is not None else description.get("workload_seed", 11),
        )
    else:
        spec = multi_ip_platform(
            name, battery, temperature, description["high_activity_ips"],
            task_count=description.get("task_count", 24),
            seed=seed if seed is not None else description.get("seed", 21),
        )
    if "max_time_ms" in description:
        spec.max_time_ms = float(description["max_time_ms"])
    return spec


# ----------------------------------------------------------------------
# Setup descriptions
# ----------------------------------------------------------------------
def normalize_setup(value: Union[str, Mapping[str, Any]]) -> Dict[str, Any]:
    """Turn a setup entry (name or mapping) into a validated dictionary."""
    if isinstance(value, str):
        setup: Dict[str, Any] = {"name": value}
    elif isinstance(value, Mapping):
        setup = dict(value)
    else:
        raise CampaignError(f"setup entries must be names or mappings, got {value!r}")
    name = setup.get("name")
    if not isinstance(name, str) or not name:
        raise CampaignError(f"setup entry {value!r} has no name")
    build_setup(setup)  # validate eagerly so spec errors surface at load time
    return setup


def build_setup(setup: Mapping[str, Any]) -> DpmSetup:
    """Instantiate a :class:`DpmSetup` from its declarative description."""
    name = setup["name"]
    params = {key: value for key, value in setup.items() if key != "name"}
    if name == "paper":
        result = DpmSetup.paper(allow_off=bool(params.pop("allow_off", True)))
    elif name == "always-on":
        result = DpmSetup.always_on()
    elif name == "greedy-sleep":
        result = DpmSetup.greedy_sleep(allow_off=bool(params.pop("allow_off", True)))
    elif name == "oracle":
        result = DpmSetup.oracle()
    elif name == "fixed-timeout":
        result = DpmSetup.fixed_timeout(ms(float(params.pop("timeout_ms", 2.0))))
    elif name.startswith("paper+"):
        try:
            result = DpmSetup.with_predictor(name[len("paper+"):])
        except ValueError as error:
            raise CampaignError(str(error)) from None
    else:
        raise CampaignError(
            f"unknown setup {name!r} (expected paper, always-on, greedy-sleep, "
            "oracle, fixed-timeout or paper+<predictor>)"
        )
    if params:
        raise CampaignError(f"setup {name!r} has unknown parameters: {sorted(params)}")
    return result


# ----------------------------------------------------------------------
# Jobs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobSpec:
    """One cell of the campaign grid, as pure data.

    ``scenario`` already has any grid override merged in, so the job is fully
    self-describing: hashing :meth:`to_dict` uniquely identifies the work.
    """

    scenario: Mapping[str, Any]
    setup: Mapping[str, Any]
    baseline: Mapping[str, Any]
    seed: Optional[int] = None
    accuracy: str = "exact"

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data view used for hashing, storage and the worker pool.

        ``accuracy`` is only included when it differs from ``exact``, so the
        job ids of pre-accuracy-mode campaigns (and their stored results)
        remain valid for ``--resume``.
        """
        data = {
            "scenario": dict(self.scenario),
            "setup": dict(self.setup),
            "baseline": dict(self.baseline),
            "seed": self.seed,
        }
        if self.accuracy != "exact":
            data["accuracy"] = self.accuracy
        return data

    @staticmethod
    def from_dict(value: Mapping[str, Any]) -> "JobSpec":
        """Rebuild a job from :meth:`to_dict` output."""
        return JobSpec(
            scenario=dict(value["scenario"]),
            setup=dict(value["setup"]),
            baseline=dict(value["baseline"]),
            seed=value.get("seed"),
            accuracy=str(value.get("accuracy", "exact")),
        )

    @property
    def job_id(self) -> str:
        """Content address of this job (stable across processes and runs)."""
        return job_hash(self.to_dict())

    @property
    def baseline_key(self) -> str:
        """Content address of this job's baseline run.

        Keyed by (scenario, baseline setup, seed, accuracy mode) only — the
        DPM setup under study does not influence the baseline — so every job
        of a grid that shares a scenario cell shares one baseline run.
        """
        return job_hash(
            {
                "scenario": dict(self.scenario),
                "baseline": dict(self.baseline),
                "seed": self.seed,
                "accuracy": self.accuracy,
            }
        )

    @property
    def label(self) -> str:
        """Short human-readable identifier (not necessarily unique)."""
        seed = "-" if self.seed is None else str(self.seed)
        return f"{self.scenario['name']}/{self.setup['name']}/seed={seed}"


# ----------------------------------------------------------------------
# The campaign specification
# ----------------------------------------------------------------------
def _apply_override(scenario: Mapping[str, Any], override: Mapping[str, Any]) -> Dict[str, Any]:
    """The normalized scenario of one (scenario, override) grid cell."""
    merged = dict(scenario)
    # Platform scenarios are self-contained specs: only the time budget can
    # be overridden from the grid, other scenario fields (task_count, ...)
    # silently skip them so mixed grids can still share one override list.
    if scenario.get("kind") == "platform":
        applicable = {"max_time_ms"}
    else:
        applicable = None
    merged.update(
        {
            key: value
            for key, value in override.items()
            if key != "kind" and (applicable is None or key in applicable)
        }
    )
    return normalize_scenario(merged)


@dataclass
class CampaignSpec:
    """Declarative description of a grid of experiments."""

    name: str
    scenarios: List[Dict[str, Any]] = field(default_factory=list)
    setups: List[Dict[str, Any]] = field(default_factory=lambda: [{"name": "paper"}])
    seeds: List[Optional[int]] = field(default_factory=lambda: [None])
    overrides: List[Dict[str, Any]] = field(default_factory=lambda: [{}])
    baseline: Dict[str, Any] = field(default_factory=lambda: {"name": "always-on"})
    description: str = ""
    job_timeout_s: Optional[float] = None
    accuracy: str = "exact"

    def __post_init__(self) -> None:
        if not self.name:
            raise CampaignError("a campaign needs a name")
        if self.accuracy not in ("exact", "fast"):
            raise CampaignError(
                f"unknown accuracy mode {self.accuracy!r} (expected 'exact' or 'fast')"
            )
        if not self.scenarios:
            raise CampaignError(f"campaign {self.name!r} defines no scenarios")
        if not self.setups:
            raise CampaignError(f"campaign {self.name!r} defines no setups")
        self.scenarios = [normalize_scenario(entry) for entry in self.scenarios]
        self.setups = [normalize_setup(entry) for entry in self.setups]
        self.baseline = normalize_setup(self.baseline)
        self.seeds = list(self.seeds) or [None]
        self.overrides = [dict(entry) for entry in self.overrides] or [{}]
        for override in self.overrides:
            for key in override:
                if key == "kind" or any(
                    key in fields["required"] | fields["optional"]
                    for fields in _SCENARIO_FIELDS.values()
                ):
                    continue
                raise CampaignError(f"override key {key!r} is not a scenario field")
        for scenario in self.scenarios:
            for override in self.overrides:
                _apply_override(scenario, override)  # rejects bad values now
        if self.job_timeout_s is not None and self.job_timeout_s <= 0:
            raise CampaignError("job_timeout_s must be positive")

    # -- grid expansion -------------------------------------------------
    def jobs(self) -> List[JobSpec]:
        """Expand the grid into jobs (deterministic order, duplicates dropped)."""
        jobs: List[JobSpec] = []
        seen: set = set()
        for scenario in self.scenarios:
            for override in self.overrides:
                merged = _apply_override(scenario, override)
                for setup in self.setups:
                    for seed in self.seeds:
                        job = JobSpec(
                            scenario=merged,
                            setup=setup,
                            baseline=self.baseline,
                            seed=seed,
                            accuracy=self.accuracy,
                        )
                        if job.job_id not in seen:
                            seen.add(job.job_id)
                            jobs.append(job)
        return jobs

    # -- (de)serialisation ---------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data view, suitable for JSON storage in the campaign directory."""
        data: Dict[str, Any] = {
            "name": self.name,
            "scenarios": [dict(entry) for entry in self.scenarios],
            "setups": [dict(entry) for entry in self.setups],
            "seeds": list(self.seeds),
            "overrides": [dict(entry) for entry in self.overrides],
            "baseline": dict(self.baseline),
        }
        if self.description:
            data["description"] = self.description
        if self.job_timeout_s is not None:
            data["job_timeout_s"] = self.job_timeout_s
        if self.accuracy != "exact":
            data["accuracy"] = self.accuracy
        return data

    @staticmethod
    def from_dict(value: Mapping[str, Any]) -> "CampaignSpec":
        """Build a spec from a plain dictionary (parsed JSON/TOML)."""
        if not isinstance(value, Mapping):
            raise CampaignError(f"a campaign spec must be a mapping, got {value!r}")
        known = {
            "name", "scenarios", "setups", "seeds", "overrides",
            "baseline", "description", "job_timeout_s", "accuracy",
        }
        unknown = set(value) - known
        if unknown:
            raise CampaignError(f"unknown campaign fields: {sorted(unknown)}")
        if "name" not in value:
            raise CampaignError("a campaign spec needs a 'name'")
        kwargs: Dict[str, Any] = {"name": value["name"]}
        kwargs["scenarios"] = list(value.get("scenarios", []))
        if "setups" in value:
            kwargs["setups"] = list(value["setups"])
        if "seeds" in value:
            kwargs["seeds"] = [None if seed is None else int(seed) for seed in value["seeds"]]
        if "overrides" in value:
            kwargs["overrides"] = list(value["overrides"])
        if "baseline" in value:
            kwargs["baseline"] = value["baseline"]
        kwargs["description"] = str(value.get("description", ""))
        if value.get("job_timeout_s") is not None:
            kwargs["job_timeout_s"] = float(value["job_timeout_s"])
        kwargs["accuracy"] = str(value.get("accuracy", "exact"))
        return CampaignSpec(**kwargs)

    @staticmethod
    def from_file(path: Union[str, os.PathLike]) -> "CampaignSpec":
        """Load a spec from a ``.json`` or ``.toml`` file.

        Relative ``file`` references inside platform scenario entries are
        resolved against the spec file's own directory, so a campaign and
        the platform specs it sweeps can travel together regardless of the
        process working directory.
        """
        from repro.errors import PlatformError
        from repro.platform.serialize import load_spec_dict

        try:
            data = load_spec_dict(path)
        except PlatformError as error:
            raise CampaignError(str(error)) from None
        if isinstance(data, Mapping):
            base_dir = os.path.dirname(os.path.abspath(str(path)))
            scenarios = data.get("scenarios")
            if isinstance(scenarios, list):
                data = dict(data)
                data["scenarios"] = [
                    _anchor_platform_file(entry, base_dir) for entry in scenarios
                ]
        return CampaignSpec.from_dict(data)
