"""repro — a Python reproduction of the DATE'05 dynamic power management
architecture by M. Conti ("SystemC Analysis of a New Dynamic Power Management
Architecture").

The package is organised in layers:

* :mod:`repro.sim` — a SystemC-like discrete-event simulation kernel
  (modules, signals, ports, processes, delta cycles, tracing).
* :mod:`repro.power` — ACPI-style power states, DVFS operating points,
  transition cost tables, break-even analysis, energy accounting and the
  Power State Machine (PSM).
* :mod:`repro.battery` / :mod:`repro.thermal` — battery and lumped-RC
  thermal models with the quantised status classes the DPM rules consume.
* :mod:`repro.soc` — tasks, workload generators, functional IP traffic
  generators, a shared bus and a SoC builder.
* :mod:`repro.dpm` — the paper's contribution: the Table-1 rule engine,
  the Local Energy Manager (LEM), the Global Energy Manager (GEM), idle
  predictors and baseline policies.
* :mod:`repro.analysis` — metrics (energy saving, temperature reduction,
  delay overhead) and report rendering.
* :mod:`repro.experiments` — the runners that regenerate the paper's
  Table 2 and simulation-speed figure from platform specs, plus sweeps.
* :mod:`repro.platform` — declarative platform specifications: user-defined
  SoCs (IPs, workloads, operating points, PSMs, battery/thermal, GEM,
  policy) as validated, JSON/TOML-serializable :class:`PlatformSpec` trees,
  a fluent builder and a named registry in which the six paper scenarios
  are thin built-in specs.
* :mod:`repro.campaign` — parallel experiment campaigns: declarative
  scenario x setup x seed grids (JSON/TOML or Python, including platform
  specs by file or inline), a multiprocessing executor with per-job
  timeouts and failure capture, a content-addressed result store with
  resume, and aggregation back into the analysis layer.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
