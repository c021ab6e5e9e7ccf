"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised by the library derive from :class:`ReproError`, so
callers can catch a single base class.  More specific subclasses exist per
subsystem (simulation kernel, power modelling, configuration, ...), which
keeps error handling explicit without forcing users to import from deep
submodules.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """A configuration object is inconsistent or out of range."""


class SimulationError(ReproError):
    """Base class for errors raised by the discrete-event kernel."""


class ElaborationError(SimulationError):
    """The module hierarchy could not be elaborated (bad bindings, names...)."""


class SchedulingError(SimulationError):
    """A process performed an illegal scheduling operation."""


class PowerModelError(ReproError):
    """A power characterisation, state machine or transition table is invalid."""


class InvalidTransitionError(PowerModelError):
    """A power state transition was requested that the PSM does not allow."""


class BatteryError(ReproError):
    """The battery model was used inconsistently (e.g. negative capacity)."""


class ThermalError(ReproError):
    """The thermal model was configured or driven inconsistently."""


class WorkloadError(ReproError):
    """A workload/task description is invalid."""


class RuleError(ReproError):
    """A DPM rule table is malformed, ambiguous or incomplete."""


class ExperimentError(ReproError):
    """An experiment/scenario definition cannot be run."""


class PlatformError(ReproError):
    """A declarative platform specification is malformed or inconsistent.

    The message always carries the dotted path of the offending field
    (``ips[2].workload.kind: ...``) so spec authors can fix their file
    without reading the library source.
    """


class CampaignError(ReproError):
    """A campaign specification, store or execution request is invalid."""
