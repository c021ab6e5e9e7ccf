"""Backend resolution for the accelerated ("native") kernel core.

The kernel's hot path — the timed notification heap — has a compiled C
implementation in :mod:`repro.sim._nativecore`, built as an *optional*
extension (``pip install .[native]`` or ``python setup.py build_ext
--inplace``).  This module is the single place that decides which
implementation a :class:`~repro.sim.kernel.Kernel` uses:

* ``backend="python"`` — the pure-Python reference queue.  Always
  available; this is the default.
* ``backend="native"`` — the compiled queue.  Falls back to Python when
  the extension is not importable (no compiler at install time, source
  checkout without a build, unsupported platform); the fallback reason is
  recorded on the :class:`BackendResolution` so CLIs and traces can report
  *why* a run is not accelerated.
* ``backend="auto"`` — native when available, python otherwise, with no
  fallback complaint either way.
* ``backend=None`` — consult the ``REPRO_SIM_BACKEND`` environment
  variable, defaulting to ``python``.

The compiled queue is pop-order-identical to the Python queue (ties
included), so the two backends produce bit-identical simulations; the
golden suite pins this in CI.  The only documented divergence: the native
queue holds times in a C int64, so scheduling beyond ~9.2e3 simulated
seconds raises ``OverflowError`` instead of running arbitrarily far.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "BACKENDS",
    "ENV_VAR",
    "BackendResolution",
    "available",
    "load",
    "resolve_backend",
    "unavailable_reason",
]

#: accepted values of the ``backend`` parameter / ``REPRO_SIM_BACKEND``
BACKENDS = ("python", "native", "auto")

#: environment variable consulted when no explicit backend is requested
ENV_VAR = "REPRO_SIM_BACKEND"

# Cached import probe: (module or None, reason string when None).
_probe: Optional[Tuple[Any, str]] = None


def load() -> Any:
    """The compiled core module, or ``None`` when it is not importable.

    The import is probed once per process and cached — backend resolution
    runs on every Kernel construction, which tests do thousands of times.
    """
    global _probe
    if _probe is None:
        try:
            from repro.sim import _nativecore

            _probe = (_nativecore, "")
        except ImportError as error:
            _probe = (None, f"compiled core not importable: {error}")
    return _probe[0]


def available() -> bool:
    """True when the compiled core can be imported."""
    return load() is not None


def unavailable_reason() -> str:
    """Why the compiled core is unavailable (empty string when it is)."""
    load()
    return _probe[1]


@dataclass(frozen=True)
class BackendResolution:
    """Outcome of resolving a backend request against availability."""

    #: the backend actually in effect: ``"python"`` or ``"native"``
    backend: str
    #: what was asked for (after the environment default was applied)
    requested: str
    #: non-empty when a ``native`` request fell back to ``python``
    reason: str = ""

    @property
    def fell_back(self) -> bool:
        """True when an explicit ``native`` request could not be honoured."""
        return bool(self.reason)

    def describe(self) -> str:
        """One-line human-readable form for CLI output and reports."""
        if self.reason:
            return f"{self.backend} (requested native: {self.reason})"
        return self.backend


def resolve_backend(requested: "str | None" = None) -> BackendResolution:
    """Resolve a backend request to the implementation actually used.

    ``None`` consults ``REPRO_SIM_BACKEND`` (default ``python``).  An
    unknown value — from the parameter or the environment — raises
    :class:`~repro.errors.ConfigurationError` rather than silently running
    on an unintended backend.
    """
    if requested is None:
        requested = os.environ.get(ENV_VAR) or "python"
    if requested not in BACKENDS:
        raise ConfigurationError(
            f"unknown simulation backend {requested!r} "
            f"(expected one of: {', '.join(BACKENDS)})"
        )
    if requested == "python":
        return BackendResolution("python", "python")
    if available():
        return BackendResolution("native", requested)
    if requested == "auto":
        # "Best available" got the best available; nothing to complain about.
        return BackendResolution("python", "auto")
    return BackendResolution("python", "native", unavailable_reason())
