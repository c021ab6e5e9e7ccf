"""High-level simulator facade.

The :class:`Simulator` owns a :class:`~repro.sim.kernel.Kernel`, the
top-level modules and an optional :class:`~repro.sim.trace.TraceRecorder`.
Models are built as modules on :attr:`Simulator.kernel` and run with
``simulator.kernel.run(duration)``; the SoC runner reports the speed of a
run on :class:`~repro.experiments.runner.RunArtifacts`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import ElaborationError
from repro.sim.accuracy import AccuracyMode
from repro.sim.kernel import Kernel
from repro.sim.module import Module
from repro.sim.simtime import SimTime
from repro.sim.trace import TraceRecorder

__all__ = ["Simulator"]


class Simulator:
    """Owns the kernel, the module hierarchy and the trace recorder."""

    def __init__(
        self,
        name: str = "sim",
        trace: bool = False,
        accuracy: "AccuracyMode | str" = AccuracyMode.EXACT,
        backend: Optional[str] = None,
    ) -> None:
        self.name = name
        self.accuracy = AccuracyMode.from_name(accuracy)
        self.kernel = Kernel(backend=backend)
        self._top_modules: List[Module] = []
        self.trace: Optional[TraceRecorder] = TraceRecorder() if trace else None

    @property
    def backend(self) -> str:
        """The timed-queue backend in effect (``"python"`` or ``"native"``)."""
        return self.kernel.backend

    @property
    def backend_resolution(self):
        """Full :class:`~repro.sim.native.BackendResolution` of this run."""
        return self.kernel.backend_resolution

    # -- construction ------------------------------------------------------
    def add_module(self, module: Module) -> Module:
        """Register a top-level module (one without a parent)."""
        if module.parent is not None:
            raise ElaborationError(
                f"module {module.name!r} has a parent and cannot be a top-level module"
            )
        if any(existing.basename == module.basename for existing in self._top_modules):
            raise ElaborationError(f"duplicate top-level module name {module.basename!r}")
        self._top_modules.append(module)
        return module

    @property
    def top_modules(self) -> Sequence[Module]:
        """Registered top-level modules."""
        return list(self._top_modules)

    def find(self, path: str) -> Module:
        """Find a module anywhere in the design by dot-separated path."""
        head, _, rest = path.partition(".")
        for module in self._top_modules:
            if module.basename == head:
                return module.find(rest) if rest else module
        raise ElaborationError(f"no top-level module named {head!r}")

    # -- lifecycle ------------------------------------------------------------
    def stop(self) -> None:
        """Request the kernel to stop."""
        self.kernel.stop()

    # -- results -----------------------------------------------------------------
    @property
    def now(self) -> SimTime:
        """Current simulated time."""
        return self.kernel.now

    def design_tree(self) -> str:
        """Printable tree of the whole design."""
        return "\n".join(module.design_tree() for module in self._top_modules)

    def watch(self, *signals) -> None:
        """Trace the given signals (enables tracing if it was off)."""
        if self.trace is None:
            self.trace = TraceRecorder()
        for signal in signals:
            self.trace.watch(signal)
