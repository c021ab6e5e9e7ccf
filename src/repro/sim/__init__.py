"""SystemC-like discrete-event simulation kernel.

This subpackage is the substrate the paper's SystemC 2.0 models run on:
modules, signals with delta-cycle semantics, thread and method processes
(a thread waits on a duration, an event, or any of several events with
:class:`AnyOf`), events, an analytic clock edge schedule and a
:class:`~repro.sim.simulator.Simulator` facade that owns the kernel.
"""

from repro.sim.accuracy import AccuracyMode
from repro.sim.clock import Clock
from repro.sim.event import Event
from repro.sim.kernel import Kernel, KernelStatistics
from repro.sim.module import Module
from repro.sim.native import BackendResolution, resolve_backend
from repro.sim.process import AnyOf, MethodProcess, Process, ThreadProcess
from repro.sim.signal import Signal
from repro.sim.simtime import (
    SimTime,
    TimeUnit,
    ZERO_TIME,
    fs,
    ms,
    ns,
    ps,
    sec,
    us,
)
from repro.sim.simulator import Simulator

__all__ = [
    "AccuracyMode",
    "AnyOf",
    "BackendResolution",
    "Clock",
    "Event",
    "Kernel",
    "KernelStatistics",
    "MethodProcess",
    "Module",
    "Process",
    "SimTime",
    "Simulator",
    "Signal",
    "ThreadProcess",
    "TimeUnit",
    "ZERO_TIME",
    "fs",
    "ms",
    "ns",
    "ps",
    "resolve_backend",
    "sec",
    "us",
]
