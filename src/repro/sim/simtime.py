"""Simulated time for the discrete-event kernel.

Time is stored internally as an integer number of *femtoseconds*, mirroring
SystemC's ``sc_time`` which uses an integer count of a fixed resolution.
Using integers keeps event ordering exact: two events scheduled at the same
instant compare equal regardless of how the instant was computed.

:class:`SimTime` subclasses :class:`int`, so an instance *is* its
femtosecond count.  That makes comparisons, hashing and heap ordering run at
C speed and lets the kernel hot path (the timed queue, ``Kernel._simulate``
and the signal timestamps) work on raw integers while ``SimTime`` stays the
public value type at layer boundaries.  The SimTime-specific operators are
preserved: ``+``/``-`` between two times (adding a unitless number raises
``TypeError``), scaling by a scalar, and ``time / time`` returning a plain
ratio.  One caveat of the int subclassing: with a plain ``int`` on the
*left* (``3 + ns(5)``), int's own operator runs and yields a plain integer
of femtoseconds — the kernel relies on exactly that for its raw-integer
arithmetic.

The public entry points are :class:`TimeUnit`, :class:`SimTime` and the
convenience constructors :func:`fs`, :func:`ps`, :func:`ns`, :func:`us`,
:func:`ms` and :func:`sec`.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, NoReturn, Union

from repro.errors import SimulationError

__all__ = [
    "TimeUnit",
    "SimTime",
    "ZERO_TIME",
    "fs",
    "ps",
    "ns",
    "us",
    "ms",
    "sec",
]


class TimeUnit(Enum):
    """Time units supported by :class:`SimTime`, with their femtosecond scale."""

    FS = 1
    PS = 1_000
    NS = 1_000_000
    US = 1_000_000_000
    MS = 1_000_000_000_000
    S = 1_000_000_000_000_000

    @property
    def femtoseconds(self) -> int:
        """Number of femtoseconds in one unit."""
        return self.value

    @property
    def symbol(self) -> str:
        """Short printable symbol (``"ns"``, ``"us"``...)."""
        return self.name.lower()


_FS_PER_S = 1_000_000_000_000_000
_FS_PER_NS = 1_000_000


class SimTime(int):
    """An absolute instant or a duration of simulated time.

    Instances are immutable and totally ordered.  Arithmetic keeps full
    integer precision; scaling by a float rounds to the nearest femtosecond.

    Examples
    --------
    >>> SimTime.from_value(5, TimeUnit.NS) + SimTime.from_value(500, TimeUnit.PS)
    SimTime(5.5 ns)
    >>> ns(2) * 3 == ns(6)
    True
    """

    __slots__ = ()

    def __new__(cls, femtoseconds: int = 0) -> "SimTime":
        return int.__new__(cls, femtoseconds)

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_value(value: Union[int, float], unit: TimeUnit) -> "SimTime":
        """Build a :class:`SimTime` from ``value`` expressed in ``unit``."""
        if value < 0:
            raise SimulationError(f"simulated time cannot be negative: {value} {unit.symbol}")
        if not math.isfinite(value):
            raise SimulationError(f"simulated time must be finite: {value!r}")
        # unit._value_ skips the DynamicClassAttribute descriptor of .value,
        # which is measurable on hot construction paths.
        return SimTime(int(round(value * unit._value_)))

    # -- conversions ---------------------------------------------------
    @property
    def femtoseconds(self) -> int:
        """The raw femtosecond count as a plain integer."""
        return int(self)

    def to_value(self, unit: TimeUnit) -> float:
        """Return this time expressed in ``unit`` as a float."""
        return int(self) / unit.value

    @property
    def seconds(self) -> float:
        """This time expressed in seconds."""
        return int(self) / _FS_PER_S

    @property
    def is_zero(self) -> bool:
        """True when the time equals zero."""
        return int(self) == 0

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other: "SimTime") -> "SimTime":
        if not isinstance(other, SimTime):
            # Raise eagerly instead of returning NotImplemented: int's
            # reflected __radd__ would otherwise silently treat a unitless
            # number as femtoseconds (``ns(5) + 3``).
            raise TypeError(
                f"can only add SimTime to SimTime, not {type(other).__name__}"
            )
        return SimTime(int(self) + int(other))

    def __sub__(self, other: "SimTime") -> "SimTime":
        if not isinstance(other, SimTime):
            raise TypeError(
                f"can only subtract SimTime from SimTime, not {type(other).__name__}"
            )
        if int(other) > int(self):
            raise SimulationError("simulated time subtraction would be negative")
        return SimTime(int(self) - int(other))

    def __rsub__(self, other: object) -> NoReturn:
        # Block int's reflected subtraction: ``3 - ns(1)`` would otherwise
        # silently produce a plain (possibly negative) femtosecond count.
        raise TypeError(
            f"can only subtract SimTime from SimTime, not {type(other).__name__}"
        )

    def __mul__(self, factor: Union[int, float]) -> "SimTime":
        if isinstance(factor, SimTime) or not isinstance(factor, (int, float)):
            return NotImplemented
        if factor < 0:
            raise SimulationError("cannot scale a simulated time by a negative factor")
        return SimTime(int(round(int(self) * factor)))

    __rmul__ = __mul__

    def __truediv__(self, other: Union["SimTime", int, float]) -> Union[float, "SimTime"]:
        if isinstance(other, SimTime):
            if int(other) == 0:
                raise ZeroDivisionError("division by zero simulated time")
            return int(self) / int(other)
        if isinstance(other, (int, float)):
            if other == 0:
                raise ZeroDivisionError("division of simulated time by zero")
            if other < 0:
                raise SimulationError("cannot divide a simulated time by a negative factor")
            return SimTime(int(round(int(self) / other)))
        return NotImplemented

    # `__bool__`, `__eq__`, ordering and `__hash__` are int's (C speed).

    # -- display -------------------------------------------------------
    def _best_unit(self) -> TimeUnit:
        value = int(self)
        for unit in (TimeUnit.S, TimeUnit.MS, TimeUnit.US, TimeUnit.NS, TimeUnit.PS):
            if value >= unit.value:
                return unit
        return TimeUnit.FS

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        unit = self._best_unit()
        return f"SimTime({self.to_value(unit):g} {unit.symbol})"

    def __str__(self) -> str:
        unit = self._best_unit()
        return f"{self.to_value(unit):g} {unit.symbol}"

    def __format__(self, spec: str) -> str:
        # int defines __format__; route the empty spec to the SimTime string
        # rendering so f-strings keep printing "5 ns" rather than a raw count.
        if not spec:
            return self.__str__()
        return format(self.__str__(), spec)


ZERO_TIME = SimTime(0)


def _unit_constructor(name: str, unit: TimeUnit, doc: str) -> Callable[..., SimTime]:
    """Build one unit constructor closure.

    The closure special-cases exact integer values: an ``int`` scaled by the
    (integer) femtosecond factor needs neither the finiteness check nor the
    rounding of the general path, and both paths produce the same count.  A
    closure (rather than a shared helper called from six thin wrappers)
    keeps the fast path at a single call.  ``name`` must match the module
    binding so the constructor stays picklable (the campaign subsystem
    ships callables through multiprocessing).
    """
    factor = unit.value
    symbol = unit.symbol

    def constructor(value: Union[int, float]) -> SimTime:
        if type(value) is int:
            if value < 0:
                raise SimulationError(
                    f"simulated time cannot be negative: {value} {symbol}"
                )
            return SimTime(value * factor)
        return SimTime.from_value(value, unit)

    constructor.__name__ = name
    constructor.__qualname__ = name
    constructor.__doc__ = doc
    return constructor


fs = _unit_constructor("fs", TimeUnit.FS, "Femtoseconds constructor: ``fs(3)`` is three femtoseconds.")
ps = _unit_constructor("ps", TimeUnit.PS, "Picoseconds constructor.")
ns = _unit_constructor("ns", TimeUnit.NS, "Nanoseconds constructor.")
us = _unit_constructor("us", TimeUnit.US, "Microseconds constructor.")
ms = _unit_constructor("ms", TimeUnit.MS, "Milliseconds constructor.")
sec = _unit_constructor("sec", TimeUnit.S, "Seconds constructor.")
