"""The SoC's sample record, kept as columns.

Every sample window, exact or replayed by the fast engine, publishes one
battery state of charge and one chip temperature.  The record keeps them as
three columns of one row per sampled instant instead of a tuple per sensor:
the time column holds the kernel's own integer femtoseconds (a list, so
simulated time stays unbounded where a 64-bit ``array('q')`` would overflow
past 2**63 fs, about 2.56 simulated hours), and the two value columns are
``array('d')``.  The battery monitor and the temperature sensor read their
``history`` from it.
"""

from __future__ import annotations

from array import array
from typing import List

__all__ = ["SampleColumns"]


class SampleColumns:
    """One row per sampled instant: time, state of charge, temperature.

    :meth:`append` is the only writer, so the three columns always have the
    same length.  The attributes are the live columns: readers may index,
    slice and iterate them, but must not resize them.
    """

    __slots__ = ("times_fs", "state_of_charge", "temperature_c")

    def __init__(self) -> None:
        self.times_fs: List[int] = []
        self.state_of_charge = array("d")
        self.temperature_c = array("d")

    def append(self, now_fs: int, state_of_charge: float, temperature_c: float) -> None:
        """Record one sampled instant."""
        self.times_fs.append(now_fs)
        self.state_of_charge.append(state_of_charge)
        self.temperature_c.append(temperature_c)
