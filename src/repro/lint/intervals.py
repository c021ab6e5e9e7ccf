"""Interval arithmetic for the reachability engine (:mod:`repro.lint.reach`).

A tiny, closed-form toolkit: an :class:`Interval` of floats and
crossing-time solvers for the two trajectory shapes the abstract
interpreter propagates — linear battery drain and first-order
(RC) thermal relaxation.  Everything here is direction-agnostic maths; the
physical soundness arguments live in :mod:`repro.lint.reach`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "Interval",
    "exp_crossing_time",
    "exp_value",
    "linear_crossing_time",
]


@dataclass(frozen=True)
class Interval:
    """A closed interval ``[lo, hi]`` of floats."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"interval lower bound {self.lo} exceeds upper bound {self.hi}")

    @classmethod
    def point(cls, value: float) -> "Interval":
        return cls(value, value)

    @property
    def width(self) -> float:
        return self.hi - self.lo


def linear_crossing_time(start: float, rate: float, threshold: float) -> Optional[float]:
    """First ``t >= 0`` at which ``start + rate * t`` reaches ``threshold``.

    Returns ``0.0`` when the trajectory already sits at or beyond the
    threshold in its direction of travel, and ``None`` when the threshold is
    never reached (rate pointing away from it, or zero rate short of it).
    """
    if rate > 0.0:
        if start >= threshold:
            return 0.0
        return (threshold - start) / rate
    if rate < 0.0:
        if start <= threshold:
            return 0.0
        return (threshold - start) / rate
    # Static trajectory: only "reaches" thresholds it already satisfies.
    return 0.0 if start == threshold else None


def exp_value(start: float, steady: float, tau_s: float, t_s: float) -> float:
    """Value at ``t`` of the RC relaxation ``steady + (start - steady) e^{-t/tau}``."""
    if t_s <= 0.0:
        return start
    if tau_s <= 0.0:
        return steady
    return steady + (start - steady) * math.exp(-t_s / tau_s)


def exp_crossing_time(start: float, steady: float, tau_s: float, threshold: float) -> Optional[float]:
    """First ``t >= 0`` at which the RC relaxation reaches ``threshold``.

    The trajectory moves monotonically from ``start`` toward ``steady``, so a
    threshold is crossed at most once.  Returns ``0.0`` when already at/past
    the threshold in the direction of travel, ``None`` when the threshold lies
    outside ``[start, steady)``'s reach.
    """
    if start == threshold:
        return 0.0
    if tau_s <= 0.0:
        # Instantaneous relaxation: jumps to steady at t=0+.
        if start < threshold <= steady or steady <= threshold < start:
            return 0.0
        return None
    if start < steady:  # heating toward steady
        if threshold <= start:
            return 0.0
        if threshold >= steady:
            return None
    else:  # cooling toward steady
        if threshold >= start:
            return 0.0
        if threshold <= steady:
            return None
    ratio = (threshold - steady) / (start - steady)
    if ratio <= 0.0:  # numerically at/beyond steady
        return None
    return -tau_s * math.log(ratio)
