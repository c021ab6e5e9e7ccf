"""Idle-time predictors.

When an IP becomes inactive, the LEM "makes a prediction of the idle time"
and compares it with the break-even time of each low-power state.  The paper
does not fix the predictor, so the library provides the classic choices from
the DPM literature, all sharing the :class:`IdlePredictor` interface:

* :class:`FixedPredictor` — always predicts a constant value (degenerates to
  a plain timeout policy when combined with break-even gating);
* :class:`LastValuePredictor` — predicts the previous idle period;
* :class:`ExponentialAveragePredictor` — EWMA of the observed idle periods,
  the usual "predictive shutdown" estimator;
* :class:`AdaptivePredictor` — EWMA with multiplicative correction when it
  under- or over-predicts, bounded by a floor and a ceiling.

Predictors are deliberately tiny state machines with no simulator
dependencies, which makes them easy to test (including property-based tests)
and to ablate in the benchmarks.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.sim.simtime import SimTime, ms, us

__all__ = [
    "IdlePredictor",
    "FixedPredictor",
    "LastValuePredictor",
    "ExponentialAveragePredictor",
    "AdaptivePredictor",
    "default_predictor",
]


class IdlePredictor:
    """Interface of every idle-time predictor."""

    #: short name used in reports/ablation tables
    kind = "base"

    def predict(self) -> SimTime:
        """Predicted duration of the idle period that is about to start."""
        raise NotImplementedError

    def update(self, actual_idle: SimTime) -> None:
        """Feed back the actually observed idle period."""
        raise NotImplementedError


class FixedPredictor(IdlePredictor):
    """Always predicts the same constant idle time."""

    kind = "fixed"

    def __init__(self, value: SimTime = ms(1)) -> None:
        self.value = value

    def predict(self) -> SimTime:
        return self.value

    def update(self, actual_idle: SimTime) -> None:
        """A constant prediction learns nothing from the observation."""


class LastValuePredictor(IdlePredictor):
    """Predicts that the next idle period equals the previous one."""

    kind = "last-value"

    def __init__(self, initial: SimTime = ms(1)) -> None:
        self.initial = initial
        self._last = initial

    def predict(self) -> SimTime:
        return self._last

    def update(self, actual_idle: SimTime) -> None:
        self._last = actual_idle


class ExponentialAveragePredictor(IdlePredictor):
    """Exponentially weighted moving average of the observed idle periods.

    ``prediction = alpha * last_observation + (1 - alpha) * previous_prediction``
    """

    kind = "ewma"

    def __init__(self, alpha: float = 0.5, initial: SimTime = ms(1)) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(f"EWMA alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.initial = initial
        self._estimate = initial

    def predict(self) -> SimTime:
        return self._estimate

    def update(self, actual_idle: SimTime) -> None:
        blended_fs = (
            self.alpha * actual_idle.femtoseconds
            + (1.0 - self.alpha) * self._estimate.femtoseconds
        )
        self._estimate = SimTime(int(round(blended_fs)))


class AdaptivePredictor(IdlePredictor):
    """EWMA with multiplicative correction and saturation bounds.

    After each observation the estimate is additionally scaled up when the
    predictor under-estimated (missed sleep opportunity) and scaled down when
    it over-estimated (risked a wrong shutdown), then clamped to
    ``[floor, ceiling]``.
    """

    kind = "adaptive"

    def __init__(
        self,
        alpha: float = 0.5,
        initial: SimTime = ms(1),
        grow_factor: float = 1.5,
        shrink_factor: float = 0.75,
        floor: SimTime = us(10),
        ceiling: SimTime = ms(100),
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
        if grow_factor < 1.0 or not 0.0 < shrink_factor <= 1.0:
            raise ConfigurationError("grow factor must be >= 1 and shrink factor in (0, 1]")
        if floor.femtoseconds > ceiling.femtoseconds:
            raise ConfigurationError("floor must not exceed ceiling")
        self.alpha = alpha
        self.initial = initial
        self.grow_factor = grow_factor
        self.shrink_factor = shrink_factor
        self.floor = floor
        self.ceiling = ceiling
        self._estimate = self._clamp(initial)

    def _clamp(self, value: SimTime) -> SimTime:
        fs = min(max(value.femtoseconds, self.floor.femtoseconds), self.ceiling.femtoseconds)
        return SimTime(fs)

    def predict(self) -> SimTime:
        return self._estimate

    def update(self, actual_idle: SimTime) -> None:
        blended_fs = (
            self.alpha * actual_idle.femtoseconds
            + (1.0 - self.alpha) * self._estimate.femtoseconds
        )
        if actual_idle.femtoseconds > self._estimate.femtoseconds:
            blended_fs *= self.grow_factor
        elif actual_idle.femtoseconds < self._estimate.femtoseconds:
            blended_fs *= self.shrink_factor
        self._estimate = self._clamp(SimTime(int(round(blended_fs))))


def default_predictor() -> IdlePredictor:
    """The predictor used by the experiments (EWMA, alpha = 0.5)."""
    return ExponentialAveragePredictor(alpha=0.5)
