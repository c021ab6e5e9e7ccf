"""Tests for idle-time predictors and DPM policies."""

import pytest
from hypothesis import given, strategies as st

from repro.dpm import (
    AdaptivePredictor,
    AlwaysOnPolicy,
    BatteryLevel,
    DpmSetup,
    ExponentialAveragePredictor,
    FixedPredictor,
    FixedTimeoutPolicy,
    GreedySleepPolicy,
    LastValuePredictor,
    OraclePolicy,
    RuleBasedPolicy,
    RuleContext,
    TaskPriority,
    TemperatureLevel,
    default_predictor,
)
from repro.errors import ConfigurationError
from repro.power import (
    BreakEvenAnalyzer,
    PowerState,
    default_characterization,
    default_transition_table,
)
from repro.sim import SimTime, ms, sec, us


@pytest.fixture(scope="module")
def analyzer():
    return BreakEvenAnalyzer(default_characterization(), default_transition_table())


def context(priority=TaskPriority.MEDIUM, battery=BatteryLevel.FULL, temp=TemperatureLevel.LOW):
    return RuleContext(priority, battery, temp)


class TestPredictors:
    def test_fixed_predictor(self):
        predictor = FixedPredictor(ms(2))
        assert predictor.predict() == ms(2)
        predictor.update(ms(10))
        assert predictor.predict() == ms(2)

    def test_last_value_predictor(self):
        predictor = LastValuePredictor(initial=ms(1))
        assert predictor.predict() == ms(1)
        predictor.update(ms(4))
        assert predictor.predict() == ms(4)

    def test_ewma_converges_to_constant_input(self):
        predictor = ExponentialAveragePredictor(alpha=0.5, initial=ms(1))
        for _ in range(20):
            predictor.update(ms(8))
        assert predictor.predict().seconds == pytest.approx(0.008, rel=1e-3)

    def test_ewma_alpha_validation(self):
        with pytest.raises(ConfigurationError):
            ExponentialAveragePredictor(alpha=0.0)
        with pytest.raises(ConfigurationError):
            ExponentialAveragePredictor(alpha=1.5)

    def test_adaptive_clamps_to_bounds(self):
        predictor = AdaptivePredictor(floor=us(100), ceiling=ms(2), initial=ms(1))
        for _ in range(50):
            predictor.update(sec(1))
        assert predictor.predict() == ms(2)
        for _ in range(50):
            predictor.update(us(1))
        assert predictor.predict() == us(100)

    def test_adaptive_validation(self):
        with pytest.raises(ConfigurationError):
            AdaptivePredictor(grow_factor=0.5)
        with pytest.raises(ConfigurationError):
            AdaptivePredictor(shrink_factor=0.0)
        with pytest.raises(ConfigurationError):
            AdaptivePredictor(floor=ms(10), ceiling=ms(1))

    def test_default_predictor_is_ewma(self):
        assert isinstance(default_predictor(), ExponentialAveragePredictor)

    @given(st.lists(st.integers(min_value=1, max_value=10**7), min_size=1, max_size=50))
    def test_ewma_prediction_bounded_by_observations(self, idles_us):
        predictor = ExponentialAveragePredictor(alpha=0.5, initial=us(idles_us[0]))
        for value in idles_us:
            predictor.update(us(value))
        prediction = predictor.predict()
        assert us(min(idles_us)).femtoseconds <= prediction.femtoseconds <= us(max(idles_us)).femtoseconds + 1

    @given(
        st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=30),
        st.sampled_from(["fixed", "last-value", "ewma", "adaptive"]),
    )
    def test_all_predictors_return_valid_times(self, idles_us, kind):
        factories = {
            "fixed": FixedPredictor,
            "last-value": LastValuePredictor,
            "ewma": ExponentialAveragePredictor,
            "adaptive": AdaptivePredictor,
        }
        predictor = factories[kind]()
        for value in idles_us:
            predictor.update(us(value))
            prediction = predictor.predict()
            assert isinstance(prediction, SimTime)
            assert prediction.femtoseconds >= 0


class TestPolicies:
    def test_rule_based_policy_uses_table1(self, analyzer):
        policy = RuleBasedPolicy()
        assert policy.select_on_state(context(TaskPriority.VERY_HIGH)) is PowerState.ON1
        assert policy.select_on_state(context(TaskPriority.LOW)) is PowerState.ON2
        assert (
            policy.select_on_state(context(TaskPriority.LOW, BatteryLevel.EMPTY))
            is PowerState.SL1
        )

    def test_rule_based_idle_uses_breakeven(self, analyzer):
        policy = RuleBasedPolicy()
        assert policy.select_idle_state(us(1), analyzer) is None
        assert policy.select_idle_state(sec(10), analyzer) in (PowerState.SL4, PowerState.OFF)

    def test_rule_based_allow_off_false(self, analyzer):
        policy = RuleBasedPolicy(allow_off=False)
        state = policy.select_idle_state(sec(100), analyzer)
        assert state is PowerState.SL4

    def test_always_on_policy(self, analyzer):
        policy = AlwaysOnPolicy()
        assert policy.select_on_state(context(TaskPriority.LOW, BatteryLevel.EMPTY)) is PowerState.ON1
        assert policy.select_idle_state(sec(10), analyzer) is None

    def test_greedy_sleep_policy(self, analyzer):
        policy = GreedySleepPolicy()
        assert policy.select_on_state(context(TaskPriority.LOW, BatteryLevel.LOW)) is PowerState.ON1
        assert policy.select_idle_state(sec(10), analyzer) is not None

    def test_fixed_timeout_policy(self, analyzer):
        policy = FixedTimeoutPolicy(timeout=ms(3), sleep_state=PowerState.SL3)
        assert policy.uses_timeout
        assert policy.idle_timeout == ms(3)
        assert policy.select_on_state(context()) is PowerState.ON1
        assert policy.select_idle_state(us(1), analyzer) is PowerState.SL3

    def test_fixed_timeout_validation(self):
        with pytest.raises(ConfigurationError):
            FixedTimeoutPolicy(sleep_state=PowerState.ON2)
        with pytest.raises(ConfigurationError):
            FixedTimeoutPolicy(on_state=PowerState.SL1)

    def test_oracle_policy_flags(self, analyzer):
        policy = OraclePolicy()
        assert policy.uses_idle_hint
        assert policy.select_on_state(context()) is PowerState.ON1
        assert policy.select_idle_state(sec(1), analyzer) is not None


class TestDpmSetup:
    def test_paper_preset(self):
        setup = DpmSetup.paper()
        policy = setup.make_policy()
        assert isinstance(policy, RuleBasedPolicy)
        assert setup.make_policy() is not policy  # fresh instance per LEM

    def test_named_presets(self):
        assert isinstance(DpmSetup.always_on().make_policy(), AlwaysOnPolicy)
        assert isinstance(DpmSetup.greedy_sleep().make_policy(), GreedySleepPolicy)
        assert isinstance(DpmSetup.oracle().make_policy(), OraclePolicy)
        timeout_setup = DpmSetup.fixed_timeout(ms(5), PowerState.SL3)
        policy = timeout_setup.make_policy()
        assert policy.idle_timeout == ms(5)
        assert policy.timeout_state is PowerState.SL3

    def test_predictor_presets(self):
        assert isinstance(DpmSetup.with_predictor("ewma").make_predictor(), ExponentialAveragePredictor)
        assert isinstance(DpmSetup.with_predictor("adaptive").make_predictor(), AdaptivePredictor)
        assert isinstance(DpmSetup.with_predictor("fixed").make_predictor(), FixedPredictor)
        assert isinstance(DpmSetup.with_predictor("last-value").make_predictor(), LastValuePredictor)
        with pytest.raises(ValueError):
            DpmSetup.with_predictor("crystal-ball")
