"""Tests for the transition table, break-even analysis and energy accounting."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import InvalidTransitionError, PowerModelError
from repro.power import (
    BreakEvenAnalyzer,
    EnergyAccount,
    EnergyCategory,
    EnergyLedger,
    PowerState,
    SLEEP_STATES,
    TransitionCost,
    TransitionTable,
    break_even_time,
    default_characterization,
    default_transition_table,
)
from repro.sim import ZERO_TIME, ms, us, sec


class TestTransitionTable:
    def test_default_table_allows_all_cross_state_moves(self):
        table = default_transition_table()
        states = [PowerState.ON1, PowerState.ON4, PowerState.SL1, PowerState.SL4, PowerState.OFF]
        for source in states:
            for target in states:
                assert table.is_allowed(source, target)

    def test_dense_costs_mirror_the_table(self):
        costs = {
            (PowerState.ON1, PowerState.SL1): TransitionCost(1e-6, us(5)),
            (PowerState.SL1, PowerState.ON1): TransitionCost(2e-6, us(7)),
        }
        for table in (default_transition_table(), TransitionTable(costs)):
            assert isinstance(table.dense_costs, tuple)
            for source in PowerState:
                for target in PowerState:
                    dense = table.dense_costs[source._idx * 16 + target._idx]
                    if source is not target and table.is_allowed(source, target):
                        assert dense is table.cost(source, target)
                    else:
                        assert dense is None

    def test_self_transition_is_free(self):
        table = default_transition_table()
        cost = table.cost(PowerState.ON2, PowerState.ON2)
        assert cost.energy_j == 0.0
        assert cost.latency.is_zero

    def test_deeper_sleep_costs_more(self):
        table = default_transition_table()
        latencies = [table.latency(PowerState.ON1, state).seconds for state in SLEEP_STATES]
        energies = [table.energy_j(PowerState.ON1, state) for state in SLEEP_STATES]
        assert latencies == sorted(latencies)
        assert energies == sorted(energies)

    def test_wakeup_slower_than_entry(self):
        table = default_transition_table()
        for state in SLEEP_STATES:
            assert (
                table.latency(state, PowerState.ON1).femtoseconds
                > table.latency(PowerState.ON1, state).femtoseconds
            )

    def test_round_trip_cost_is_sum(self):
        table = default_transition_table()
        round_trip = table.round_trip_cost(PowerState.ON1, PowerState.SL2)
        enter = table.cost(PowerState.ON1, PowerState.SL2)
        leave = table.cost(PowerState.SL2, PowerState.ON1)
        assert round_trip.energy_j == pytest.approx(enter.energy_j + leave.energy_j)
        assert round_trip.latency == enter.latency + leave.latency

    def test_missing_transition_raises(self):
        table = TransitionTable({(PowerState.ON1, PowerState.SL1): TransitionCost(1e-6, us(10))})
        assert table.is_allowed(PowerState.ON1, PowerState.SL1)
        assert not table.is_allowed(PowerState.SL1, PowerState.ON1)
        with pytest.raises(InvalidTransitionError):
            table.cost(PowerState.SL1, PowerState.ON1)

    def test_negative_energy_rejected(self):
        with pytest.raises(PowerModelError):
            TransitionCost(-1.0, us(1))

    def test_non_free_self_transition_rejected(self):
        with pytest.raises(PowerModelError):
            TransitionTable({(PowerState.ON1, PowerState.ON1): TransitionCost(1e-6, us(1))})

    def test_invalid_reference_power_rejected(self):
        with pytest.raises(PowerModelError):
            default_transition_table(reference_power_w=0.0)

    def test_as_dict_contains_pairs(self):
        data = default_transition_table().as_dict()
        assert "ON1->SL1" in data
        assert data["ON1->SL1"]["energy_j"] > 0.0


class TestBreakEvenFormula:
    def test_simple_break_even(self):
        # Idle 100 mW, sleep 10 mW, transition costs 1 mJ over 1 ms.
        threshold = break_even_time(0.1, 0.01, 1e-3, ms(1))
        # (1e-3 - 0.01*1e-3) / (0.1 - 0.01) = 0.011 s
        assert threshold.seconds == pytest.approx(0.011, rel=1e-6)

    def test_break_even_never_below_transition_latency(self):
        threshold = break_even_time(0.1, 0.0, 0.0, ms(5))
        assert threshold == ms(5)

    def test_unreachable_state_returns_none(self):
        assert break_even_time(0.05, 0.05, 1e-3, ms(1)) is None
        assert break_even_time(0.05, 0.10, 1e-3, ms(1)) is None

    def test_negative_inputs_rejected(self):
        with pytest.raises(PowerModelError):
            break_even_time(-0.1, 0.01, 1e-3, ms(1))

    @given(
        idle=st.floats(min_value=0.01, max_value=1.0),
        sleep_fraction=st.floats(min_value=0.0, max_value=0.9),
        energy=st.floats(min_value=0.0, max_value=1e-2),
        latency_us=st.floats(min_value=1.0, max_value=1e4),
    )
    def test_break_even_monotonic_in_transition_energy(self, idle, sleep_fraction, energy, latency_us):
        sleep = idle * sleep_fraction
        latency = us(latency_us)
        small = break_even_time(idle, sleep, energy, latency)
        large = break_even_time(idle, sleep, energy * 2 + 1e-6, latency)
        assert small is not None and large is not None
        assert large.femtoseconds >= small.femtoseconds


class TestBreakEvenAnalyzer:
    @pytest.fixture
    def analyzer(self):
        return BreakEvenAnalyzer(default_characterization(), default_transition_table())

    def test_deeper_states_have_longer_break_even(self, analyzer):
        thresholds = [analyzer.break_even(state) for state in SLEEP_STATES]
        assert all(threshold is not None for threshold in thresholds)
        values = [threshold.seconds for threshold in thresholds]
        assert values == sorted(values)

    def test_short_idle_selects_no_state(self, analyzer):
        assert analyzer.best_state_for(us(1)) is None

    def test_long_idle_selects_deep_state(self, analyzer):
        state = analyzer.best_state_for(sec(10))
        assert state in (PowerState.SL4, PowerState.OFF)

    def test_moderate_idle_selects_shallow_state(self, analyzer):
        sl1_threshold = analyzer.break_even(PowerState.SL1)
        sl2_threshold = analyzer.break_even(PowerState.SL2)
        idle = (sl1_threshold + sl2_threshold) / 2
        state = analyzer.best_state_for(idle)
        assert state is PowerState.SL1

    def test_disallowing_off_prevents_off(self, analyzer):
        state = analyzer.best_state_for(sec(100), allow_off=False)
        assert state is PowerState.SL4

    def test_reference_state_must_be_on(self):
        with pytest.raises(PowerModelError):
            BreakEvenAnalyzer(
                default_characterization(),
                default_transition_table(),
                reference_on_state=PowerState.SL1,
            )

    def test_candidate_state_must_be_low_power(self):
        with pytest.raises(PowerModelError):
            BreakEvenAnalyzer(
                default_characterization(),
                default_transition_table(),
                candidate_states=[PowerState.ON2],
            )

    def test_entry_lookup_and_summary(self, analyzer):
        entry = analyzer.entry(PowerState.SL1)
        assert entry.reachable
        assert entry.round_trip_energy_j > 0.0
        summary = analyzer.summary()
        assert set(summary) == {"SL1", "SL2", "SL3", "SL4", "OFF"}
        with pytest.raises(PowerModelError):
            analyzer.entry(PowerState.ON1)

    def test_saving_positive_beyond_break_even(self, analyzer):
        char = default_characterization()
        idle_power = char.idle_power_w(PowerState.ON1)
        entry = analyzer.entry(PowerState.SL2)
        beyond = entry.break_even * 2
        assert entry.saving_j(idle_power, beyond) > 0.0

    def test_saving_negative_below_break_even(self, analyzer):
        char = default_characterization()
        idle_power = char.idle_power_w(PowerState.ON1)
        entry = analyzer.entry(PowerState.SL4)
        below = entry.break_even / 10
        assert entry.saving_j(idle_power, below) < 0.0


class TestEnergyAccounting:
    def test_account_accumulates_by_category(self):
        account = EnergyAccount("ip0")
        account.add_energy(1.0, EnergyCategory.ACTIVE)
        account.add_energy(0.5, EnergyCategory.IDLE)
        account.add_power(2.0, sec(3), EnergyCategory.SLEEP)
        assert account.total_j == pytest.approx(7.5)
        assert account.category_j(EnergyCategory.SLEEP) == pytest.approx(6.0)
        assert account.deposit_count == 3
        assert account.breakdown[EnergyCategory.ACTIVE] == pytest.approx(1.0)

    def test_negative_energy_rejected(self):
        account = EnergyAccount("ip0")
        with pytest.raises(PowerModelError):
            account.add_energy(-1.0)
        with pytest.raises(PowerModelError):
            account.add_power(-1.0, sec(1))

    def test_average_power(self):
        account = EnergyAccount("ip0")
        account.add_energy(10.0)
        assert account.average_power_w(sec(5)) == pytest.approx(2.0)
        assert account.average_power_w(ZERO_TIME) == 0.0

    def test_ledger_aggregation_and_exclusion(self):
        ledger = EnergyLedger()
        ledger.account("ip0").add_energy(1.0)
        ledger.account("ip1").add_energy(2.0)
        ledger.account("ip2").add_energy(4.0)
        assert ledger.total_j == pytest.approx(7.0)
        assert ledger.total_excluding("ip1") == pytest.approx(5.0)
        assert set(ledger.owners) == {"ip0", "ip1", "ip2"}
        assert ledger.totals_by_owner()["ip2"] == pytest.approx(4.0)

    def test_ledger_register_conflict(self):
        ledger = EnergyLedger()
        first = ledger.account("ip0")
        assert ledger.register(first) is first
        with pytest.raises(PowerModelError):
            ledger.register(EnergyAccount("ip0"))

    def test_ledger_total_tracks_every_deposit_after_a_read(self):
        ledger = EnergyLedger()
        first = ledger.account("ip0")
        first.add_energy(1.0)
        assert ledger.total_j == 1.0
        ledger.account("ip1").add_energy(0.25)
        assert ledger.total_j == 1.25
        first.add_power_fs(2.0, 10**15)
        registered = ledger.register(EnergyAccount("fan"))
        assert ledger.total_j == 3.25
        registered.add_energy(0.5)
        assert ledger.total_j == 3.75

    def test_add_power_matches_its_femtosecond_core(self):
        by_time = EnergyAccount("a")
        by_fs = EnergyAccount("b")
        by_time.add_power(0.37, us(1234))
        by_fs.add_power_fs(0.37, int(us(1234)))
        assert by_time.total_j.hex() == by_fs.total_j.hex()

    def test_ledger_average_power(self):
        ledger = EnergyLedger()
        ledger.account("ip0").add_energy(3.0)
        assert ledger.average_power_w(sec(3)) == pytest.approx(1.0)
        assert ledger.average_power_w(ZERO_TIME) == 0.0

    @given(st.lists(st.floats(min_value=0.0, max_value=1e3), max_size=30))
    def test_total_is_sum_of_deposits(self, deposits):
        account = EnergyAccount("x")
        for value in deposits:
            account.add_energy(value)
        assert account.total_j == pytest.approx(sum(deposits))
