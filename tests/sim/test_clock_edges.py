"""Clock.next_posedge_fs against rising edges recorded from a toggling clock.

The lists below are the first rising edges (absolute femtoseconds) that a
clock generator driving a boolean output signal produced for each case.
They pin the analytic edge schedule the cycle-accurate bus arbitrates on:
``next_posedge_fs`` must land on exactly these instants, whether it is
queried before an edge, exactly on one or just after one.
"""

import pytest

from repro.sim import Clock, Kernel, SimTime, fs, ns

PRIME_PERIOD = fs(10_000_019)  # adversarial: the duty split must round
LATE_START_FS = 7_000_003  # clock created after the kernel already advanced

CASES = [
    # (period, duty_cycle, start_high, created_at_fs, first rising edges)
    (ns(10), 0.5, True, 0, [10_000_000, 20_000_000, 30_000_000, 40_000_000]),
    (ns(10), 0.5, False, 0, [5_000_000, 15_000_000, 25_000_000, 35_000_000]),
    (PRIME_PERIOD, 1.0 / 3.0, True, 0, [10_000_019, 20_000_038, 30_000_057, 40_000_076]),
    (PRIME_PERIOD, 1.0 / 3.0, False, 0, [6_666_679, 16_666_698, 26_666_717, 36_666_736]),
    (ns(10), 0.5, True, LATE_START_FS, [17_000_003, 27_000_003, 37_000_003, 47_000_003]),
    (PRIME_PERIOD, 1.0 / 3.0, False, LATE_START_FS,
     [13_666_682, 23_666_701, 33_666_720, 43_666_739]),
]


def _clock_created_at(created_at_fs, period, duty_cycle, start_high):
    kernel = Kernel()
    if created_at_fs:
        def idle():
            yield SimTime(created_at_fs)

        kernel.create_thread(idle, "idle")
        kernel.run(SimTime(created_at_fs))
    assert kernel.now_fs == created_at_fs
    return Clock(kernel, "clk", period=period, duty_cycle=duty_cycle, start_high=start_high)


@pytest.mark.parametrize(
    "period, duty_cycle, start_high, created_at_fs, rises",
    CASES,
    ids=["half-high", "half-low", "third-high", "third-low", "late-half-high", "late-third-low"],
)
def test_next_posedge_lands_on_recorded_rising_edges(
    period, duty_cycle, start_high, created_at_fs, rises
):
    clock = _clock_created_at(created_at_fs, period, duty_cycle, start_high)
    # From the creation instant, the first edge is the first recorded rise.
    assert clock.next_posedge_fs(created_at_fs) == rises[0]
    for index, edge in enumerate(rises):
        assert clock.next_posedge_fs(edge - 1) == edge
        assert clock.next_posedge_fs(edge) == edge
        if index + 1 < len(rises):
            assert clock.next_posedge_fs(edge + 1) == rises[index + 1]
    # Consecutive rises are exactly one period apart: no drift.
    assert {later - earlier for earlier, later in zip(rises, rises[1:])} == {int(period)}


def _rising_edges_until(clock, from_fs, until_fs):
    edges = []
    edge = clock.next_posedge_fs(from_fs)
    while edge <= until_fs:
        edges.append(edge)
        edge = clock.next_posedge_fs(edge + 1)
    return edges


def test_rising_edge_count_matches_toggled_clock():
    # A 10 ns clock starting high, toggled for 245 ns, rose 24 times.
    clock = _clock_created_at(0, ns(10), 0.5, True)
    assert len(_rising_edges_until(clock, 0, int(ns(245)))) == 24


def test_prime_period_edges_do_not_drift_over_a_thousand_periods():
    # Toggled through 1000 periods, the prime-period 1/3-duty clock rose once
    # per period, each rise landing exactly on a multiple of the period.
    clock = _clock_created_at(0, PRIME_PERIOD, 1.0 / 3.0, True)
    edges = _rising_edges_until(clock, 0, 10_000_019 * 1000)
    assert edges == [10_000_019 * k for k in range(1, 1001)]
