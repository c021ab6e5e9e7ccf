"""Where ``SoC.run_until_done`` ends a run.

The run ends at the first ``check_interval`` boundary, counted from the
call's start time, at or after the instant the last IP finished — at least
one interval after the start, and never past ``max_time``.  Every case below
compares against the finish time of an identical reference run.
"""

import pytest

from repro.dpm import DpmSetup
from repro.sim import SimTime, ms, sec
from repro.soc import IpSpec, SocConfig, Workload, build_soc, periodic_workload

INTERVAL_FS = int(ms(5))


def make_soc(task_counts=(3, 5)):
    specs = [
        IpSpec(
            name=f"ip{index}",
            workload=(
                periodic_workload(count, cycles=60_000, idle=ms(1), name=f"w{index}")
                if count else Workload(items=[])
            ),
        )
        for index, count in enumerate(task_counts)
    ]
    return build_soc(specs, SocConfig(), DpmSetup.paper())


def finish_fs(task_counts=(3, 5)):
    """Instant the last IP notifies ``done_event`` in an unbounded run."""
    soc = make_soc(task_counts)
    finished = []
    kernel = soc.simulator.kernel
    for ip in soc.ips:
        ip.done_event.add_callback(lambda: finished.append(kernel.now_fs))
    soc.run_until_done(max_time=sec(2))
    assert len(finished) == len(task_counts)
    return max(finished)


def ceil_to(value_fs, start_fs, step_fs):
    """First ``start + k * step`` (k >= 1) at or after ``value_fs``."""
    k = max(1, -(-(value_fs - start_fs) // step_fs))
    return start_fs + k * step_fs


def test_reference_finish_is_between_default_boundaries():
    done = finish_fs()
    assert done % INTERVAL_FS != 0
    assert make_soc().run_until_done(max_time=sec(2)).femtoseconds == ceil_to(done, 0, INTERVAL_FS)


def test_last_ip_finishing_exactly_on_a_boundary_ends_there():
    done = finish_fs()
    soc = make_soc()
    end = soc.run_until_done(max_time=sec(2), check_interval=SimTime(done))
    assert end.femtoseconds == done
    assert soc.all_done


def test_last_ip_finishing_between_boundaries_ends_at_the_next_one():
    done = finish_fs()
    step = done // 3 + 7
    soc = make_soc()
    end = soc.run_until_done(max_time=sec(2), check_interval=SimTime(step))
    assert end.femtoseconds == ceil_to(done, 0, step) == 3 * step
    assert soc.all_done


def test_ip_with_zero_tasks_is_done_at_the_start():
    # One idle IP alongside a busy one: the busy one decides the end.
    done = finish_fs((0, 4))
    assert make_soc((0, 4)).run_until_done(max_time=sec(2)).femtoseconds == ceil_to(
        done, 0, INTERVAL_FS
    )
    # Nothing to do at all: the run still lasts one interval.
    soc = make_soc((0, 0))
    assert soc.run_until_done(max_time=sec(2)) == ms(5)
    assert soc.all_done


def test_max_time_off_the_interval_grid_caps_an_unfinished_run():
    soc = make_soc((40, 40))
    end = soc.run_until_done(max_time=ms(22))
    assert end == ms(22)
    assert not soc.all_done


@pytest.mark.parametrize("first_max_ms", [3, 4])
def test_second_call_counts_boundaries_from_its_own_start(first_max_ms):
    done = finish_fs()
    soc = make_soc()
    first = soc.run_until_done(max_time=ms(first_max_ms))
    assert first == ms(first_max_ms)
    assert not soc.all_done
    end = soc.run_until_done(max_time=sec(2))
    start_fs = int(ms(first_max_ms))
    assert end.femtoseconds == ceil_to(done, start_fs, INTERVAL_FS)
    assert soc.all_done
    # A further call on a finished SoC simulates nothing.
    assert soc.run_until_done(max_time=sec(2)) == end
