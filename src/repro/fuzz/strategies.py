"""Hypothesis strategies generating random-but-valid platform specs.

Every strategy draws shrinkable primitives (bounded integers, small choice
lists) and assembles them into :class:`~repro.platform.spec.PlatformSpec`
trees, so a failing example shrinks toward the smallest platform that still
trips an oracle.  The bounds are deliberately tight — one to three IPs, a
handful of tasks each, a few hundred simulated milliseconds — because the
differential harness simulates each generated platform up to eight times;
a single example must stay in the low-millisecond range.

Design constraints encoded here (not just chosen for speed):

* Workload ``seed`` fields are always drawn explicitly, so the saved JSON of
  a shrunk failure replays bit-identically — nothing depends on a default
  hiding in the builder.
* ``bus_words_per_task`` is a multiple of ``words_per_cycle``, so the
  cycle-accurate bus never quantises durations and the single-master timing
  bound of the ``bus_timing`` oracle is exact.
* The GEM is only enabled together with a healthy battery and cool thermal
  condition: under battery-low/thermal-high rules the GEM legitimately
  parks low-priority IPs, which is deliberate deadline sacrifice, not a
  policy-oracle counterexample.
* ``max_time_ms`` is generous relative to the largest generated workload,
  so "did not finish" verdicts point at real bugs, not tight budgets.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, List, Optional, Tuple

from hypothesis import strategies as st

from repro.platform.spec import (
    BatteryDef,
    BusDef,
    GemDef,
    INSTRUCTION_CLASS_NAMES,
    IpDef,
    PlatformSpec,
    PolicyDef,
    PRIORITY_NAMES,
    PsmDef,
    ThermalDef,
    WorkloadDef,
)

__all__ = [
    "bus_defs",
    "ip_defs",
    "platform_specs",
    "policy_defs",
    "workload_defs",
]

# Every strategy is built once per process and reused: Hypothesis validates
# and labels each new strategy object before drawing from it, which costs
# more than the draw.  Primitives are memoised per argument, composites per
# call.
_integers: Callable[..., st.SearchStrategy[int]] = functools.cache(st.integers)
_floats: Callable[..., st.SearchStrategy[float]] = functools.cache(st.floats)
_sampled_from: Callable[..., st.SearchStrategy[Any]] = functools.cache(st.sampled_from)


@functools.cache
def _optional(strategy: st.SearchStrategy) -> st.SearchStrategy:
    return st.none() | strategy


#: states a generated IP may start in (ON states only: a platform whose IP
#: starts asleep exercises the wake-up path in every single run instead).
_INITIAL_STATES = _sampled_from(("ON1", "ON2"))

_BOOLEANS = st.booleans()
_SEEDS = _integers(min_value=0, max_value=999)
_CYCLES = _integers(min_value=2_000, max_value=80_000)
_IDLE_US = _integers(min_value=50, max_value=2_000)
_PRIORITY = _sampled_from(PRIORITY_NAMES)
_INSTRUCTION_CLASS = _sampled_from(INSTRUCTION_CLASS_NAMES)


@functools.cache
@st.composite
def _cycles_range(draw: st.DrawFn) -> Tuple[int, int]:
    low = draw(_integers(min_value=2_000, max_value=40_000))
    span = draw(_integers(min_value=0, max_value=40_000))
    return low, low + span


@functools.cache
@st.composite
def _idle_range_us(draw: st.DrawFn) -> Tuple[int, int]:
    low = draw(_integers(min_value=50, max_value=1_000))
    span = draw(_integers(min_value=0, max_value=2_000))
    return low, low + span


@functools.cache
@st.composite
def _explicit_items(draw: st.DrawFn) -> List[dict]:
    count = draw(_integers(min_value=1, max_value=4))
    items = []
    for index in range(count):
        item = {"task": f"t{index}", "cycles": draw(_CYCLES)}
        if draw(_BOOLEANS):
            item["priority"] = draw(_PRIORITY)
        if draw(_BOOLEANS):
            item["instruction_class"] = draw(_INSTRUCTION_CLASS)
        # lossless femtosecond idle (the canonical as_dicts key)
        item["idle_after_fs"] = draw(_IDLE_US) * 1_000_000_000
        items.append(item)
    return items


@functools.cache
@st.composite
def workload_defs(draw: st.DrawFn) -> WorkloadDef:
    """A bounded workload of any declarative kind."""
    kind = draw(_sampled_from(
        ("periodic", "random", "bursty", "high_activity", "low_activity", "explicit")
    ))
    if kind == "periodic":
        return WorkloadDef(
            kind=kind,
            task_count=draw(_integers(min_value=1, max_value=5)),
            cycles=draw(_CYCLES),
            idle_us=float(draw(_IDLE_US)),
            priority=draw(_optional(_PRIORITY)),
            instruction_class=draw(_optional(_INSTRUCTION_CLASS)),
        )
    if kind == "random":
        cycles_min, cycles_max = draw(_cycles_range())
        idle_min, idle_max = draw(_idle_range_us())
        return WorkloadDef(
            kind=kind,
            task_count=draw(_integers(min_value=1, max_value=5)),
            seed=draw(_SEEDS),
            cycles_min=cycles_min,
            cycles_max=cycles_max,
            idle_min_us=float(idle_min),
            idle_max_us=float(idle_max),
        )
    if kind == "bursty":
        cycles_min, cycles_max = draw(_cycles_range())
        return WorkloadDef(
            kind=kind,
            burst_count=draw(_integers(min_value=1, max_value=2)),
            tasks_per_burst=draw(_integers(min_value=1, max_value=3)),
            seed=draw(_SEEDS),
            cycles_min=cycles_min,
            cycles_max=cycles_max,
            intra_burst_idle_us=float(draw(_integers(min_value=10, max_value=200))),
            inter_burst_idle_us=float(draw(_integers(min_value=500, max_value=4_000))),
        )
    if kind in ("high_activity", "low_activity"):
        return WorkloadDef(
            kind=kind,
            task_count=draw(_integers(min_value=1, max_value=6)),
            seed=draw(_SEEDS),
        )
    return WorkloadDef(kind="explicit", items=draw(_explicit_items()))


@functools.cache
@st.composite
def _psm_defs(draw: st.DrawFn) -> PsmDef:
    psm = PsmDef()
    if draw(_BOOLEANS):
        psm.dvfs_latency_us = float(draw(_integers(min_value=1, max_value=20)))
    if draw(_BOOLEANS):
        psm.entry_latency_us = {"SL1": float(draw(_integers(min_value=5, max_value=50)))}
    if draw(_BOOLEANS):
        psm.wakeup_latency_us = {"SL1": float(draw(_integers(min_value=10, max_value=100)))}
    return psm


@functools.cache
@st.composite
def ip_defs(draw: st.DrawFn, index: int = 0, bus_words_per_cycle: Optional[int] = None) -> IpDef:
    """One IP block; produces bus traffic only when ``bus_words_per_cycle`` is set."""
    bus_words = 0
    bus_priority = None
    if bus_words_per_cycle is not None:
        # whole multiples of words_per_cycle: CA duration == ED duration
        bus_words = bus_words_per_cycle * draw(_integers(min_value=1, max_value=64))
        bus_priority = draw(_optional(_integers(min_value=0, max_value=3)))
    return IpDef(
        name=f"ip{index}",
        workload=draw(workload_defs()),
        static_priority=draw(_integers(min_value=1, max_value=3)),
        initial_state=draw(_INITIAL_STATES),
        bus_words_per_task=bus_words,
        bus_priority=bus_priority,
        idle_activity=draw(_optional(_floats(min_value=0.05, max_value=0.3, allow_nan=False))),
        psm=draw(_optional(_psm_defs())),
    )


@functools.cache
@st.composite
def bus_defs(draw: st.DrawFn) -> BusDef:
    """An enabled bus with bounded bandwidth (callers decide enablement)."""
    return BusDef(
        enabled=True,
        words_per_second=float(draw(_sampled_from((1_000_000, 10_000_000, 50_000_000)))),
        arbitration=draw(_sampled_from(("fifo", "priority"))),
        timing=draw(_sampled_from(("event_driven", "cycle_accurate"))),
        words_per_cycle=draw(_sampled_from((1, 2, 4))),
    )


@functools.cache
@st.composite
def policy_defs(draw: st.DrawFn) -> PolicyDef:
    """A declarative default policy of any supported name."""
    name = draw(_sampled_from(("paper", "always-on", "greedy-sleep", "fixed-timeout")))
    policy = PolicyDef(name=name)
    if name == "paper":
        policy.predictor = draw(_optional(_sampled_from(("fixed", "last-value", "ewma", "adaptive"))))
        policy.allow_off = draw(_optional(_BOOLEANS))
    elif name == "greedy-sleep":
        policy.allow_off = draw(_optional(_BOOLEANS))
    elif name == "fixed-timeout":
        policy.timeout_ms = float(draw(_integers(min_value=1, max_value=5)))
    return policy


@functools.cache
@st.composite
def platform_specs(draw: st.DrawFn, max_ips: int = 3, allow_bus: bool = True) -> PlatformSpec:
    """A complete, valid, bounded platform spec (the fuzz harness input)."""
    ip_count = draw(_integers(min_value=1, max_value=max_ips))
    bus = None
    masters: List[bool] = [False] * ip_count
    if allow_bus and draw(_BOOLEANS):
        bus = draw(bus_defs())
        masters = [draw(_BOOLEANS) for _ in range(ip_count)]
        if not any(masters):
            masters[0] = True

    gem_enabled = draw(_BOOLEANS)
    if gem_enabled:
        # GEM + stressed conditions legitimately parks low-priority IPs
        # (deliberate deadline sacrifice); keep the rules quiescent so the
        # policy oracle's deadline check stays meaningful.
        battery = BatteryDef(condition=draw(_sampled_from(("full", "high"))))
        thermal = None
        gem = GemDef(
            enabled=True,
            high_priority_count=draw(_optional(_integers(min_value=1, max_value=2))),
            evaluation_interval_us=float(draw(_integers(min_value=500, max_value=5_000))),
        )
    else:
        battery = BatteryDef(
            condition=draw(_optional(_sampled_from(("full", "high", "medium", "low")))),
            state_of_charge=draw(_optional(_floats(min_value=0.3, max_value=1.0, allow_nan=False))),
            on_ac_power=draw(_optional(_BOOLEANS)),
        )
        thermal = draw(_optional(_sampled_from(("low", "high"))))
        gem = GemDef()

    spec = PlatformSpec(
        name="fuzz",
        ips=[
            draw(
                ip_defs(
                    index=index,
                    bus_words_per_cycle=bus.words_per_cycle if (bus and masters[index]) else None,
                )
            )
            for index in range(ip_count)
        ],
        battery=battery,
        gem=gem,
        bus=bus if bus is not None else BusDef(),
        policy=draw(_optional(policy_defs())),
        max_time_ms=float(draw(_integers(min_value=150, max_value=400))),
        sample_interval_us=float(draw(_sampled_from((500, 1000, 2000)))),
        with_fan=draw(_BOOLEANS),
    )
    if thermal is not None:
        spec.thermal = ThermalDef(condition=thermal)
    return spec
