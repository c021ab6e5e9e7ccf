"""Regenerate the benchmark's pinned data: the fuzz seed pool and the reference digests.

Run from the root of a checkout::

    python3 perfbench/calibrate.py pool        # writes perfbench/fuzz_pool.json
    python3 perfbench/calibrate.py reference   # writes perfbench/reference.json

``pool`` fuzzes every candidate Hypothesis seed with the default oracle set
and keeps the seeds on which every oracle agrees, with their measured cost.
The ``verify`` workload draws its fuzz seeds from this pool, one per cost
stratum, so every workload seed gives a green run with a similar cost mix.
``reference`` records the digests of each workload's warm-up unit and of its
main unit on the default seed; a run whose digests differ is incorrect.
Re-run both only when the program's simulated results change on purpose.
"""

from __future__ import annotations

import argparse
import time

import common

POOL_CANDIDATES = 240
POOL_EXAMPLES = 10


def make_pool() -> None:
    from repro.fuzz.harness import run_fuzz
    from workloads import pin_fuzz_inputs

    pin_fuzz_inputs()
    run_fuzz(examples=2, seed=10_000)  # warm imports and Hypothesis caches
    green = []
    failing = []
    for seed in range(POOL_CANDIDATES):
        start = time.perf_counter()
        report = run_fuzz(examples=POOL_EXAMPLES, seed=seed)
        elapsed = time.perf_counter() - start
        if report.ok and report.runs == POOL_EXAMPLES:
            green.append({"seed": seed, "cost_s": round(elapsed, 4)})
        else:
            failing.append(seed)
    common.write_json(
        common.BENCH_DIR / "fuzz_pool.json",
        {"examples": POOL_EXAMPLES, "green": green, "failing": failing},
    )
    print(f"{len(green)} green seeds, failing: {failing}")


def make_reference() -> None:
    from workloads import WORKLOADS, make_probe

    probe = make_probe()
    reference = {"probe": {"warmup": probe.warmup().digest, "unit": probe.unit().digest}}
    for name, factory in WORKLOADS.items():
        workload = factory(common.DEFAULT_SEED)
        warm = workload.warmup()
        main = workload.unit()
        reference[name] = {"warmup": warm.digest, "default_seed_unit": main.digest}
        print(name, reference[name])
    common.write_json(common.BENCH_DIR / "reference.json", reference)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("what", choices=["pool", "reference"])
    args = parser.parse_args()
    common.prepare_environment()
    if args.what == "pool":
        make_pool()
    else:
        make_reference()


if __name__ == "__main__":
    main()
