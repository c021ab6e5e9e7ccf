"""Golden of the platforms ``run_fuzz`` generates for fixed seeds.

The fuzz harness is reproducible only while a seed keeps generating the
same platforms, so any change to ``repro.fuzz.strategies`` that alters the
draw order or the primitive draws shows up here as a changed ``spec_hash``.
Hypothesis also mines literal constants from every imported project module
into its draws; the test turns that mining off (as ``perfbench`` does), so
editing an unrelated constant under ``src/`` does not move the golden.

Regenerate (only for an intended change of the generated platforms) with
``PYTHONPATH=src python tests/fuzz/test_spec_golden.py`` and paste the
printed mapping over :data:`GOLDEN`.
"""

from __future__ import annotations

from typing import Dict, List

import pytest

from repro.experiments.differential import DifferentialResult
from repro.fuzz import harness
from repro.platform import spec_hash

EXAMPLES = 10

#: first 16 hex digits of each generated spec's hash, in generation order
GOLDEN: Dict[int, List[str]] = {
    3: [
        "ac0514574cfbf46d",
        "dcda0bee1353062d",
        "d2d38567bcdae11f",
        "12c051548141b663",
        "208447dd33635457",
        "57bc0cf05a911578",
        "deaff8393825003e",
        "7b98d0282e9639c7",
        "1fcb0ec59970a1fc",
        "6af413ac9ad88773",
    ],
    11: [
        "ac0514574cfbf46d",
        "dcda0bee1353062d",
        "bf44282dcb82df24",
        "389d4e70cc132d59",
        "a8618abbfd3ddbc6",
        "66445ee89ab20cd1",
        "db80339ed5136a6f",
        "05fc602db8b6fb7c",
        "561dfba2163a40bb",
        "5d3b039aa3b45f2d",
    ],
}


def generated_hashes(seed: int) -> List[str]:
    """Hash prefixes of the platforms ``run_fuzz(EXAMPLES, seed)`` generates."""
    from hypothesis.internal.conjecture import providers
    from hypothesis.internal.constants_ast import Constants

    hashes: List[str] = []

    def record(spec, oracles=None, backend=None):
        hashes.append(spec_hash(spec)[:16])
        return DifferentialResult(spec_name=spec.name, spec_hash=spec_hash(spec))

    empty = Constants()
    saved = (harness.run_differential, providers._get_local_constants)
    harness.run_differential = record
    providers._get_local_constants = lambda: empty
    providers.CONSTANTS_CACHE.cache.clear()
    try:
        report = harness.run_fuzz(examples=EXAMPLES, seed=seed)
    finally:
        harness.run_differential, providers._get_local_constants = saved
        providers.CONSTANTS_CACHE.cache.clear()
    assert report.ok and report.runs == EXAMPLES
    return hashes


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_generated_specs_match_golden(seed):
    assert generated_hashes(seed) == GOLDEN[seed]


if __name__ == "__main__":  # pragma: no cover - golden regeneration helper
    print("GOLDEN: Dict[int, List[str]] = {")
    for seed in (3, 11):
        print(f"    {seed}: [")
        for digest in generated_hashes(seed):
            print(f'        "{digest}",')
        print("    ],")
    print("}")
