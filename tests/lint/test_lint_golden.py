"""Every reach-lint finding of the registered and example platforms, pinned.

``tests/golden/lint_findings.json`` holds the code, severity, path and
message of every finding ``lint_spec(reach=True)`` reports for the
registered platforms and every platform spec under ``examples/specs``, so a
change to how lint derives its facts cannot change what it reports.
Regenerate (only for a change meant to alter a finding) with::

    PYTHONPATH=src python tests/lint/test_lint_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint import lint_spec
from repro.platform.registry import platform_by_name, platform_names
from repro.platform.serialize import load_spec_dict
from repro.platform.spec import PlatformSpec

ROOT = Path(__file__).resolve().parent.parent.parent
GOLDEN_PATH = ROOT / "tests" / "golden" / "lint_findings.json"


def golden_specs():
    """Registered platforms by name, example platform specs by file name."""
    specs = {f"registry/{name}": platform_by_name(name) for name in platform_names()}
    for path in sorted((ROOT / "examples" / "specs").glob("*")):
        data = load_spec_dict(str(path))
        if "ips" in data:  # campaign specs have no IPs and are not linted
            specs[f"examples/{path.name}"] = PlatformSpec.from_dict(data)
    return specs


def pinned_findings(spec):
    return [
        [finding.code, finding.severity.value, finding.path, finding.message]
        for finding in lint_spec(spec, reach=True).findings
    ]


@pytest.mark.parametrize("key", sorted(golden_specs()))
def test_lint_findings_match_golden(key):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert pinned_findings(golden_specs()[key]) == golden[key]


def test_golden_covers_every_target():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(golden_specs())


if __name__ == "__main__":
    figures = {key: pinned_findings(spec) for key, spec in golden_specs().items()}
    GOLDEN_PATH.write_text(json.dumps(figures, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
