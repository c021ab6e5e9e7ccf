"""The named workload library: registration, shipped specs, differential health."""

from __future__ import annotations

import os

import pytest

from repro.experiments import run_differential
from repro.platform import (
    LIBRARY_PLATFORM_NAMES,
    library_platforms,
    load_platform,
    platform_by_name,
    spec_to_json,
)

_REPO_ROOT = os.path.join(os.path.dirname(__file__), "..", "..")
_SPEC_DIR = os.path.join(_REPO_ROOT, "examples", "specs")


def test_every_library_platform_is_registered():
    for name in LIBRARY_PLATFORM_NAMES:
        spec = platform_by_name(name)
        assert spec.name == name


def test_library_platforms_cover_the_advertised_names():
    specs = library_platforms()
    assert [spec.name for spec in specs] == list(LIBRARY_PLATFORM_NAMES)


@pytest.mark.parametrize("name", LIBRARY_PLATFORM_NAMES)
def test_shipped_spec_file_matches_the_builder(name):
    # examples/specs/*.json are the canonical serialized form of the library
    # builders; drift between file and code would make the CI spec-validate
    # job test something other than what users import.
    path = os.path.join(_SPEC_DIR, f"{name.replace('-', '_')}.json")
    assert os.path.exists(path), f"missing shipped spec {path}"
    on_disk = load_platform(path)
    built = platform_by_name(name)
    assert on_disk.to_dict() == built.to_dict()
    with open(path, "r", encoding="utf-8") as handle:
        assert handle.read() == spec_to_json(built)


@pytest.mark.parametrize("name", LIBRARY_PLATFORM_NAMES)
def test_library_platform_validates(name):
    platform_by_name(name).validate()


def test_phone_bursty_survives_all_oracles():
    # One full differential pass in tier-1: phone-bursty is the library entry
    # that exercises the contended multi-master cycle-accurate bus path.
    result = run_differential(platform_by_name("phone-bursty"))
    assert result.ok, result.summary()
