"""The model enums hash by identity, at C speed, and stay singletons.

``Enum.__hash__`` is a Python-level ``hash(self._name_)``; the model enums
use ``object.__hash__`` instead.  That is sound only while every member is a
singleton compared by identity, so dict and set lookups, pickling and
copying must all still return the one member.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.battery.status import BatteryLevel
from repro.power.characterization import DEFAULT_ACTIVITY, InstructionClass
from repro.power.states import PowerState
from repro.soc.bus import BusLevel
from repro.soc.task import TaskPriority
from repro.thermal.level import TemperatureLevel

MODEL_ENUMS = (PowerState, InstructionClass, TaskPriority, BusLevel, BatteryLevel, TemperatureLevel)
MEMBERS = [member for enum_cls in MODEL_ENUMS for member in enum_cls]


@pytest.mark.parametrize("member", MEMBERS, ids=repr)
def test_hash_is_object_identity(member):
    assert hash(member) == object.__hash__(member)


@pytest.mark.parametrize("member", MEMBERS, ids=repr)
def test_lookups_and_copies_return_the_same_member(member):
    enum_cls = type(member)
    by_member = {other: other.value for other in enum_cls}
    assert by_member[member] == member.value
    assert member in set(enum_cls)
    assert member in frozenset(enum_cls)
    assert enum_cls(member.value) is member
    assert enum_cls[member.name] is member
    assert pickle.loads(pickle.dumps(member)) is member
    assert copy.deepcopy(member) is member
    assert {pickle.loads(pickle.dumps(member)): 1}[member] == 1


def test_tables_built_at_import_still_find_their_keys():
    # A dict filled before the hash changed would miss every lookup.
    assert DEFAULT_ACTIVITY[InstructionClass.ALU] == 1.0
    assert set(DEFAULT_ACTIVITY) == set(InstructionClass)
