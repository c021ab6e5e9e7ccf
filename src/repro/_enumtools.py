"""Internal enum decoration helpers.

Hot-path code indexes per-member state with plain integers (list slots,
packed cache keys) and renders members with a precomputed string, because
``DynamicClassAttribute`` lookups are Python-level calls that show up in
simulation profiles.  ``Enum.__hash__`` is Python-level too
(``hash(self._name_)``), and the model enums are dict keys and set members
all over the power, lint and DPM code.  :func:`dense_index` stamps the
``_idx``/``_str`` attributes that contract relies on and gives the class
the C-level identity hash.
"""

from __future__ import annotations

from enum import Enum
from typing import Type

__all__ = ["dense_index"]


def dense_index(enum_cls: Type[Enum]) -> None:
    """Stamp each member with ``_idx`` (dense 0..n-1) and ``_str`` (value).

    ``_idx`` doubles as the member's rank wherever the declaration order is
    the natural ordering (battery levels, temperature levels, task
    priorities).  Members are singletons compared by identity, so
    ``object.__hash__`` is a sound hash; like the ``str`` hash it replaces
    it varies between processes, so no result may depend on set order.
    Call it right after the class body, before any dict or set holds a
    member under the old hash.
    """
    # The stamps are attributes Enum does not declare, hence setattr.
    for index, member in enumerate(enum_cls):
        setattr(member, "_idx", index)
        setattr(member, "_str", member._value_)
    setattr(enum_cls, "__hash__", object.__hash__)
