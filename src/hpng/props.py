"""Atomic state properties over markings and fluid levels.

Grammar: a conjunction of comparisons joined with ``&``, where each
comparison is ``m(<place>) <op> <int>`` for a discrete place or
``x(<place>) <op> <real>`` for a continuous one, with ``<op>`` one of
``<``, ``<=``, ``=``, ``>=``, ``>``.  Example::

    m(demand_std) >= 1 & x(battery) > 0
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .model import GUARD_OPS, HPnGModel, compare
from .symbolic import EPS

_OPS = "|".join(sorted(GUARD_OPS, key=len, reverse=True))   # "<=" is tried before "<"
_ATOM = re.compile(
    r"^\s*(?P<fn>[mx])\s*\(\s*(?P<place>[A-Za-z0-9_.-]+)\s*\)\s*"
    rf"(?P<op>{_OPS})\s*(?P<value>[-+0-9.eE]+)\s*$"
)


class PropertyError(ValueError):
    pass


@dataclass(frozen=True)
class Atom:
    kind: str      # "m" or "x"
    place: str
    op: str
    value: float


def parse_property(text: str, model: HPnGModel | None = None) -> list[Atom]:
    atoms = []
    for part in text.split("&"):
        m = _ATOM.match(part)
        if not m:
            raise PropertyError(f"cannot parse atom {part.strip()!r}")
        kind = m.group("fn")
        place = m.group("place")
        op = m.group("op")
        try:
            value = float(m.group("value"))
        except ValueError:
            raise PropertyError(f"bad number in atom {part.strip()!r}")
        if kind == "m" and not value.is_integer():
            raise PropertyError(f"token count must be a finite integer in {part.strip()!r}")
        if not math.isfinite(value):
            raise PropertyError(f"level threshold must be finite in {part.strip()!r}")
        if model is not None:
            if kind == "m" and place not in model.dp_index:
                raise PropertyError(f"unknown discrete place {place!r}")
            if kind == "x" and place not in model.cp_index:
                raise PropertyError(f"unknown continuous place {place!r}")
        atoms.append(Atom(kind, place, op, value))
    return atoms


def holds_concrete(
    model: HPnGModel,
    atoms: list[Atom],
    marking: dict[str, int],
    levels: dict[str, float],
) -> bool:
    """Evaluate a property on concrete numbers, levels to within EPS, as the simulator does."""
    for a in atoms:
        if a.kind == "m":
            if not compare(a.op, float(marking[a.place]), a.value):
                return False
        else:
            if not compare(a.op, levels[a.place], a.value, EPS):
                return False
    return True
