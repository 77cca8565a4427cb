"""Hybrid Petri net model: places, transitions, arcs, JSON round-trip.

The on-disk format groups places and transitions by kind:

    {"places": {"discrete": [{"id", "tokens"}],
                "continuous": [{"id", "level", "capacity"}]},   # capacity "inf" allowed
     "transitions": {"deterministic": [...], "immediate": [...], "general": [...],
                     "staticContinuous": [...], "dynamicContinuous": [...]},
     "arcs": {"discrete": [{"from", "to", "weight"}],
              "continuous": [{"from", "to", "weight"}],
              "guard": [{"from", "to", "op", "threshold"}]}}

Arc entries name endpoints by id; direction is encoded by which endpoint is
the place.  Dynamic continuous transitions carry a clamped affine rate
max(constant + sum coefficient * actual_rate(static ref), 0).
"""

from __future__ import annotations

import dataclasses
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum

from .montecarlo import FAMILIES, DistributionSpec

#: The comparison operators of guards and state properties.  ``compare``
#: is the one place that says what each means.
GUARD_OPS = ("<", "<=", "=", ">=", ">")


def compare(op: str, left: float, right: float, eps: float = 0.0) -> bool:
    if op == "<":
        return left < right - eps
    if op == "<=":
        return left <= right + eps
    if op == "=":
        return abs(left - right) <= eps
    if op == ">=":
        return left >= right - eps
    return left > right + eps


#: Each operator's truth for a value below, at and above its threshold.
ZONE_TRUTH = {op: {zone: compare(op, level, 0.0)
                   for zone, level in (("below", -1.0), ("at", 0.0), ("above", 1.0))}
              for op in GUARD_OPS}


class ModelError(ValueError):
    """Parse or validation failure; `where` points at the offending element."""

    def __init__(self, message: str, where: str = ""):
        super().__init__(f"{where}: {message}" if where else message)
        self.where = where


class TKind(Enum):
    DETERMINISTIC = "deterministic"
    IMMEDIATE = "immediate"
    GENERAL = "general"
    STATIC = "staticContinuous"
    DYNAMIC = "dynamicContinuous"


DISCRETE_KINDS = (TKind.DETERMINISTIC, TKind.IMMEDIATE, TKind.GENERAL)
CONTINUOUS_KINDS = (TKind.STATIC, TKind.DYNAMIC)

@dataclass(frozen=True)
class DiscretePlace:
    id: str
    tokens: int


@dataclass(frozen=True)
class ContinuousPlace:
    id: str
    level: float
    capacity: float  # math.inf for unbounded

    def __post_init__(self):
        if not 0 <= self.level <= self.capacity:
            raise ModelError(f"initial level {self.level} outside [0, {self.capacity}]")


@dataclass(frozen=True)
class DeterministicTransition:
    id: str
    firing_time: float
    priority: int = 0
    weight: float = 1.0

    def __post_init__(self):
        if self.firing_time <= 0:
            raise ModelError("firingTime must be > 0")


@dataclass(frozen=True)
class ImmediateTransition:
    id: str
    priority: int = 0
    weight: float = 1.0


@dataclass(frozen=True)
class GeneralTransition:
    id: str
    distribution: DistributionSpec


@dataclass(frozen=True)
class StaticContinuousTransition:
    id: str
    rate: float
    priority: int = 0
    share: float = 1.0

    def __post_init__(self):
        if self.rate < 0:
            raise ModelError("rate must be >= 0")


@dataclass(frozen=True)
class DynamicContinuousTransition:
    id: str
    constant: float
    terms: tuple[tuple[str, float], ...]  # (static transition id, coefficient)
    priority: int = 0
    share: float = 1.0


@dataclass(frozen=True)
class DiscreteArc:
    place: str
    transition: str
    weight: int
    to_transition: bool  # True: input arc place->transition


@dataclass(frozen=True)
class ContinuousArc:
    place: str
    transition: str
    weight: float
    to_place: bool  # True: transition pumps into the place


@dataclass(frozen=True)
class GuardArc:
    place: str
    transition: str
    op: str
    threshold: float


@dataclass
class HPnGModel:
    discrete_places: list[DiscretePlace]
    continuous_places: list[ContinuousPlace]
    deterministic: list[DeterministicTransition]
    immediate: list[ImmediateTransition]
    general: list[GeneralTransition]
    static_continuous: list[StaticContinuousTransition]
    dynamic_continuous: list[DynamicContinuousTransition]
    discrete_arcs: list[DiscreteArc]
    continuous_arcs: list[ContinuousArc]
    guard_arcs: list[GuardArc]

    # Derived lookup tables, built in __post_init__.
    dp_index: dict[str, int] = field(init=False)
    cp_index: dict[str, int] = field(init=False)
    t_ref: dict[str, tuple[TKind, int]] = field(init=False)

    def __post_init__(self):
        self.dp_index = {p.id: i for i, p in enumerate(self.discrete_places)}
        self.cp_index = {p.id: i for i, p in enumerate(self.continuous_places)}
        self.t_ref = {}
        for kind in _KIND_ATTR:
            for i, t in enumerate(self.transitions_of(kind)):
                if t.id in self.t_ref or t.id in self.dp_index or t.id in self.cp_index:
                    raise ModelError(f"duplicate id {t.id!r}")
                self.t_ref[t.id] = (kind, i)
        dup = set(self.dp_index) & set(self.cp_index)
        if dup:
            raise ModelError(f"duplicate place id(s) {sorted(dup)}")

    def transition(self, tid: str):
        kind, i = self.t_ref[tid]
        return self.transitions_of(kind)[i]

    def transitions_of(self, kind: TKind) -> list:
        return getattr(self, _KIND_ATTR[kind])

    def input_arcs(self, tid: str) -> list[DiscreteArc]:
        return [a for a in self.discrete_arcs if a.transition == tid and a.to_transition]

    def output_arcs(self, tid: str) -> list[DiscreteArc]:
        return [a for a in self.discrete_arcs if a.transition == tid and not a.to_transition]

    def fluid_inputs(self, place_id: str) -> list[ContinuousArc]:
        return [a for a in self.continuous_arcs if a.place == place_id and a.to_place]

    def fluid_outputs(self, place_id: str) -> list[ContinuousArc]:
        return [a for a in self.continuous_arcs if a.place == place_id and not a.to_place]


@contextmanager
def _at(where: str):
    """Locate at ``where`` a ModelError raised inside the block."""
    try:
        yield
    except ModelError as err:
        raise ModelError(str(err), where) from None


def _number(raw, name: str) -> float:
    """``raw`` as a float; NaN and the infinities, which JSON reads, are
    refused like any other non-number, and so are JSON ``true``, a string
    and an integer too large for a float."""
    try:
        v = math.nan if isinstance(raw, (bool, str)) else float(raw)
    except (TypeError, OverflowError):
        v = math.nan
    if not math.isfinite(v):
        raise ModelError(f"{name} must be a finite number, got {raw!r}")
    return v


def _count(raw, name: str, least: int = 0) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int) or raw < least:
        kind = "positive" if least else "nonnegative"
        raise ModelError(f"{name} must be a {kind} integer, got {raw!r}")
    return raw


def _name(entry: dict, key: str) -> str:
    """``entry[key]``, an id or an arc end: a required string."""
    name = entry.get(key)
    if not isinstance(name, str):
        raise ModelError(f"{key} must be a string, got {name!r}" if key in entry
                         else f"missing {key!r}")
    return name


def _capacity(raw, name: str) -> float:
    v = math.inf if raw == "inf" else _number(raw, name)
    if v <= 0:
        raise ModelError(f"{name} must be positive or \"inf\"")
    return v


def _dist(raw, name: str) -> DistributionSpec:
    if not isinstance(raw, dict) or not isinstance(raw.get("family"), str):
        raise ModelError(f"{name} needs a 'family'")
    fam = raw["family"]
    names = FAMILIES[fam].names if fam in FAMILIES else ()   # DistributionSpec refuses the family
    return DistributionSpec(fam, tuple(_number(raw.get(k), k) for k in names))


def _terms(raw, name: str) -> tuple[tuple[str, float], ...]:
    if not isinstance(raw, list) or not all(isinstance(term, dict) for term in raw):
        raise ModelError(f"{name} must be a list of objects")
    return tuple((_name(term, "transition"), _number(term.get("coefficient"), "coefficient"))
                 for term in raw)


def _same(value):
    return value


def _priority(raw, name: str) -> int:
    v = _number(raw, name)
    if not v.is_integer():
        raise ModelError(f"{name} must be an integer, got {raw!r}")
    return int(v)


_PRIORITY = ("priority", 0, _priority, _same)

#: Each place and transition kind, in HPnGModel's order: its section and key
#: in the file, its model attribute, its class and, in constructor order
#: after ``id``, a (file key, default, reader, writer) tuple for each field.
_NODES = (
    ("places", "discrete", "discrete_places", DiscretePlace,
     (("tokens", 0, _count, _same),)),
    ("places", "continuous", "continuous_places", ContinuousPlace,
     (("level", 0.0, _number, _same),
      ("capacity", "inf", _capacity, lambda c: "inf" if math.isinf(c) else c))),
    ("transitions", "deterministic", "deterministic", DeterministicTransition,
     (("firingTime", 0.0, _number, _same), _PRIORITY, ("weight", 1.0, _number, _same))),
    ("transitions", "immediate", "immediate", ImmediateTransition,
     (_PRIORITY, ("weight", 1.0, _number, _same))),
    ("transitions", "general", "general", GeneralTransition,
     (("distribution", None, _dist,
       lambda d: {"family": d.family, **dict(zip(FAMILIES[d.family].names, d.params))}),)),
    ("transitions", "staticContinuous", "static_continuous", StaticContinuousTransition,
     (("rate", 0.0, _number, _same), _PRIORITY, ("share", 1.0, _number, _same))),
    ("transitions", "dynamicContinuous", "dynamic_continuous", DynamicContinuousTransition,
     (("constant", 0.0, _number, _same),
      ("terms", [], _terms,
       lambda terms: [{"transition": r, "coefficient": c} for r, c in terms]),
      _PRIORITY, ("share", 1.0, _number, _same))),
)

#: The model attribute that lists the transitions of each kind.
_KIND_ATTR = {TKind(kind): attr for section, kind, attr, _, _ in _NODES
              if section == "transitions"}


def _entries(doc: dict, section: str, kind: str):
    """Yield ``(where, entry)`` for each entry of ``doc[section][kind]``."""
    part = doc.get(section, {})
    if not isinstance(part, dict):
        raise ModelError("must be an object", section)
    entries = part.get(kind, [])
    if not isinstance(entries, list):
        raise ModelError("must be a list", f"{section}.{kind}")
    for i, entry in enumerate(entries):
        where = f"{section}.{kind}[{i}]"
        if not isinstance(entry, dict):
            raise ModelError("must be an object", where)
        yield where, entry


def parse_model(text: str) -> HPnGModel:
    """Parse and validate a model document; raises ModelError on any defect."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ModelError(f"not valid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise ModelError("a model must be a JSON object")

    nodes = {}
    for section, kind, attr, cls, fields in _NODES:
        nodes[attr] = []
        for where, entry in _entries(doc, section, kind):
            with _at(where):
                nodes[attr].append(cls(_name(entry, "id"), *(
                    read(entry.get(key, default), key) for key, default, read, _ in fields)))
    model = HPnGModel(**nodes, discrete_arcs=[], continuous_arcs=[], guard_arcs=[])

    def ends(arc: dict) -> tuple[str, str]:
        src, dst = _name(arc, "from"), _name(arc, "to")
        for name in (src, dst):
            if not any(name in ids for ids in (model.dp_index, model.cp_index, model.t_ref)):
                raise ModelError(f"unknown id {name!r}")
        return src, dst

    for where, a in _entries(doc, "arcs", "discrete"):
        with _at(where):
            src, dst = ends(a)
            w = _count(a.get("weight", 1), "discrete arc weight", 1)
            if src in model.dp_index and dst in model.t_ref:
                place, trans, to_transition = src, dst, True
            elif src in model.t_ref and dst in model.dp_index:
                place, trans, to_transition = dst, src, False
            else:
                raise ModelError("discrete arc must join a discrete place and a transition")
            if model.t_ref[trans][0] not in DISCRETE_KINDS:
                raise ModelError("discrete arc must attach a discrete transition")
            model.discrete_arcs.append(DiscreteArc(place, trans, w, to_transition))

    for where, a in _entries(doc, "arcs", "continuous"):
        with _at(where):
            src, dst = ends(a)
            w = _number(a.get("weight", 1.0), "weight")
            if w <= 0:
                raise ModelError("continuous arc weight must be positive")
            if src in model.cp_index and dst in model.t_ref:
                place, trans, to_place = src, dst, False
            elif src in model.t_ref and dst in model.cp_index:
                place, trans, to_place = dst, src, True
            else:
                raise ModelError("continuous arc must join a continuous place and a transition")
            if model.t_ref[trans][0] not in CONTINUOUS_KINDS:
                raise ModelError("continuous arc must attach a continuous transition")
            model.continuous_arcs.append(ContinuousArc(place, trans, w, to_place))

    for where, a in _entries(doc, "arcs", "guard"):
        with _at(where):
            src, dst = ends(a)
            if src not in model.dp_index and src not in model.cp_index:
                raise ModelError("guard arc source must be a place")
            if dst not in model.t_ref:
                raise ModelError("guard arc target must be a transition")
            op = a.get("op", ">=")
            if op not in GUARD_OPS:
                raise ModelError(f"guard op must be one of {GUARD_OPS}, got {op!r}")
            if src in model.cp_index and model.t_ref[dst][0] not in DISCRETE_KINDS:
                raise ModelError("continuous-place guards may only target discrete transitions")
            model.guard_arcs.append(
                GuardArc(src, dst, op, _number(a.get("threshold", 1), "threshold")))

    issues = validate(model)
    if issues:
        raise ModelError("; ".join(issues))
    return model


def _guards_disjoint(a: GuardArc, b: GuardArc) -> bool:
    """True when the two conditions can never hold for one level value.

    The thresholds cut the line into at most five zones: the open
    intervals (lo, hi) below, between and above them, and each threshold
    as lo = hi.  The conditions are disjoint when no zone makes both true.
    """
    points = sorted({a.threshold, b.threshold})
    edges = [-math.inf, *points, math.inf]
    zones = [*zip(edges, edges[1:]), *((p, p) for p in points)]

    def side(lo: float, hi: float, c: float) -> str:
        return "at" if lo == hi == c else "above" if lo >= c else "below"

    return not any(ZONE_TRUTH[a.op][side(lo, hi, a.threshold)]
                   and ZONE_TRUTH[b.op][side(lo, hi, b.threshold)] for lo, hi in zones)


def validate(model: HPnGModel) -> list[str]:
    """Structural diagnostics; empty list means the model is well-formed."""
    issues: list[str] = []

    for d in model.dynamic_continuous:
        for ref, _ in d.terms:
            if ref not in model.t_ref or model.t_ref[ref][0] is not TKind.STATIC:
                issues.append(f"dynamic transition {d.id!r} references non-static {ref!r}")

    # Zeno exclusion: no cycle through immediate/general transitions connected
    # by discrete places (a token produced by one could instantly re-enable
    # the next, allowing unbounded zero-time event chains).  Fluid levels are
    # frozen while no time passes, so a pair of transitions guarded by
    # conditions on the same continuous place that cannot hold at once (say
    # level <= 0 and level > 0) can never fire in the same instant; such
    # edges are excluded before looking for cycles.
    zero_time = {t.id for t in model.immediate} | {t.id for t in model.general}
    fluid_guards: dict[str, list[GuardArc]] = {t: [] for t in zero_time}
    for a in model.guard_arcs:
        if a.transition in fluid_guards and a.place in model.cp_index:
            fluid_guards[a.transition].append(a)

    def exclusive(t: str, other: str) -> bool:
        for ga in fluid_guards[t]:
            for gb in fluid_guards[other]:
                if ga.place == gb.place and _guards_disjoint(ga, gb):
                    return True
        return False

    succ: dict[str, set[str]] = {t: set() for t in zero_time}
    for t in zero_time:
        for out in model.output_arcs(t):
            for other in zero_time:
                if any(a.place == out.place for a in model.input_arcs(other)):
                    if not exclusive(t, other):
                        succ[t].add(other)
    state: dict[str, int] = {}

    def dfs(node: str) -> bool:
        state[node] = 1
        for nxt in succ[node]:
            if state.get(nxt) == 1:
                return True
            if state.get(nxt) is None and dfs(nxt):
                return True
        state[node] = 2
        return False

    for t in zero_time:
        if state.get(t) is None and dfs(t):
            issues.append("zero-time cycle through immediate/general transitions "
                          "(Zeno behaviour possible)")
            break

    return issues


def serialize(model: HPnGModel) -> str:
    """Canonical JSON; parse_model(serialize(m)) reproduces m."""
    doc = {"places": {}, "transitions": {}}
    for section, kind, attr, _, fields in _NODES:
        doc[section][kind] = [
            {"id": node.id, **{key: write(getattr(node, f.name)) for (key, _, _, write), f
                               in zip(fields, dataclasses.fields(node)[1:])}}
            for node in getattr(model, attr)
        ]
    doc["arcs"] = {
        "discrete": [
            {"from": a.place if a.to_transition else a.transition,
             "to": a.transition if a.to_transition else a.place,
             "weight": a.weight} for a in model.discrete_arcs
        ],
        "continuous": [
            {"from": a.transition if a.to_place else a.place,
             "to": a.place if a.to_place else a.transition,
             "weight": a.weight} for a in model.continuous_arcs
        ],
        "guard": [
            {"from": g.place, "to": g.transition, "op": g.op, "threshold": g.threshold}
            for g in model.guard_arcs
        ],
    }
    return json.dumps(doc, indent=2)


def load_model(path: str) -> HPnGModel:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())
