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

import json
import math
from dataclasses import dataclass, field
from enum import Enum

GUARD_OPS = ("<", "<=", "=", ">=", ">")


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
class DistributionSpec:
    family: str  # uniform | normal | foldedNormal | exponential
    params: tuple[float, ...]

    def __post_init__(self):
        fam, p = self.family, self.params
        if fam == "uniform":
            if len(p) != 2 or p[0] < 0 or p[1] <= p[0]:
                raise ModelError(f"uniform needs 0 <= a < b, got {p}")
        elif fam in ("normal", "foldedNormal"):
            if len(p) != 2 or p[1] <= 0:
                raise ModelError(f"{fam} needs (mu, sigma) with sigma > 0, got {p}")
        elif fam == "exponential":
            if len(p) != 1 or p[0] <= 0:
                raise ModelError(f"exponential needs rate > 0, got {p}")
        else:
            raise ModelError(f"unknown distribution family {fam!r}")


@dataclass(frozen=True)
class DiscretePlace:
    id: str
    tokens: int


@dataclass(frozen=True)
class ContinuousPlace:
    id: str
    level: float
    capacity: float  # math.inf for unbounded


@dataclass(frozen=True)
class DeterministicTransition:
    id: str
    firing_time: float
    priority: int = 0
    weight: float = 1.0


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


#: The model field that lists the transitions of each kind.
_KIND_ATTR = {
    TKind.DETERMINISTIC: "deterministic",
    TKind.IMMEDIATE: "immediate",
    TKind.GENERAL: "general",
    TKind.STATIC: "static_continuous",
    TKind.DYNAMIC: "dynamic_continuous",
}


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
    dp_index: dict[str, int] = field(default_factory=dict)
    cp_index: dict[str, int] = field(default_factory=dict)
    t_ref: dict[str, tuple[TKind, int]] = field(default_factory=dict)

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


def _number(raw, name: str, where: str) -> float:
    """``raw`` as a float; NaN and the infinities, which JSON and ``float``
    both read, are refused like any other non-number."""
    try:
        v = float(raw)
    except (TypeError, ValueError):
        v = math.nan
    if not math.isfinite(v):
        raise ModelError(f"{name} must be a finite number, got {raw!r}", where)
    return v


def _capacity(raw, where: str) -> float:
    if raw == "inf":
        return math.inf
    v = _number(raw, "capacity", where)
    if v <= 0:
        raise ModelError("capacity must be positive or \"inf\"", where)
    return v


def _dist(raw, where: str) -> DistributionSpec:
    if not isinstance(raw, dict) or "family" not in raw:
        raise ModelError("distribution needs a 'family'", where)
    fam = raw["family"]
    keys = {
        "uniform": ("a", "b"),
        "normal": ("mu", "sigma"),
        "foldedNormal": ("mu", "sigma"),
        "exponential": ("rate",),
    }.get(fam)
    if keys is None:
        raise ModelError(f"unknown distribution family {fam!r}", where)
    try:
        params = tuple(_number(raw[k], k, where) for k in keys)
    except KeyError as missing:
        raise ModelError(f"distribution missing parameter {missing}", where) from None
    try:
        return DistributionSpec(fam, params)
    except ModelError as err:
        raise ModelError(str(err), where) from None


def _order(t: dict, where: str, tie: str = "weight") -> tuple[int, float]:
    """A transition's priority and its tie-break weight (or fluid share)."""
    return (int(_number(t.get("priority", 0), "priority", where)),
            _number(t.get(tie, 1.0), tie, where))


def parse_model(text: str) -> HPnGModel:
    """Parse and validate a model document; raises ModelError on any defect."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ModelError(f"not valid JSON: {err}") from None

    places = doc.get("places", {})
    transitions = doc.get("transitions", {})
    arcs = doc.get("arcs", {})

    dps = []
    for i, p in enumerate(places.get("discrete", [])):
        where = f"places.discrete[{i}]"
        tokens = p.get("tokens", 0)
        if not isinstance(tokens, int) or tokens < 0:
            raise ModelError(f"tokens must be a nonnegative integer, got {tokens!r}", where)
        dps.append(DiscretePlace(p["id"], tokens))

    cps = []
    for i, p in enumerate(places.get("continuous", [])):
        where = f"places.continuous[{i}]"
        cap = _capacity(p.get("capacity", "inf"), where)
        level = _number(p.get("level", 0.0), "level", where)
        if level < 0 or level > cap:
            raise ModelError(f"initial level {level} outside [0, {cap}]", where)
        cps.append(ContinuousPlace(p["id"], level, cap))

    det = []
    for i, t in enumerate(transitions.get("deterministic", [])):
        where = f"transitions.deterministic[{i}]"
        ft = _number(t.get("firingTime", 0.0), "firingTime", where)
        if ft <= 0:
            raise ModelError("firingTime must be > 0", where)
        det.append(DeterministicTransition(t["id"], ft, *_order(t, where)))

    imm = [ImmediateTransition(t["id"], *_order(t, f"transitions.immediate[{i}]"))
           for i, t in enumerate(transitions.get("immediate", []))]

    gen = []
    for i, t in enumerate(transitions.get("general", [])):
        gen.append(GeneralTransition(t["id"], _dist(t.get("distribution"),
                                                    f"transitions.general[{i}]")))

    stat = []
    for i, t in enumerate(transitions.get("staticContinuous", [])):
        where = f"transitions.staticContinuous[{i}]"
        rate = _number(t.get("rate", 0.0), "rate", where)
        if rate < 0:
            raise ModelError("rate must be >= 0", where)
        stat.append(StaticContinuousTransition(t["id"], rate, *_order(t, where, "share")))

    dyn = []
    for i, t in enumerate(transitions.get("dynamicContinuous", [])):
        where = f"transitions.dynamicContinuous[{i}]"
        terms = tuple((term["transition"], _number(term["coefficient"], "coefficient", where))
                      for term in t.get("terms", []))
        constant = _number(t.get("constant", 0.0), "constant", where)
        dyn.append(DynamicContinuousTransition(t["id"], constant, terms,
                                               *_order(t, where, "share")))

    model = HPnGModel(dps, cps, det, imm, gen, stat, dyn, [], [], [])

    def resolve(name: str, where: str) -> str:
        if name in model.dp_index or name in model.cp_index or name in model.t_ref:
            return name
        raise ModelError(f"unknown id {name!r}", where)

    for i, a in enumerate(arcs.get("discrete", [])):
        where = f"arcs.discrete[{i}]"
        src, dst = resolve(a["from"], where), resolve(a["to"], where)
        w = a.get("weight", 1)
        if not isinstance(w, int) or w < 1:
            raise ModelError(f"discrete arc weight must be a positive integer, got {w!r}", where)
        if src in model.dp_index and dst in model.t_ref:
            if model.t_ref[dst][0] not in DISCRETE_KINDS:
                raise ModelError("discrete arc must attach a discrete transition", where)
            model.discrete_arcs.append(DiscreteArc(src, dst, w, True))
        elif src in model.t_ref and dst in model.dp_index:
            if model.t_ref[src][0] not in DISCRETE_KINDS:
                raise ModelError("discrete arc must attach a discrete transition", where)
            model.discrete_arcs.append(DiscreteArc(dst, src, w, False))
        else:
            raise ModelError("discrete arc must join a discrete place and a transition", where)

    for i, a in enumerate(arcs.get("continuous", [])):
        where = f"arcs.continuous[{i}]"
        src, dst = resolve(a["from"], where), resolve(a["to"], where)
        w = _number(a.get("weight", 1.0), "weight", where)
        if w <= 0:
            raise ModelError("continuous arc weight must be positive", where)
        if src in model.cp_index and dst in model.t_ref:
            kind = model.t_ref[dst][0]
            place, trans, to_place = src, dst, False
        elif src in model.t_ref and dst in model.cp_index:
            kind = model.t_ref[src][0]
            place, trans, to_place = dst, src, True
        else:
            raise ModelError("continuous arc must join a continuous place and a transition", where)
        if kind not in CONTINUOUS_KINDS:
            raise ModelError("continuous arc must attach a continuous transition", where)
        model.continuous_arcs.append(ContinuousArc(place, trans, w, to_place))

    for i, a in enumerate(arcs.get("guard", [])):
        where = f"arcs.guard[{i}]"
        src, dst = resolve(a["from"], where), resolve(a["to"], where)
        if src not in model.dp_index and src not in model.cp_index:
            raise ModelError("guard arc source must be a place", where)
        if dst not in model.t_ref:
            raise ModelError("guard arc target must be a transition", where)
        op = a.get("op", ">=")
        if op not in GUARD_OPS:
            raise ModelError(f"guard op must be one of {GUARD_OPS}, got {op!r}", where)
        if src in model.cp_index and model.t_ref[dst][0] not in DISCRETE_KINDS:
            raise ModelError("continuous-place guards may only target discrete transitions",
                             where)
        model.guard_arcs.append(GuardArc(src, dst, op,
                                         _number(a.get("threshold", 1), "threshold", where)))

    issues = validate(model)
    if issues:
        raise ModelError("; ".join(issues))
    return model


def _guards_disjoint(a: GuardArc, b: GuardArc) -> bool:
    """True when the two conditions can never hold for one level value."""

    def as_interval(op: str, c: float) -> tuple[float, float, bool, bool]:
        # (lo, hi, lo_open, hi_open)
        if op == "<":
            return (-math.inf, c, False, True)
        if op == "<=":
            return (-math.inf, c, False, False)
        if op == ">":
            return (c, math.inf, True, False)
        if op == ">=":
            return (c, math.inf, False, False)
        return (c, c, False, False)

    lo_a, hi_a, loo_a, hio_a = as_interval(a.op, a.threshold)
    lo_b, hi_b, loo_b, hio_b = as_interval(b.op, b.threshold)
    lo = max(lo_a, lo_b)
    hi = min(hi_a, hi_b)
    if lo < hi:
        return False
    if lo > hi:
        return True
    # Touching endpoints: empty iff either side excludes the point.
    lo_open = (loo_a if lo == lo_a else False) or (loo_b if lo == lo_b else False)
    hi_open = (hio_a if hi == hi_a else False) or (hio_b if hi == hi_b else False)
    return lo_open or hi_open


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
    doc = {
        "places": {
            "discrete": [{"id": p.id, "tokens": p.tokens} for p in model.discrete_places],
            "continuous": [
                {"id": p.id, "level": p.level,
                 "capacity": "inf" if math.isinf(p.capacity) else p.capacity}
                for p in model.continuous_places
            ],
        },
        "transitions": {
            "deterministic": [
                {"id": t.id, "firingTime": t.firing_time, "priority": t.priority,
                 "weight": t.weight} for t in model.deterministic
            ],
            "immediate": [
                {"id": t.id, "priority": t.priority, "weight": t.weight}
                for t in model.immediate
            ],
            "general": [
                {"id": t.id, "distribution": _dist_doc(t.distribution)}
                for t in model.general
            ],
            "staticContinuous": [
                {"id": t.id, "rate": t.rate, "priority": t.priority, "share": t.share}
                for t in model.static_continuous
            ],
            "dynamicContinuous": [
                {"id": t.id, "constant": t.constant,
                 "terms": [{"transition": r, "coefficient": c} for r, c in t.terms],
                 "priority": t.priority, "share": t.share}
                for t in model.dynamic_continuous
            ],
        },
        "arcs": {
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
        },
    }
    return json.dumps(doc, indent=2)


def _dist_doc(d: DistributionSpec) -> dict:
    if d.family == "uniform":
        return {"family": "uniform", "a": d.params[0], "b": d.params[1]}
    if d.family in ("normal", "foldedNormal"):
        return {"family": d.family, "mu": d.params[0], "sigma": d.params[1]}
    return {"family": "exponential", "rate": d.params[0]}


def load_model(path: str) -> HPnGModel:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())
