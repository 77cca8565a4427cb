import hashlib
import json
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import MODELS
from hpng.model import (
    GUARD_OPS,
    ZONE_TRUTH,
    DistributionSpec,
    ModelError,
    TKind,
    _guards_disjoint,
    GuardArc,
    compare,
    load_model,
    parse_model,
    serialize,
    validate,
)
from hpng.symbolic import EPS

MINIMAL = {
    "places": {
        "discrete": [{"id": "p", "tokens": 1}],
        "continuous": [{"id": "c", "level": 0.0, "capacity": "inf"}],
    },
    "transitions": {
        "deterministic": [{"id": "d", "firingTime": 2.0}],
        "staticContinuous": [{"id": "f", "rate": 1.0}],
    },
    "arcs": {
        "discrete": [{"from": "p", "to": "d"}],
        "continuous": [{"from": "f", "to": "c"}],
        "guard": [{"from": "p", "to": "f", "op": ">=", "threshold": 1}],
    },
}


def doc(**overrides):
    d = json.loads(json.dumps(MINIMAL))
    d.update(overrides)
    return d


def test_parse_minimal_model():
    m = parse_model(json.dumps(MINIMAL))
    assert m.discrete_places[0].tokens == 1
    assert math.isinf(m.continuous_places[0].capacity)
    assert m.t_ref["d"][0] is TKind.DETERMINISTIC
    assert m.discrete_arcs[0].to_transition
    assert m.continuous_arcs[0].to_place


def test_round_trip_serialize_parse(reservoir_model, battery_model):
    for m in (reservoir_model, battery_model):
        assert parse_model(serialize(m)) == m


# SHA-256 of serialize() for the bundled models: the canonical bytes, key
# order included, stay what they were before the format got its field table.
SERIALIZED_SHA256 = {
    "battery": "83781d4d4e3743286b9010fd079b9dffb448541b6e7dc8058cf3f60a26f664a5",
    "reservoir": "f68d0a706a9f63e8386576d40d2afbdb8137bdddabc27004856cd1ef3eedc60d",
}


@pytest.mark.parametrize("name", sorted(SERIALIZED_SHA256))
def test_serialize_bytes_pinned(name):
    text = serialize(load_model(str(MODELS / f"{name}.json")))
    assert hashlib.sha256(text.encode()).hexdigest() == SERIALIZED_SHA256[name]


def test_duplicate_ids_rejected():
    bad = doc()
    bad["transitions"]["deterministic"].append({"id": "d", "firingTime": 1.0})
    with pytest.raises(ModelError, match="duplicate"):
        parse_model(json.dumps(bad))


def test_unknown_arc_endpoint_rejected():
    bad = doc()
    bad["arcs"]["discrete"].append({"from": "p", "to": "nope"})
    with pytest.raises(ModelError):
        parse_model(json.dumps(bad))


def test_discrete_arc_must_touch_discrete_transition():
    bad = doc()
    bad["arcs"]["discrete"].append({"from": "p", "to": "f"})
    with pytest.raises(ModelError, match="discrete arc"):
        parse_model(json.dumps(bad))


def test_continuous_arc_direction_and_kind():
    bad = doc()
    bad["arcs"]["continuous"].append({"from": "c", "to": "d"})
    with pytest.raises(ModelError, match="continuous arc"):
        parse_model(json.dumps(bad))


def test_fluid_guard_only_targets_discrete_transitions():
    bad = doc()
    bad["arcs"]["guard"].append({"from": "c", "to": "f", "op": ">", "threshold": 0})
    with pytest.raises(ModelError, match="guards"):
        parse_model(json.dumps(bad))


def test_negative_tokens_and_rates_rejected():
    bad = doc()
    bad["places"]["discrete"][0]["tokens"] = -1
    with pytest.raises(ModelError):
        parse_model(json.dumps(bad))
    bad = doc()
    bad["transitions"]["staticContinuous"][0]["rate"] = -2.0
    with pytest.raises(ModelError):
        parse_model(json.dumps(bad))


def test_dynamic_terms_must_reference_statics():
    bad = doc()
    bad["transitions"]["dynamicContinuous"] = [{
        "id": "dyn", "constant": 0.0,
        "terms": [{"transition": "d", "coefficient": 1.0}],
    }]
    with pytest.raises(ModelError, match="non-static"):
        parse_model(json.dumps(bad))


def _imm_cycle_doc(with_guards):
    d = {
        "places": {
            "discrete": [{"id": "a", "tokens": 1}, {"id": "b", "tokens": 0}],
            "continuous": [{"id": "lv", "level": 1.0, "capacity": 2.0}],
        },
        "transitions": {
            "immediate": [{"id": "ab"}, {"id": "ba"}],
        },
        "arcs": {
            "discrete": [
                {"from": "a", "to": "ab"}, {"from": "ab", "to": "b"},
                {"from": "b", "to": "ba"}, {"from": "ba", "to": "a"},
            ],
            "guard": [],
        },
    }
    if with_guards:
        d["arcs"]["guard"] = [
            {"from": "lv", "to": "ab", "op": "<=", "threshold": 0},
            {"from": "lv", "to": "ba", "op": ">", "threshold": 0},
        ]
    return d


def test_zero_time_cycle_detected():
    with pytest.raises(ModelError, match="cycle"):
        parse_model(json.dumps(_imm_cycle_doc(with_guards=False)))


def test_zero_time_cycle_broken_by_exclusive_level_guards():
    """Guards that can never hold at once make the token cycle harmless."""
    m = parse_model(json.dumps(_imm_cycle_doc(with_guards=True)))
    assert validate(m) == []


@pytest.mark.parametrize("op_a,th_a,op_b,th_b,disjoint", [
    ("<=", 0.0, ">", 0.0, True),
    ("<", 5.0, ">=", 5.0, True),
    ("<=", 0.0, ">=", 0.0, False),
    ("<", 3.0, ">", 2.0, False),
    ("=", 1.0, "=", 2.0, True),
    ("=", 1.0, "=", 1.0, False),
    ("=", 2.0, ">", 2.0, True),
    ("=", 2.0, ">=", 2.0, False),
    (">", 4.0, ">", 9.0, False),
])
def test_guard_disjointness_table(op_a, th_a, op_b, th_b, disjoint):
    a = GuardArc("lv", "t1", op_a, th_a)
    b = GuardArc("lv", "t2", op_b, th_b)
    assert _guards_disjoint(a, b) is disjoint
    assert _guards_disjoint(b, a) is disjoint


def test_load_model_reads_files(tmp_path):
    p = tmp_path / "m.json"
    p.write_text(json.dumps(MINIMAL))
    m = load_model(str(p))
    assert m.deterministic[0].firing_time == 2.0


def test_distribution_families_parse():
    d = doc()
    d["transitions"]["general"] = [
        {"id": "g1", "distribution": {"family": "uniform", "a": 0, "b": 4}},
        {"id": "g2", "distribution": {"family": "normal", "mu": 3, "sigma": 1}},
        {"id": "g3", "distribution": {"family": "foldedNormal", "mu": 2, "sigma": 2}},
        {"id": "g4", "distribution": {"family": "exponential", "rate": 0.5}},
    ]
    d["places"]["discrete"].append({"id": "q", "tokens": 4})
    d["arcs"]["discrete"] += [{"from": "q", "to": f"g{i}"} for i in (1, 2, 3, 4)]
    m = parse_model(json.dumps(d))
    assert {t.distribution.family for t in m.general} == {
        "uniform", "normal", "foldedNormal", "exponential"
    }
    bad = json.loads(json.dumps(d))
    bad["transitions"]["general"][0]["distribution"] = {"family": "cauchy"}
    with pytest.raises(ModelError):
        parse_model(json.dumps(bad))


def _set(doc, path, value):
    *keys, last = path
    for key in keys:
        doc = doc[key]
    doc[last] = value


@pytest.mark.parametrize("path,raw,field", [
    (("places", "continuous", 0, "level"), "NaN", "level"),
    (("places", "continuous", 0, "capacity"), "NaN", "capacity"),
    (("places", "continuous", 0, "capacity"), "Infinity", "capacity"),   # only "inf"
    (("places", "continuous", 0, "capacity"), '"nan"', "capacity"),
    (("transitions", "deterministic", 0, "firingTime"), "Infinity", "firingTime"),
    (("transitions", "deterministic", 0, "priority"), "Infinity", "priority"),
    (("transitions", "staticContinuous", 0, "rate"), "NaN", "rate"),
    (("transitions", "staticContinuous", 0, "share"), "-Infinity", "share"),
    (("arcs", "guard", 0, "threshold"), "NaN", "threshold"),
    (("arcs", "continuous", 0, "weight"), "Infinity", "weight"),
    (("transitions", "general", 0, "distribution", "b"), "NaN", "b"),
])
def test_non_finite_numbers_are_rejected(path, raw, field):
    # JSON reads NaN and Infinity and float() reads "nan"; a model with one
    # means nothing, so the parser names the field instead of answering.
    doc = json.loads((MODELS / "reservoir.json").read_text())
    _set(doc, path, "SENTINEL")
    text = json.dumps(doc).replace('"SENTINEL"', raw)
    with pytest.raises(ModelError, match=f"{field} must be a finite number"):
        parse_model(text)


def _without(path):
    d = doc()
    *keys, last = path
    entry = d
    for key in keys:
        entry = entry[key]
    del entry[last]
    return json.dumps(d)


def _with_dynamic(term):
    d = doc()
    d["transitions"]["dynamicContinuous"] = [{"id": "dyn", "terms": [term]}]
    return json.dumps(d)


@pytest.mark.parametrize("text,message", [
    pytest.param("[]", "a model must be a JSON object", id="array"),
    pytest.param(json.dumps(doc(places=[])), "places: must be an object", id="places-list"),
    pytest.param(json.dumps(doc(arcs={"guard": {}})), r"arcs\.guard: must be a list",
                 id="guard-arcs-object"),
    pytest.param(json.dumps(doc(places={"discrete": [7]})),
                 r"places\.discrete\[0\]: must be an object", id="entry-number"),
    pytest.param(_without(("places", "discrete", 0, "id")),
                 r"places\.discrete\[0\]: missing 'id'", id="no-id"),
    pytest.param(_without(("arcs", "discrete", 0, "from")),
                 r"arcs\.discrete\[0\]: missing 'from'", id="no-from"),
    pytest.param(_without(("arcs", "continuous", 0, "to")),
                 r"arcs\.continuous\[0\]: missing 'to'", id="no-to"),
    pytest.param(_with_dynamic({"coefficient": 1.0}),
                 r"transitions\.dynamicContinuous\[0\]: missing 'transition'",
                 id="no-transition"),
    pytest.param(_with_dynamic({"transition": "f"}),
                 r"transitions\.dynamicContinuous\[0\]: coefficient must be a finite number",
                 id="no-coefficient"),
    pytest.param(_with_dynamic(3),
                 r"transitions\.dynamicContinuous\[0\]: terms must be a list of objects",
                 id="term-number"),
])
def test_malformed_document_names_where_and_what(text, message):
    with pytest.raises(ModelError, match=message):
        parse_model(text)


@pytest.mark.parametrize("path,field", [
    (("places", "discrete", 0, "tokens"), "tokens"),
    (("arcs", "discrete", 0, "weight"), "discrete arc weight"),
    (("transitions", "deterministic", 0, "firingTime"), "firingTime"),
    (("arcs", "continuous", 0, "weight"), "weight"),
], ids=["tokens", "discrete-arc-weight", "firingTime", "continuous-arc-weight"])
def test_json_true_is_not_a_number(path, field):
    d = doc()
    _set(d, path, True)
    with pytest.raises(ModelError, match=f"{field} must be a .* got True"):
        parse_model(json.dumps(d))


@pytest.mark.parametrize("family,params", [
    ("normal", (1.0, math.nan)),
    ("uniform", (0.0, math.inf)),
])
def test_distribution_spec_refuses_non_finite_parameters(family, params):
    with pytest.raises(ModelError, match=f"{family} needs"):
        DistributionSpec(family, params)


@pytest.mark.parametrize("path,raw", [
    (("places", "continuous", 0, "level"), "0.5"),
    (("places", "continuous", 0, "capacity"), "10"),
    (("transitions", "deterministic", 0, "firingTime"), "5"),
    (("transitions", "deterministic", 0, "priority"), "1"),
    (("transitions", "staticContinuous", 0, "rate"), "2"),
    (("transitions", "staticContinuous", 0, "share"), "1"),
    (("arcs", "guard", 0, "threshold"), "1"),
    (("arcs", "continuous", 0, "weight"), "1"),
    (("transitions", "general", 0, "distribution", "b"), "10"),
])
def test_numeric_strings_are_rejected(path, raw):
    # a string is not a number, whatever float() makes of it; only a
    # capacity may be the string "inf"
    doc = json.loads((MODELS / "reservoir.json").read_text())
    _set(doc, path, raw)
    section, kind, i, *_, field = path
    with pytest.raises(ModelError, match=rf"^{section}\.{kind}\[{i}\]: "
                                         rf"{field} must be a finite number, got '{raw}'$"):
        parse_model(json.dumps(doc))


def test_integer_too_large_for_a_float_is_rejected():
    d = doc()
    d["places"]["continuous"][0]["level"] = 10 ** 400
    with pytest.raises(ModelError, match=r"places\.continuous\[0\]: level must be a finite"):
        parse_model(json.dumps(d))


@pytest.mark.parametrize("raw", [1.7, -0.5, 1e-300])
def test_fractional_priority_is_rejected(raw):
    d = doc()
    d["transitions"]["deterministic"][0]["priority"] = raw
    with pytest.raises(ModelError, match=rf"transitions\.deterministic\[0\]: "
                                         rf"priority must be an integer, got {raw}$"):
        parse_model(json.dumps(d))


@pytest.mark.parametrize("raw,priority", [(3, 3), (-2, -2), (2.0, 2)])
def test_integral_priority_is_read(raw, priority):
    d = doc()
    d["transitions"]["deterministic"][0]["priority"] = raw
    assert parse_model(json.dumps(d)).deterministic[0].priority == priority


# ---------------------------------------------------------------------------
# comparison operators, against the rules they replaced


def _reference_compare(op, left, right, eps=0.0):
    """The comparison as written before it moved next to GUARD_OPS."""
    if op == "<":
        return left < right - eps
    if op == "<=":
        return left <= right + eps
    if op == "=":
        return abs(left - right) <= eps
    if op == ">=":
        return left >= right - eps
    return left > right + eps


def _reference_disjoint(a, b):
    """Guard disjointness by intersecting each condition's interval, the
    rule that preceded the walk over zones."""

    def as_interval(op, c):
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
    lo_open = (loo_a if lo == lo_a else False) or (loo_b if lo == lo_b else False)
    hi_open = (hio_a if hi == hi_a else False) or (hio_b if hi == hi_b else False)
    return lo_open or hi_open


FINITE = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12)


@settings(max_examples=400, deadline=None)
@given(op=st.sampled_from(GUARD_OPS), left=FINITE, right=FINITE,
       near=st.sampled_from([None, 0.0, EPS, -EPS, 0.5 * EPS, 2 * EPS]),
       eps=st.sampled_from([0.0, EPS]))
def test_compare_is_the_reference(op, left, right, near, eps):
    if near is not None:        # put left at or about the boundary
        left = right + near
    assert compare(op, left, right, eps) is _reference_compare(op, left, right, eps)


@settings(max_examples=100, deadline=None)
@given(c=st.integers(-10 ** 6, 10 ** 6), d=st.integers(1, 10 ** 6),
       eps=st.sampled_from([0.0, EPS]))
def test_zone_truths_are_compare_in_each_zone(c, d, eps):
    # integer levels keep c - d, c and c + d exact, so each lies clearly in its zone
    for op in GUARD_OPS:
        assert ZONE_TRUTH[op] == {
            "below": _reference_compare(op, float(c - d), float(c), eps),
            "at": _reference_compare(op, float(c), float(c), eps),
            "above": _reference_compare(op, float(c + d), float(c), eps),
        }


def _second_threshold(c, order, gap):
    """A threshold below, at or above c, ``gap`` away or one float step."""
    if order == "=":
        return c
    sign = 1.0 if order == ">" else -1.0
    return math.nextafter(c, sign * math.inf) if gap is None else c + sign * gap


@pytest.mark.parametrize("order", ["<", "=", ">"])
@pytest.mark.parametrize("op_b", GUARD_OPS)
@pytest.mark.parametrize("op_a", GUARD_OPS)
@settings(max_examples=15, deadline=None)
@given(c=FINITE, gap=st.one_of(st.none(), st.sampled_from([EPS, 1.0]),
                               st.floats(min_value=1e-12, max_value=1e6)))
def test_guards_disjoint_is_the_interval_rule(op_a, op_b, order, c, gap):
    # order: where the second threshold lies against the first
    d = _second_threshold(c, order, gap)
    assume(order == "=" or d != c)
    a, b = GuardArc("lv", "t1", op_a, c), GuardArc("lv", "t2", op_b, d)
    assert _guards_disjoint(a, b) is _reference_disjoint(a, b)
