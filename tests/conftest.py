"""Shared fixtures: bundled models, prebuilt trees, closed-form nets and a
path oracle.

The path oracle walks the location tree for one concrete assignment of
random firing values, which lets tests replay the same scenario through
the discrete-event simulator and compare histories event by event.  The
closed-form nets are built in code and scale in dimension: chain(k) and
race(k) put k general firings in one region.
"""

import json
import math
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest

from hpng import build_plt, load_model, parse_model
from hpng.montecarlo import McConfig
from hpng.tree import ParametricLocation, PLTree

MODELS = Path(__file__).resolve().parent.parent / "models"

RESERVOIR_TAU = 10.0
BATTERY_TAU = 8.0


@pytest.fixture(scope="session")
def reservoir_model():
    return load_model(str(MODELS / "reservoir.json"))


@pytest.fixture(scope="session")
def battery_model():
    return load_model(str(MODELS / "battery.json"))


@pytest.fixture(scope="session")
def counter_model():
    """A net with unboundedly many markings and a handful of modes.

    ``tick`` adds a token to ``count`` every 0.1 and nothing consumes it,
    so a run to 100 visits about a thousand markings.  From 500 tokens on
    a guard enables ``fill``, which tops the tank up to its capacity.
    """
    return parse_model(json.dumps({
        "places": {"discrete": [{"id": "count", "tokens": 0}],
                   "continuous": [{"id": "tank", "level": 0.0, "capacity": 30.0}]},
        "transitions": {"deterministic": [{"id": "tick", "firingTime": 0.1}],
                        "staticContinuous": [{"id": "fill", "rate": 1.0}]},
        "arcs": {"discrete": [{"from": "tick", "to": "count"}],
                 "continuous": [{"from": "fill", "to": "tank"}],
                 "guard": [{"from": "count", "to": "fill", "op": ">=", "threshold": 500}]},
    }))


@pytest.fixture(scope="session")
def reservoir_tree(reservoir_model):
    return build_plt(reservoir_model, RESERVOIR_TAU)


@pytest.fixture(scope="session")
def battery_tree(battery_model):
    return build_plt(battery_model, BATTERY_TAU)


@pytest.fixture(scope="session")
def battery_trees(battery_model):
    """Battery trees past the default horizon, by tau."""
    return {tau: build_plt(battery_model, tau) for tau in (12.0, 20.0)}


@pytest.fixture(scope="session")
def fast_cfg():
    # Small enough to keep the suite quick, large enough for 1e-3 accuracy
    # on the bundled models.
    return McConfig(samples=20_000, iterations=4, seed=0)


def battery_doc():
    with open(MODELS / "battery.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def battery_variant(repair_time=None, switch_family=None):
    """Bundled battery model with optional repair time / switch CDF changes."""
    doc = battery_doc()
    if repair_time is not None:
        for t in doc["transitions"]["deterministic"]:
            if t["id"] == "grid_repair":
                t["firingTime"] = repair_time
    if switch_family is not None:
        for t in doc["transitions"]["general"]:
            if t["id"] in ("to_low", "to_high"):
                t["distribution"] = dict(switch_family)
    return parse_model(json.dumps(doc))


class ClosedFormNet(NamedTuple):
    """A net, the query asked of it, and its exact answer."""

    model: object
    tau: float
    t_prime: float
    prop: str
    exact: float


def _net(places: dict, general: list[tuple[str, str, str, dict]]) -> object:
    """A net of discrete places (id -> tokens) and general transitions
    (id, input place, output place, model-file distribution)."""
    return parse_model(json.dumps({
        "places": {"discrete": [{"id": p, "tokens": n} for p, n in places.items()]},
        "transitions": {"general": [{"id": t, "distribution": dist}
                                    for t, _, _, dist in general]},
        "arcs": {"discrete": [arc for t, src, dst, _ in general
                              for arc in ({"from": src, "to": t}, {"from": t, "to": dst})]},
    }))


def irwin_hall_cdf(k: int, x: Fraction) -> float:
    """P(sum of k U(0, 1) <= x), summed exactly in rationals."""
    return float(sum((-1) ** j * math.comb(k, j) * (x - j) ** k
                     for j in range(math.floor(x) + 1)) / math.factorial(k))


def chain_net(k: int) -> ClosedFormNet:
    """k sequential U(0, 2) firings, g_i moving the token from p_{i-1} to p_i.

    The token reaches p_k by t' = 0.8k when the k delays sum to at most
    t', so P(m(p_k) >= 1) is the Irwin-Hall CDF of k at t' / 2 = 0.4k.
    """
    u02 = {"family": "uniform", "a": 0.0, "b": 2.0}
    model = _net({f"p{i}": int(i == 0) for i in range(k + 1)},
                 [(f"g{i}", f"p{i - 1}", f"p{i}", u02) for i in range(1, k + 1)])
    t_prime = 0.8 * k
    return ClosedFormNet(model, t_prime + 0.5, t_prime, f"m(p{k}) >= 1",
                         irwin_hall_cdf(k, Fraction(2 * k, 5)))


def race_net(k: int) -> ClosedFormNet:
    """k concurrent U(0, 10) firings, g_i moving a_i's token to ``done``.

    All k have fired by t' = 6 with probability 0.6^k.
    """
    u010 = {"family": "uniform", "a": 0.0, "b": 10.0}
    model = _net({**{f"a{i}": 1 for i in range(1, k + 1)}, "done": 0},
                 [(f"g{i}", f"a{i}", "done", u010) for i in range(1, k + 1)])
    return ClosedFormNet(model, 7.0, 6.0, f"m(done) >= {k}", 0.6 ** k)


def assignment_values(loc: ParametricLocation, assignment: dict) -> list[float]:
    return [assignment[(rv.transition, rv.firing)] for rv in loc.rvs]


def _contains(loc: ParametricLocation, assignment: dict, eps: float) -> bool:
    vals = assignment_values(loc, assignment)
    return all(iv.contains(vals[i], vals, eps) for i, iv in enumerate(loc.domain))


def walk_path(tree: PLTree, assignment: dict, t_cap: float = None,
              eps: float = 1e-9) -> list[ParametricLocation]:
    """Locations traversed under one assignment, in order of entry.

    At each step the walk descends into the matching child with the
    smallest entry time; ties only occur on measure-zero assignments.
    ``t_cap`` stops the walk at a query time (entry strictly later than
    the cap is not taken), defaulting to the tree's time bound.
    """
    cap = tree.tau_max if t_cap is None else t_cap
    path = [tree.root]
    while True:
        loc = path[-1]
        best, best_entry = None, None
        for cid in loc.children:
            child = tree.location(cid)
            if not _contains(child, assignment, eps):
                continue
            entry = child.entry.evaluate(assignment_values(child, assignment))
            if entry > cap + eps:
                continue
            if best is None or entry < best_entry:
                best, best_entry = child, entry
        if best is None:
            return path
        path.append(best)


def occupied_location(tree: PLTree, assignment: dict, t_prime: float,
                      eps: float = 1e-9) -> ParametricLocation:
    return walk_path(tree, assignment, t_cap=t_prime, eps=eps)[-1]


def sample_assignment(model, rng) -> dict:
    """Independent draws for the first few firings of every general transition."""
    from hpng.montecarlo import sample

    out = {}
    for t in model.general:
        for k in range(4):
            out[(t.id, k)] = float(sample(t.distribution, rng, 1)[0])
    return out


# One line per acceptance criterion, echoed after the run so the gate reads
# as a checklist even in quiet mode.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
