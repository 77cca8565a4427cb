"""Shared fixtures: bundled models, prebuilt trees, and a path oracle.

The path oracle walks the location tree for one concrete assignment of
random firing values, which lets tests replay the same scenario through
the discrete-event simulator and compare histories event by event.
"""

import json
from pathlib import Path

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
