"""Benchmark workloads: the generated inputs and their closed-form answers.

A workload is a list of queries.  Each query names a model variant, a tree
horizon, an observation time t', a property, the engines that answer it
and the exact probability the answer is checked against.  hpng receives
only the model documents, property strings and budgets built here; the
seed reaches it through ``McConfig.seed`` and the simulator seed.

Both workloads run every engine (the three transient routes and the
simulator on both bundled models), so every end-to-end metric exists on
each of them.  They differ in which layer carries the time; README.md in
this directory records why each was chosen and the measured shares.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

ROUTES = ("intervals", "simplex", "direct")
SIM = "sim"

# Switch distributions of the demand-switch sweep, as model-file entries.
SWITCHES = (
    ("U(0,10)", {"family": "uniform", "a": 0.0, "b": 10.0}),
    ("U(6,10)", {"family": "uniform", "a": 6.0, "b": 10.0}),
    ("N(8,1)", {"family": "normal", "mu": 8.0, "sigma": 1.0}),
    ("N(7,1)", {"family": "normal", "mu": 7.0, "sigma": 1.0}),
    ("N(7,2)", {"family": "normal", "mu": 7.0, "sigma": 2.0}),
)


# ---------------------------------------------------------------------------
# closed forms


def grid_on(t_prime: float, repair: float) -> float:
    """P(m(grid_on) >= 1) at t' on the battery model, valid for t' <= 2 * repair.

    The grid fails at U ~ U(0, 10).  It is on at t' when it has not failed
    yet, or when it failed at u <= t' - repair and was repaired; a second
    failure needs a further U(0, 10) delay, whose probability of landing in
    the remaining time contributes the quadratic term.
    """
    c = max(0.0, t_prime - repair)
    return max(0.0, 1.0 - t_prime / 10.0) + 0.1 * (c - c * c / 20.0)


def _normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def survival(dist: dict, x: float) -> float:
    """P(delay > x) for a model-file distribution; normals truncated at 0."""
    if dist["family"] == "uniform":
        a, b = dist["a"], dist["b"]
        return min(1.0, max(0.0, (b - x) / (b - a)))
    mu, sg = dist["mu"], dist["sigma"]
    below0 = _normal_cdf(-mu / sg)
    return (1.0 - _normal_cdf((x - mu) / sg)) / (1.0 - below0)


def demand_std(dist: dict, t_prime: float) -> float:
    """P(m(demand_std) = 1) at t' before any switch can return: neither switch fired."""
    return survival(dist, t_prime) ** 2


PUMP_OK_AT_6 = 0.4     # pump_break ~ U(0, 10) has not fired by t' = 6


# ---------------------------------------------------------------------------
# inputs


def battery_doc(root: Path, repair: float = 8.0, switch: dict | None = None) -> dict:
    doc = json.loads((root / "models" / "battery.json").read_text(encoding="utf-8"))
    for t in doc["transitions"]["deterministic"]:
        if t["id"] == "grid_repair":
            t["firingTime"] = repair
    if switch is not None:
        for t in doc["transitions"]["general"]:
            if t["id"] in ("to_low", "to_high"):
                t["distribution"] = dict(switch)
    return doc


def reservoir_doc(root: Path) -> dict:
    return json.loads((root / "models" / "reservoir.json").read_text(encoding="utf-8"))


@dataclass(frozen=True)
class Query:
    label: str
    model: str             # key into Workload.models
    tau: float
    t_prime: float
    prop: str              # "" asks for the sum of occupation probabilities
    expected: float
    engines: tuple[str, ...]
    sim_runs: int = 0


@dataclass(frozen=True)
class Workload:
    models: dict           # key -> model document (dict)
    queries: tuple[Query, ...]
    budgets: dict          # route -> (samples, iterations)
    accuracy: float        # allowed |route answer - closed form|
    plt_repeats: int = 1   # untraced builds of each tree per pass; the median counts


def sim_tolerance(expected: float, runs: int) -> float:
    """Five binomial standard deviations at the closed-form probability."""
    return 5.0 * math.sqrt(expected * (1.0 - expected) / runs)


def pump_ok(after: str, runs: int) -> Query:
    """A reservoir simulator query, placed after ``after`` in the query list.

    Spreading several short reservoir queries through a pass samples the
    machine at several moments instead of one.
    """
    return Query(f"pump_ok after {after}", "reservoir", 10.0, 6.0, "m(pump_ok) >= 1",
                 PUMP_OK_AT_6, (SIM,), runs)


def sweep_t8(root: Path, tiny: bool = False) -> Workload:
    models = {"reservoir": reservoir_doc(root)}
    queries = []
    sim_runs = 40 if tiny else 150
    reservoir_runs = 100 if tiny else 300
    for repair in ((8.0,) if tiny else (8.0, 5.0)):
        key = f"battery-r{repair:g}"
        models[key] = battery_doc(root, repair=repair)
        label = f"grid_on r={repair:g}"
        queries.append(Query(label, key, 8.0, 8.0, "m(grid_on) >= 1",
                             grid_on(8.0, repair), ROUTES + (SIM,), sim_runs))
        queries.append(pump_ok(label, reservoir_runs))
    for name, dist in (SWITCHES[:1] if tiny else SWITCHES):
        key = f"battery-{name}"
        models[key] = battery_doc(root, repair=11.0, switch=dist)
        label = f"demand_std {name}"
        queries.append(Query(label, key, 8.0, 8.0, "m(demand_std) = 1",
                             demand_std(dist, 8.0), ROUTES + (SIM,), sim_runs))
        queries.append(pump_ok(label, reservoir_runs))
    budget = (40_000, 5)    # the acceptance gate's budget
    # Each tree takes 20-80 ms to build, short enough for one late moment
    # of the machine to double it, so each is built five times per pass.
    return Workload(models, tuple(queries),
                    {r: budget for r in ROUTES}, accuracy=0.005, plt_repeats=5)


def curve_t20(root: Path, tiny: bool = False) -> Workload:
    models = {"battery": battery_doc(root), "reservoir": reservoir_doc(root)}
    tau = 8.0 if tiny else 20.0
    queries = []
    for t in ((4.0,) if tiny else (4.0, 8.0)):
        queries.append(Query(f"norm t'={t:g}", "battery", tau, t, "", 1.0,
                             ("intervals", "simplex")))
        label = f"grid_on t'={t:g}"
        queries.append(Query(label, "battery", tau, t, "m(grid_on) >= 1",
                             grid_on(t, 8.0), ROUTES + (SIM,), 40 if tiny else 300))
        queries.append(pump_ok(label, 100 if tiny else 750))
    small = (4_000, 2)
    # Direct sampling's error at 4k x 2 is about 0.012, too close to the
    # 0.03 accuracy, so it gets the larger budget; its time is mostly LPs.
    return Workload(models, tuple(queries),
                    {"intervals": small, "simplex": small, "direct": (20_000, 5)},
                    accuracy=0.03)


WORKLOADS = {"sweep-t8": sweep_t8, "curve-t20": curve_t20}
