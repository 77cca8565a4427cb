"""The public settings, pinned.

Each limit, grid size and tolerance a caller cannot change is a module
constant, so the parameters below are all there is to configure.  Adding
one is a deliberate edit here.
"""

import dataclasses
import inspect

from hpng.model import HPnGModel
from hpng.montecarlo import McConfig, cdf, pdf, sample
from hpng.props import holds_concrete
from hpng.semantics import rate_adaptation
from hpng.simulate import SimEstimate, estimate_probability, simulate_run
from hpng.transient import transient_probability
from hpng.tree import build_plt


def parameters(fn) -> list[str]:
    return list(inspect.signature(fn).parameters)


def test_mc_config_fields():
    assert [f.name for f in dataclasses.fields(McConfig)] == ["samples", "iterations", "seed"]


def test_entry_point_parameters():
    assert parameters(estimate_probability) == [
        "model", "tau_max", "t_prime", "atoms", "seed", "runs", "half_width"]
    assert parameters(build_plt) == ["model", "tau_max"]
    assert parameters(rate_adaptation) == ["model", "enab", "at_lower", "at_upper"]
    assert parameters(holds_concrete) == ["model", "atoms", "marking", "levels"]
    assert parameters(transient_probability) == [
        "tree", "t_prime", "atoms", "method", "cfg", "threads"]
    assert parameters(simulate_run) == [
        "model", "tau_max", "assignment", "rng", "observe_at", "keep_trace", "net"]


def test_distribution_parameters():
    # the family's own parameters ride in the DistributionSpec
    assert parameters(pdf) == ["dist", "x"]
    assert parameters(cdf) == ["dist", "x"]
    assert parameters(sample) == ["dist", "rng", "size"]


def test_sim_estimate_fields():
    assert [f.name for f in dataclasses.fields(SimEstimate)] == [
        "p", "sigma", "runs", "half_width", "steps", "modes"]


def test_model_init_parameters():
    # the id lookup tables are derived from these lists, never passed in
    assert parameters(HPnGModel) == [
        "discrete_places", "continuous_places", "deterministic", "immediate", "general",
        "static_continuous", "dynamic_continuous", "discrete_arcs", "continuous_arcs",
        "guard_arcs"]
