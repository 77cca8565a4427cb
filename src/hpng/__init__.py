"""Hybrid Petri nets with random firing delays: symbolic transient analysis.

The package builds a parametric location tree for a net with fluid places
and randomly delayed transitions, then computes transient probabilities of
state properties by triangular-domain integration, simplex decomposition,
or direct region sampling, with an embedded simulator for cross-checks.
"""

from .model import HPnGModel, ModelError, load_model, parse_model, serialize, validate
from .montecarlo import McConfig
from .props import parse_property
from .semantics import ResourceLimitError, UnsupportedModelError
from .simulate import estimate_probability, simulate_run
from .transient import TransientResult, candidate_locations, transient_probability
from .tree import PLTree, build_plt, tree_to_dot, tree_to_json

__version__ = "0.1.0"

__all__ = [
    "HPnGModel",
    "McConfig",
    "ModelError",
    "PLTree",
    "ResourceLimitError",
    "TransientResult",
    "UnsupportedModelError",
    "build_plt",
    "candidate_locations",
    "estimate_probability",
    "load_model",
    "parse_model",
    "parse_property",
    "serialize",
    "simulate_run",
    "transient_probability",
    "tree_to_dot",
    "tree_to_json",
    "validate",
    "__version__",
]
