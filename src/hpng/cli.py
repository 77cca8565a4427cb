"""Command line front end.

Subcommands: ``validate`` checks a model file, ``plt`` prints the location
tree, ``transient`` computes a transient probability, ``simulate`` runs the
embedded simulator, ``compare`` puts all routes side by side.

Exit codes: 0 on success; 1 for model, property, file or option-value
problems; 2 for command-line usage errors (raised by argparse as
``SystemExit(2)``), nets outside the supported fragment and resource caps
(location explosion, simulator step runaway); 3 for unexpected internal
failures.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .model import ModelError, load_model, validate
from .montecarlo import McConfig
from .props import PropertyError, parse_property
from .semantics import ResourceLimitError, UnsupportedModelError
from .simulate import estimate_probability
from .transient import METHODS, transient_probability
from .tree import build_plt, dump_json, tree_to_dot


def _write(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        print(text)


def _load_valid(path: str):
    """The model in ``path``, or None once its validation issues are printed."""
    model = load_model(path)
    issues = validate(model)
    for issue in issues:
        print(f"error: {issue}", file=sys.stderr)
    return None if issues else model


def cmd_validate(args) -> int:
    model = _load_valid(args.model)
    if model is None:
        return 1
    counts = (
        f"{len(model.discrete_places)} discrete places, "
        f"{len(model.continuous_places)} continuous places, "
        f"{len(model.t_ref)} transitions, "
        f"{len(model.discrete_arcs) + len(model.continuous_arcs) + len(model.guard_arcs)} arcs"
    )
    print(f"ok: {counts}")
    return 0


def cmd_plt(args) -> int:
    model = load_model(args.model)
    tree = build_plt(model, args.tau_max)
    if args.format == "dot":
        _write(tree_to_dot(tree), args.output)
    else:
        _write(dump_json(tree), args.output)
    return 0


def _mc_config(args) -> McConfig:
    return McConfig(samples=args.samples, iterations=args.iterations, seed=args.seed)


def cmd_transient(args) -> int:
    model = _load_valid(args.model)
    if model is None:
        return 1
    atoms = parse_property(args.property, model) if args.property else None
    tree = build_plt(model, args.tau_max)
    methods = list(METHODS) if args.method == "all" else [args.method]
    results = []
    for method in methods:
        start = time.perf_counter()
        res = transient_probability(tree, args.time, atoms, method=method,
                                    cfg=_mc_config(args))
        wall = (time.perf_counter() - start) * 1000.0
        results.append({
            "tPrime": res.t_prime,
            "method": method,
            "total": res.total,
            "error": res.sigma,
            "perLocation": {
                str(k): {"value": v, "sigma": s}
                for k, (v, s) in sorted(res.per_location.items())
            },
            "wallTimeMs": wall,
        })
    payload = results[0] if len(results) == 1 else results
    _write(json.dumps(payload, indent=2), args.output)
    return 0


def cmd_simulate(args) -> int:
    model = _load_valid(args.model)
    if model is None:
        return 1
    atoms = parse_property(args.property, model) if args.property else []
    start = time.perf_counter()
    est = estimate_probability(
        model, args.tau_max, args.time, atoms, seed=args.seed, runs=args.runs,
        half_width=args.half_width,
    )
    wall = (time.perf_counter() - start) * 1000.0
    _write(json.dumps({
        "tPrime": args.time,
        "method": "simulation",
        "total": est.p,
        "error": est.error,
        "runs": est.runs,
        "halfWidth": est.half_width,
        "steps": est.steps,
        "modes": est.modes,
        "wallTimeMs": wall,
    }, indent=2), args.output)
    return 0


def cmd_compare(args) -> int:
    model = _load_valid(args.model)
    if model is None:
        return 1
    atoms = parse_property(args.property, model) if args.property else None
    if args.runs < 1:   # before the routes run, not after them
        raise ValueError(f"runs must be at least 1, not {args.runs}")
    tree = build_plt(model, args.tau_max)
    print(f"{'route':<12} {'estimate':>12} {'error':>12} {'ms':>8}")
    for method in METHODS:
        start = time.perf_counter()
        res = transient_probability(tree, args.time, atoms, method=method,
                                    cfg=_mc_config(args))
        wall = (time.perf_counter() - start) * 1000.0
        print(f"{method:<12} {res.total:>12.6f} {res.sigma:>12.2e} {wall:>8.0f}")
    start = time.perf_counter()
    est = estimate_probability(model, args.tau_max, args.time, atoms or [],
                               seed=args.seed, runs=args.runs)
    wall = (time.perf_counter() - start) * 1000.0
    print(f"{'simulation':<12} {est.p:>12.6f} {est.error:>12.2e} {wall:>8.0f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hpng", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("model", help="model file (JSON)")
        p.add_argument("--tau-max", type=float, required=True, help="analysis horizon")
        p.add_argument("--time", type=float, required=True, help="observation time")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("-o", "--output", default=None, help="write result to file")

    def budget(p):      # sampling routes only; the simulator counts runs
        p.add_argument("--samples", type=int, default=100_000)
        p.add_argument("--iterations", type=int, default=5)

    p = sub.add_parser("validate", help="check a model file")
    p.add_argument("model")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("plt", help="build and print the location tree")
    p.add_argument("model")
    p.add_argument("--tau-max", type=float, required=True)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_plt)

    p = sub.add_parser("transient", help="transient probability of a property")
    common(p)
    budget(p)
    p.add_argument("--property", default=None,
                   help="e.g. 'm(demand_std) >= 1 & x(tank) < 5'")
    p.add_argument("--method", choices=METHODS + ("all",), default="intervals")
    p.set_defaults(fn=cmd_transient)

    p = sub.add_parser("simulate", help="estimate by simulation")
    common(p)
    p.add_argument("--property", default=None)
    p.add_argument("--runs", type=int, default=10_000)
    p.add_argument("--half-width", type=float, default=None,
                   help="stop when the 95%% Wilson score half width drops below this")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("compare", help="all routes side by side")
    common(p)
    budget(p)
    p.add_argument("--property", default=None)
    p.add_argument("--runs", type=int, default=10_000)
    p.set_defaults(fn=cmd_compare)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ModelError, PropertyError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UnsupportedModelError as exc:
        print(f"unsupported model: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
