"""hpng benchmark: one workload, one process, one closed-loop caller.

    python3 bench/run.py --workload sweep-t8 --seed 0 --seconds 55 --trace 0

Run from the root of a source checkout; hpng is imported from ``src/``.
One caller sends the workload's queries back to back through hpng's
public API (``threads=None``, the single-threaded baseline) and checks
every answer against its closed form.  A pass builds the workload's
trees and answers every query with every engine listed for it.  Within
``--seconds``, the run makes one unmeasured warm-up pass and then repeats
passes, with the same seed and so the same answers, while half of one
still fits; before each pass it measures set-up in a fresh child process.
Each call's time is its median over the measured passes, and a stage's
time the sum of those.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one pass
in which every call runs untraced and then traced, whatever ``--seconds``
says, requires the two answers to be bit-identical, and prints the
per-layer metrics with the tracing overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it list every metric by name and unit, including the per-engine
errors and the failure rate.  A full record (environment, answers and,
for traced runs, the spans) goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import ROUTES, SIM, WORKLOADS, Query, Workload, sim_tolerance  # noqa: E402

SETUP_PROBES = 5     # at least this many set-up measurements per run
ERR_METRICS = {"intervals": "intervals_err", "simplex": "simplex_err",
               "direct": "direct_err", SIM: "sim_err"}


def die(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_hpng():
    src = ROOT / "src"
    if not (src / "hpng" / "__init__.py").is_file() or not (ROOT / "models").is_dir():
        die(f"no hpng sources under {ROOT}; run from the root of a source checkout")
    sys.path.insert(0, str(src))
    import hpng
    if Path(hpng.__file__).resolve().parent != (src / "hpng").resolve():
        die(f"imported hpng from {hpng.__file__}, not from {src}")
    return hpng


# ---------------------------------------------------------------------------
# set-up


@dataclass
class Inputs:
    models: dict
    atoms: dict            # (model key, property) -> atoms, None for ""


def setup(hpng, wl: Workload) -> Inputs:
    """Parse and validate every model variant and parse every property."""
    models = {}
    for key, doc in wl.models.items():
        model = hpng.parse_model(json.dumps(doc))
        problems = hpng.validate(model)
        if problems:
            raise ValueError(f"model {key} does not validate: {problems}")
        models[key] = model
    atoms = {}
    for q in wl.queries:
        atoms[(q.model, q.prop)] = hpng.parse_property(q.prop, models[q.model]) if q.prop else None
    return Inputs(models, atoms)


def setup_probe(workload: str, tiny: bool) -> float:
    """Seconds from a fresh interpreter to ready inputs, measured in a child."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload] + (["--tiny"] if tiny else [])
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# one pass


@dataclass
class PassResult:
    wall: float = 0.0
    times: dict = field(default_factory=dict)     # (stage, key) -> seconds of one call
    answers: dict = field(default_factory=dict)   # (engine, label) -> (value, sigma) or error
    traced_times: dict = field(default_factory=dict)
    traced_answers: dict = field(default_factory=dict)


def sim_model(q: Query) -> str:
    return "battery" if q.model.startswith("battery") else "reservoir"


def answer(call):
    """(value, sigma) of one query, or the error it raised."""
    try:
        return call()
    except Exception as exc:  # a failed answer is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return f"{type(exc).__name__}: {exc}"


def run_pass(hpng, wl: Workload, inp: Inputs, seed: int, tracer=None) -> PassResult:
    """Answer every query once, building each tree right before its first query.

    Untraced, each tree is built ``wl.plt_repeats`` times and the median
    build time kept.  With a tracer, every call runs a second time right after the first
    with tracing installed, so both see the same machine state.
    """
    res = PassResult()

    def timed(key, fn, repeats=1):
        samples = []
        for _ in range(repeats if tracer is None else 1):
            t0 = time.perf_counter()
            out = fn()
            samples.append(time.perf_counter() - t0)
        res.times[key] = median(samples)
        if tracer is not None:
            from tracing import install
            with install(tracer):
                t0 = time.perf_counter()
                res.traced_answers[key] = fn()
                res.traced_times[key] = time.perf_counter() - t0
        return out

    start = time.perf_counter()
    trees = {}
    for q in wl.queries:
        key = (q.model, q.tau)
        if key not in trees and any(e in ROUTES for e in q.engines):
            trees[key] = timed(("plt", key), lambda: hpng.build_plt(inp.models[q.model], q.tau),
                               wl.plt_repeats)
        atoms = inp.atoms[(q.model, q.prop)]
        for engine in q.engines:
            if engine == SIM:
                def call():
                    est = hpng.estimate_probability(inp.models[q.model], q.tau, q.t_prime, atoms,
                                                    seed=seed, runs=q.sim_runs, half_width=None)
                    return est.p, est.sigma
            else:
                samples, iterations = wl.budgets[engine]
                cfg = hpng.McConfig(samples=samples, iterations=iterations, seed=seed)

                def call():
                    r = hpng.transient_probability(trees[(q.model, q.tau)], q.t_prime, atoms,
                                                   method=engine, cfg=cfg, threads=None)
                    return r.total, r.sigma
            res.answers[(engine, q.label)] = timed((engine, q.label), lambda: answer(call))
    res.wall = time.perf_counter() - start
    return res


# ---------------------------------------------------------------------------
# checking


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    errors: dict = field(default_factory=lambda: {e: 0.0 for e in ERR_METRICS})
    problems: list = field(default_factory=list)


def check_answers(wl: Workload, answers: dict, check: Check) -> None:
    """Count answers that raise or miss their closed form; track max errors."""
    for q in wl.queries:
        for engine in q.engines:
            ans = answers[(engine, q.label)]
            check.attempted += 1
            if isinstance(ans, str):
                check.failed += 1
                check.problems.append(f"{q.label} {engine}: {ans}")
                continue
            err = abs(ans[0] - q.expected)
            check.errors[engine] = max(check.errors[engine], err)
            tol = sim_tolerance(q.expected, q.sim_runs) if engine == SIM else wl.accuracy
            if not err <= tol:
                check.failed += 1
                check.problems.append(f"{q.label} {engine}: {ans[0]:.5f} vs "
                                      f"{q.expected:.5f} (tolerance {tol:.4f})")


def same_answers(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] == b[k] for k in a)


# ---------------------------------------------------------------------------
# metrics


def end_to_end(wl: Workload, passes: list[PassResult], setup_times: list[float]) -> dict:
    """Each call's median over passes, summed per stage.

    A sum of per-call medians keeps one slow moment of the machine from
    moving a whole stage, as it would a median of pass totals.
    """
    def total(stage, keys=None):
        return sum(median(p.times[(st, k)] for p in passes) for (st, k) in passes[0].times
                   if st == stage and (keys is None or k in keys))

    m = {"setup_s": (median(setup_times), "s"), "plt_s": (total("plt"), "s")}
    for r in ROUTES:
        m[f"{r}_s"] = (total(r), "s")
    for model in ("battery", "reservoir"):
        sims = [q for q in wl.queries if SIM in q.engines and sim_model(q) == model]
        m[f"{model}_runs_per_s"] = (
            sum(q.sim_runs for q in sims) / total(SIM, {q.label for q in sims}), "runs/s")
    m["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return m


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quality(check: Check) -> dict:
    m = {ERR_METRICS[e]: (v, "probability") for e, v in check.errors.items()}
    m["fail_rate"] = (check.failed / check.attempted, "ratio")
    return m


def environment(seed: int, hpng) -> dict:
    import numpy
    import scipy
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        commit = lines[1] if top.returncode == 0 and Path(lines[0]).resolve() == ROOT else "unknown"
    except (OSError, subprocess.SubprocessError, IndexError):
        commit = "unknown"
    return {"seed": seed, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "hpng": hpng.__version__, "commit": commit, "machine": platform.machine()}


# ---------------------------------------------------------------------------
# runs


def run_untraced(hpng, wl, inp, args):
    """Set-up probes, a warm-up pass and measured passes, all within ``--seconds``.

    A set-up probe runs before every pass, so set-up is sampled across the
    run like everything else.  A new pass starts while at least half of
    one still fits.
    """
    start = time.perf_counter()
    setup_times = []

    def probe():
        setup_times.append(setup_probe(args.workload, args.tiny))

    probe()
    warm_up(hpng, wl, inp, args.seed)
    check = Check()
    passes: list[PassResult] = []
    while True:
        probe()
        p = run_pass(hpng, wl, inp, args.seed)
        passes.append(p)
        check_answers(wl, p.answers, check)
        if not same_answers(p.answers, passes[0].answers):
            check.problems.append(f"pass {len(passes)} answers differ from pass 1 at the same seed")
        gc.collect()
        if time.perf_counter() - start + p.wall / 2 > args.seconds:
            break
    while len(setup_times) < SETUP_PROBES:
        probe()
    metrics = end_to_end(wl, passes, setup_times)
    extra = {"passes": len(passes), "setup_times": setup_times,
             "pass_walls": [p.wall for p in passes],
             "call_times": {f"{st}:{k}": [p.times[(st, k)] for p in passes]
                            for (st, k) in passes[0].times}}
    return metrics, check, passes[0].answers, extra


def warm_up(hpng, wl, inp, seed):
    """One unmeasured pass: the first pass of a process runs slower than the rest."""
    run_pass(hpng, wl, inp, seed)
    gc.collect()


def run_traced(hpng, wl, inp, args):
    from tracing import Tracer, install, per_layer

    warm_up(hpng, wl, inp, args.seed)
    tracer = Tracer()
    with install(tracer):
        setup(hpng, wl)
    p = run_pass(hpng, wl, inp, args.seed, tracer)
    check = Check()
    check_answers(wl, p.answers, check)

    metrics = per_layer(tracer)
    plain, traced = sum(p.times.values()), sum(p.traced_times.values())
    metrics["trace.untraced_s"] = (plain, "s")
    metrics["trace.traced_s"] = (traced, "s")
    metrics["trace.overhead_ratio"] = (traced / plain, "ratio")
    metrics["trace.spans"] = (len(tracer.spans), "count")

    traced_answers = {k: v for k, v in p.traced_answers.items() if k[0] != "plt"}
    if not same_answers(traced_answers, p.answers):
        check.problems.append("traced answers are not bit-identical to untraced ones")
    cells = metrics["transient.cells"][0]
    if metrics["transient.integrate_piece_calls"][0] != cells:
        check.problems.append("integrate_piece calls differ from the cells location_pieces returned")
    if metrics["montecarlo.vegas_calls"][0] + metrics["transient.closed_form_cells"][0] != cells:
        check.problems.append("VEGAS calls plus closed-form cells differ from the cells")
    extra = {"spans": tracer.span_records(),
             "calls": {k: {"calls": a.calls, "total_s": a.total, "self_s": a.self_time}
                       for k, a in sorted(tracer.aggs.items())}}
    return metrics, check, p.answers, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="cut every workload to a few queries (smoke test)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if args.setup_probe:
        t0 = time.perf_counter()
        hpng = import_hpng()
        setup(hpng, WORKLOADS[args.workload](ROOT, args.tiny))
        print(time.perf_counter() - t0)
        return 0

    hpng = import_hpng()
    wl = WORKLOADS[args.workload](ROOT, args.tiny)
    inp = setup(hpng, wl)
    run = run_traced if args.trace else run_untraced
    metrics, check, answers, extra = run(hpng, wl, inp, args)
    correct = check.failed == 0 and not check.problems

    shown = dict(metrics)
    if not args.trace:
        shown.update(quality(check))
    env = environment(args.seed, hpng)
    print(f"hpng benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print("  environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in shown.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    for line in check.problems:
        print(f"  problem: {line}")

    record = {"workload": args.workload, "trace": args.trace, "tiny": args.tiny,
              "environment": env, "correct": correct,
              "attempted": check.attempted, "failed": check.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
              "problems": check.problems,
              "answers": [{"engine": k[0], "query": k[1], "answer": v} for k, v in answers.items()],
              **extra}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1), encoding="utf-8")

    result = {"correct": correct, "attempted": check.attempted, "failed": check.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
