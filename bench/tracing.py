"""In-memory tracing of hpng's layers from outside the package.

The tracer rebinds the names each caller looks up (``hpng.tree.next_events``,
``hpng.geometry.linprog`` and so on) to thin wrappers and restores them on
exit.  Coarse calls (model loading, tree builds, one transient or simulator
query) become spans with a parent; per-step calls only update aggregate
counters.  Every wrapped call adds its duration to the enclosing wrapped
call, so each name also gets a self time, and the self times summed by
module give the time per layer.  Wrappers pass arguments and results
through untouched, so traced answers must equal untraced ones bit for bit.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

LAYERS = ("model", "props", "symbolic", "semantics", "tree", "transient",
          "montecarlo", "geometry", "simulate")


class Agg:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.aggs: dict[str, Agg] = defaultdict(Agg)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple[int, str, float, float, int]] = []
        self._stack = [[0.0, -1]]      # [child time, id of the nearest span]
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name, fn, span=False, post=None, pre=None):
        """Wrapper recording ``name``, which may be a function of the call's kwargs.

        ``pre()`` runs before the call; its result reaches
        ``post(counts, result, token)`` after a call that returned.
        """
        aggs, spans, stack, counts = self.aggs, self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            label = name(kwargs) if callable(name) else name
            parent = stack[-1]
            token = pre() if pre else None
            sid = len(spans) if span else parent[1]
            if span:
                spans.append(None)      # reserve the id; filled in on exit
            frame = [0.0, sid]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                agg = aggs[label]
                agg.calls += 1
                agg.total += dur
                agg.self_time += dur - frame[0]
                if span:
                    spans[sid] = (sid, label, t0, t1, parent[1])
            if post:
                post(counts, out, token)
            return out

        return wrapper

    def patch(self, module_name, attr, name, **kw):
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, **kw))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    # -- results ------------------------------------------------------------

    def layer_self_times(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for label, agg in self.aggs.items():
            out[label.split(".", 1)[0]] += agg.self_time
        return out

    def span_records(self) -> list[dict]:
        return [{"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4]}
                for s in self.spans]


# ---------------------------------------------------------------------------
# what to wrap


def _count_len(key):
    def post(counts, out, token):
        counts[key] += len(out)
    return post


def _mc_samples(counts, out, token):
    counts["samples_used"] += out.samples_used
    counts["samples_skipped"] += out.samples_skipped


def _points(counts, out, token):
    counts["density_evals"] += out.size


def install(tracer: Tracer) -> Tracer:
    """Wrap every traced name; use the tracer as a context manager to undo."""
    p = tracer.patch

    # model and props: the benchmark calls these through the package.
    for attr in ("parse_model", "validate"):
        p("hpng", attr, f"model.{attr}", span=True)
    p("hpng", "parse_property", "props.parse_property", span=True)
    p("hpng.simulate", "holds_concrete", "props.holds_concrete")

    # tree and the semantics/symbolic calls it makes.
    def locations(counts, out, token):
        counts["locations"] += len(out.locations)
    p("hpng", "build_plt", "tree.build_plt", span=True, post=locations)
    for attr in ("next_events", "min_det_events", "resolve_conflict", "evolve",
                 "fire", "finalize_state", "initial_state"):
        p("hpng.tree", attr, f"semantics.{attr}")
    for mod in ("hpng.semantics", "hpng.simulate"):
        p(mod, "rate_adaptation", "semantics.rate_adaptation")
    for mod in ("hpng.tree", "hpng.semantics", "hpng.transient"):
        p(mod, "extremal_value", "symbolic.extremal_value")
    p("hpng.tree", "compare_remaining_times", "symbolic.compare_remaining_times")

    # transient routes.
    def route(counts, out, token):
        counts["useful_candidates"] += sum(1 for v, _ in out.per_location.values() if v > 0)
    p("hpng", "transient_probability", lambda kw: f"transient.route.{kw['method']}",
      span=True, post=route)
    p("hpng.transient", "candidate_locations", "transient.candidate_locations",
      span=True, post=_count_len("candidates"))
    p("hpng.transient", "location_pieces", "transient.location_pieces",
      post=_count_len("cells"))

    def vegas_calls():
        return tracer.aggs["montecarlo.vegas_integrate"].calls

    def piece(counts, out, before):
        counts["nonzero_cells"] += out.value > 0
        counts["closed_form_cells"] += vegas_calls() == before
    p("hpng.transient", "integrate_piece", "transient.integrate_piece",
      pre=vegas_calls, post=piece)

    def terms(counts, out, token):
        counts["regions"] += sum(1 for _, poly, _ in out if poly is not None)
    p("hpng.transient", "location_region_terms", "transient.location_region_terms",
      post=terms)

    # montecarlo kernels and densities.
    p("hpng.transient", "vegas_integrate", "montecarlo.vegas_integrate", post=_mc_samples)
    p("hpng.geometry", "mc_integrate", "montecarlo.mc_integrate", post=_mc_samples)
    p("hpng.transient", "dist_pdf", "montecarlo.pdf", post=_points)
    p("hpng.transient", "cdf", "montecarlo.cdf", post=_points)

    # geometry.
    p("hpng.geometry", "linprog", "geometry.linprog")

    def verts(counts, out, token):
        counts["empty_regions"] += len(out) == 0
    p("hpng.transient", "vertex_enumeration", "geometry.vertex_enumeration", post=verts)
    p("hpng.transient", "triangulate", "geometry.triangulate", post=_count_len("simplices"))
    p("hpng.transient", "probability_over_simplex", "geometry.probability_over_simplex",
      post=_mc_samples)
    p("hpng.transient", "probability_over_region_direct",
      "geometry.probability_over_region_direct")

    # simulator: one span per estimate, counters per run and per step.
    p("hpng", "estimate_probability", "simulate.estimate_probability", span=True)
    p("hpng.simulate", "simulate_run", "simulate.simulate_run")
    p("hpng.simulate", "_apply", "simulate.step")
    return tracer


def per_layer(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from one traced pass."""
    a, c = tracer.aggs, tracer.counts

    def t(label):
        return a[label].total if label in a else 0.0

    def n(label):
        return a[label].calls if label in a else 0

    def ratio(num, den):
        return num / den if den else 0.0

    build_s = t("tree.build_plt")
    density_s = t("montecarlo.pdf") + t("montecarlo.cdf")
    m = {
        "model.load_s": (t("model.parse_model") + t("model.validate"), "s"),
        "tree.build_s": (build_s, "s"),
        "tree.locations": (c["locations"], "count"),
        "tree.locations_per_s": (ratio(c["locations"], build_s), "1/s"),
        "semantics.next_events_calls": (n("semantics.next_events"), "count"),
        "semantics.next_events_s": (t("semantics.next_events"), "s"),
        "semantics.rate_adaptation_calls": (n("semantics.rate_adaptation"), "count"),
        "semantics.rate_adaptation_s": (t("semantics.rate_adaptation"), "s"),
        "symbolic.extremal_value_calls": (n("symbolic.extremal_value"), "count"),
        "symbolic.extremal_value_s": (t("symbolic.extremal_value"), "s"),
        "transient.intervals_route_s": (t("transient.route.intervals"), "s"),
        "transient.simplex_route_s": (t("transient.route.simplex"), "s"),
        "transient.direct_route_s": (t("transient.route.direct"), "s"),
        "transient.candidates": (c["candidates"], "count"),
        "transient.candidates_s": (t("transient.candidate_locations"), "s"),
        "transient.useful_candidate_ratio": (ratio(c["useful_candidates"], c["candidates"]), "ratio"),
        "transient.pieces_s": (t("transient.location_pieces"), "s"),
        "transient.cells": (c["cells"], "count"),
        "transient.nonzero_cell_ratio": (ratio(c["nonzero_cells"], c["cells"]), "ratio"),
        "transient.integrate_piece_calls": (n("transient.integrate_piece"), "count"),
        "transient.integrate_piece_s": (t("transient.integrate_piece"), "s"),
        "transient.closed_form_cells": (c["closed_form_cells"], "count"),
        "transient.region_terms_s": (t("transient.location_region_terms"), "s"),
        "transient.regions": (c["regions"], "count"),
        "montecarlo.vegas_calls": (n("montecarlo.vegas_integrate"), "count"),
        "montecarlo.vegas_s": (t("montecarlo.vegas_integrate"), "s"),
        "montecarlo.vegas_share_of_intervals": (
            ratio(t("montecarlo.vegas_integrate"), t("transient.route.intervals")), "ratio"),
        "montecarlo.samples_used": (c["samples_used"], "count"),
        "montecarlo.samples_skipped": (c["samples_skipped"], "count"),
        "montecarlo.mc_integrate_s": (t("montecarlo.mc_integrate"), "s"),
        "montecarlo.density_evals": (c["density_evals"], "count"),
        "montecarlo.density_s": (density_s, "s"),
        "geometry.lp_calls": (n("geometry.linprog"), "count"),
        "geometry.lp_s": (t("geometry.linprog"), "s"),
        "geometry.vertex_enum_calls": (n("geometry.vertex_enumeration"), "count"),
        "geometry.vertex_enum_s": (t("geometry.vertex_enumeration"), "s"),
        "geometry.empty_region_ratio": (
            ratio(c["empty_regions"], n("geometry.vertex_enumeration")), "ratio"),
        "geometry.triangulate_s": (t("geometry.triangulate"), "s"),
        "geometry.simplices": (c["simplices"], "count"),
        "geometry.simplex_integrate_s": (t("geometry.probability_over_simplex"), "s"),
        "geometry.direct_integrate_s": (t("geometry.probability_over_region_direct"), "s"),
        "simulate.runs": (n("simulate.simulate_run"), "count"),
        "simulate.run_s": (t("simulate.simulate_run"), "s"),
        "simulate.steps": (n("simulate.step"), "count"),
        "simulate.steps_per_run": (ratio(n("simulate.step"), n("simulate.simulate_run")), "steps/run"),
    }
    for layer, self_s in tracer.layer_self_times().items():
        m[f"{layer}.self_s"] = (self_s, "s")
    return m
