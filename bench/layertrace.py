"""Outside-in tracing of ltsurf's layers for the benchmark's traced run.

The program is not edited. Each layer's public functions are wrapped at
the sites where other modules import them, so a call across a layer
boundary records a span (name, parent, start, end). Spans stay in memory
until the run ends. A few wrappers also count work done (grid steps,
window hits, formula terms) from the values the call returned.

Layer names are the package modules. A span's self time is its duration
minus the time its child spans cover, so the self times of all layers in
one `cli.main` call add up to that call's duration.
"""

import functools
import importlib
import inspect
import math
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "harness", "scenarios", "paths", "calculus", "localtime",
          "formulas", "surfaces")

VARIANTS = ("verify_tanaka", "verify_ltc_diffusion", "verify_surfaces_strong",
            "verify_jump_ltc", "verify_smooth_fit", "verify_general")

# (module where the function is looked up at call time, attribute, span name)
WRAP_POINTS = [
    ("ltsurf.cli", "run_scenario", "harness.run_scenario"),
    ("ltsurf.cli", "compare_estimators", "harness.compare_estimators"),
    ("ltsurf.cli", "envelope_table", "harness.envelope_table"),
    ("ltsurf.harness", "derive_path_seed", "harness.derive_path_seed"),
    ("ltsurf.harness", "write_outputs", "harness.write_outputs"),
    ("ltsurf.harness", "build_parts", "scenarios.build_parts"),
    ("ltsurf.harness", "evaluate_variant", "scenarios.evaluate_variant"),
    ("ltsurf.harness", "simulate_jump_diffusion", "paths.simulate_jump_diffusion"),
    ("ltsurf.harness", "local_time_occupation", "localtime.local_time_occupation"),
    ("ltsurf.harness", "local_time_mollifier", "localtime.local_time_mollifier"),
    ("ltsurf.harness", "local_time_tanaka_residual",
     "localtime.local_time_tanaka_residual"),
    ("ltsurf.harness", "moreau_envelope", "surfaces.moreau_envelope"),
    ("ltsurf.paths", "build_grid", "paths.build_grid"),
    ("ltsurf.paths", "simulate_brownian", "paths.simulate_brownian"),
    ("ltsurf.paths", "simulate_compound_poisson", "paths.simulate_compound_poisson"),
    *[("ltsurf.scenarios", v, f"formulas.{v}") for v in VARIANTS],
    ("ltsurf.formulas", "local_time_mollifier", "localtime.local_time_mollifier"),
    ("ltsurf.formulas", "local_time_occupation", "localtime.local_time_occupation"),
    ("ltsurf.formulas", "continuous_qv_measure", "calculus.continuous_qv_measure"),
    ("ltsurf.formulas", "iter_jumps", "calculus.iter_jumps"),
    ("ltsurf.formulas", "measure_integral", "calculus.measure_integral"),
    ("ltsurf.formulas", "local_time_time_integral", "calculus.local_time_time_integral"),
    ("ltsurf.localtime", "continuous_qv_measure", "calculus.continuous_qv_measure"),
]


class Tracer:
    """Records spans as [name, parent, start, end] in call order.

    A parent always precedes its children, because a span takes its slot
    before the wrapped function runs.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = []  # one dict of counters per root span
        self.missing = []  # wrap points not found
        self._restore = []

    def _record(self, name, fn, args, kwargs, count):
        sid = len(self.spans)
        span = [name, self.stack[-1] if self.stack else -1, 0.0, 0.0]
        self.spans.append(span)
        self.stack.append(sid)
        span[2] = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span[3] = perf_counter()
            self.stack.pop()
        if count is not None:
            count(self.counts[-1], out, args, kwargs)
        return out

    def wrap(self, name, fn, count=None):
        if inspect.isgeneratorfunction(fn):
            # consume the generator inside the span, so the caller's loop
            # body is not counted as time spent in the generator
            def call(*args, **kwargs):
                return list(fn(*args, **kwargs))
        else:
            call = fn

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self._record(name, call, args, kwargs, count)
            return iter(out) if call is not fn else out
        return wrapper

    def root(self, name, fn, *args):
        """Run fn as a new root span with its own counters."""
        self.counts.append(defaultdict(float))
        return self._record(name, fn, args, {}, None)

    def install(self):
        self.missing = []
        for module_name, attr, name in WRAP_POINTS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._restore.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, COUNTERS.get(name)))

    def uninstall(self):
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for sid, (name, parent, t0, t1) in enumerate(self.spans):
                fh.write(f"{sid},{parent},{name},{t0!r},{t1!r}\n")


def _count_bundle(c, bundle, args, kwargs):
    grid = bundle.grid
    c["steps"] += grid.n_steps
    c["jumps"] += grid.jump_indices.size
    arrays = list(vars(bundle).values()) + list(vars(grid).values())
    c["bundle_bytes"] += sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))


def _count_window(c, series, args, kwargs):
    inc = np.diff(series.values)
    c["window_hits"] += np.count_nonzero(inc)
    c["window_steps"] += inc.size


def _count_terms(c, report, args, kwargs):
    c["reports"] += 1
    c["terms"] += len(report.terms)
    c["nonfinite_terms"] += sum(not math.isfinite(v) for v in report.terms.values())


@functools.lru_cache(maxsize=None)
def _envelope_signature():
    from ltsurf.surfaces import moreau_envelope
    return inspect.signature(moreau_envelope)


def _count_objective(c, value, args, kwargs):
    bound = _envelope_signature().bind(*args, **kwargs)
    bound.apply_defaults()
    c["objective_evals"] += bound.arguments["rounds"] * bound.arguments["grid_n"] ** 2


COUNTERS = {
    "paths.simulate_jump_diffusion": _count_bundle,
    "localtime.local_time_mollifier": _count_window,
    "localtime.local_time_occupation": _count_window,
    "surfaces.moreau_envelope": _count_objective,
    **{f"formulas.{v}": _count_terms for v in VARIANTS},
}


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    selfs = [t1 - t0 for _, _, t0, t1 in spans]
    for _, parent, t0, t1 in spans:
        if parent >= 0:
            selfs[parent] -= t1 - t0
    return selfs


FORMULA_SPANS = tuple(f"formulas.{v}" for v in VARIANTS)

# Per-call timings in microseconds: metric -> (spans, what one sample is).
# "duration" and "self" give one sample per span; "per_parent" sums the
# spans under one parent, so both jump trains of a path make one sample.
PER_CALL = {
    "harness.seed_us": (("harness.derive_path_seed",), "duration"),
    "scenarios.build_parts_us": (("scenarios.build_parts",), "duration"),
    "paths.simulate_us": (("paths.simulate_jump_diffusion",), "duration"),
    "paths.grid_us": (("paths.build_grid",), "duration"),
    "paths.brownian_us": (("paths.simulate_brownian",), "duration"),
    "paths.poisson_us": (("paths.simulate_compound_poisson",), "per_parent"),
    "paths.euler_self_us": (("paths.simulate_jump_diffusion",), "self"),
    "calculus.qv_us": (("calculus.continuous_qv_measure",), "duration"),
    "calculus.iter_jumps_us": (("calculus.iter_jumps",), "duration"),
    "localtime.mollifier_us": (("localtime.local_time_mollifier",), "duration"),
    "localtime.occupation_us": (("localtime.local_time_occupation",), "duration"),
    "localtime.tanaka_us": (("localtime.local_time_tanaka_residual",), "duration"),
    "formulas.eval_us": (FORMULA_SPANS, "duration"),
    "formulas.self_us": (FORMULA_SPANS, "self"),
    "surfaces.envelope_us": (("surfaces.moreau_envelope",), "duration"),
}


def _ratio(num, den):
    return num / den if den else 0.0


def _layer_self(layer):
    return lambda c: c[f"self:{layer}"]


def _layer_spans(layer):
    return tuple({name for _, _, name in WRAP_POINTS if name.startswith(layer + ".")})


# Totals per traced `cli.main` call, reported as the median over calls:
# metric -> (spans it needs, function of that call's totals `c`). `c`
# holds the counters plus "self:<layer>", "time:<span>" and "n:<span>".
PER_ROOT = {
    "cli.overhead_ms": ((), lambda c: 1e3 * c["self:cli"]),
    "harness.write_ms": (("harness.write_outputs",),
                         lambda c: 1e3 * c["time:harness.write_outputs"]),
    "scenarios.build_parts_calls": (("scenarios.build_parts",),
                                    lambda c: c["n:scenarios.build_parts"]),
    "paths.ns_per_step": (("paths.simulate_jump_diffusion",),
                          lambda c: 1e9 * _ratio(c["time:paths.simulate_jump_diffusion"],
                                                 c["steps"])),
    "paths.bundle_bytes_per_step": (("paths.simulate_jump_diffusion",),
                                    lambda c: _ratio(c["bundle_bytes"], c["steps"])),
    "paths.steps": (("paths.simulate_jump_diffusion",), lambda c: c["steps"]),
    "paths.jumps": (("paths.simulate_jump_diffusion",), lambda c: c["jumps"]),
    "localtime.window_hit_ratio": (("localtime.local_time_mollifier",
                                    "localtime.local_time_occupation"),
                                   lambda c: _ratio(c["window_hits"], c["window_steps"])),
    "formulas.terms_per_path": (FORMULA_SPANS, lambda c: _ratio(c["terms"], c["reports"])),
    "formulas.nonfinite_terms": (FORMULA_SPANS, lambda c: c["nonfinite_terms"]),
    "surfaces.objective_evals": (("surfaces.moreau_envelope",),
                                 lambda c: c["objective_evals"]),
    **{f"{layer}.self_s": (_layer_spans(layer), _layer_self(layer))
       for layer in LAYERS if layer != "cli"},
}


# The workload each per-layer metric is taken from: the one that exercises
# the layer and whose end-to-end figures it should move.
HOME = {
    **dict.fromkeys([
        "harness.seed_us", "harness.self_s", "harness.write_ms", "harness.output_bytes",
        "cli.overhead_ms", "scenarios.build_parts_calls", "scenarios.build_parts_us",
        "scenarios.self_s", "paths.jumps", "calculus.iter_jumps_us", "formulas.eval_us",
        "formulas.self_us", "formulas.terms_per_path", "formulas.nonfinite_terms",
        "formulas.self_s"], "jump_coarse"),
    **dict.fromkeys([
        "paths.simulate_us", "paths.grid_us", "paths.brownian_us", "paths.poisson_us",
        "paths.euler_self_us", "paths.ns_per_step", "paths.bundle_bytes_per_step",
        "paths.steps", "paths.self_s", "calculus.qv_us", "calculus.self_s",
        "localtime.mollifier_us", "localtime.window_hit_ratio"], "tanaka_fine"),
    **dict.fromkeys([
        "harness.pool_efficiency", "harness.pool_overhead_s", "localtime.occupation_us",
        "localtime.tanaka_us", "localtime.self_s"], "estimators"),
    **dict.fromkeys([
        "surfaces.envelope_us", "surfaces.objective_evals", "surfaces.self_s"], "envelope"),
}


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def layer_metrics(tracer):
    """Per-layer metrics of the traced calls.

    Returns (metrics, detail): metrics maps each name to its value, or to
    None when none of the spans it needs was recorded, because its wrap
    point is gone or no longer called. detail holds the sample counts and
    p99s of the per-call timings and the self-time check.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    seen = {span[0] for span in spans}
    # roots run one after another, so each span belongs to the latest root
    totals = []
    for sid, (name, parent, t0, t1) in enumerate(spans):
        if parent < 0:
            totals.append(defaultdict(float, tracer.counts[len(totals)]))
        c = totals[-1]
        c["self:" + name.split(".")[0]] += selfs[sid]
        c["time:" + name] += t1 - t0
        c["n:" + name] += 1

    metrics, detail = {}, {"samples": {}, "p99": {}}
    for metric, (names, kind) in PER_CALL.items():
        if not seen.intersection(names):
            metrics[metric] = None
            continue
        if kind == "per_parent":
            by_parent = defaultdict(float)
            for sid, (name, parent, t0, t1) in enumerate(spans):
                if name in names:
                    by_parent[parent] += t1 - t0
            samples = list(by_parent.values())
        else:
            samples = [selfs[sid] if kind == "self" else t1 - t0
                       for sid, (name, _, t0, t1) in enumerate(spans) if name in names]
        samples = [1e6 * s for s in samples]
        metrics[metric] = percentile(samples, 50)
        detail["samples"][metric] = len(samples)
        p99 = percentile(samples, 99)
        if sum(s > p99 for s in samples) >= 10:
            detail["p99"][metric] = p99

    for metric, (names, fn) in PER_ROOT.items():
        reached = totals and (not names or seen.intersection(names))
        metrics[metric] = statistics.median(fn(c) for c in totals) if reached else None

    roots = [sid for sid, span in enumerate(spans) if span[1] < 0]
    root_time = sum(spans[r][3] - spans[r][2] for r in roots)
    detail["self_sum_frac"] = _ratio(sum(selfs), root_time)
    detail["layer_self_s"] = {
        layer: _ratio(sum(c[f"self:{layer}"] for c in totals), len(totals))
        for layer in LAYERS}
    detail["missing_wrap_points"] = list(tracer.missing)
    return metrics, detail
