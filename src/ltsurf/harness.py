"""Monte Carlo orchestration: run a scenario over an ensemble of paths,
aggregate term-by-term statistics, write CSV / JSON reports, and drive
convergence studies.

Everything here is deterministic given the config: per-path seeds are a
stable hash of (master seed, path index), aggregation runs in path-index
order, and no wall-clock data enters the outputs.
"""

import json
import math
import numbers
import os
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import __version__
from .errors import ConfigError
from .localtime import (local_time_mollifier, local_time_occupation,
                        local_time_tanaka_residual)
from .paths import draw_paths, seed_hash, seed_words, simulate_jump_diffusion
from .scenarios import (SURFACES, build_parts, check_variant, evaluate_variant,
                        list_scenarios)
from .surfaces import moreau_envelope

# Grid points per block of paths: each of a block's (P, L+1) arrays is then
# 512 KiB, six 1e4-step paths share a block, and only a path of 32768 steps
# or more is alone.
BLOCK_POINTS = 65536

# Most steps per path: one path row of 1e9 float64 values is 8 GB.
MAX_STEPS = 10 ** 9


def _is_int(value):
    # a bool is Integral too, but True would run as 1 and be echoed as true
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass
class ScenarioConfig:
    """Everything needed to reproduce one ensemble run."""

    scenario: str
    params: dict = field(default_factory=dict)
    t_end: float = 1.0
    dt: float = 1e-3
    n_paths: int = 1
    seed: int = 0
    variant: Optional[str] = None  # None -> scenario default
    bandwidth_rule: object = "coupled"  # "coupled" | positive float
    qv_mode: str = "analytic"
    output: Optional[str] = None  # directory for csv/json, or None
    workers: int = 1

    def __post_init__(self):
        # nan and inf fail these too, before they can silently change a run
        if not 0 < self.dt < math.inf:
            raise ConfigError(f"dt must be positive and finite, got {self.dt!r}")
        if not 0 < self.t_end < math.inf:
            raise ConfigError(f"t_end must be positive and finite, got {self.t_end!r}")
        steps = self.t_end / self.dt
        if not steps <= MAX_STEPS:  # inf cannot be rounded, nor 1e30 steps allocated
            raise ConfigError(f"t_end / dt must be at most {MAX_STEPS:.0e} steps, got {steps!r}")
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ConfigError(f"dt = {self.dt!r} does not divide t_end = {self.t_end!r}")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")
        for name in ("n_paths", "workers"):
            value = getattr(self, name)
            if not (_is_int(value) and value >= 1):
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if self.qv_mode not in ("analytic", "realized"):
            raise ConfigError(f"unknown qv_mode: {self.qv_mode!r}")
        if self.bandwidth_rule != "coupled":
            try:
                # a bool is a number too, but True would run as eps = 1.0
                if isinstance(self.bandwidth_rule, (bool, np.bool_)):
                    raise TypeError
                bw = float(self.bandwidth_rule)
            except (TypeError, ValueError):
                raise ConfigError("bandwidth must be 'coupled' or a number, "
                                  f"got {self.bandwidth_rule!r}") from None
            if not 0 < bw < math.inf or 1.0 / bw == math.inf:  # n = round(1 / eps) is an int
                raise ConfigError("fixed bandwidth must be positive and finite, with a finite "
                                  f"reciprocal, got {bw!r}")
            self.bandwidth_rule = bw

    @property
    def n_steps(self):
        return max(1, int(round(self.t_end / self.dt)))

    def bandwidths(self):
        """(eps, mollifier n) implied by the bandwidth rule: the one place
        that picks a run's local-time bandwidths. "coupled" ties both to the
        step: eps = 3 sqrt(dt) keeps the occupation window resolvable, and
        the kernel window 1/n matches the per-step excursion scale sqrt(dt),
        at which the Tanaka-type left-hand sides resolve the surface, so the
        two sides stay tightly coupled per path. A fixed eps gives
        n = round(1/eps)."""
        if self.bandwidth_rule == "coupled":
            root = math.sqrt(self.dt)
            return 3.0 * root, max(1, int(round(1.0 / root)))
        eps = float(self.bandwidth_rule)
        return eps, max(1, int(round(1.0 / eps)))


@dataclass
class EnsembleSummary:
    config: dict
    variant: str
    n_paths: int
    term_names: list
    term_stats: dict  # name -> {mean, median, se}
    lhs_stats: dict
    rhs_stats: dict
    residual_stats: dict  # mean, median, se, quantiles, abs_median, abs_mean
    provenance: dict

    def to_json(self):
        return json.dumps(vars(self), indent=2, sort_keys=True)


def derive_path_seed(master_seed, path_index):
    """Stable per-path seed: SeedSequence([master seed, path index]) hashed to
    one uint64, for all indices in one pass.  An int for one index; a uint64
    array for an array of them."""
    index = np.asarray(path_index)
    words, master = seed_words(index), seed_words([master_seed])
    seeds = seed_hash(np.vstack((np.repeat(master, words.shape[1], 1), words)), 1)[0]
    return seeds if index.ndim else seeds.item()


def _run_paths(parts, t_end, n_steps, seeds, evaluate, args):
    """Column names and a (len(seeds), columns) table of evaluate(parts, block,
    *args), which gives both for a block, one table row per path; rows in seed
    order. A block holds up to BLOCK_POINTS // (n_steps + 1) paths whose grids
    share a step count and a jump count.
    """
    draws = draw_paths(parts.spec, t_end, n_steps, seeds)
    names, table = [], np.empty((len(seeds), 0))
    for rows in draws.blocks(max(1, BLOCK_POINTS // (n_steps + 1))):
        bundle = simulate_jump_diffusion(parts.spec, t_end, n_steps, draws, rows)
        names, block = evaluate(parts, bundle, *args)
        if not table.shape[1]:  # the first block sets the width
            table = np.empty((len(seeds), block.shape[1]))
        table[rows] = block
    return names, table


def _run_chunk(task):
    """One pool task: build the scenario once, then run its chunk of paths."""
    name, params, t_end, n_steps, seeds, evaluate, args = task
    _, parts = build_parts(name, params)
    return _run_paths(parts, t_end, n_steps, seeds, evaluate, args)


def _fan_out(config, parts, evaluate, *args):
    """Column names and the table of evaluate over the ensemble, in path order.

    With several workers, each pool task takes a contiguous chunk of path
    indices and rebuilds the scenario from its name, since the parts hold
    closures that do not pickle.
    """
    seeds = derive_path_seed(config.seed, np.arange(config.n_paths))
    if config.workers == 1 or config.n_paths == 1:
        return _run_paths(parts, config.t_end, config.n_steps, seeds, evaluate, args)
    n_chunks = min(config.n_paths, 4 * config.workers)
    bounds = [config.n_paths * k // n_chunks for k in range(n_chunks + 1)]
    tasks = [(config.scenario, config.params, config.t_end, config.n_steps,
              seeds[lo:hi], evaluate, args) for lo, hi in zip(bounds, bounds[1:])]
    # imported here, not at load: it brings in logging and multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=config.workers) as pool:
        chunks = list(pool.map(_run_chunk, tasks))
    return chunks[0][0], np.concatenate([table for _, table in chunks])


def _verify_rows(parts, block, variant, eps, n, qv_mode):
    """The block's term names and its (lhs, terms..., rhs, residual) rows."""
    r = evaluate_variant(parts, variant, block, eps=eps, n=n, qv_mode=qv_mode)
    return r.names, r.table


def _column_stats(arr):
    se = float(np.std(arr, ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return {"mean": float(np.mean(arr)), "median": float(np.median(arr)), "se": se}


def run_scenario(config):
    """Simulate n_paths bundles, evaluate the configured variant per path,
    aggregate in path order and (optionally) write csv + json outputs."""
    scen, parts = build_parts(config.scenario, config.params)
    variant = config.variant or scen.default_variant
    check_variant(parts, variant)
    eps, n = config.bandwidths()
    term_names, table = _fan_out(config, parts, _verify_rows, variant, eps, n,
                                 config.qv_mode)
    lhs, *terms, rhs, residual = np.ascontiguousarray(table.T)

    term_stats = {name: _column_stats(column) for name, column in zip(term_names, terms)}
    qs = [0.05, 0.25, 0.5, 0.75, 0.95]
    residual_stats = _column_stats(residual)
    residual_stats["quantiles"] = {
        str(q): float(np.quantile(residual, q)) for q in qs
    }
    residual_stats["abs_mean"] = float(np.mean(np.abs(residual)))
    residual_stats["abs_median"] = float(np.median(np.abs(residual)))

    config_echo = {
        "scenario": config.scenario,
        "params": {k: float(v) for k, v in config.params.items()},
        "t_end": config.t_end,
        "dt": config.dt,
        "n_steps": config.n_steps,
        "n_paths": config.n_paths,
        "seed": config.seed,
        "variant": variant,
        "bandwidth_rule": config.bandwidth_rule,
        "qv_mode": config.qv_mode,
    }
    summary = EnsembleSummary(
        config=config_echo,
        variant=variant,
        n_paths=config.n_paths,
        term_names=term_names,
        term_stats=term_stats,
        lhs_stats=_column_stats(lhs),
        rhs_stats=_column_stats(rhs),
        residual_stats=residual_stats,
        provenance={
            "code_version": __version__,
            "eps": eps,
            "mollifier_n": n,
            "seed_derivation": "SeedSequence([master_seed, path_index])",
        },
    )
    if config.output is not None:
        write_outputs(summary, table, term_names, config.output)
    return summary


def _write_lines(out_dir, name, lines):
    """Write out_dir/name, making out_dir, with each line ended by a newline; return its path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def write_outputs(summary, table, term_names, out_dir):
    header = ["path_id", "lhs"] + [f"term_{t}" for t in term_names] + ["rhs", "residual"]
    row = "%d" + ",%.17g" * (len(header) - 1)  # "%.17g" % x is format(float(x), ".17g")
    _write_lines(out_dir, "verify.csv",
                 [",".join(header)] + [row % (i, *r) for i, r in enumerate(table.tolist())])
    _write_lines(out_dir, "summary.json", [summary.to_json()])


def convergence_study(config, dt_list, out_dir=None):
    """One ensemble row per dt with coupled bandwidth, plus a monotonicity
    verdict on the ensemble median of |residual|."""
    dts = [float(d) for d in dt_list]
    if len(dts) < 2:
        raise ConfigError("convergence study needs at least two dt values")
    if not all(b < a for a, b in zip(dts, dts[1:])):
        raise ConfigError("dt_list must be strictly decreasing")
    rows = []
    for dt in dts:
        cfg = replace(config, dt=dt, bandwidth_rule="coupled", output=None)
        summary = run_scenario(cfg)
        rows.append({
            "dt": dt,
            "eps": summary.provenance["eps"],
            "mollifier_n": summary.provenance["mollifier_n"],
            "median_abs_residual": summary.residual_stats["abs_median"],
            "mean_abs_residual": summary.residual_stats["abs_mean"],
            "median_residual": summary.residual_stats["median"],
        })
    medians = [r["median_abs_residual"] for r in rows]
    verdict = all(b <= a for a, b in zip(medians, medians[1:]))
    table = {"rows": rows, "monotone_nonincreasing": verdict}
    if out_dir is not None:
        cols = ["dt", "eps", "mollifier_n", "median_abs_residual",
                "mean_abs_residual", "median_residual"]
        _write_lines(out_dir, "converge.csv", [",".join(cols)] + [
            "%.17g,%.17g,%d,%.17g,%.17g,%.17g" % tuple(map(r.get, cols)) for r in rows])
        _write_lines(out_dir, "converge.json", [json.dumps(table, indent=2, sort_keys=True)])
    return table


def _localtime_rows(parts, block, eps, n, qv_mode):
    level = parts.level
    occ = local_time_occupation(block, level, eps, side="right", qv_mode=qv_mode)
    mol = local_time_mollifier(block, level, n, qv_mode=qv_mode)
    tan = local_time_tanaka_residual(block, level)
    return ["occupation", "mollifier", "tanaka"], np.column_stack([
        lt.final for lt in (occ, mol, tan)])


def compare_estimators(config):
    """Final-time local time at the scenario level under all three
    estimators, aggregated over the ensemble."""
    _, parts = build_parts(config.scenario, config.params)
    eps, n = config.bandwidths()
    names, arr = _fan_out(config, parts, _localtime_rows, eps, n, config.qv_mode)
    out = {name: _column_stats(arr[:, k]) for k, name in enumerate(names)}
    out["meta"] = {"level": parts.level, "eps": eps, "mollifier_n": n}
    return out


def emit_bundles(config, out_dir):
    """Raw path dump: one long CSV with the aligned driver and state paths."""
    _, parts = build_parts(config.scenario, config.params)
    cols = ["path_id", "t", "jump", "brownian", "y", "z", "a", "x", "a_pre", "x_pre"]
    lines, row = [",".join(cols)], "%d,%.17g,%d" + ",%.17g" * 7
    seeds = derive_path_seed(config.seed, np.arange(config.n_paths))
    draws = draw_paths(parts.spec, config.t_end, config.n_steps, seeds)
    for i in range(config.n_paths):
        b = simulate_jump_diffusion(parts.spec, config.t_end, config.n_steps, draws, i)
        brownian, y, z = (np.cumsum(np.concatenate(([0.0], d))) for d in (b.db, b.dy, b.dz))
        lines += [row % (i, *r) for r in zip(b.times, b.grid.jump_flags, brownian, y, z,
                                             b.a_path, b.x_path, b.a_pre, b.x_pre)]
    return _write_lines(out_dir, "paths.csv", lines)


def envelope_table(surface_name, m_values, grid_n=20, out_dir=None):
    """Moreau envelope of a registry surface tabulated over a grid_n x grid_n
    grid of t in [0, 1] and a in [-1, 1], searched in the box [-3, 4] x [-4, 4].

    Returns one (m, t, a, envelope, b) row per penalty and grid point: m
    outermost, then t, then a, as meshgrid(..., indexing="ij") ravels them.
    envelope.csv holds the same rows in that order, each value as "%.17g";
    it is written from that grid, so each t, a, b and m is formatted once,
    and each penalty's distinct envelope values (by bits) once.
    """
    if not (_is_int(grid_n) and grid_n >= 1):
        raise ConfigError(f"grid_n must be at least 1 and an integer, got {grid_n!r}")
    m_values = [float(m) for m in m_values]
    if not m_values:
        raise ConfigError("the table needs at least one penalty m")
    if surface_name not in SURFACES:
        raise ConfigError(f"unknown surface: {surface_name!r} "
                          f"(registry: {', '.join(sorted(SURFACES))})")
    surface = SURFACES[surface_name]
    t_axis, a_axis = np.linspace(0.0, 1.0, grid_n), np.linspace(-1.0, 1.0, grid_n)
    tt, aa = (g.ravel() for g in np.meshgrid(t_axis, a_axis, indexing="ij"))
    box = ((-3.0, 4.0), (-4.0, 4.0))  # the table widened by 3 on every side
    b = surface.b(tt, aa).tolist()
    t_list, a_list = tt.tolist(), aa.tolist()
    rows, envs = [], []
    for m in m_values:
        envs.append(moreau_envelope(surface, m, (tt, aa), box))
        rows += [(m, *r) for r in zip(t_list, a_list, envs[-1].tolist(), b)]
    if out_dir is not None:
        a_text = ["%.17g," % a for a in a_axis.tolist()]
        heads = ["%.17g," % t + a for t in t_axis.tolist() for a in a_text]  # "t,a,"
        tails = [",%.17g" % v for v in b]  # ",b"
        lines = ["m,t,a,envelope,b"]
        for m, env in zip(m_values, envs):
            m_text = "%.17g," % m
            _, first, back = np.unique(env.view(np.int64), return_index=True, return_inverse=True)
            texts = ["%.17g" % e for e in env[first].tolist()]  # each distinct bit pattern once
            lines += [m_text + h + texts[k] + s for h, k, s in zip(heads, back.tolist(), tails)]
        _write_lines(out_dir, "envelope.csv", lines)
    return rows


__all__ = [
    "ScenarioConfig", "EnsembleSummary", "run_scenario", "convergence_study",
    "compare_estimators", "emit_bundles", "envelope_table", "derive_path_seed",
    "list_scenarios",
]
