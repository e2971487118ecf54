"""Benchmark child process: times `ltsurf.cli.main` calls of one workload.

bench/run.py starts this script in a fresh process for each run:

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/worker.py --workload NAME --probe

With --probe it imports numpy and ltsurf, builds the scenario, prints
`ready` and exits; run.py times that as the set-up. Otherwise it repeats
one CLI call with the same inputs for S seconds, checks every call's
outputs, and prints one JSON record as its last line of standard output.
With --trace 1 it times traced calls of every workload instead, with
the layers wrapped (see layertrace.py), next to untraced ones.
"""

import argparse
import contextlib
import dataclasses
import inspect
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from time import perf_counter

import checks
import layertrace
from workloads import TRACED

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_ROOT = os.path.join(ROOT, ".bench_out")
MIN_CALLS = 3
MIN_TRACED_CALLS = 3


def setup(workload):
    """Import numpy and ltsurf and build the workload's scenario, if any."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from ltsurf import cli  # imports numpy too
    from ltsurf.scenarios import build_parts
    if workload.scenario:
        build_parts(workload.scenario)
    return cli.main


def check_outputs(workload, seed, out_dir, stdout):
    if workload.command == "verify":
        return checks.check_verify(out_dir, workload.size, stdout)
    if workload.command == "localtime":
        return checks.check_localtime(stdout)
    return checks.check_envelope(out_dir, workload.m_values(seed), workload.size, stdout)


def _cpu_seconds():
    """User plus system time of this process and its waited-for children."""
    return sum(u.ru_utime + u.ru_stime for u in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def call(cli_main, workload, seed, workers=1, tracer=None):
    """One timed `cli.main` call, its outputs checked after the clock stops."""
    out_dir = tempfile.mkdtemp(dir=OUT_ROOT)
    argv = workload.argv(seed, out_dir, workers)
    stdout, stderr = io.StringIO(), io.StringIO()
    c0 = _cpu_seconds()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if tracer is None:
                rc = cli_main(argv)
            else:
                rc = tracer.root("cli.main", cli_main, argv)
    except Exception:
        rc = None
        stderr.write(traceback.format_exc())
    t1 = perf_counter()
    cpu = _cpu_seconds() - c0
    if rc == 0:
        check = check_outputs(workload, seed, out_dir, stdout.getvalue())
    else:
        check = checks.Check()
        check.fail(f"exit code {rc}: {stderr.getvalue()[-2000:]}")
    shutil.rmtree(out_dir)
    return {"workload": workload.name, "ops": workload.ops,
            "wall_s": t1 - t0, "cpu_s": cpu, "ok": check.ok,
            "problems": check.problems, "digests": check.digests,
            "output_bytes": check.output_bytes, "accuracy": check.accuracy}


def timed_calls(run_one, seconds, min_calls):
    calls = []
    start = perf_counter()
    while len(calls) < min_calls or perf_counter() - start < seconds:
        calls.append(run_one())
    return calls


def normals_per_s():
    """Standard normals drawn per second: the RNG floor for path simulation."""
    import numpy as np
    rng = np.random.default_rng(0)
    n = 1_000_000
    times = []
    for _ in range(5):
        t0 = perf_counter()
        rng.standard_normal(n)
        times.append(perf_counter() - t0)
    return n / statistics.median(times)


def steps_per_call(workload, seed):
    """Inner work units of one call, counted untimed after the timed calls.

    Path workloads: grid steps, inserted jump points included, found by
    replaying each path's simulation. Envelope: objective evaluations of
    the grid search, rounds x search_n^2 per query at the search defaults.
    """
    if workload.command == "envelope":
        from ltsurf.surfaces import moreau_envelope
        params = inspect.signature(moreau_envelope).parameters
        return workload.ops * params["rounds"].default * params["grid_n"].default ** 2
    from ltsurf.harness import ScenarioConfig, derive_path_seed
    from ltsurf.paths import simulate_jump_diffusion
    from ltsurf.scenarios import build_parts
    cfg = ScenarioConfig(scenario=workload.scenario, dt=workload.dt)
    _, parts = build_parts(workload.scenario)
    return sum(
        simulate_jump_diffusion(parts.spec, cfg.t_end, cfg.n_steps,
                                derive_path_seed(seed, i)).grid.n_steps
        for i in range(workload.size))


def peak_rss_mb():
    """Peak RSS of this process; timed calls start no other process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced_run(cli_main, workload, seed, seconds):
    calls = timed_calls(lambda: call(cli_main, workload, seed), seconds, MIN_CALLS)
    return {"calls": calls, "steps_per_call": steps_per_call(workload, seed),
            "peak_rss_mb": peak_rss_mb()}


def traced_workload(cli_main, workload, seed, seconds):
    """Traced calls of one workload for about `seconds`, each right after
    an untraced call so the pair sees the same load. A workload with
    pool_workers first spends half the time on untraced calls through the
    process pool. Walls are compared by best call."""
    def best_wall(calls):
        return min(c["wall_s"] for c in calls)

    pool = []
    if workload.pool_workers:
        seconds /= 2
        pool = timed_calls(lambda: call(cli_main, workload, seed, workload.pool_workers),
                           seconds, MIN_CALLS)
    tracer = layertrace.Tracer()
    serial, traced = [], []
    start = perf_counter()
    while len(traced) < MIN_TRACED_CALLS or perf_counter() - start < seconds:
        serial.append(call(cli_main, workload, seed))
        tracer.install()
        try:
            traced.append(call(cli_main, workload, seed, tracer=tracer))
        finally:
            tracer.uninstall()

    metrics, detail = layertrace.layer_metrics(tracer)
    if pool:
        metrics["harness.pool_efficiency"] = best_wall(serial) / (
            workload.pool_workers * best_wall(pool))
        metrics["harness.pool_overhead_s"] = (
            best_wall(pool) - best_wall(serial) / workload.pool_workers)
    calls = pool + serial + traced
    metrics["harness.output_bytes"] = statistics.median(c["output_bytes"] for c in calls)
    detail["overhead_frac"] = best_wall(traced) / best_wall(serial) - 1.0
    spans_path = os.path.join(OUT_ROOT, f"spans-{workload.name}-seed{seed}.csv")
    tracer.write_csv(spans_path)
    detail["spans_file"] = os.path.relpath(spans_path, ROOT)
    detail["digests_match"] = (
        {json.dumps(c["digests"], sort_keys=True) for c in traced}
        == {json.dumps(c["digests"], sort_keys=True) for c in pool + serial})
    return calls, metrics, detail


def traced_run(cli_main, workload, seed, seconds, normals, workloads=TRACED):
    """Trace every workload for an equal share of `seconds`, and take each
    per-layer metric from the workload that exercises its layer
    (layertrace.HOME), so every metric is measured in every traced run."""
    calls, by_workload, details = [], {}, {}
    for other in workloads.values():
        other_calls, metrics, detail = traced_workload(
            cli_main, other, seed, seconds / len(workloads))
        calls += other_calls
        by_workload[other.name] = metrics
        details[other.name] = detail
    layers = {metric: by_workload[home].get(metric)
              for metric, home in layertrace.HOME.items()}
    layers["machine.normals_per_s"] = normals
    layers["trace.overhead_frac"] = details[workload.name]["overhead_frac"]
    return {"calls": calls, "layers": layers, "trace_detail": details}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(TRACED))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    workload = TRACED[args.workload]

    cli_main = setup(workload)
    if args.probe:
        print("ready", flush=True)
        return 0

    import numpy
    os.makedirs(OUT_ROOT, exist_ok=True)
    normals = normals_per_s()
    # an untimed tiny call first, so lazy imports happen before timing
    call(cli_main, dataclasses.replace(workload, size=2), args.seed)
    if args.trace:
        record = traced_run(cli_main, workload, args.seed, args.seconds, normals)
    else:
        record = untraced_run(cli_main, workload, args.seed, args.seconds)
    record.update(python=platform.python_version(), numpy=numpy.__version__,
                  normals_per_s=normals)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
