"""ltsurf benchmark: times `ltsurf.cli.main` on fixed workloads.

One run of one workload, as BENCHMARK.json's command:

    python3 bench/run.py --workload tanaka_fine --seed 1 --seconds 30 --trace 0

Every workload in turn, with a table of all end-to-end metrics:

    python3 bench/run.py --all --seed 1

Run from the repository root. Each run starts fresh child processes
(bench/worker.py): seven that only set up, timed as `setup_s` (skipped
when tracing), then one that repeats the workload's CLI call for
--seconds and checks every call's outputs. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

from layertrace import HOME
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
SETUP_PROBES = 7
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def load_spec():
    """Metric names and units, from BENCHMARK.json at the checkout root."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# setup_s is the median of its probes. The per-call figures are the best
# call of the run: on a shared host, contention from other tenants only
# ever adds time, so the best call moves least between runs, while the
# median follows the neighbours' load.
BEST_CALL = {"wall_s": min, "cpu_s": min, "ops_per_s": max, "steps_per_s": max}


def headline(name, values):
    return BEST_CALL.get(name, statistics.median)(values)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def setup_seconds(workload):
    """Time from starting a child to numpy and ltsurf imported and the
    scenario built."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, "--workload", workload.name, "--probe"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    ready = proc.stdout.readline()
    elapsed = perf_counter() - t0
    _, err = proc.communicate(timeout=60)
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {err.strip()[-2000:]}")
    return elapsed


def worker_record(workload, seed, seconds, trace, timeout):
    cmd = [sys.executable, WORKER, "--workload", workload.name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def read_commit():
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(record):
    return {"nproc": os.cpu_count(), "cpu": cpu_model(), "python": record["python"],
            "numpy": record["numpy"], "commit": read_commit(),
            "normals_per_s": record["normals_per_s"]}


def end_to_end_samples(workload, setups, record):
    calls = record["calls"]
    walls = [c["wall_s"] for c in calls]
    return {
        "setup_s": setups,
        "wall_s": walls,
        "cpu_s": [c["cpu_s"] for c in calls],
        "ops_per_s": [workload.ops / w for w in walls],
        "steps_per_s": [record["steps_per_call"] / w for w in walls],
        "peak_rss_mb": [record["peak_rss_mb"]],
    }


def trace_lines(record, per_layer):
    """Per-layer metrics with the workload each is taken from, then the
    per-workload tracing checks."""
    layers, details = record["layers"], record["trace_detail"]
    lines = []
    for name, unit in per_layer.items():
        value = layers.get(name)
        home = HOME.get(name)
        shown = "absent (wrap point not found)" if value is None else f"{value:.6g} {unit}"
        extra = f"  [{home}" if home else ""
        if home and name in details[home]["samples"]:
            extra += f", n={details[home]['samples'][name]}"
            if name in details[home]["p99"]:
                extra += f", p99 {details[home]['p99'][name]:.6g}"
        lines.append(f"  {name} = {shown}{extra}{']' if home else ''}")
    for name, detail in details.items():
        lines.append(f"  {name}: layer self times / root span = "
                     f"{detail['self_sum_frac']:.9f}; self s per call: " + ", ".join(
                         f"{k} {v:.4g}" for k, v in detail["layer_self_s"].items() if v))
        lines.append(f"  {name}: tracing overhead {detail['overhead_frac']:+.3f}; traced "
                     f"outputs {'match' if detail['digests_match'] else 'DIFFER FROM'} "
                     f"untraced; spans in {detail['spans_file']}")
        if detail["missing_wrap_points"]:
            lines.append(f"  {name}: missing wrap points: "
                         + ", ".join(detail["missing_wrap_points"]))
    return lines


def single_run(workload, seed, seconds, trace):
    """One benchmark run: (result, printable lines, samples, accuracy)."""
    end_to_end, per_layer = load_spec()
    start = perf_counter()
    setups = [] if trace else [setup_seconds(workload) for _ in range(SETUP_PROBES)]
    timeout = RUN_TIMEOUT_S - (perf_counter() - start)
    record = worker_record(workload, seed, seconds, trace, timeout)
    calls = record["calls"]
    attempted = sum(c["ops"] for c in calls)
    failed = sum(c["ops"] for c in calls if not c["ok"])
    own = [c for c in calls if c["workload"] == workload.name]
    accuracy = own[0]["accuracy"]
    # a traced run also prints the accuracy of the other workloads it traced
    first = {}
    for c in calls:
        first.setdefault(c["workload"], c)

    lines = [f"provenance: {json.dumps(provenance(record))}",
             f"workload {workload.name}, seed {seed}: {len(calls)} calls, "
             f"{attempted} operations, {failed} failed "
             f"(fail_frac {failed / attempted:.4g})"]
    for c in calls:
        for problem in c["problems"]:
            lines.append(f"  {c['workload']} check failed: {problem}")
    digests = sorted({json.dumps(c["digests"], sort_keys=True) for c in own})
    lines.append(f"  output digests: {' | '.join(digests)}")
    for c in first.values():
        for name, value in c["accuracy"].items():
            lines.append(f"  {name} = {value!r} on {c['workload']} (deterministic per seed)")
    samples = {}
    if trace:
        lines += trace_lines(record, per_layer)
        metrics = {name: {"value": record["layers"].get(name), "unit": unit}
                   for name, unit in per_layer.items()}
    else:
        samples = end_to_end_samples(workload, setups, record)
        for name, values in samples.items():
            q1, med, q3 = quartiles(values)
            kind = "best" if name in BEST_CALL else "median"
            lines.append(f"  {name} = {headline(name, values):.6g} {end_to_end[name]}  "
                         f"[{kind} of n={len(values)}; median {med:.6g}, "
                         f"q1 {q1:.6g}, q3 {q3:.6g}]")
        metrics = {name: {"value": headline(name, samples[name]), "unit": unit}
                   for name, unit in end_to_end.items()}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines, samples, accuracy


def table_source(metric, workload):
    """The end-to-end samples a table row reads, or None where it does not apply."""
    if metric == "paths_per_s":
        return None if workload.command == "envelope" else "ops_per_s"
    if metric == "envelope_queries_per_s":
        return "ops_per_s" if workload.command == "envelope" else None
    return metric


def print_table(runs):
    """All end-to-end metrics by name, per workload, with sample counts."""
    def cell(name, values):
        return f"{headline(name, values):.5g} (n={len(values)})"

    names = list(runs)
    header = f"{'metric':24} {'unit':5} " + " ".join(f"{n:>22}" for n in names)
    print(header)
    rows = [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("steps_per_s", "1/s"),
            ("paths_per_s", "1/s"), ("envelope_queries_per_s", "1/s"),
            ("peak_rss_mb", "MB"), ("abs_residual_median", "1"),
            ("estimator_spread", "1"), ("envelope_max_err", "1"), ("fail_frac", "1")]
    for metric, unit in rows:
        cells = []
        for name in names:
            result, samples, accuracy = runs[name]
            source = table_source(metric, WORKLOADS[name])
            if source in samples:
                cells.append(cell(source, samples[source]))
            elif metric in accuracy:
                cells.append(f"{accuracy[metric]:.5g} (n=1)")
            elif metric == "fail_frac":
                cells.append(f"{result['failed'] / result['attempted']:.3g} "
                             f"(n={result['attempted']})")
            else:
                cells.append("n/a")
        print(f"{metric:24} {unit:5} " + " ".join(f"{c:>22}" for c in cells))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if bool(args.all) == bool(args.workload):
        parser.error("give exactly one of --workload and --all")
    if args.all and args.trace:
        parser.error("--all makes untraced runs; one traced run traces every workload")
    if not os.path.isfile(os.path.join(ROOT, "src", "ltsurf", "cli.py")):
        print(f"no ltsurf sources under {ROOT}/src: run from a checkout", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.all else [args.workload]
    runs = {}
    for name in names:
        try:
            result, lines, samples, accuracy = single_run(
                WORKLOADS[name], args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        runs[name] = (result, samples, accuracy)
    if args.all:
        print_table(runs)
        print(json.dumps({name: run[0] for name, run in runs.items()}))
        return 0 if all(run[0]["correct"] for run in runs.values()) else 1
    print(json.dumps(runs[args.workload][0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
