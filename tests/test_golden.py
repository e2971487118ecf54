"""Golden outputs: byte-exact verify.csv and summary.json for every
(scenario, variant) pair of the registry, under both qv modes, the
byte-exact paths.csv that `simulate` writes for every registry scenario,
the byte-exact stdout of `localtime` for every registry scenario under
both qv modes, and the byte-exact envelope.csv that `envelope` writes for
every registry surface.

Three bench-sized cases (1000 paths at dt 1e-2) pin the same two files where
row blocks fill up: the Y/Z-jump scenarios' variants form blocks of up to 383
rows with up to 6 jump ranks, which the 6-path cases never reach. Two
long-path cases (dt 1e-4) pin them for rows of 10001 points, several to a
block: `tanaka_bm`/`tanaka` at the bench's `tanaka_fine` size, and
`peskir_diffusion`/`ltc_diffusion`, whose variant reaches the occupation
estimator and the generator term. One bench-sized envelope case pins
envelope.csv for the `abs` surface at the bench's `envelope` size: a
20 x 20 table and the bench's seed-1 penalties.

Refactors must leave these digests unchanged. A change that alters the
outputs on purpose regenerates the file and says why:

    PYTHONPATH=src python tests/test_golden.py

It prints the keys whose digests changed, appeared or vanished against the
file it replaces.
"""

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from ltsurf.cli import main
from ltsurf.scenarios import REGISTRY, SURFACES, build_parts

GOLDEN = Path(__file__).with_name("golden_verify.json")
CONFIG = ["--dt", "1e-2", "--paths", "6", "--seed", "7"]
QV_MODES = ("analytic", "realized")
OUTPUTS = ("verify.csv", "summary.json")
# removed alias scenarios and the base scenario each one ran under another
# default variant
FORMER_ALIASES = {"surfaces_strong": "tanaka_bm", "generator_lambda": "peskir_diffusion"}
BENCH_CONFIG = ["--dt", "1e-2", "--paths", "1000", "--seed", "13"]
BENCH_CASES = [("glued_quadratic_jump", "jump_ltc"), ("glued_quadratic_jump", "surfaces_strong"),
               ("smooth_fit_sqrt_surface", "smooth_fit")]
LONG_CASES = [("tanaka_bm", "tanaka", ["--dt", "1e-4", "--paths", "400", "--seed", "13"]),
              ("peskir_diffusion", "ltc_diffusion", ["--dt", "1e-4", "--paths", "40", "--seed", "13"])]
# one penalty per decade, none of them a round number
ENVELOPE_CONFIG = ["--m", "3.1622776601683795,31.622776601683793,"
                          "316.22776601683796,3162.2776601683795", "--grid-n", "7"]
# the bench's `envelope` workload at seed 1
ENVELOPE_BENCH_SURFACE = "abs"
ENVELOPE_BENCH_CONFIG = ["--m", "3.2495380354723715,89.22030351678919,"
                                "139.36689126371573,8884.836640546999", "--grid-n", "20"]


def _cases():
    return [(name, variant, qv)
            for name in REGISTRY
            for variant in build_parts(name)[1].variants
            for qv in QV_MODES]


def _key(name, variant, qv):
    return f"{name}/{variant}/{qv}"


def _simulate_key(name):
    return f"{name}/simulate"


def _localtime_key(name, qv):
    return f"{name}/localtime/{qv}"


def _envelope_key(surface):
    return f"{surface}/envelope"


def _envelope_bench_key(surface):
    return f"{surface}/envelope/bench"


def _bench_key(name, variant):
    return f"{name}/{variant}/bench"


def _long_key(name, variant):
    return f"{name}/{variant}/long"


def _digests(name, variant, qv, out_dir, config=CONFIG):
    argv = ["verify", "--scenario", name, "--variant", variant, "--qv", qv,
            *config, "--out", str(out_dir)]
    with open(os.devnull, "w") as sink, redirect_stdout(sink), redirect_stderr(sink):
        code = main(argv)
    assert code == 0, f"{_key(name, variant, qv)}: exit code {code}"
    return _sha256(out_dir, OUTPUTS)


def _simulate_digests(name, out_dir):
    argv = ["simulate", "--scenario", name, *CONFIG, "--out", str(out_dir)]
    with open(os.devnull, "w") as sink, redirect_stdout(sink), redirect_stderr(sink):
        code = main(argv)
    assert code == 0, f"{_simulate_key(name)}: exit code {code}"
    return _sha256(out_dir, ("paths.csv",))


def _localtime_digests(name, qv):
    argv = ["localtime", "--scenario", name, "--qv", qv, *CONFIG]
    out = io.StringIO()
    with open(os.devnull, "w") as sink, redirect_stdout(out), redirect_stderr(sink):
        code = main(argv)
    assert code == 0, f"{_localtime_key(name, qv)}: exit code {code}"
    return {"stdout": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def _envelope_digests(surface, out_dir, config=ENVELOPE_CONFIG):
    argv = ["envelope", "--surface", surface, *config, "--out", str(out_dir)]
    with open(os.devnull, "w") as sink, redirect_stdout(sink), redirect_stderr(sink):
        code = main(argv)
    assert code == 0, f"{_envelope_key(surface)}: exit code {code}"
    return _sha256(out_dir, ("envelope.csv",))


def _sha256(out_dir, files):
    return {f: hashlib.sha256((Path(out_dir) / f).read_bytes()).hexdigest()
            for f in files}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_pair(golden):
    assert sorted(golden) == sorted([_key(*c) for c in _cases()]
                                    + [_simulate_key(name) for name in REGISTRY]
                                    + [_localtime_key(name, qv) for name in REGISTRY
                                       for qv in QV_MODES]
                                    + [_envelope_key(s) for s in SURFACES]
                                    + [_envelope_bench_key(ENVELOPE_BENCH_SURFACE)]
                                    + [_bench_key(*c) for c in BENCH_CASES]
                                    + [_long_key(n, v) for n, v, _ in LONG_CASES])


@pytest.mark.parametrize("name,variant,qv", _cases(),
                         ids=[_key(*c) for c in _cases()])
def test_outputs_match_golden(golden, tmp_path, name, variant, qv):
    key = _key(name, variant, qv)
    assert _digests(name, variant, qv, tmp_path) == golden[key], (
        f"{key}: verify.csv or summary.json changed")


@pytest.mark.parametrize("name,variant", BENCH_CASES, ids=[_bench_key(*c) for c in BENCH_CASES])
def test_bench_sized_outputs_match_golden(golden, tmp_path, name, variant):
    key = _bench_key(name, variant)
    assert _digests(name, variant, "analytic", tmp_path, BENCH_CONFIG) == golden[key], (
        f"{key}: verify.csv or summary.json changed")


@pytest.mark.parametrize("name,variant,config", LONG_CASES,
                         ids=[_long_key(n, v) for n, v, _ in LONG_CASES])
def test_long_path_outputs_match_golden(golden, tmp_path, name, variant, config):
    key = _long_key(name, variant)
    assert _digests(name, variant, "analytic", tmp_path, config) == golden[key], (
        f"{key}: verify.csv or summary.json changed")


@pytest.mark.parametrize("name", [*REGISTRY, *FORMER_ALIASES])
def test_simulate_paths_match_golden(golden, tmp_path, name):
    if name in FORMER_ALIASES:
        # the alias name is rejected; its base scenario writes the paths.csv it wrote
        argv = ["simulate", "--scenario", name, *CONFIG, "--out", str(tmp_path)]
        with redirect_stderr(io.StringIO()):
            assert main(argv) == 2
        assert not any(tmp_path.iterdir())
        name = FORMER_ALIASES[name]
    key = _simulate_key(name)
    assert _simulate_digests(name, tmp_path) == golden[key], f"{key}: paths.csv changed"


@pytest.mark.parametrize("name,qv", [(n, qv) for n in REGISTRY for qv in QV_MODES],
                         ids=[_localtime_key(n, qv) for n in REGISTRY for qv in QV_MODES])
def test_localtime_stdout_matches_golden(golden, name, qv):
    key = _localtime_key(name, qv)
    assert _localtime_digests(name, qv) == golden[key], f"{key}: localtime stdout changed"


@pytest.mark.parametrize("surface", list(SURFACES))
def test_envelope_table_matches_golden(golden, tmp_path, surface):
    key = _envelope_key(surface)
    assert _envelope_digests(surface, tmp_path) == golden[key], f"{key}: envelope.csv changed"


def test_bench_sized_envelope_table_matches_golden(golden, tmp_path):
    key = _envelope_bench_key(ENVELOPE_BENCH_SURFACE)
    assert _envelope_digests(ENVELOPE_BENCH_SURFACE, tmp_path,
                             ENVELOPE_BENCH_CONFIG) == golden[key], f"{key}: envelope.csv changed"


if __name__ == "__main__":
    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in _cases():
            table[_key(*case)] = _digests(*case, tmp)
        for name in REGISTRY:
            table[_simulate_key(name)] = _simulate_digests(name, tmp)
            for qv in QV_MODES:
                table[_localtime_key(name, qv)] = _localtime_digests(name, qv)
        for surface in SURFACES:
            table[_envelope_key(surface)] = _envelope_digests(surface, tmp)
        table[_envelope_bench_key(ENVELOPE_BENCH_SURFACE)] = _envelope_digests(
            ENVELOPE_BENCH_SURFACE, tmp, ENVELOPE_BENCH_CONFIG)
        for case in BENCH_CASES:
            table[_bench_key(*case)] = _digests(*case, "analytic", tmp, BENCH_CONFIG)
        for name, variant, config in LONG_CASES:
            table[_long_key(name, variant)] = _digests(name, variant, "analytic", tmp, config)
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} entries to {GOLDEN}", file=sys.stderr)
    for what, keys in (("changed", [k for k in table.keys() & old.keys() if table[k] != old[k]]),
                       ("appeared", table.keys() - old.keys()),
                       ("vanished", old.keys() - table.keys())):
        print(f"{what}: {len(keys)}" + "".join(f"\n  {k}" for k in sorted(keys)))
