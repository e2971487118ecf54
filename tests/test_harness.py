"""Orchestration, outputs, config handling and the CLI."""

import inspect
import json
import os
import re
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltsurf import (ConfigError, NumericalAbort, ScenarioConfig, compare_estimators,
                    convergence_study, emit_bundles, envelope_table, run_scenario)
from ltsurf import harness, paths, scenarios
from ltsurf.cli import COMMANDS, build_parser, main, read_config_file
from ltsurf.harness import derive_path_seed
from ltsurf.localtime import (local_time_mollifier, local_time_occupation,
                              local_time_tanaka_residual)
from ltsurf.paths import simulate_jump_diffusion
from ltsurf.scenarios import REGISTRY, build_parts, evaluate_variant, list_scenarios
from ltsurf.surfaces import Surface

REQUIRED_SCENARIOS = ["tanaka_bm", "peskir_diffusion", "glued_quadratic_jump",
                      "smooth_fit_sqrt_surface"]


class TestRegistry:
    def test_required_names_present(self):
        for name in REQUIRED_SCENARIOS:
            assert name in REGISTRY

    def test_listing_is_stable_and_complete(self):
        a = list_scenarios()
        b = list_scenarios()
        assert [e["name"] for e in a] == [e["name"] for e in b]
        assert all(e["variant"] and e["formula"] for e in a)

    def test_param_override_and_validation(self):
        _, parts = build_parts("tanaka_bm", {"mu": 0.5})
        assert parts.spec.mu_x == 0.5
        with pytest.raises(ConfigError):
            build_parts("tanaka_bm", {"nonsense": 1.0})
        with pytest.raises(ConfigError):
            build_parts("no_such_scenario")


class TestRunScenario:
    def test_single_path_bit_identical(self):
        cfg = dict(scenario="tanaka_bm", dt=1e-2, n_paths=1, seed=4)
        s1 = run_scenario(ScenarioConfig(**cfg))
        s2 = run_scenario(ScenarioConfig(**cfg))
        assert s1.to_json() == s2.to_json()

    def test_smooth_quadratic_residual_scale(self):
        # Euler strong-order heuristic: median below 10 sqrt(dt)
        for dt in (1e-2, 1e-3):
            cfg = ScenarioConfig(scenario="smooth_quadratic", dt=dt,
                                 n_paths=50, seed=2)
            s = run_scenario(cfg)
            assert s.residual_stats["abs_median"] < 10 * np.sqrt(dt)

    def test_rhs_column_is_exact_term_sum(self, tmp_path):
        cfg = ScenarioConfig(scenario="glued_quadratic_jump", dt=1e-2,
                             n_paths=5, seed=6, output=str(tmp_path))
        run_scenario(cfg)
        lines = (tmp_path / "verify.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        terms = [h for h in header if h.startswith("term_")]
        for row in lines[1:]:
            vals = dict(zip(header, row.split(",")))
            acc = 0.0
            for t in terms:
                acc += float(vals[t])
            assert float(vals["rhs"]) == acc
            assert float(vals["residual"]) == float(vals["lhs"]) - acc

    def test_summary_json_holds_every_field(self):
        s = run_scenario(ScenarioConfig(scenario="tanaka_bm", dt=1e-2, n_paths=1, seed=4))
        assert sorted(json.loads(s.to_json())) == sorted(f.name for f in fields(s))

    def test_csv_floats_have_17_significant_digits(self, tmp_path):
        cfg = ScenarioConfig(scenario="tanaka_bm", dt=1e-2, n_paths=1,
                             seed=3, output=str(tmp_path))
        s = run_scenario(cfg)
        lines = (tmp_path / "verify.csv").read_text().strip().split("\n")
        lhs_str = lines[1].split(",")[1]
        assert float(lhs_str) == s.lhs_stats["mean"]  # one path's lhs round-trips exactly

    def test_worker_invariance(self, tmp_path):
        outs = []
        for workers in (1, 3):
            out = tmp_path / f"w{workers}"
            cfg = ScenarioConfig(scenario="glued_quadratic_jump", dt=1e-2,
                                 n_paths=12, seed=9, workers=workers,
                                 output=str(out))
            run_scenario(cfg)
            outs.append((out / "verify.csv").read_bytes()
                        + (out / "summary.json").read_bytes())
        assert outs[0] == outs[1]

    def test_loading_the_cli_leaves_the_process_pool_unimported(self):
        # only a run with several workers needs concurrent.futures
        code = ("import sys, ltsurf.cli; "
                "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(harness.__file__))}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

    @pytest.mark.parametrize("run", [run_scenario, compare_estimators])
    def test_serial_run_builds_the_scenario_once(self, monkeypatch, run):
        calls = []

        def counting(*args):
            calls.append(args)
            return build_parts(*args)

        monkeypatch.setattr(harness, "build_parts", counting)
        run(ScenarioConfig(scenario="glued_quadratic_jump", dt=1e-2, n_paths=5,
                           seed=1, workers=1))
        assert len(calls) == 1

    def test_derived_seeds_are_stable_and_distinct(self):
        s = [derive_path_seed(7, i) for i in range(100)]
        assert len(set(s)) == 100
        assert s[0] == derive_path_seed(7, 0)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="tanaka_bm", dt=-1.0)
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="tanaka_bm", n_paths=0)
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="tanaka_bm", qv_mode="weird")
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="tanaka_bm", bandwidth_rule=-0.1)
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="tanaka_bm", bandwidth_rule="wide")

    @pytest.mark.parametrize("name, value", [
        ("n_paths", 2.5), ("n_paths", 3.0), ("n_paths", True),
        ("workers", 1.5), ("workers", 2.0), ("workers", True), ("seed", True)])
    def test_non_integer_counts_and_seed_rejected(self, name, value):
        """A float count would fail deep in the seeding or the pool, and True
        would run as 1 and be echoed as true in summary.json."""
        with pytest.raises(ConfigError, match=name):
            ScenarioConfig(scenario="tanaka_bm", **{name: value})


class TestConvergence:
    def test_single_dt_rejected(self):
        cfg = ScenarioConfig(scenario="tanaka_bm", n_paths=2, seed=1)
        with pytest.raises(ConfigError):
            convergence_study(cfg, [1e-2])
        with pytest.raises(ConfigError):
            convergence_study(cfg, [1e-3, 1e-2])  # not decreasing

    def test_smooth_quadratic_order_probe(self):
        cfg = ScenarioConfig(scenario="smooth_quadratic", n_paths=150, seed=2,
                             workers=2)
        table = convergence_study(cfg, [1e-2, 1e-3, 1e-4])
        meds = [r["median_abs_residual"] for r in table["rows"]]
        assert table["monotone_nonincreasing"]
        for a, b in zip(meds, meds[1:]):
            assert a / b >= 1.5


class TestCli:
    def test_scenarios_exit_zero(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in REQUIRED_SCENARIOS:
            assert name in out
        with pytest.raises(SystemExit) as exc:
            main(["scenarios", "--config", "run.cfg"])
        assert exc.value.code == 2

    def test_unknown_scenario_exit_2(self, capsys):
        assert main(["verify", "--scenario", "nope", "--paths", "1"]) == 2

    def test_dt_not_dividing_t_end_exit_2(self, capsys):
        assert main(["verify", "--scenario", "tanaka_bm", "--dt", "0.3",
                     "--paths", "1"]) == 2
        assert "does not divide" in capsys.readouterr().err

    def test_nonfinite_term_exit_4(self, monkeypatch, capsys):
        scen = REGISTRY["peskir_diffusion"]

        def build(p):
            parts = scen.build(p)
            upper = replace(parts.psf.upper, d_xx=lambda t, a, x, b: np.nan * x)
            parts.psf = replace(parts.psf, upper=upper)
            return parts

        monkeypatch.setitem(REGISTRY, scen.name, replace(scen, build=build))
        assert main(["verify", "--scenario", scen.name, "--dt", "1e-2",
                     "--paths", "2"]) == 4
        assert "non-finite generator_time_integral" in capsys.readouterr().err

    def test_incompatible_variant_exit_3(self, capsys):
        rc = main(["verify", "--scenario", "glued_quadratic_jump",
                   "--variant", "ltc_diffusion", "--dt", "1e-2",
                   "--paths", "1"])
        assert rc == 3

    def test_verify_writes_outputs(self, tmp_path, capsys):
        rc = main(["verify", "--scenario", "tanaka_bm", "--dt", "1e-2",
                   "--paths", "2", "--seed", "1", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "verify.csv").exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["n_paths"] == 2

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario = smooth_quadratic\ndt = 1e-2\n"
                       "param.mu = 0.25\nseed = 3\n")
        rc = main(["verify", "--config", str(cfg), "--paths", "1",
                   "--dt", "2e-2"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["config"]["dt"] == 2e-2  # flag wins over file
        assert out["config"]["params"]["mu"] == 0.25
        assert out["config"]["scenario"] == "smooth_quadratic"

    def test_bad_config_file_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mystery = 1\n")
        assert main(["verify", "--config", str(cfg), "--paths", "1"]) == 2

    @pytest.mark.parametrize("line", ["param.mu = abc", "paths = 1.5", "dt = x"])
    def test_unparsable_config_value_exit_2(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        # the last value of a key wins, so `line` replaces a valid default
        cfg.write_text(f"scenario = smooth_quadratic\npaths = 1\ndt = 1e-2\n{line}\n")
        assert main(["verify", "--config", str(cfg)]) == 2
        assert "must be" in capsys.readouterr().err

    def test_localtime_subcommand(self, capsys):
        rc = main(["localtime", "--scenario", "tanaka_bm", "--dt", "1e-2",
                   "--paths", "3", "--seed", "2"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) >= {"occupation", "mollifier", "tanaka"}

    def test_localtime_stdout_worker_invariant(self, capsys):
        outs = []
        for workers in ("1", "2"):
            assert main(["localtime", "--scenario", "peskir_diffusion", "--dt", "1e-2",
                         "--paths", "13", "--seed", "5", "--qv", "realized",
                         "--workers", workers]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_envelope_subcommand(self, tmp_path, capsys):
        rc = main(["envelope", "--surface", "abs", "--m", "1,100",
                   "--grid-n", "4", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "envelope.csv").read_text().strip().split("\n")
        assert lines[0] == "m,t,a,envelope,b"
        assert len(lines) == 1 + 2 * 4 * 4

    def test_envelope_unknown_surface_exit_2(self):
        assert main(["envelope", "--surface", "nope"]) == 2

    def test_envelope_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "env.cfg"
        cfg.write_text("surface = nope\nm = 5,6,7\ngrid_n = 9\n")
        rc = main(["envelope", "--config", str(cfg), "--surface", "abs",
                   "--m", "1,100", "--grid-n", "3", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "envelope.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 3 * 3

    def test_envelope_reads_grid_n_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "env.cfg"
        cfg.write_text(f"m = 1\ngrid_n = 3\nout = {tmp_path}\n")
        assert main(["envelope", "--config", str(cfg)]) == 0
        lines = (tmp_path / "envelope.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 3 * 3

    @pytest.mark.parametrize("grid_n", ["0", "-1"])
    def test_envelope_grid_n_below_one_exit_2(self, tmp_path, capsys, grid_n):
        assert main(["envelope", "--grid-n", grid_n]) == 2
        cfg = tmp_path / "env.cfg"
        cfg.write_text(f"grid_n = {grid_n}\n")
        assert main(["envelope", "--config", str(cfg)]) == 2
        assert "grid_n must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("m", ["nan", "inf", "-inf", "0", "1,nan"])
    def test_envelope_invalid_m_exit_2(self, tmp_path, capsys, m):
        assert main(["envelope", f"--m={m}", "--grid-n", "2", "--out", str(tmp_path)]) == 2
        assert "m must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "envelope.csv").exists()

    @pytest.mark.parametrize("m", ["", ","])
    def test_envelope_empty_m_exit_2(self, tmp_path, capsys, m):
        assert main(["envelope", "--m", m, "--out", str(tmp_path)]) == 2
        assert "the table needs at least one penalty m" in capsys.readouterr().err
        cfg = tmp_path / "env.cfg"
        cfg.write_text("m =\n")
        assert main(["envelope", "--config", str(cfg)]) == 2

    def test_envelope_unparsable_grid_n_in_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "env.cfg"
        cfg.write_text("grid_n = many\n")
        assert main(["envelope", "--config", str(cfg)]) == 2


class TestEnvelopeTable:
    @pytest.mark.parametrize("grid_n", [2.5, 3.0, True, False, "3", None])
    def test_grid_n_must_be_an_integer(self, tmp_path, grid_n):
        with pytest.raises(ConfigError, match="grid_n must be at least 1 and an integer"):
            envelope_table("abs", [1.0], grid_n=grid_n, out_dir=str(tmp_path))
        assert not (tmp_path / "envelope.csv").exists()

    def test_numpy_integer_grid_n_accepted(self):
        assert len(envelope_table("abs", [1.0], grid_n=np.int64(2))) == 4

    @pytest.mark.parametrize("m_values", [[], (), iter([]), np.array([])],
                             ids=["list", "tuple", "iterator", "array"])
    def test_empty_m_values_rejected(self, tmp_path, m_values):
        with pytest.raises(ConfigError, match="at least one penalty m"):
            envelope_table("abs", m_values, grid_n=2, out_dir=str(tmp_path))
        assert not (tmp_path / "envelope.csv").exists()

    @pytest.mark.parametrize("surface,m_values,kwargs", [
        ("abs", [1.0, 100.0], {"grid_n": 1}),
        ("quad", [3.0, 0.5], {"grid_n": 2}),
        ("sqrt", [7.25], {"grid_n": 5}),
        ("abs", [2.0, 2.0, 0.1], {"grid_n": 3}),
    ], ids=["grid_n_1", "grid_n_2", "one_m", "repeated_m"])
    def test_csv_lines_are_the_returned_rows(self, tmp_path, surface, m_values, kwargs):
        rows = envelope_table(surface, m_values, out_dir=str(tmp_path), **kwargs)
        n = kwargs["grid_n"]
        assert len(rows) == len(m_values) * n * n
        # m outermost, then t, then a
        assert [r[0] for r in rows] == [m for m in m_values for _ in range(n * n)]
        t, a = np.linspace(0.0, 1.0, n).tolist(), np.linspace(-1.0, 1.0, n).tolist()
        assert [r[1:3] for r in rows] == [(ti, aj) for _ in m_values for ti in t for aj in a]
        text = (tmp_path / "envelope.csv").read_text()
        assert text.endswith("\n")
        header, *lines = text[:-1].split("\n")
        assert header == "m,t,a,envelope,b"
        assert lines == [("%.17g," * 4 + "%.17g") % row for row in rows]

    @pytest.mark.parametrize("surface", ["abs", "quad", "sqrt"])
    def test_search_box_is_the_table_widened_by_three(self, monkeypatch, surface):
        searched, search = [], harness.moreau_envelope
        monkeypatch.setattr(harness, "moreau_envelope", lambda surf, m, query, box:
                            searched.append(box) or search(surf, m, query, box))
        rows = envelope_table(surface, [2.0, 50.0], grid_n=3)
        # the table is t in [0, 1], a in [-1, 1]
        assert {r[1] for r in rows} == {0.0, 0.5, 1.0} and {r[2] for r in rows} == {-1.0, 0.0, 1.0}
        # one search per penalty, in the table widened by 3 on every side
        assert searched == [((0.0 - 3.0, 1.0 + 3.0), (-1.0 - 3.0, 1.0 + 3.0))] * 2

    def test_converge_subcommand(self, capsys):
        rc = main(["converge", "--scenario", "smooth_quadratic",
                   "--dts", "1e-2,1e-3", "--paths", "20", "--seed", "1"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["rows"]) == 2

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_command_reads_exactly_its_table_keys(self, tmp_path, capsys, command):
        keys = COMMANDS[command][1]
        assert sorted(keys) == sorted(_READS[command].split())
        table_keys = {k for _, ks in COMMANDS.values() for k in ks}
        parser = build_parser()
        for key, kind in keys.items():
            assert getattr(parser.parse_args([command, _flag(key), "1"]), key) == kind("1")
        unread = sorted(table_keys - set(keys)) + ([] if "scenario" in keys else ["param"])
        for key in unread:
            with pytest.raises(SystemExit) as exc:
                main([command, _flag(key), "1"])
            assert exc.value.code == 2
        # a file from which the command runs, then that file plus one unread key
        cfg = tmp_path / "run.cfg"
        base = "".join(f"{k} = {v}\n" for k, v in _RUNNABLE.items() if k in keys)
        base += f"out = {tmp_path}\n" if "out" in keys else ""
        cfg.write_text(base)
        assert main([command, "--config", str(cfg)]) == 0
        unread = ["level"] + [k if k != "param" else "param.mu" for k in unread]
        for key in unread:
            cfg.write_text(base + f"{key} = 1\n")
            assert main([command, "--config", str(cfg)]) == 2
            assert f"{command} reads no config key {key!r}" in capsys.readouterr().err

    def test_converge_reads_dts_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario = exact_drift\npaths = 1\ndts = 0.5, 0.25\n")
        assert main(["converge", "--config", str(cfg)]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [r["dt"] for r in rows] == [0.5, 0.25]

    def test_converge_checks_only_its_listed_dts(self, capsys):
        # the default dt 1e-3 does not divide t_end; converge never runs it
        argv = ["converge", "--scenario", "exact_drift", "--paths", "1", "--t-end", "0.0125"]
        assert main(argv + ["--dts", "0.0125,0.00625"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [r["dt"] for r in rows] == [0.0125, 0.00625]
        assert main(argv + ["--dts", "0.0125,0.003"]) == 2
        assert "dt = 0.003 does not divide" in capsys.readouterr().err

    def test_simulate_subcommand(self, tmp_path, capsys):
        rc = main(["simulate", "--scenario", "exact_drift_jump",
                   "--dt", "1e-2", "--paths", "2", "--out", str(tmp_path)])
        assert rc == 0
        header = (tmp_path / "paths.csv").read_text().split("\n")[0]
        assert header.startswith("path_id,t,jump,brownian")


def _flag(key):
    return "--" + key.replace("_", "-")


# the keys each command reads, as README.md lists them
_READS = {"simulate": "scenario t_end dt paths seed out",
          "verify": "scenario t_end dt paths seed variant qv bandwidth workers out",
          "converge": "scenario t_end paths seed variant qv workers dts out",
          "localtime": "scenario t_end dt paths seed qv bandwidth workers",
          "envelope": "surface m grid_n out"}

# the config values each key takes in a run short enough for a unit test
_RUNNABLE = {"scenario": "exact_drift", "paths": "1", "dt": "0.5",
             "dts": "0.5,0.25", "m": "1", "grid_n": "1"}


def test_read_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("just a line without equals\n")
    with pytest.raises(ConfigError):
        read_config_file(str(bad))
    with pytest.raises(ConfigError):
        read_config_file(str(tmp_path / "missing.cfg"))


@pytest.fixture(scope="module")
def output_files(tmp_path_factory):
    """The six output files, each written into a directory that did not exist."""
    root = tmp_path_factory.mktemp("outputs")
    cfg = ScenarioConfig(scenario="tanaka_bm", dt=1e-2, n_paths=2, seed=3)
    run_scenario(replace(cfg, output=str(root / "verify" / "out")))
    convergence_study(cfg, [1e-1, 5e-2], out_dir=str(root / "converge" / "out"))
    emit_bundles(cfg, str(root / "simulate" / "out"))
    envelope_table("abs", [1.0], grid_n=2, out_dir=str(root / "envelope" / "out"))
    return {p.name: p for p in root.glob("*/out/*")}


@pytest.mark.parametrize("name", ["verify.csv", "summary.json", "converge.csv",
                                  "converge.json", "paths.csv", "envelope.csv"])
def test_output_file_ends_with_one_newline(output_files, name):
    text = output_files[name].read_text()
    assert text.endswith("\n") and not text.endswith("\n\n")
    if name.endswith(".json"):
        json.loads(text)
    else:
        lines = text[:-1].split("\n")
        assert len(lines) > 1 and {line.count(",") for line in lines} == {lines[0].count(",")}


def test_emit_bundles_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        cfg = ScenarioConfig(scenario="glued_quadratic_jump", dt=1e-2,
                             n_paths=3, seed=5)
        emit_bundles(cfg, str(out))
    assert (a / "paths.csv").read_bytes() == (b / "paths.csv").read_bytes()


def test_benchmark_worker_calls(monkeypatch):
    """The calls bench/worker.py makes in setup and steps_per_call, with the
    same signatures and attribute reads."""
    from ltsurf import cli
    from ltsurf.surfaces import moreau_envelope
    assert callable(cli.main)
    params = inspect.signature(moreau_envelope).parameters
    assert params["rounds"].default * params["grid_n"].default ** 2 > 0
    cfg = ScenarioConfig(scenario="glued_quadratic_jump", dt=1e-2)
    _, parts = build_parts("glued_quadratic_jump")
    bundles = [simulate_jump_diffusion(parts.spec, cfg.t_end, cfg.n_steps,
                                       derive_path_seed(1, i)) for i in range(50)]
    assert all(b.x_path.ndim == 1 for b in bundles)

    blocked = []

    def counting(*args):
        block = simulate_jump_diffusion(*args)
        blocked.append(block.grid.n_steps * block.x_path[..., 0].size)
        return block

    monkeypatch.setattr(harness, "simulate_jump_diffusion", counting)
    run_scenario(replace(cfg, n_paths=50, seed=1))
    assert 1 < len(blocked) < 50
    assert sum(blocked) == sum(b.grid.n_steps for b in bundles)


# the names the benchmark's layer tracer wraps, in the modules that look them up
@pytest.mark.parametrize("module, names", [
    ("harness", "derive_path_seed write_outputs build_parts evaluate_variant "
                "simulate_jump_diffusion local_time_occupation local_time_mollifier "
                "local_time_tanaka_residual moreau_envelope"),
    ("paths", "build_grid simulate_brownian simulate_compound_poisson"),
    ("scenarios", "verify_tanaka verify_ltc_diffusion verify_surfaces_strong "
                  "verify_jump_ltc verify_smooth_fit verify_general"),
    ("formulas", "local_time_mollifier local_time_occupation continuous_qv_measure "
                 "iter_jumps measure_integral local_time_time_integral"),
    ("localtime", "continuous_qv_measure"),
])
def test_traced_names_stay_importable(module, names):
    mod = __import__(f"ltsurf.{module}", fromlist=["_"])
    assert all(callable(getattr(mod, name, None)) for name in names.split())


@pytest.mark.parametrize("scenario", ["tanaka_bm", "glued_quadratic_jump"])
def test_every_traced_path_function_is_reached(scenario, monkeypatch):
    """The benchmark's layer tracer times these through the names it wraps: one
    the program no longer calls would leave its per-layer metric empty."""
    reached = set()
    for module, name in ((paths, "simulate_compound_poisson"), (paths, "simulate_brownian"),
                         (paths, "build_grid"), (harness, "simulate_jump_diffusion")):
        def recording(*args, _fn=getattr(module, name), _name=name, **kwargs):
            reached.add(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, recording)
    run_scenario(ScenarioConfig(scenario=scenario, dt=1e-2, n_paths=5, seed=1))
    assert reached == {"simulate_compound_poisson", "simulate_brownian", "build_grid",
                       "simulate_jump_diffusion"}


def _pairs():
    return [(name, variant) for name in REGISTRY
            for variant in (*build_parts(name)[1].variants, "localtime")]


def _one_path(parts, variant, bundle, eps, n, qv):
    """A path's result through the single-path functions."""
    if variant == "localtime":
        level = parts.level
        return tuple(float(lt.final) for lt in (
            local_time_occupation(bundle, level, eps, side="right", qv_mode=qv),
            local_time_mollifier(bundle, level, n, qv_mode=qv),
            local_time_tanaka_residual(bundle, level)))
    r = evaluate_variant(parts, variant, bundle, eps=eps, n=n, qv_mode=qv)
    return r.lhs, r.terms, r.rhs, r.residual


def _as_rows(variant, names, table):
    """A runner's table as per-path results, each shaped as _one_path's."""
    if variant == "localtime":
        return [tuple(r) for r in table.tolist()]
    return [(lhs, dict(zip(names, terms)), rhs, residual)
            for lhs, *terms, rhs, residual in table.tolist()]


def _blocked(parts, variant, seeds, n_steps, eps, n, qv, rows):
    """Per-path results of the blocked runner, in blocks of at most `rows`."""
    evaluate, args = ((harness._localtime_rows, (eps, n, qv)) if variant == "localtime"
                      else (harness._verify_rows, (variant, eps, n, qv)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "BLOCK_POINTS", rows * (n_steps + 1))
        return _as_rows(variant, *harness._run_paths(parts, 1.0, n_steps, seeds, evaluate, args))


@pytest.mark.parametrize("name, variant", _pairs())
@given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=12, unique=True),
       n_steps=st.sampled_from([20, 50]), rows=st.integers(1, 5),
       qv=st.sampled_from(["analytic", "realized"]), split=st.randoms(use_true_random=False))
@settings(max_examples=6, deadline=None)
def test_blocks_equal_single_paths(name, variant, seeds, n_steps, rows, qv, split):
    """One call, one path per call and a shuffled split give the same results."""
    _, parts = build_parts(name)
    eps, n = ScenarioConfig(scenario=name, dt=1.0 / n_steps).bandwidths()
    single = [repr(_one_path(parts, variant, simulate_jump_diffusion(
        parts.spec, 1.0, n_steps, s), eps, n, qv)) for s in seeds]
    together = _blocked(parts, variant, seeds, n_steps, eps, n, qv, rows)
    assert [repr(r) for r in together] == single
    order = split.sample(range(len(seeds)), len(seeds))
    cut = split.randint(0, len(seeds))
    shuffled = {}
    for part in (order[:cut], order[cut:]):
        results = _blocked(parts, variant, [seeds[i] for i in part], n_steps, eps, n, qv, rows)
        shuffled.update(zip(part, results))
    assert [repr(shuffled[i]) for i in range(len(seeds))] == single


@pytest.mark.parametrize("qv", ["analytic", "realized"])
@pytest.mark.parametrize("name, variant", [("tanaka_bm", "tanaka"),
                                           ("peskir_diffusion", "ltc_diffusion"),
                                           ("peskir_diffusion", "surfaces_strong")])
def test_long_rows_in_blocks_equal_single_paths(name, variant, qv):
    """Rows of 10001 points, longer than numpy's 8192-element buffer, reduce
    in a block of 2 or 3 rows exactly as each path does alone."""
    n_steps, seeds = 10000, [5, 2024, 2**32 - 3]
    _, parts = build_parts(name)
    eps, n = ScenarioConfig(scenario=name, dt=1.0 / n_steps).bandwidths()
    single = [repr(_one_path(parts, variant, simulate_jump_diffusion(
        parts.spec, 1.0, n_steps, s), eps, n, qv)) for s in seeds]
    for rows in (2, 3):
        together = _blocked(parts, variant, seeds, n_steps, eps, n, qv, rows)
        assert [repr(r) for r in together] == single


def test_jump_on_a_uniform_grid_point_inside_a_block(monkeypatch):
    """A jump time equal to a uniform grid point replaces it, which shortens
    that path's grid; blocks keep such a path apart and still agree."""
    draw = paths.simulate_compound_poisson
    on_grid = np.linspace(0.0, 1.0, 51)[17]
    seeds = list(range(12))
    # the states of the Y children of the odd path seeds
    odd = {tuple(np.random.SeedSequence(s, spawn_key=(0,)).generate_state(4, np.uint64).tolist())
           for s in seeds[1::2]}

    def patched(rate, law, t_end, seed):
        jumps = draw(rate, law, t_end, seed)
        if rate == 0:
            return jumps
        # Y, the only train, of every odd path seed: on_grid joins its times,
        # and every size of the path is 0.25
        trains = np.split(jumps.times, np.cumsum(jumps.counts)[:-1])
        sizes = np.split(jumps.sizes, np.cumsum(jumps.counts)[:-1])
        for i, child in enumerate(seed):
            if tuple(child.state.tolist()) in odd:
                trains[i] = np.union1d(trains[i], [on_grid])
                sizes[i] = np.full(trains[i].size, 0.25)
        return paths.Jumps(np.array([t.size for t in trains]), np.concatenate(trains),
                           np.concatenate(sizes))

    monkeypatch.setattr(paths, "simulate_compound_poisson", patched)
    _, parts = build_parts("glued_quadratic_jump")
    single = [repr(_one_path(parts, "jump_ltc", simulate_jump_diffusion(
        parts.spec, 1.0, 50, s), 0.3, 7, "analytic")) for s in seeds]
    grids = [simulate_jump_diffusion(parts.spec, 1.0, 50, s).grid for s in seeds]
    assert {(g.n_steps, g.jump_indices.size) for g in grids} >= {(50, 1), (51, 1)}
    for rows in (1, 3, 12):
        blocked = _blocked(parts, "jump_ltc", seeds, 50, 0.3, 7, "analytic", rows)
        assert [repr(r) for r in blocked] == single


@pytest.mark.parametrize("attr, message", [
    # F_xx is NaN above the surface, which some paths of the block reach
    ("d_xx", "surfaces_strong: non-finite half_fxx_qv (nan)"),
    # F_x is NaN above the surface only at the jumps' left limits, so only
    # the jump columns are non-finite
    ("d_x", "surfaces_strong: non-finite avg_fx_dx_jumps (nan)"),
])
def test_nonfinite_term_in_a_block_aborts(attr, message):
    _, parts = build_parts("glued_quadratic_jump")
    seeds, upper = list(range(20)), parts.psf.upper
    alone = [simulate_jump_diffusion(parts.spec, 1.0, 50, s) for s in seeds]
    left_limits = np.concatenate([b.x_pre[b.jump_indices] for b in alone])

    def nan_above(t, a, x, b):
        if attr == "d_xx":
            return np.nan * x
        return np.where(np.isin(x, left_limits), np.nan, upper.d_x(t, a, x, b))

    parts.psf = replace(parts.psf, upper=replace(upper, **{attr: nan_above}))
    with pytest.raises(NumericalAbort, match=re.escape(message)):
        _blocked(parts, "surfaces_strong", seeds, 50, 0.3, 7, "analytic", 8)


def test_block_needs_given_bandwidths():
    """Without given bandwidths only one path couples them to its median step."""
    _, parts = build_parts("glued_quadratic_jump")
    draws = paths.draw_paths(parts.spec, 1.0, 50, range(3))
    block = simulate_jump_diffusion(parts.spec, 1.0, 50, draws, np.arange(1))
    for variant in ("jump_ltc", "surfaces_strong"):
        with pytest.raises(ConfigError, match="given bandwidths"):
            evaluate_variant(parts, variant, block)
    path = simulate_jump_diffusion(parts.spec, 1.0, 50, 0)
    assert repr(evaluate_variant(parts, "jump_ltc", path)) == repr(evaluate_variant(
        parts, "jump_ltc", path, n=ScenarioConfig(scenario="x", dt=0.02).bandwidths()[1]))


def test_block_reports_sum_their_terms():
    """A block's report table holds each path's report in its rows; its
    `terms` sum each term over the rows, which is what reading one report's
    terms gives on a block."""
    _, parts = build_parts("glued_quadratic_jump")
    draws = paths.draw_paths(parts.spec, 1.0, 50, range(40))
    group = np.flatnonzero((draws.steps == 51) & (np.diff(draws.offsets) == 1))
    block = simulate_jump_diffusion(parts.spec, 1.0, 50, draws, group)
    reports = evaluate_variant(parts, "jump_ltc", block, n=7)
    assert len(group) > 2 and reports.table.shape == (len(group), 3 + len(reports.names))
    single = [repr(_one_path(parts, "jump_ltc", simulate_jump_diffusion(
        parts.spec, 1.0, 50, draws, i), None, 7, "analytic")) for i in group]
    rows = _as_rows("jump_ltc", *harness._verify_rows(parts, block, "jump_ltc", None, 7,
                                                      "analytic"))
    assert [repr(r) for r in rows] == single
    assert list(reports.terms) == reports.names == list(rows[0][1])
    for name, total in reports.terms.items():
        assert total == sum(r[1][name] for r in rows)


@pytest.mark.parametrize("variant", ["jump_ltc", "surfaces_strong"])
def test_block_evaluates_each_surface_at_most_seven_times(monkeypatch, variant):
    """The surface is evaluated once per point set of a block: the grid, the
    jumps' two sides, both ends, the local-time weight and its estimator.
    The branches read b from the caller rather than evaluating it again."""
    calls = []

    def counted(b, lipschitz=False):
        def b_counted(t, a):
            calls.append(1)
            return b(t, a)
        return Surface(b_counted, lipschitz)

    monkeypatch.setattr(scenarios, "Surface", counted)
    _, parts = build_parts("glued_quadratic_jump")
    draws = paths.draw_paths(parts.spec, 1.0, 100, range(40))
    group = np.flatnonzero(draws.steps == 101)
    block = simulate_jump_diffusion(parts.spec, 1.0, 100, draws, group)
    assert len(group) > 2 and block.jump_indices.size
    calls.clear()
    evaluate_variant(parts, variant, block, eps=0.3, n=10)
    assert 0 < len(calls) <= 7


@pytest.mark.parametrize("flag, value", [
    ("--dt", "nan"), ("--dt", "inf"), ("--t-end", "nan"), ("--t-end", "inf"),
    ("--bandwidth", "nan"), ("--bandwidth", "inf"), ("--seed", "-1")])
def test_nonfinite_or_negative_input_exit_2(flag, value, capsys):
    """Each would silently change the run or fail with a traceback."""
    assert main(["verify", "--scenario", "tanaka_bm", "--paths", "1", f"{flag}={value}"]) == 2
    assert "config error" in capsys.readouterr().err
