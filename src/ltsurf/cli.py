"""Command-line entry point.

Subcommands: simulate, verify, converge, localtime, envelope, scenarios.
COMMANDS lists the keys each command reads, with their types.  Each key is
a flag (`t_end` is `--t-end`) and a key of the flat key=value file that
--config names; command-line flags override the file.  A command with a
scenario also takes `--param k=v` and `param.k = v`.  A flag or file key
that the command does not read is an error.  Exit codes: 0 ok, 2 config
error, 3 scenario / variant incompatibility, 4 numerical abort.
"""

import argparse
import json
import sys

from .errors import ConfigError, IncompatibleScenarioError, NumericalAbort
from .harness import (ScenarioConfig, compare_estimators, convergence_study,
                      emit_bundles, envelope_table, run_scenario)
from .scenarios import list_scenarios


def _parse_kv(text):
    if "=" not in text:
        raise ConfigError(f"expected k=v, got {text!r}")
    key, value = text.split("=", 1)
    return key.strip(), value.strip()


def read_config_file(path):
    """Flat key=value file; blank lines and #-comments ignored.

    Scenario parameters use dotted keys: param.mu = 0.2
    """
    values = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    key, value = _parse_kv(line)
                except ConfigError:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                values[key] = value
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    return values


_SCENARIO = {"scenario": str, "t_end": float, "dt": float, "paths": int, "seed": int}

# command -> (help, {key it reads: type})
COMMANDS = {
    "simulate": ("emit raw simulated path bundles as CSV", {**_SCENARIO, "out": str}),
    "verify": ("run a scenario ensemble and report per-term residuals",
               {**_SCENARIO, "variant": str, "qv": str, "bandwidth": str,
                "workers": int, "out": str}),
    "converge": ("residual convergence study over a dt grid",
                 {"scenario": str, "t_end": float, "paths": int, "seed": int,
                  "variant": str, "qv": str, "workers": int, "dts": str, "out": str}),
    "localtime": ("compare the three local-time estimators at the scenario level",
                  {**_SCENARIO, "qv": str, "bandwidth": str, "workers": int}),
    "envelope": ("Moreau envelope table for a registry surface",
                 {"surface": str, "m": str, "grid_n": int, "out": str}),
}

# Defaults of the keys that ScenarioConfig does not hold.
_DEFAULTS = {"dts": "1e-2,1e-3,1e-4", "surface": "abs", "m": "1,10,100,1000",
             "grid_n": 20}

# Keys that name a ScenarioConfig field differently.
_FIELDS = {"paths": "n_paths", "qv": "qv_mode", "bandwidth": "bandwidth_rule",
           "out": "output"}


def _convert(what, value, kind):
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(f"{what} must be {kind.__name__}, got {value!r}")


def _given(args):
    """The values of the keys args.command reads: the defaults above, then
    the config file, then the command line. A scenario command's parameters
    go under "params"."""
    keys = COMMANDS[args.command][1]
    given = {k: v for k, v in _DEFAULTS.items() if k in keys}
    entries = list(read_config_file(args.config).items()) if args.config else []
    flag_params = map(_parse_kv, getattr(args, "param", None) or [])
    entries += [("param." + k, v) for k, v in flag_params]
    params = {}
    for key, value in entries:
        if key.startswith("param.") and "scenario" in keys:
            name = key[len("param."):]
            params[name] = _convert(f"parameter {name!r}", value, float)
        elif key in keys:
            given[key] = _convert(f"config key {key!r}", value, keys[key])
        else:
            raise ConfigError(f"{args.command} reads no config key {key!r}")
    given.update((k, getattr(args, k)) for k in keys if getattr(args, k) is not None)
    if "scenario" in keys:
        given["params"] = params
    return given


def _scenario_config(given):
    if not given.get("scenario"):
        raise ConfigError("--scenario is required")
    return ScenarioConfig(**{_FIELDS.get(k, k): v for k, v in given.items()})


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ltsurf",
        description="simulate jump diffusions and verify local-time "
                    "change-of-variables formulas pathwise",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (desc, keys) in COMMANDS.items():
        sub = subs.add_parser(name, help=desc, allow_abbrev=False)
        if "scenario" in keys:
            sub.add_argument("--param", action="append", metavar="k=v")
        for key, kind in keys.items():
            sub.add_argument("--" + key.replace("_", "-"), dest=key, type=kind,
                             help=f"default {_DEFAULTS[key]}" if key in _DEFAULTS else None)
        sub.add_argument("--config", help="flat key=value config file")
    subs.add_parser("scenarios", help="list registry scenarios")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except IncompatibleScenarioError as exc:
        print(f"incompatible scenario/variant: {exc}", file=sys.stderr)
        return 3
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 4


def _floats(text, key):
    try:
        return [float(v) for v in text.split(",") if v]
    except ValueError:
        raise ConfigError(f"--{key} must be comma-separated numbers, got {text!r}")


def _dispatch(args):
    if args.command == "scenarios":
        for entry in list_scenarios():
            print(f"{entry['name']}: {entry['formula']} "
                  f"(variant {entry['variant']}) — {entry['description']}")
            print(f"  params: {entry['params']}")
        return 0

    given = _given(args)

    if args.command == "envelope":
        m_values = _floats(given["m"], "m")
        out = given.get("out")
        rows = envelope_table(given["surface"], m_values, grid_n=given["grid_n"],
                              out_dir=out)
        print(f"surface {given['surface']}: {len(rows)} envelope evaluations "
              f"over m = {m_values}")
        if out:
            print(f"wrote {out}/envelope.csv")
        return 0

    dts = _floats(given.pop("dts"), "dts") if "dts" in given else None
    if dts:
        given["dt"] = dts[0]  # converge runs each listed dt and no other
    cfg = _scenario_config(given)

    if args.command == "simulate":
        print(f"wrote {emit_bundles(cfg, cfg.output or '.')}")
        return 0

    if args.command == "verify":
        summary = run_scenario(cfg)
        print(summary.to_json())
        if cfg.output:
            print(f"wrote {cfg.output}/verify.csv and summary.json", file=sys.stderr)
        return 0

    if args.command == "converge":
        table = convergence_study(cfg, dts, out_dir=cfg.output)
        print(json.dumps(table, indent=2, sort_keys=True))
        return 0

    stats = compare_estimators(cfg)  # localtime
    print(json.dumps(stats, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
