"""Command-line entry point.

Subcommands: simulate, verify, converge, localtime, envelope, scenarios.
A flat key=value config file may supply any flag's value; command-line
flags override the file.  Exit codes: 0 ok, 2 config error, 3 scenario /
variant incompatibility, 4 numerical abort.
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


_CONFIG_KEYS = {
    "scenario": str, "t_end": float, "dt": float, "paths": int, "seed": int,
    "variant": str, "qv": str, "bandwidth": str, "out": str, "workers": int,
    "surface": str, "level": float,
}

# envelope flags with their defaults, applied after the config file
_ENVELOPE_KEYS = {"surface": (str, "abs"), "m": (str, "1,10,100,1000"),
                  "grid_n": (int, 20), "out": (str, None)}


def _convert(what, value, kind):
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(f"{what} must be {kind.__name__}, got {value!r}")


def _merge_config(args):
    """File values fill in anything the command line left at its default."""
    file_vals = read_config_file(args.config) if args.config else {}
    params = {}
    for key, value in file_vals.items():
        if key.startswith("param."):
            name = key[len("param."):]
            params[name] = _convert(f"parameter {name!r}", value, float)
        elif key in _CONFIG_KEYS:
            if getattr(args, key, None) is None:
                setattr(args, key, _convert(f"config key {key!r}", value,
                                            _CONFIG_KEYS[key]))
        else:
            raise ConfigError(f"unknown config key: {key!r}")
    for item in args.param or []:
        key, value = _parse_kv(item)
        params[key] = _convert(f"parameter {key!r}", value, float)
    args.params = params
    return args


def _merge_envelope_config(args):
    """As _merge_config for the envelope flags; other file keys are ignored."""
    file_vals = read_config_file(args.config) if args.config else {}
    for key, (kind, default) in _ENVELOPE_KEYS.items():
        if getattr(args, key) is None:
            value = file_vals.get(key)
            setattr(args, key, default if value is None else
                    _convert(f"config key {key!r}", value, kind))
    return args


def _bandwidth_rule(text):
    if text is None or text == "coupled":
        return "coupled"
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"--bandwidth must be 'coupled' or a number, got {text!r}")


def _scenario_config(args, need_scenario=True):
    if need_scenario and not args.scenario:
        raise ConfigError("--scenario is required")
    return ScenarioConfig(
        scenario=args.scenario,
        params=args.params,
        t_end=args.t_end if args.t_end is not None else 1.0,
        dt=args.dt if args.dt is not None else 1e-3,
        n_paths=args.paths if args.paths is not None else 1,
        seed=args.seed if args.seed is not None else 0,
        variant=args.variant,
        bandwidth_rule=_bandwidth_rule(args.bandwidth),
        qv_mode=args.qv if args.qv is not None else "analytic",
        output=args.out,
        workers=args.workers if args.workers is not None else 1,
    )


def _add_common(sub):
    sub.add_argument("--scenario")
    sub.add_argument("--param", action="append", metavar="k=v")
    sub.add_argument("--t-end", dest="t_end", type=float)
    sub.add_argument("--dt", type=float)
    sub.add_argument("--paths", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--variant")
    sub.add_argument("--qv", choices=["analytic", "realized"])
    sub.add_argument("--bandwidth")
    sub.add_argument("--out")
    sub.add_argument("--workers", type=int)
    sub.add_argument("--config", help="flat key=value config file")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ltsurf",
        description="simulate jump diffusions and verify local-time "
                    "change-of-variables formulas pathwise",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for name, desc in [
        ("simulate", "emit raw simulated path bundles as CSV"),
        ("verify", "run a scenario ensemble and report per-term residuals"),
        ("converge", "residual convergence study over a dt grid"),
        ("localtime", "compare the three local-time estimators at the scenario level"),
    ]:
        sub = subs.add_parser(name, help=desc)
        _add_common(sub)
        if name == "converge":
            sub.add_argument("--dts", default="1e-2,1e-3,1e-4",
                             help="comma-separated decreasing step sizes")

    env = subs.add_parser("envelope", help="Moreau envelope table for a registry surface")
    env.add_argument("--surface", help="registry surface (default abs)")
    env.add_argument("--m", help="comma-separated penalty parameters "
                                 "(default 1,10,100,1000)")
    env.add_argument("--grid-n", dest="grid_n", type=int,
                     help="grid points per axis (default 20)")
    env.add_argument("--out")
    env.add_argument("--config", help="flat key=value config file")

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


def _dispatch(args):
    if args.command == "scenarios":
        for entry in list_scenarios():
            print(f"{entry['name']}: {entry['formula']} "
                  f"(variant {entry['variant']}) — {entry['description']}")
            print(f"  params: {entry['params']}")
        return 0

    if args.command == "envelope":
        args = _merge_envelope_config(args)
        try:
            m_values = [float(v) for v in str(args.m).split(",") if v]
        except ValueError:
            raise ConfigError(f"--m must be comma-separated numbers, got {args.m!r}")
        if not m_values:
            raise ConfigError("--m must list at least one penalty")
        rows = envelope_table(args.surface, m_values, grid_n=args.grid_n,
                              out_dir=args.out)
        print(f"surface {args.surface}: {len(rows)} envelope evaluations "
              f"over m = {m_values}")
        if args.out:
            print(f"wrote {args.out}/envelope.csv")
        return 0

    args = _merge_config(args)

    if args.command == "simulate":
        cfg = _scenario_config(args)
        out = args.out or "."
        path = emit_bundles(cfg, out)
        print(f"wrote {path}")
        return 0

    if args.command == "verify":
        cfg = _scenario_config(args)
        summary = run_scenario(cfg)
        print(summary.to_json())
        if cfg.output:
            print(f"wrote {cfg.output}/verify.csv and summary.json", file=sys.stderr)
        return 0

    if args.command == "converge":
        cfg = _scenario_config(args)
        try:
            dts = [float(v) for v in args.dts.split(",") if v]
        except ValueError:
            raise ConfigError(f"--dts must be comma-separated numbers, got {args.dts!r}")
        table = convergence_study(cfg, dts, out_dir=args.out)
        print(json.dumps(table, indent=2, sort_keys=True))
        return 0

    if args.command == "localtime":
        cfg = _scenario_config(args)
        stats = compare_estimators(cfg)
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0

    raise ConfigError(f"unknown command: {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
