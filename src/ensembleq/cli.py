"""Command line interface.

  ensembleq run --experiment bell-sweep --seed 7 --out results/
  ensembleq run --config cfg.json --param steps=32 --param delta=0.5
  ensembleq verify

``run`` executes one named experiment; exit code 0 when every embedded
tolerance check passes, 1 on a tolerance failure, 2 on a config error (which
also prints a machine-readable error JSON). ``verify`` runs the acceptance
suite and prints one pass/fail line per criterion, followed by the checks of
each failing one (a criterion that raises fails, and the rest still run);
exit code 0 when every criterion passes, 1 when one fails, 2 when
``--criteria`` names an unknown id or ``--seed`` is negative (nothing runs;
error JSON as above).
"""
from __future__ import annotations

import argparse
import json
import sys

from .acceptance import run_all
from .experiments import ConfigError, ExperimentConfig, check_seed, run


def _parse_param(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise ConfigError(f"--param expects key=value, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _config_field(cfg: dict, key: str, kind: type, what: str):
    """The config file's ``key``, None if absent; a value that is not ``kind`` is a ConfigError naming ``key``."""
    value = cfg.get(key)
    if value is not None and not isinstance(value, kind):
        raise ConfigError(f"config field {key!r} must be {what}, got {value!r}")
    return value


def _build_config(args) -> ExperimentConfig:
    params: dict = {}
    experiment = args.experiment
    seed = args.seed
    out_dir = args.out
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError(f"config file must hold a JSON object, got {cfg!r}")
        experiment = experiment or _config_field(cfg, "experiment", str, "a string")
        params.update(_config_field(cfg, "params", dict, "an object") or {})
        if seed is None:
            seed = cfg.get("seed")
        if out_dir is None:
            out_dir = _config_field(cfg, "out", str, "a string")
    for item in args.param or []:
        key, value = _parse_param(item)
        params[key] = value
    if not experiment:
        raise ConfigError("no experiment given (use --experiment or a config file)")
    if args.jobs is not None:
        params.setdefault("jobs", args.jobs)
    seed = check_seed(0 if seed is None else seed)
    return ExperimentConfig(experiment=experiment, params=params, seed=seed, out_dir=out_dir or ".")


def _print_checks(checks) -> None:
    for check in checks:
        mark = "ok  " if check.passed else "FAIL"
        print(f"  [{mark}] {check.summary()}")


def _cmd_run(args) -> int:
    config = _build_config(args)
    report = run(config)
    status = "PASS" if report.passed else "FAIL"
    print(f"{status} {config.experiment} (seed {config.seed}, {report.wall_time:.2f}s)")
    _print_checks(report.checks)
    return 0 if report.passed else 1


def _cmd_verify(args) -> int:
    only = set(args.criteria.split(",")) if args.criteria else None
    results = run_all(seed=args.seed, only=only)
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.cid:>5}  {r.name:<{width}}  ({r.seconds:.2f}s)")
        if not r.passed:
            failed += 1
            _print_checks(r.checks)
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ensembleq",
                                     description="classical-ensemble experiments and checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a named experiment")
    p_run.add_argument("--experiment", help="experiment name")
    p_run.add_argument("--config", help="JSON config file (flags override it)")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--param", action="append", metavar="KEY=VALUE",
                       help="override one parameter (JSON-parsed value)")
    p_run.add_argument("--jobs", type=int, default=None,
                       help="sampling shares: the calling thread runs one, a thread each the rest")
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="run the acceptance suite")
    p_verify.add_argument("--seed", type=int, default=None,
                          help="reseed the Monte Carlo criteria")
    p_verify.add_argument("--criteria", default=None,
                          help="comma-separated subset, e.g. c1,c5")
    p_verify.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:   # raised before any output file or result line
        print(json.dumps({"error": str(exc)}, sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
