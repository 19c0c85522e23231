"""Command line interface.

  ensembleq run --experiment bell-sweep --seed 7 --out results/
  ensembleq run --config cfg.json --param steps=32 --param delta=0.5
  ensembleq verify

``run`` executes one named experiment, ``verify`` the acceptance suite (a pass/fail line per criterion, then the
checks of each failing one; a criterion that raises fails, and the rest still run). A config file holds only the
keys of ``_CONFIG_KEYS``; ``--experiment``, ``--seed`` and ``--out`` replace their key, ``--jobs`` sets
``params["jobs"]`` and each ``--param`` is set last. A flag's value is parsed like a ``--param`` value (JSON, else
the string) and read by the package's readers. Exit code 0 when every check or criterion passes, 1 when one fails,
2 when a value is rejected (one error-JSON line on stderr, nothing written or run); a program error ends in a
traceback and exit 1.
"""
from __future__ import annotations

import argparse
import json
import sys

from .acceptance import run_all
from .experiments import ConfigError, ExperimentConfig, check_seed, run
from .validate import _brief

# the keys a config file may hold, with the type of each value; the seed is read by check_seed
_CONFIG_KEYS = {"experiment": str, "params": dict, "seed": object, "out": str}


def _value(raw: str):
    """A flag's text as JSON, else the text itself."""
    try:
        return json.loads(raw)
    except ValueError:   # not JSON, or an int over Python's digit limit
        return raw


def _parse_param(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise ConfigError(f"--param expects key=value, got {_brief(text)}")
    key, raw = text.split("=", 1)
    return key, _value(raw)


def _read_config(path) -> dict:
    """The JSON object in the file at ``path``; an unknown key or a wrongly typed value is a ConfigError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file must hold a JSON object, got {_brief(cfg)}")
    unknown = sorted(cfg.keys() - _CONFIG_KEYS.keys())
    if unknown:
        raise ConfigError(f"unknown config keys {_brief(unknown)}; choose from {list(_CONFIG_KEYS)}")
    for key, value in cfg.items():
        if not isinstance(value, _CONFIG_KEYS[key]):
            what = "an object" if _CONFIG_KEYS[key] is dict else "a string"
            raise ConfigError(f"config field {key!r} must be {what}, got {_brief(value)}")
    return cfg


def _build_config(args) -> ExperimentConfig:
    cfg = _read_config(args.config) if args.config else {}
    for key in ("experiment", "seed", "out"):
        text = getattr(args, key)
        if text is not None:
            cfg[key] = _value(text) if key == "seed" else text
    params = dict(cfg.get("params", {}))
    if args.jobs is not None:
        params["jobs"] = _value(args.jobs)
    params.update(map(_parse_param, args.param or []))
    if "experiment" not in cfg:
        raise ConfigError("no experiment given (use --experiment or a config file)")
    return ExperimentConfig(cfg["experiment"], params, check_seed(cfg.get("seed", 0)), cfg.get("out", "."))


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
    results = run_all(seed=None if args.seed is None else _value(args.seed), only=only)
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
    p_run.add_argument("--config", help="JSON file of experiment, params, seed and out (flags override it)")
    p_run.add_argument("--seed")
    p_run.add_argument("--out", help="output directory")
    p_run.add_argument("--param", action="append", metavar="KEY=VALUE",
                       help="override one parameter (JSON-parsed value)")
    p_run.add_argument("--jobs", help="params.jobs, the sampling shares: the caller runs one, a thread each the rest")
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="run the acceptance suite")
    p_verify.add_argument("--seed", help="reseed the Monte Carlo criteria")
    p_verify.add_argument("--criteria", help="comma-separated subset, e.g. c1,c5")
    p_verify.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:   # raised before any output file or result line
        print(json.dumps({"error": str(exc)}, sort_keys=True), file=sys.stderr)
        return 2

