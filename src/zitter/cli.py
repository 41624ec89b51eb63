"""Command-line front end: ``zitter run --scenario <name> --config <file> ...``.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .errors import ConfigError, NumericalInstabilityError
from .scenarios import SCENARIO_NAMES, run_scenario, validate_config


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zitter",
        description="Simulate Compton-frequency electron dynamics driven by "
                    "band-limited zero-point radiation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a named scenario end to end")
    run.add_argument("--scenario", choices=SCENARIO_NAMES,
                     help="scenario name (may also come from the config file)")
    run.add_argument("--config", help="JSON config file (a manifest.json also works)")
    run.add_argument("--seed", type=int, help="64-bit master seed")
    run.add_argument("--out", required=True, help="output directory")
    return parser


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # not UTF-8, not JSON, an integer of over 4300 digits, or nested too deeply
        raise ConfigError(f"config file {path!r} is not usable UTF-8 JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must contain a single JSON object")
    return raw


def _make_out_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {path!r} cannot be used as the output directory: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        raw = _load_config(args.config)
        if args.scenario is not None:
            raw["scenario"] = args.scenario
        if args.seed is not None:
            raw["seed"] = args.seed
        scenario = validate_config(raw)
        _make_out_dir(args.out)
        # overflow is refused with one message; numpy's warnings would precede it
        with np.errstate(all="ignore"):
            run_scenario(scenario, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalInstabilityError as exc:
        print(f"numerical failure in scenario {scenario.name!r}: {exc}", file=sys.stderr)
        return 3
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
