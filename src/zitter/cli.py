"""Command-line front end: ``zitter run --scenario <name> --config <file> ...``.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import ctypes
import getopt
import json
import os
import sys

import numpy as np

from .errors import ConfigError, NumericalInstabilityError
from .scenarios import SCENARIO_NAMES, run_scenario, validate_config

_USAGE = ("usage: zitter run [--scenario {" + ",".join(SCENARIO_NAMES) + "}]"
          " [--config FILE] [--seed N] --out DIR")


def _parse_args(argv: list[str]) -> dict[str, str] | None:
    """``run``'s options by long name (``--opt value``, ``--opt=value`` or a unique prefix
    such as ``--sc``), or None when ``-h`` or ``--help`` asks for the usage."""
    # gnu_getopt stops at the first positional under POSIXLY_CORRECT: read ``run`` off first
    command = argv[:1] if argv[:1] == ["run"] else []
    try:
        opts, args = getopt.gnu_getopt(argv[len(command):], "h",
                                       ["help", "scenario=", "config=", "seed=", "out="])
    except getopt.GetoptError as exc:
        raise ConfigError(f"{exc}; {_USAGE}") from exc
    options = dict(opts)  # a repeated option keeps its last value
    if "-h" in options or "--help" in options:
        return None
    if command + args != ["run"] or "--out" not in options:
        raise ConfigError(f"expected 'run' and its options, --out among them, got {argv}; {_USAGE}")
    return options


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


def _hold_freed_memory() -> None:
    """Keep freed heap memory in the process on glibc; a no-op elsewhere.

    glibc gives its heap top back to the kernel once 128 KB lies free there,
    so temporary arrays (inverse-FFT scratch, Welch segments) are faulted in
    again on each allocation. Keep 32 MB, and map only arrays over 4 MB:
    setting the trim threshold switches off glibc's dynamic mmap threshold.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    mallopt(-1, 32 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD


def main(argv: list[str] | None = None) -> int:
    _hold_freed_memory()
    try:
        options = _parse_args(sys.argv[1:] if argv is None else argv)
        if options is None:
            print(_USAGE)
            return 0
        raw = _load_config(options.get("--config"))
        if "--scenario" in options:
            raw["scenario"] = options["--scenario"]
        if "--seed" in options:
            try:
                raw["seed"] = int(options["--seed"])
            except ValueError:  # left as text for validate_config to refuse
                raw["seed"] = options["--seed"]
        scenario = validate_config(raw)
        _make_out_dir(options["--out"])
        # overflow is refused with one message; numpy's warnings would precede it
        with np.errstate(all="ignore"):
            run_scenario(scenario, options["--out"])
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
