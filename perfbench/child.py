"""One zitter CLI process, timed from the inside.

    python3 perfbench/child.py --timing FILE [--trace FILE | --probe] -- run --scenario ...

Records the monotonic clock when ``zitter.cli`` is imported and ready, and
around ``cli.main``; the parent holds the spawn and exit times on the same
clock. ``--probe`` stops after the import, to time set-up alone. ``--trace``
wraps the layers' public functions and writes the spans. Timings go to the
given files only, never into the scenario's ``--out`` directory.
"""

import time

T_INTERPRETER = time.monotonic()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--timing", required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace")
    mode.add_argument("--probe", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    sys.path.insert(0, SRC)
    from zitter import cli

    record = {"t_interpreter": T_INTERPRETER, "t_ready": time.monotonic(),
              "zitter_file": os.path.abspath(cli.__file__)}
    if not args.probe:
        tracer = None
        if args.trace:
            sys.path.insert(0, HERE)
            from spans import Tracer

            tracer = Tracer()
            tracer.instrument()
            root = tracer.begin("cli.main")
        t0 = time.monotonic()
        rc = cli.main(argv)
        t1 = time.monotonic()
        if tracer is not None:
            tracer.end(root)
            with open(args.trace, "w", encoding="utf-8") as fh:
                json.dump(tracer.spans, fh)
        import numpy
        import scipy

        record.update(rc=rc, run_s=t1 - t0, numpy=numpy.__version__,
                      scipy=scipy.__version__, blas_threads=_blas_threads())
    with open(args.timing, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return record.get("rc", 0)


if __name__ == "__main__":
    sys.exit(main())
