"""Run one workload of the spectralca benchmark and print its metrics.

    python3 perfbench/run.py --workload train_b32 --seed 0 --seconds 25 --trace 0

Run from the repository root. The program is imported from ``src/`` beside
this directory. ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs the timed loop untraced and then traced and prints the per-layer ones.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every output check passed, and 2 when the program cannot be
imported.
"""

import os

# Pin BLAS to one thread before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Symbols OpenBLAS builds export for the thread count in force.
_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if unreadable.

    Opening the library numpy ships returns the already loaded copy, so the
    value is the one in force, not the one requested.
    """
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SYMBOLS:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> list[str]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    threads = blas_threads()
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return [
        f"env cores: {os.cpu_count()} (usable by this process: {affinity})",
        f"env blas: {blas_name}",
        "env blas threads in force: "
        + (str(threads) if threads is not None else "unknown (could not be read back)"),
        f"env numpy: {np.__version__}",
        f"env python: {platform.python_version()}",
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(SRC), str(ROOT)]
    try:
        import spectralca
        from perfbench import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if SRC not in Path(spectralca.__file__).resolve().parents:
        print(f"perfbench: spectralca imported from {spectralca.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    for line in environment():
        print(line)
    with tempfile.TemporaryDirectory(prefix="perfbench-tmp-", dir=Path.cwd()) as tmp:
        result, units = workloads.run(args.workload, args.seed, args.seconds,
                                      bool(args.trace), Path(tmp))
    print(f"workload {args.workload}: seed {args.seed}, {units} units timed, "
          f"failed_frac {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']})")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
