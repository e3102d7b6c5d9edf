"""Run one vmpg benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cli-qp-grid --seed 0 --seconds 20 --trace 0

Run from the root of a vmpg checkout: the library is imported from ./src,
never from an installed copy.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run.  ``--workload all`` runs
every workload in turn in this one process.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  A broken
run (reference or output check failed) exits 1 without that line; a checkout
without the library exits 2.
"""

import os

# BLAS threads are pinned before numpy is first imported, so that iteration
# counts and timings do not depend on the thread count of the machine.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def machine():
    """The hardware and software this run measured on."""
    import numpy
    import scipy

    info = {
        "cpu": platform.processor() or platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    info["caches_per_core"] = caches
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["blas"] = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    return info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vmpg" / "__init__.py").is_file():
        print(f"perfbench: no vmpg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import vmpg

    if Path(vmpg.__file__).resolve().parent != SRC / "vmpg":
        print(f"perfbench: imported vmpg from {vmpg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from bench_refs import BenchmarkError
    from bench_workloads import WORKLOADS, run

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    print(json.dumps({"machine": machine()}))
    for name in names:
        try:
            result = run(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        except BenchmarkError as err:
            print(f"perfbench: {name}: benchmark error: {err}", file=sys.stderr)
            return 1
        for note in result.notes:
            print(note)
        for metric, (value, unit) in result.metrics.items():
            print(f"{name} {metric} = {value:.6g} {unit}")
        print(json.dumps({
            "correct": True,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": {m: {"value": v, "unit": u} for m, (v, u) in result.metrics.items()},
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
