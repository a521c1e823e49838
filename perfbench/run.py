"""Training benchmark for miniseq.

    python3 perfbench/run.py --workload copy-fp32 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Run it from the root of a checkout: the program is imported from ./src of the
same checkout, never from an installed copy. ``--trace 0`` reports the
end-to-end metrics, measured unwrapped; ``--trace 1`` reports the per-layer
metrics from traced trials and the tracing overhead, and writes a Chrome
trace-event file to .perfbench/trace-<workload>.json. ``--workload all`` runs
each workload in a fresh process, one after another.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (steps) and ``metrics``. Exit status:
0 when every output check passed, 1 when one failed, 2 when the program
cannot be imported, 3 when a function the benchmark times is missing or is
never called.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")


def _import_harness():
    if not os.path.isfile(os.path.join(SRC, "miniseq", "__init__.py")):
        print(f"perfbench: no program source at {SRC}/miniseq; run from a checkout root",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import harness
    import miniseq

    if os.path.dirname(os.path.dirname(os.path.abspath(miniseq.__file__))) != SRC:
        print(f"perfbench: imported miniseq from {miniseq.__file__}, not from {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return harness


def _blas_threads():
    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def host_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads()}


def _print_result(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def run_one(harness, args) -> int:
    import tracing

    workload = harness.WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        if args.trace:
            trace_path = os.path.join(OUT_DIR, f"trace-{workload.name}.json")
            result = harness.trace(workload, args.seed, args.seconds, workdir, trace_path)
        else:
            result = harness.measure(workload, args.seed, args.seconds, workdir)
    except tracing.MissingSeam as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"host {json.dumps(host_facts())}")
    print(f"workload {workload.name} seed {args.seed}: {workload.why}")
    for note in result.notes:
        print(note)
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(f"  {'failed_steps_ratio':40s} {result.failed}/{result.attempted} failed/attempted")
    for error in result.errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    correct = not result.errors
    _print_result(correct, result.attempted, result.failed, result.metrics)
    return 0 if correct else 1


def run_all(harness, args) -> int:
    """Each workload in a fresh process, so peak RSS is its own."""
    status, attempted, failed, metrics = 0, 0, 0, {}
    for name in harness.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        if proc.returncode in (0, 1) and lines:
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{name}:{k}": (m["value"], m["unit"])
                            for k, m in result["metrics"].items()})
    if status in (0, 1):
        _print_result(status == 0, attempted, failed, metrics)
    return status


def main(argv=None) -> int:
    harness = _import_harness()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*harness.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return (run_all if args.workload == "all" else run_one)(harness, args)


if __name__ == "__main__":
    sys.exit(main())
