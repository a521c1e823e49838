"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py --workload copy-fp32 --workload reverse-k4-tower \
        --seeds 10 --seconds 10

Runs ``run.py`` once per workload and seed 1 to ``--seeds``, one after
another, and prints for every end-to-end metric the median over the seeds
and the distance between the first and third quartile as a share of the
median, next to the metric's bound from BENCHMARK.json. Exits 1 if a run
fails or a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from stats import quartile_spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seconds", type=float, required=True)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}

    runs: dict[str, list] = {}
    status = 0
    for workload in args.workload:
        for seed in range(1, args.seeds + 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False,
                                  cwd=ROOT)
            result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None
            runs.setdefault(workload, []).append({"seed": seed, "result": result})
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: run failed ({proc.returncode})", flush=True)
                status = 1
                continue
            line = " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
            print(f"{workload} seed {seed}: {line}", flush=True)

    for workload, results in runs.items():
        ok = [r["result"] for r in results if r["result"]]
        if len(ok) < 2:
            continue
        print(f"\n{workload}: {len(ok)} runs")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in ok]
            spread = quartile_spread(values)
            verdict = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound
                                                         else "OVER BOUND")
            if spread > bound:
                status = 1
            print(f"  {name:22s} median {statistics.median(values):12.6g}  "
                  f"spread {spread:7.4f}  bound {bound:5.3f}  {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
