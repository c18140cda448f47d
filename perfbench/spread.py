#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over seeds 0-9: one untraced
run per workload and seed, then per metric the median and the distance
between the first and third quartiles as a share of the median.

    python3 perfbench/spread.py

Run from the root of a checkout; each run goes through perfbench/run.py
with BENCHMARK.json's workloads and run_seconds.  A spread at or above a
third of the metric's bound is flagged.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(10)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {}
    for wl in (w["name"] for w in spec["workloads"]):
        runs[wl] = []
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", wl, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            last = proc.stdout.rstrip("\n").split("\n")[-1]
            if proc.returncode != 0:
                sys.exit(f"{wl} seed {seed} failed ({proc.returncode})")
            result = json.loads(last)
            runs[wl].append({k: v["value"]
                             for k, v in result["metrics"].items()})
            print(f"{wl} seed {seed}: {last}", file=sys.stderr)

    print(f"{'workload':18} {'metric':20} {'median':>12} {'spread':>8} "
          f"{'bound':>6}")
    flagged = False
    for wl, rows in runs.items():
        for name, bound in bounds.items():
            values = [r[name] for r in rows]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bound / 3 else "  !"
            flagged |= bool(flag)
            print(f"{wl:18} {name:20} {med:12.6g} {spread:8.4f} "
                  f"{bound:6.2f}{flag}")
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
