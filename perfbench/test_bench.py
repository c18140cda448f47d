#!/usr/bin/env python3
"""Self-test of the benchmark: two traced runs of every workload at one seed.

    python3 perfbench/test_bench.py

Run from the root of a checkout (takes a few minutes).  Per workload:
  * both runs exit 0, report correct results and no failed check; every
    run checks its own spans (xfci_bench's span check: children inside
    their parents, same-track siblings disjoint, per root and track the
    self times summing to at most the root's wall time);
  * every count xfci_bench records as deterministic ("counters") repeats
    exactly; a differing "observation" is printed as a finding.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 1
SEED = 7
RUNS = {}  # workload -> [ledger, ledger]


def traced_run(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", str(SECONDS),
         "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: exit {proc.returncode}\n"
                             f"{proc.stdout}")
    ledger = next(line.split(": ", 1)[1] for line in proc.stdout.splitlines()
                  if line.startswith("ledger: "))
    return json.loads((ROOT / ledger).read_text())


def runs(workload):
    if workload not in RUNS:
        RUNS[workload] = [traced_run(workload), traced_run(workload)]
    return RUNS[workload]


class Benchmark(unittest.TestCase):
    WORKLOADS = [w["name"] for w in
                 json.loads((ROOT / "BENCHMARK.json").read_text())
                 ["workloads"]]

    def test_runs_are_correct(self):
        for wl in self.WORKLOADS:
            for ledger in runs(wl):
                with self.subTest(workload=wl):
                    self.assertTrue(ledger["correct"], ledger["failures"])
                    self.assertEqual(ledger["failed"], 0, ledger["failures"])

    def test_spans_pass_the_span_check(self):
        for wl in self.WORKLOADS:
            for ledger in runs(wl):
                with self.subTest(workload=wl):
                    self.assertTrue(ledger["spans"])
                    self.assertEqual(ledger["span_error"], "")

    def test_counters_repeat_exactly(self):
        for wl in self.WORKLOADS:
            a, b = runs(wl)
            with self.subTest(workload=wl):
                self.assertTrue(a["counters"])
                self.assertEqual(a["counters"], b["counters"])
            for name, value in a["observations"].items():
                if b["observations"].get(name) != value:
                    print(f"finding: {wl} {name} does not repeat: {value} "
                          f"vs {b['observations'].get(name)}")


if __name__ == "__main__":
    unittest.main()
