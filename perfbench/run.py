#!/usr/bin/env python3
"""Builds the xfci benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The first run configures and builds
the library and xfci_bench into .bench_build/ (about a minute); later runs
rebuild only what changed.  xfci_bench's output is passed through; its
last line is the JSON result, whose metric names and units are checked
against BENCHMARK.json before it is printed.  The full result, with the
host fingerprint, the counter ledger and (traced runs) the spans, is
written to .bench_build/results/.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no xfci sources under {ROOT / 'src'}")
    BUILD.mkdir(exist_ok=True)
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "xfci_bench",
                  "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return BUILD / "xfci_bench"


def declared(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    exe = build()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (BUILD / "results").mkdir(exist_ok=True)
    out = BUILD / "results" / f"{tag}.json"
    proc = subprocess.run(
        [str(exe), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--work-dir", str(BUILD / "work" / tag), "--out", str(out)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    if proc.returncode not in (0, 1):
        fail(f"xfci_bench exited with status {proc.returncode}")
    try:
        result = json.loads(lines[-1])
        units = {k: v["unit"] for k, v in result["metrics"].items()}
    except (json.JSONDecodeError, KeyError, TypeError, AttributeError):
        fail("xfci_bench printed no result line")
    want = declared(args.trace)
    bad = sorted(k for k in set(units) | set(want)
                 if units.get(k) != want.get(k))
    if bad:
        fail(f"metrics or units differ from BENCHMARK.json: {bad}")
    print(f"ledger: {out.relative_to(ROOT)}")
    print(lines[-1], flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
