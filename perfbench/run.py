#!/usr/bin/env python3
"""Build the wdpt CLI and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]

Run from the root of a checkout. The last line of standard output is the
JSON result of the run; with `--workload all` every workload runs in turn
and the last line merges their results (metric names prefixed by the
workload). Build output goes to standard error. Generated inputs are kept
under perfbench/_work/.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["ingest-200k", "catalog-opt"]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
CLI = os.path.join("_build", "default", "bin", "wdpt_cli.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe", "./bin/wdpt_cli.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if proc.returncode != 0 or not os.path.exists(os.path.join(ROOT, BENCH)):
        fail("build failed")


def run_one(workload, args, capture):
    cmd = [BENCH, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", CLI, "--work", os.path.join("perfbench", "_work")]
    if not capture:
        return subprocess.run(cmd, cwd=ROOT).returncode, None
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if proc.returncode == 0 and lines else None)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    # a stray engine switch would silently measure a different program
    stray = [k for k in os.environ if k.startswith(("WDPT_ENGINE_", "WDPT_DELTA_"))]
    if stray:
        fail("refusing to time with " + " ".join(sorted(stray)) + " set")
    build()
    if args.workload != "all":
        code, _ = run_one(args.workload, args, capture=False)
        sys.exit(code)
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        code, res = run_one(w, args, capture=True)
        if res is None:
            fail(w + " exited with code %d" % code)
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            merged["metrics"][w + "." + name] = m
    print("\nall workloads:")
    for name, m in merged["metrics"].items():
        print("  %-52s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(merged))


if __name__ == "__main__":
    main()
