#!/usr/bin/env python3
"""Run the benchmark over several seeds and collect the results.

    python3 perfbench/series.py --out a.jsonl [--b-checkout DIR --b-out b.jsonl]
        [--workloads classic-polybench,...] [--seeds 1-10] [--trace 0]

Each line of an output file is {"workload", "seed", "trace", "result",
"notes"}, where "result" is the benchmark's JSON result line and "notes"
its context lines (unscaled times, request and thread counts).  With a second checkout
(--b-checkout, which may be this one again for an A/A record) the two sides
alternate: even seeds run A first, odd seeds run B first, so slow drift of
the host falls on both sides alike.  The run length is BENCHMARK.json's
run_seconds.  Run from the root of a checkout.
"""

import argparse
import json
import os
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(checkout, workload, seed, seconds, trace):
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited with {done.returncode}")
    notes = [line[2:] for line in lines if line.startswith("# ")]
    return json.loads(lines[-1]), notes


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--b-checkout")
    parser.add_argument("--b-out")
    parser.add_argument("--workloads")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    sides = [(".", args.out)]
    if args.b_checkout:
        if not args.b_out:
            parser.error("--b-checkout needs --b-out")
        sides.append((args.b_checkout, args.b_out))
    files = [open(path, "a") for _, path in sides]
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            order = list(range(len(sides)))
            if seed % 2:
                order.reverse()
            for side in order:
                result, notes = run_once(sides[side][0], workload, seed, bench["run_seconds"], args.trace)
                record = {"workload": workload, "seed": seed, "trace": args.trace, "result": result,
                          "notes": notes}
                files[side].write(json.dumps(record) + "\n")
                files[side].flush()
                print(f"{'AB'[side]} {workload} seed {seed}: correct={result['correct']}", file=sys.stderr)
    for f in files:
        f.close()


if __name__ == "__main__":
    main()
