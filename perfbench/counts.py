#!/usr/bin/env python3
"""Record the deterministic per-layer counts of the traced runs.

    python3 perfbench/counts.py [--seed 1] [--out perfbench/baseline_counts.json]
        [--records perfbench/records/traced-1.jsonl]

Runs every workload once with --trace 1 and keeps the per-layer metrics
that repeat exactly for a given seed (counts and count ratios, not
times), so a later change can cite an exact count change.  The whole
traced result lines are appended to --records.  Run from the root of a
checkout.
"""

import argparse
import json
import subprocess
import sys

# Per-layer metrics that are pure functions of the seed and the program.
COUNTS = [
    "scop.accesses_per_run",
    "warping.warps",
    "warping.match_attempts",
    "warping.fingerprint_hits",
    "warping.exact_key_builds",
    "warping.key_yield",
    "warping.non_warped_share",
    "sampling.sampled_fraction",
    "sampling.measured_intervals",
    "sampling.bound_ppm",
    "serve.cache.hit_ratio",
    "serve.dedup.coalesced",
    "serve.simulated",
    "serve.family.hits",
    "serve.calibration.hits",
    "serve.calibration.fallbacks",
    "approx_error_ppm",
    "error_rate",
]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default="perfbench/baseline_counts.json")
    parser.add_argument("--records", help="also append the traced result lines here")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    record = {"seed": args.seed, "counts": {}}
    for workload in [w["name"] for w in bench["workloads"]]:
        command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "1"]
        done = subprocess.run(command, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"{workload} exited with {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            raise SystemExit(f"{workload}: the traced run failed its correctness checks")
        if args.records:
            with open(args.records, "a") as f:
                notes = [line[2:] for line in done.stdout.splitlines() if line.startswith("# ")]
                f.write(json.dumps({"workload": workload, "seed": args.seed, "trace": 1, "result": result,
                                    "notes": notes}) + "\n")
        metrics = result["metrics"]
        record["counts"][workload] = {name: metrics[name]["value"] for name in COUNTS}
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
