#!/usr/bin/env python3
"""Compare two result sets of the benchmark, metric by metric.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl [--json OUT]

Both files come from perfbench/series.py.  For every (workload,
end-to-end metric) pair this applies the rules for claiming a change:

* runs are paired by seed (series.py alternates which side runs first);
* the change *improved* the metric when it wins at least 9 of 10 pairs
  (ties count for neither) and the medians differ by more than the
  parent's own quartile spread;
* it *regressed* when its median is worse than the parent's by more than
  the metric's bound from BENCHMARK.json;
* the pair is *unresolved* when either side's quartile spread, as a share
  of its median, is wider than the bound, unless every run of the change
  reads better than every run of the parent;
* otherwise it is *unchanged*.

It also prints the acceptance check of the benchmark itself: each side's
spread within the bound (setup_s exempt) and the second median no worse
than the first by more than the bound.  Exits 1 if any pair regressed.
"""

import argparse
import json
import statistics
import sys


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            record = json.loads(line)
            runs.setdefault(record["workload"], {})[record["seed"]] = record["result"]
    return runs


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def compare(parent, change, metric):
    name, bound = metric["name"], metric["bound"]
    sign = 1 if metric["better"] == "lower" else -1
    seeds = sorted(set(parent) & set(change))
    a = [parent[s]["metrics"][name]["value"] for s in seeds]
    b = [change[s]["metrics"][name]["value"] for s in seeds]
    qa, qb = summary(a), summary(b)
    spread_a = (qa[2] - qa[0]) / qa[1]
    spread_b = (qb[2] - qb[0]) / qb[1]
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
    losses = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    gap = sign * (qb[1] - qa[1])  # negative: the change is better
    if gap > bound * qa[1]:
        verdict = "regressed"
    elif wins >= 0.9 * len(seeds) and -gap > qa[2] - qa[0]:
        verdict = "improved"
    elif max(spread_a, spread_b) > bound and not all(sign * (y - x) < 0 for x in a for y in b):
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    accepted = (name == "setup_s" or max(spread_a, spread_b) <= bound) and gap <= bound * qa[1]
    return {
        "metric": name,
        "unit": parent[seeds[0]]["metrics"][name]["unit"],
        "pairs": len(seeds),
        "parent": {"q1": qa[0], "median": qa[1], "q3": qa[2], "spread": spread_a},
        "change": {"q1": qb[0], "median": qb[1], "q3": qb[2], "spread": spread_b},
        "change_wins": wins,
        "change_losses": losses,
        "median_ratio": qb[1] / qa[1],
        "bound": bound,
        "verdict": verdict,
        "benchmark_check": "ok" if accepted else "too noisy",
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--json", help="also write the comparison as JSON")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parent, change = load(args.parent), load(args.change)
    rows = []
    for workload in [w for w in parent if w in change]:
        for metric in bench["end_to_end"]:
            rows.append({"workload": workload, **compare(parent[workload], change[workload], metric)})
    header = f"{'workload':<18} {'metric':<16} {'parent median':>14} {'change median':>14} {'ratio':>7} " \
             f"{'spread P/C':>13} {'wins':>6} {'bound':>6}  verdict / check"
    print(header)
    for r in rows:
        p, c = r["parent"], r["change"]
        print(f"{r['workload']:<18} {r['metric']:<16} {p['median']:>14.6g} {c['median']:>14.6g} "
              f"{r['median_ratio']:>7.3f} {p['spread']:>6.3f}/{c['spread']:<6.3f} "
              f"{r['change_wins']:>2}/{r['pairs']:<3} {r['bound']:>6.2f}  {r['verdict']} / {r['benchmark_check']}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"parent": args.parent, "change": args.change, "rows": rows}, f, indent=1)
            f.write("\n")
    sys.exit(1 if any(r["verdict"] == "regressed" for r in rows) else 0)


if __name__ == "__main__":
    main()
