"""Compare benchmark result sets written by `run.py --out`.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl
    python3 perfbench/compare.py --spread RESULTS.jsonl [...]

The first form gives, for each workload and end-to-end metric, both sides'
median and quartiles, the share of runs paired by seed that the change
wins (ties count for neither), and one verdict:

- improved: the change wins at least 9/10 of the pairs and its median
  beats the parent's by more than the parent's quartile distance;
- unresolved: otherwise, when either side's quartile distance exceeds the
  metric's bound as a share of its median;
- worse: the change's median is worse by more than the bound;
- within bound: anything else.

It also compares each workload's fail ratio (failed / attempted checks).
The second form prints each metric's quartile distance as a share of its
median, which must stay within the metric's bound.  Only runs made with
`--trace 0` are read.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict:
    """workload -> list of untraced run records, in file order."""
    runs = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if not rec["stamp"]["trace"]:
                    runs[rec["stamp"]["workload"]].append(rec)
    return runs


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values_of(runs, name):
    return [r["result"]["metrics"][name]["value"] for r in runs]


def spread(values) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def verdict(parent, change, spec) -> tuple:
    lower = spec["better"] == "lower"
    pv = {r["stamp"]["seed"]: r["result"]["metrics"][spec["name"]]["value"] for r in parent}
    cv = {r["stamp"]["seed"]: r["result"]["metrics"][spec["name"]]["value"] for r in change}
    seeds = sorted(set(pv) & set(cv))
    if seeds:
        pairs = [(pv[s], cv[s]) for s in seeds]
    else:
        pairs = list(zip(pv.values(), cv.values()))
    wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
    share = wins / len(pairs) if pairs else 0.0
    pq, cq = quartiles(list(pv.values())), quartiles(list(cv.values()))
    gain = (pq[1] - cq[1]) if lower else (cq[1] - pq[1])
    bound = spec["bound"]
    if share >= 0.9 and gain > pq[2] - pq[0]:
        word = "improved"
    elif (pq[2] - pq[0]) / pq[1] > bound or (cq[2] - cq[0]) / cq[1] > bound:
        word = "unresolved"
    elif -gain / pq[1] > bound:
        word = "worse"
    else:
        word = "within bound"
    return pq, cq, share, len(pairs), word


def _fmt(q) -> str:
    return "/".join(f"{x:.4g}" for x in q)


def fail_ratio(runs) -> tuple:
    failed = sum(r["result"]["failed"] for r in runs)
    attempted = sum(r["result"]["attempted"] for r in runs)
    return failed, attempted


def compare(parent_path: str, change_path: str, bench: dict) -> int:
    parent, change = load(parent_path), load(change_path)
    worst = 0
    print(f"{'workload':8} {'metric':12} {'parent q1/med/q3':>28} {'change q1/med/q3':>28} {'won':>9}  verdict")
    for workload in sorted(set(parent) & set(change)):
        for spec in bench["end_to_end"]:
            pq, cq, share, n, word = verdict(parent[workload], change[workload], spec)
            print(f"{workload:8} {spec['name']:12} {_fmt(pq):>28} {_fmt(cq):>28} {share:>5.0%} of {n:<2} {word}")
            worst = max(worst, word in ("worse", "unresolved"))
        pf, pa = fail_ratio(parent[workload])
        cf, ca = fail_ratio(change[workload])
        word = "worse" if cf * pa > pf * ca else "improved" if cf * pa < pf * ca else "same"
        print(f"{workload:8} {'fail_ratio':12} {f'{pf}/{pa}':>28} {f'{cf}/{ca}':>28} {'':>9}  {word}")
        worst = max(worst, word == "worse")
    return worst


def spreads(paths, bench: dict) -> int:
    bad = 0
    print(f"{'workload':8} {'metric':12} {'runs':>4} {'median':>10} {'spread':>7} {'bound':>6}")
    for path in paths:
        for workload, runs in sorted(load(path).items()):
            for spec in bench["end_to_end"]:
                vals = values_of(runs, spec["name"])
                s = spread(vals)
                flag = "" if s <= spec["bound"] else "  over bound"
                bad |= s > spec["bound"]
                print(f"{workload:8} {spec['name']:12} {len(vals):>4} {statistics.median(vals):>10.4g} {s:>7.3f} {spec['bound']:>6}{flag}")
            failed, attempted = fail_ratio(runs)
            print(f"{workload:8} {'fail_ratio':12} {len(runs):>4} {f'{failed}/{attempted}':>10}")
    return bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spread", action="store_true", help="report each result set's own spread")
    ap.add_argument("files", nargs="+")
    args = ap.parse_args(argv)
    bench = json.loads(BENCHMARK.read_text())
    if args.spread:
        return spreads(args.files, bench)
    if len(args.files) != 2:
        ap.error("give two result files: parent then change")
    return compare(args.files[0], args.files[1], bench)


if __name__ == "__main__":
    sys.exit(main())
