#!/usr/bin/env python3
"""Compare two perfbench result files, per workload and per metric.

    python3 perfbench/compare.py BASE.json CHANGE.json

A result file is what `run.py --collect FILE` writes, or the
results/runs.jsonl log that every run appends to in the build directory.
For every metric both files report on a workload, prints both medians
and IQRs over runs and one verdict, judged against BENCHMARK.json:

  better      moved the good way by more than the spread of either side
  worse       moved the bad way by more than the metric's bound
  unresolved  the spread (IQR / median) is wider than the bound, so a
              move within it cannot be told from noise — unless every
              run of one side beats every run of the other
  same        within the bound (per-layer metrics: within the spread)

swaps and depth_ratio are deterministic per seed: on seeds both files
ran they must agree exactly, and any difference is flagged "changed".
Exits 1 when an end-to-end metric is worse or a quality metric changed.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT = {"swaps", "depth_ratio"}


def load_runs(path):
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    return doc["runs"] if isinstance(doc, dict) and "runs" in doc else doc


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def table(runs):
    out = {}
    for rec in runs:
        for name, m in rec["metrics"].items():
            out.setdefault(rec["workload"], {}).setdefault(name, {})[rec["seed"]] = m["value"]
    return out


def rel(a, b):
    if a == b:
        return 0.0
    return (b - a) / abs(a) if a else float("inf")


def verdict(name, spec, old, new):
    """Returns (verdict, change as a share of the base median)."""
    better_higher = spec.get("better") == "higher"
    ov, nv = list(old.values()), list(new.values())
    oq1, omed, oq3 = quartiles(ov)
    nq1, nmed, nq3 = quartiles(nv)
    change = rel(omed, nmed)
    worse_by = -change if better_higher else change
    if name in EXACT:
        common = set(old) & set(new)
        if common and any(old[s] != new[s] for s in common):
            return "changed", change
        if common:
            return "identical", change
    spread = max((oq3 - oq1) / abs(omed) if omed else 0.0,
                 (nq3 - nq1) / abs(nmed) if nmed else 0.0)
    all_better = (min(nv) > max(ov)) if better_higher else (max(nv) < min(ov))
    all_worse = (max(nv) < min(ov)) if better_higher else (min(nv) > max(ov))
    bound = spec.get("bound")
    if bound is None:
        if worse_by > spread:
            return "worse", change
        if -worse_by > spread:
            return "better", change
        return "same", change
    if spread > bound:
        if all_better and len(ov) > 1:
            return "better", change
        if all_worse and len(ov) > 1:
            return "worse", change
        return "unresolved", change
    if worse_by > bound:
        return "worse", change
    if -worse_by > spread:
        return "better", change
    return "same", change


def fmt(values):
    q1, med, q3 = quartiles(list(values))
    return f"{med:12.6g} ±{q3 - q1:<10.3g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--bench", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args()

    bench = json.loads(Path(args.bench).read_text())
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, change = table(load_runs(args.base)), table(load_runs(args.change))
    bad = False
    for workload in sorted(set(base) & set(change)):
        print(f"## {workload}   (median ±IQR over runs; base -> change)")
        for name in specs:
            if name not in base[workload] or name not in change[workload]:
                continue
            old, new = base[workload][name], change[workload][name]
            v, delta = verdict(name, specs[name], old, new)
            bound = specs[name].get("bound")
            bad |= (bound is not None and v == "worse") or v == "changed"
            print(f"   {name:32s} {fmt(old.values())} -> {fmt(new.values())} "
                  f"{100 * delta:+8.2f}%  {v}"
                  + (f" (bound {100 * bound:.0f}%)" if bound is not None else "")
                  + f"  runs {len(old)}/{len(new)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
