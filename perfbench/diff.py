#!/usr/bin/env python3
"""Compares two sets of benchmark results, one row per workload and metric.

    python3 perfbench/diff.py BASE NEW

BASE and NEW are directories searched recursively for the `result.json`
files that perfbench/run.py writes (under .bench_build/runs/), for example
copies of that directory made at two commits. For each workload and
metric it prints both medians, the change, each side's spread (the
interquartile range over the median) and a verdict against the bound in
BENCHMARK.json:

  regressed   the new median is worse by more than the bound
  improved    the new median is better by more than the base's spread and
              the new run wins at least nine tenths of all base/new pairs
  unchanged   neither, with both spreads within the bound
  unresolved  a spread is wider than the bound, so a change of that size
              cannot be told from noise; unless every new run is better
              than every base run, in which case it reads improved
  -           a per-layer metric, which has no bound

The exit code is 1 if any metric regressed, else 0.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(d):
    """{(workload, trace): {metric: [values]}} from every result under d."""
    out = {}
    for f in sorted(Path(d).rglob("result.json")):
        r = json.loads(f.read_text())
        key = (r["meta"]["workload"], bool(r["meta"]["trace"]))
        for name, m in r["metrics"].items():
            out.setdefault(key, {}).setdefault(name, []).append(m["value"])
    return out


def spread(xs):
    if len(xs) < 2:
        return float("inf")
    q = statistics.quantiles(xs, n=4)
    med = statistics.median(xs)
    return (q[2] - q[0]) / med if med else float("inf")


def verdict(base, new, better, bound):
    mb, mn = statistics.median(base), statistics.median(new)
    sign = 1 if better == "lower" else -1
    worse = sign * (mn - mb) / mb if mb else 0.0
    if bound is None:
        return "-"
    all_better = max(sign * x for x in new) < min(sign * x for x in base)
    if max(spread(base), spread(new)) > bound:
        return "improved" if all_better else "unresolved"
    if worse > bound:
        return "regressed"
    wins = sum(sign * n < sign * b for b in base for n in new)
    if -worse > spread(base) and wins >= 0.9 * len(base) * len(new):
        return "improved"
    return "unchanged"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(sys.argv[1]), load(sys.argv[2])
    rows = [("workload", "trace", "metric", "base", "new", "change", "spread b/n", "bound", "verdict")]
    regressed = False
    for key in sorted(set(base) & set(new)):
        for name in sorted(set(base[key]) & set(new[key])):
            b, n = base[key][name], new[key][name]
            m = metrics.get(name, {})
            bound = m.get("bound")
            mb, mn = statistics.median(b), statistics.median(n)
            v = verdict(b, n, m.get("better", "lower"), bound)
            regressed |= v == "regressed"
            rows.append((key[0], str(int(key[1])), name, f"{mb:.4g}", f"{mn:.4g}",
                         f"{(mn - mb) / mb:+.1%}" if mb else "n/a",
                         f"{spread(b):.1%}/{spread(n):.1%}", "-" if bound is None else f"{bound:.0%}", v))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    missing = sorted(set(base) ^ set(new))
    if missing:
        print(f"only on one side: {missing}")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
