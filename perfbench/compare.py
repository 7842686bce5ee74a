"""Summarise or compare sets of benchmark runs, workload by workload.

Usage (from the repository root):

    python3 perfbench/compare.py RECORDS.jsonl
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds records appended by ``run.py`` (``.perfbench/records.jsonl``
by default; copy it aside between the two commits).  With one file the
report gives each metric's median, quartiles and spread (interquartile
distance over the median) per workload.  Two files are compared only
when every seed measured on both sides generated identical inputs: a
differing input digest means a generator changed, and the comparison is
refused with exit code 1.  For every end-to-end metric the report gives
each side's median and quartiles and checks the new median against the
bound in BENCHMARK.json; exit code 2 marks a regression beyond a bound.
Traced runs give the tracing overhead per workload.
"""

from __future__ import annotations

import json
import statistics
import sys


def load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def digest_conflicts(base, new):
    seen = {}
    for rec in base:
        seen[(rec["workload"], rec["seed"])] = rec["digest"]
    return sorted({(rec["workload"], rec["seed"]) for rec in new
                   if seen.get((rec["workload"], rec["seed"]), rec["digest"]) != rec["digest"]})


def overheads(records):
    out = {}
    for w in sorted({r["workload"] for r in records}):
        plain = [r["metrics"]["tasks_per_s"] for r in records
                 if r["workload"] == w and r["trace"] == 0]
        traced = [r["metrics"]["traced.tasks_per_s"] for r in records
                  if r["workload"] == w and r["trace"] == 1]
        if plain and traced:
            out[w] = statistics.median(plain) / statistics.median(traced) - 1.0
    return out


def summarize(records):
    for w in sorted({r["workload"] for r in records}):
        for trace in (0, 1):
            runs = [r for r in records if r["workload"] == w and r["trace"] == trace]
            if not runs:
                continue
            print(f"{w} trace {trace}: {len(runs)} runs, seeds "
                  f"{sorted({r['seed'] for r in runs})}, failed "
                  f"{sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)}")
            names = runs[0]["metrics"] if trace == 0 else ["traced.tasks_per_s"]
            for name in names:
                q1, med, q3 = quartiles([r["metrics"][name] for r in runs])
                spread = (q3 - q1) / med if med else float("nan")
                print(f"  {name:14s} median {med:.5g}  quartiles [{q1:.5g}, {q3:.5g}]"
                      f"  spread {spread:.1%}")
    for w, ratio in overheads(records).items():
        print(f"tracing overhead {w}: {ratio:+.1%} time per task")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 1:
        summarize(load(argv[0]))
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    conflicts = digest_conflicts(base, new)
    if conflicts:
        for w, seed in conflicts:
            print(f"refused: {w} seed {seed} generated different inputs on the two sides")
        return 1
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    worst = 0
    for w in sorted({r["workload"] for r in base + new}):
        b = [r for r in base if r["workload"] == w and r["trace"] == 0]
        n = [r for r in new if r["workload"] == w and r["trace"] == 0]
        if not b or not n:
            continue
        print(f"{w}: {len(b)} base runs, {len(n)} new runs")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            bq = quartiles([r["metrics"][name] for r in b])
            nq = quartiles([r["metrics"][name] for r in n])
            change = nq[1] / bq[1] - 1.0
            worse = -change if m["better"] == "higher" else change
            base_spread = (bq[2] - bq[0]) / bq[1]
            if worse > bound:
                verdict, worst = "WORSE beyond bound", 2
            elif base_spread > bound:
                verdict = "unresolved (base spread exceeds bound)"
            else:
                verdict = "within bound"
            print(f"  {name:14s} base {bq[1]:.5g} [{bq[0]:.5g}, {bq[2]:.5g}]  "
                  f"new {nq[1]:.5g} [{nq[0]:.5g}, {nq[2]:.5g}]  {change:+.1%} {m['unit']}"
                  f"  bound {bound:.0%}: {verdict}")
    for label, records in (("base", base), ("new", new)):
        for w, ratio in overheads(records).items():
            print(f"tracing overhead ({label}) {w}: {ratio:+.1%} time per task")
    return worst


if __name__ == "__main__":
    sys.exit(main())
