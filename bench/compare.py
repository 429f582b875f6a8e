"""Summarise sweep.py records, or compare two result sets.

    python3 bench/compare.py base.jsonl                # one side: spreads
    python3 bench/compare.py base.jsonl head.jsonl     # base vs head
    python3 bench/compare.py pairs.jsonl               # two labels, one file

For each workload and end-to-end metric it prints each side's quartiles
(statistics.quantiles, n=4) and median, the spread (q3 - q1) / median, and
with two sides the ratio head/base of the medians, the seeds on which head
was better, and whether head is worse than base by more than the metric's
bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def load(paths):
    """{label: {workload: {seed: record}}} of the untraced records."""
    sides = defaultdict(lambda: defaultdict(dict))
    for path in paths:
        for line in Path(path).read_text().splitlines():
            rec = json.loads(line)
            if rec["trace"]:
                continue
            label = rec["label"] if len(paths) == 1 else str(path)
            sides[label][rec["workload"]][rec["seed"]] = rec
    return sides


def flat_details(rec):
    """Numeric workload figures of a record's details, dotted names."""
    out = {}

    def walk(prefix, value):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{prefix}.{k}" if prefix else k, v)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[prefix] = float(value)

    walk("", rec.get("details", {}))
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("records", nargs="+", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    sides = load(args.records)
    labels = list(sides)
    if len(labels) > 2:
        print(f"error: {len(labels)} result sets; give one or two",
              file=sys.stderr)
        return 2
    worst = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = [sides[label].get(workload, {}) for label in labels]
        if not any(runs):
            continue
        print(f"\n== {workload} ==")
        for label, recs in zip(labels, runs):
            correct = sum(r["result"]["correct"] for r in recs.values())
            failed = sum(r["result"]["failed"] for r in recs.values())
            attempted = sum(r["result"]["attempted"] for r in recs.values())
            print(f"  {label}: {len(recs)} runs, {correct} correct, "
                  f"{failed}/{attempted} ops failed")
        for m in spec["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            cols, meds = [], []
            for recs in runs:
                vals = [r["result"]["metrics"][name]["value"]
                        for r in recs.values()]
                if not vals:
                    cols.append("-")
                    meds.append(None)
                    continue
                q1, med, q3 = quartiles(vals)
                meds.append(med)
                cols.append(f"[{q1:.4g} {med:.4g} {q3:.4g}] "
                            f"spread {(q3 - q1) / med:.1%}")
            line = f"  {name:12s} " + " | ".join(cols)
            if len(runs) == 2 and None not in meds:
                base, head = meds
                ratio = head / base
                worse = ratio - 1 if lower else 1 - ratio
                common = sorted(set(runs[0]) & set(runs[1]))
                wins = 0
                for s in common:
                    b, h = (runs[i][s]["result"]["metrics"][name]["value"]
                            for i in (0, 1))
                    wins += h < b if lower else h > b
                verdict = "REGRESSION" if worse > m["bound"] else "ok"
                if worse > m["bound"]:
                    worst = 1
                line += (f" | head/base {ratio:.3f} (base {base:.4g} "
                         f"{m['unit']}), head better on {wins}/{len(common)}"
                         f" seeds, bound {m['bound']:.0%}: {verdict}")
            print(line)
        # workload figures outside BENCHMARK.json: no bound, for reading
        keys = sorted({k for recs in runs for r in recs.values()
                       for k in flat_details(r)})
        for key in keys:
            cols, meds = [], []
            for recs in runs:
                vals = [flat_details(r)[key] for r in recs.values()
                        if key in flat_details(r)]
                q1, med, q3 = quartiles(vals) if vals else (0, 0, 0)
                meds.append(med)
                cols.append(f"[{q1:.4g} {med:.4g} {q3:.4g}]")
            ratio = (f" | head/base {meds[1] / meds[0]:.3f}"
                     if len(meds) == 2 and meds[0] else "")
            print(f"  . {key:28s} " + " | ".join(cols) + ratio)
    return worst


if __name__ == "__main__":
    sys.exit(main())
