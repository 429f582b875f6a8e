"""Run bench/run.py over seeds and workloads, one process a run, and append
one JSON record a run to a file that compare.py reads.

    python3 bench/sweep.py --record base.jsonl --seeds 0-9
    python3 bench/sweep.py --record pairs.jsonl --seeds 0-9 \\
        --root /path/to/parent-checkout --root .

With two or more --root checkouts every seed runs on each of them, the
order alternating from seed to seed, and records carry the root as label.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(root: Path, workload: str, seed: int, seconds: float,
            trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited with "
                           f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    record = {"label": str(root), "workload": workload, "seed": seed,
              "trace": trace, "result": json.loads(lines[-1])}
    for line in lines:
        for key in ("env", "details"):
            if line.startswith(f"# {key} "):
                record[key] = json.loads(line[len(key) + 3:])
    return record


def main(argv=None) -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", type=Path, required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", type=Path, action="append")
    args = parser.parse_args(argv)
    roots = [r.resolve() for r in (args.root or [BENCH.parent])]
    for i, seed in enumerate(parse_seeds(args.seeds)):
        for workload in args.workloads.split(","):
            for root in (roots if i % 2 == 0 else roots[::-1]):
                record = run_one(root, workload, seed, args.seconds,
                                 args.trace)
                with open(args.record, "a") as f:
                    f.write(json.dumps(record) + "\n")
                res = record["result"]
                print(f"{root.name} {workload} seed {seed}: correct "
                      f"{res['correct']} attempted {res['attempted']}",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
