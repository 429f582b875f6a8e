"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload model_fit --seed 0 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer ones with --trace 1. Two lines
before it, starting with `# env` and `# details`, record the machine and
workload-specific figures; sweep.py collects all three.

Run it from a checkout: it imports mbrlkit from the checkout's src/ and
exits with code 2 when src/ or configs/ is missing.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: on a 2-core machine the default
# two threads make the planner's small matmuls slower, not faster.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKDIR = ROOT / ".bench_work"


def env_info() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "cpu_count": os.cpu_count(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "python": sys.version.split()[0], "src_lines": src_lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mbrlkit" / "__init__.py").is_file() or \
            not (ROOT / "configs").is_dir():
        print(f"error: no mbrlkit checkout at {ROOT} (src/mbrlkit and "
              f"configs/ are needed)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    name = f"{args.workload}-s{args.seed}"
    run_dir = WORKDIR / f"{name}-t{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(seed=args.seed, seconds=args.seconds,
                            trace=bool(args.trace), workdir=run_dir)
    try:
        out = workloads.WORKLOADS[args.workload](ctx)
        if ctx.trace:
            ctx.tracer.save(WORKDIR / f"trace-{name}.npz")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        wanted = spec["per_layer"]
        values = out.per_layer
    else:
        wanted = spec["end_to_end"]
        values = {"setup_s": (statistics.median(out.setup_s), "s"),
                  "peak_rss_mb": (out.peak_rss_mb, "MB"),
                  "op_ms_p90": (out.op_ms_p90, "ms")}
    metrics = {}
    for m in wanted:
        value, unit = values[m["name"]]
        if unit != m["unit"]:
            raise RuntimeError(f"{m['name']}: unit {unit} but BENCHMARK.json "
                               f"says {m['unit']}")
        metrics[m["name"]] = {"value": float(value), "unit": unit}
    result = {"correct": not out.failures, "attempted": out.attempted,
              "failed": 0, "metrics": metrics}
    info = env_info()
    details = dict(out.details, setup_samples_s=out.setup_s,
                   failures=out.failures)
    for failure in out.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print("# env " + json.dumps(info))
    print("# details " + json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
