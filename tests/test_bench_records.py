"""The committed benchmark records at the repo root are well formed.

Each `BENCH_*.json` file is the JSON Lines output of `bench/sweep.py
--record`, one run a line, with its `label` rewritten to `parent` or
`change`. A record that does not parse, names a workload the benchmark does
not have, or comes from a failed or incorrect run would make the perf
trajectory it documents unreadable.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
WORKLOADS = {w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_records_are_correct_runs(path):
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    assert lines
    for number, line in enumerate(lines, 1):
        where = f"{path.name}:{number}"
        record = json.loads(line)
        assert record["label"] in ("parent", "change"), where
        assert record["workload"] in WORKLOADS, where
        result = record["result"]
        assert result["correct"] is True, where
        assert result["failed"] == 0, where
        assert result["attempted"] > 0, where
