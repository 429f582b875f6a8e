"""The bytes of short runs of every command, pinned by SHA-256.

`train` runs on the shipped cartpole config for 3 trials and on the shipped
pendulum config for 2 trials of 40 steps, both on seed 0; `eval-dataset`
and `visualize` run on both runs, and `true-env-control` on cartpole. Every
artifact they write is hashed and compared with `artifact_digests.json`,
beside this file. `seconds` is dropped from `trainer_report.json` first: it
is the wall time of the last retrain.

The digests hold for the numpy version, BLAS build and PyYAML build
recorded with them (the fingerprint). A change that moves these bytes on
purpose re-records them with

    PYTHONPATH=src python tests/test_artifact_digests.py --record

and lists its returns per seed in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import yaml

from mbrlkit.cli import cli_main

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "artifact_digests.json"

# (run name, shipped config, overrides)
RUNS = (("cartpole", "cartpole.yaml", {"num_trials": 3}),
        ("pendulum", "pendulum.yaml", {"num_trials": 2, "trial_length": 40}))


def fingerprint() -> dict:
    """The builds the bytes depend on: numpy and its BLAS for the numbers,
    PyYAML (and whether it has libyaml) for the config.yaml snapshots."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "pyyaml": yaml.__version__,
            "libyaml": yaml.__with_libyaml__}


def run_commands(work: Path) -> None:
    """Every command, in-process, writing under work/<run name>/."""
    for name, shipped, overrides in RUNS:
        doc = yaml.safe_load((ROOT / "configs" / shipped).read_text())
        doc["overrides"].update(overrides)
        cfg = work / f"{name}.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        run = work / name
        commands = [
            ["train", "--config", cfg, "--seed", "0", "--out", run / "train"],
            ["eval-dataset", "--model", run / "train" / "model.ckpt.npz",
             "--dataset", run / "train" / "buffer.dat", "--out", run / "eval"],
            ["visualize", "--config", cfg, "--model",
             run / "train" / "model.ckpt.npz", "--out", run / "visualize"]]
        if name == "cartpole":
            commands.append(["true-env-control", "--config", cfg,
                             "--out", run / "control"])
        for argv in commands:
            code = cli_main([str(a) for a in argv])
            if code != 0:
                raise RuntimeError(f"mbrlkit {argv[0]} ({name}) exited "
                                   f"with {code}")


def artifact_digests(work: Path) -> dict:
    """SHA-256 of every file under work/<run name>/, by relative path."""
    digests = {}
    for name, _, _ in RUNS:
        for path in sorted((work / name).rglob("*")):
            if not path.is_file():
                continue
            data = path.read_bytes()
            if path.name == "trainer_report.json":
                report = json.loads(data)
                del report["seconds"]
                data = json.dumps(report, indent=2).encode()
            key = path.relative_to(work).as_posix()
            digests[key] = hashlib.sha256(data).hexdigest()
    return digests


def test_artifact_digests_match(tmp_path):
    pinned = json.loads(DIGESTS.read_text())
    run_commands(tmp_path)
    got = artifact_digests(tmp_path)
    here = fingerprint()
    if here == pinned["fingerprint"]:
        why = "the numpy/BLAS/PyYAML fingerprint is unchanged"
    else:
        why = (f"the numpy/BLAS/PyYAML fingerprint changed from "
               f"{pinned['fingerprint']} to {here}")
    assert sorted(got) == sorted(pinned["artifacts"]), (
        f"artifact set differs: missing "
        f"{sorted(set(pinned['artifacts']) - set(got))}, new "
        f"{sorted(set(got) - set(pinned['artifacts']))}")
    moved = [k for k in sorted(got) if got[k] != pinned["artifacts"][k]]
    assert not moved, f"bytes moved in {moved}; {why}"


def record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        run_commands(Path(tmp))
        digests = artifact_digests(Path(tmp))
    doc = {"fingerprint": fingerprint(), "artifacts": digests}
    DIGESTS.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {DIGESTS.name} for "
          f"{doc['fingerprint']}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    record()
