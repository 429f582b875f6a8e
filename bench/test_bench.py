"""Smoke runs of every workload at small size, and proof that each
correctness check fails on a deliberately corrupted output.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(name, tmp_path, trace=False):
    ctx = workloads.Context(seed=3, seconds=1.0, trace=trace,
                            workdir=tmp_path, small=True)
    return ctx, workloads.WORKLOADS[name](ctx)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_is_correct(name, tmp_path):
    _, out = smoke(name, tmp_path)
    assert out.failures == []
    assert out.attempted > 0
    for value in (out.op_ms_p90, out.peak_rss_mb, min(out.setup_s)):
        assert value > 0


def test_trace_reports_every_per_layer_metric(tmp_path):
    _, out = smoke("cartpole_pets", tmp_path, trace=True)
    assert out.failures == []
    names = {m["name"] for m in SPEC["per_layer"]}
    assert names == set(out.per_layer)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(out.per_layer[n][1] == units[n] for n in names)
    for name in ("nets.forward.calls", "models.model_env_step.calls",
                 "planning.eval.rows", "algorithms.retrain.calls",
                 "data.buffer_save.s"):
        assert out.per_layer[name][0] > 0, name
    assert 0 < out.per_layer["planning.eval.useful_ratio"][0] < 1


def test_outside_a_checkout_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "model_fit", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


# --- each check fails on a corrupted output ----------------------------------

@pytest.fixture(scope="module")
def cartpole_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cartpole")
    ctx, out = smoke("cartpole_pets", tmp)
    assert out.failures == []
    main = tmp / "main"
    cfg = workloads.yaml.safe_load((tmp / "cartpole.yaml").read_text())
    return {"buffer": (main / "buffer.dat").read_text(),
            "results": (main / "results.csv").read_text(),
            "ckpt": checks.load_checkpoint(main / "model.ckpt.npz"),
            "initial": cfg["algorithm"]["initial_exploration_steps"],
            "trial_length": cfg["overrides"]["trial_length"]}


def replay(run, buf, results):
    return checks.check_replay("cartpole_continuous", buf, results,
                               run["initial"], run["trial_length"])


def test_replay_passes_then_fails_on_a_moved_state(cartpole_run):
    buf = checks.parse_buffer(cartpole_run["buffer"])
    results = checks.parse_results(cartpole_run["results"])
    assert replay(cartpole_run, buf, results) == []
    buf["next_obs"][3, 1] += 1e-6
    assert any("true dynamics" in f for f in replay(cartpole_run, buf,
                                                    results))


def test_replay_fails_on_a_wrong_reward_or_done(cartpole_run):
    buf = checks.parse_buffer(cartpole_run["buffer"])
    results = checks.parse_results(cartpole_run["results"])
    buf["reward"][2] = 0.5
    buf["done"][4] = not buf["done"][4]
    fails = replay(cartpole_run, buf, results)
    assert any("rewards" in f for f in fails)
    assert any("done flags" in f for f in fails)


def test_returns_fail_on_a_wrong_logged_return(cartpole_run):
    buf = checks.parse_buffer(cartpole_run["buffer"])
    results = checks.parse_results(cartpole_run["results"])
    results[-1]["episode_return"] += 1.0
    assert any(f.startswith("returns:") for f in replay(cartpole_run, buf,
                                                        results))


def test_learning_fails_when_trials_do_not_beat_random(cartpole_run):
    buf = checks.parse_buffer(cartpole_run["buffer"])
    results = checks.parse_results(cartpole_run["results"])
    for row in results:
        row["episode_return"] = 0.0
    assert checks.check_learning(buf, results, cartpole_run["initial"],
                                 cartpole_run["trial_length"])


def test_determinism_fails_on_changed_bytes_or_actions(cartpole_run):
    main = {"results": cartpole_run["results"],
            "buffer": cartpole_run["buffer"],
            "actions": [np.array([0.25]), np.array([-0.5])]}
    rows = cartpole_run["results"].splitlines()
    same = {"results": "\n".join(rows[:2]) + "\n",
            "buffer": cartpole_run["buffer"],
            "actions": [np.array([0.25])]}
    assert checks.check_determinism(main, same) == []
    assert checks.check_determinism(
        main, dict(same, actions=[np.array([0.25000001])]))
    assert checks.check_determinism(
        main, dict(same, results=same["results"].replace(",", ";", 1)))
    last = same["buffer"].rstrip("\n").rsplit("\n", 1)
    assert checks.check_determinism(
        main, dict(same, buffer=last[0] + "\n" + last[1][::-1]))


def test_planner_value_outside_the_member_range_fails(cartpole_run):
    arrays, meta = cartpole_run["ckpt"]
    buf = checks.parse_buffer(cartpole_run["buffer"])
    obs = buf["obs"][-1]
    seq = np.random.default_rng(0).uniform(-1, 1, size=(5, 1))
    rets = list(checks.member_returns(arrays, meta, "cartpole_continuous",
                                      obs, seq).values())
    inside = [(obs, seq, float(np.mean(rets)))]
    outside = [(obs, seq, max(rets) + 0.5)]
    assert checks.check_planner_values("cartpole_continuous", arrays, meta,
                                       inside) == []
    assert checks.check_planner_values("cartpole_continuous", arrays, meta,
                                       outside)


def test_model_fit_checks_fail_on_bad_fits_and_round_trips():
    target = np.random.default_rng(0).standard_normal((50, 2))
    assert checks.check_r2("fit", checks.pooled_r2(target * 1.01, target),
                           0.95) == []
    assert checks.check_r2("fit", checks.pooled_r2(target * 0.5, target),
                           0.95)
    assert checks.check_loss_falls("fit", [1.0, 0.5]) == []
    assert checks.check_loss_falls("fit", [1.0, 1.5])
    a = {"w": np.arange(4.0)}
    b = {"w": np.arange(4.0)}
    assert checks.check_same_arrays("ckpt", a, b) == []
    b["w"][2] = np.nextafter(b["w"][2], 3.0)
    assert checks.check_same_arrays("ckpt", a, b)


def test_true_env_returns_must_be_full_length():
    assert checks.check_true_env_returns([200.0, 200.0], 200, 0) == []
    assert checks.check_true_env_returns([200.0, 199.0], 200, 0)
    assert checks.check_true_env_returns([200.0, 189.0], 200, 1) == []
    assert checks.check_true_env_returns([189.0, 200.0, 150.0], 200, 1)
    assert checks.check_true_env_returns([], 200, 1)
