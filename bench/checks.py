"""Correctness checks computed apart from the program.

Dynamics, rewards, the artifact parsers and the MLP forward are written here
from the environment and model definitions, not imported from mbrlkit, so a
fault in the program shows as a mismatch. Every check returns a list of
failure messages; an empty list is a pass.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

# --- environments ------------------------------------------------------------

CARTPOLE_X_LIMIT = 2.4
CARTPOLE_THETA_LIMIT = 12.0 * np.pi / 180.0


def cartpole_terminal(next_obs):
    return ((np.abs(next_obs[:, 0]) > CARTPOLE_X_LIMIT)
            | (np.abs(next_obs[:, 2]) > CARTPOLE_THETA_LIMIT))


def cartpole_reward(actions, next_obs):
    return np.where(cartpole_terminal(next_obs), 0.0, 1.0)


def cartpole_step(obs, actions):
    """Euler cart-pole: 1 kg cart, 0.1 kg pole of half-length 0.5 m, 10 N."""
    gravity, m_cart, m_pole, half_len, dt = 9.8, 1.0, 0.1, 0.5, 0.02
    x, x_dot, theta, theta_dot = obs.T
    force = 10.0 * np.clip(actions[:, 0], -1.0, 1.0)
    total = m_cart + m_pole
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    temp = (force + m_pole * half_len * theta_dot ** 2 * sin_t) / total
    theta_acc = (gravity * sin_t - cos_t * temp) / (
        half_len * (4.0 / 3.0 - m_pole * cos_t ** 2 / total))
    x_acc = temp - m_pole * half_len * theta_acc * cos_t / total
    nxt = np.stack([x + dt * x_dot, x_dot + dt * x_acc,
                    theta + dt * theta_dot, theta_dot + dt * theta_acc],
                   axis=1)
    return nxt, cartpole_reward(actions, nxt), cartpole_terminal(nxt)


def wrap_angle(theta):
    return np.pi - np.mod(np.pi - theta, 2.0 * np.pi)


def pendulum_reward(actions, next_obs):
    torque = np.clip(actions[:, 0], -2.0, 2.0)
    theta = wrap_angle(next_obs[:, 0])
    return -(theta ** 2 + 0.1 * next_obs[:, 1] ** 2 + 0.001 * torque ** 2)


def pendulum_step(obs, actions):
    """Euler pendulum, theta = 0 upright: g 10, m 1, l 1, dt 0.05."""
    theta, theta_dot = obs.T
    torque = np.clip(actions[:, 0], -2.0, 2.0)
    acc = 15.0 * np.sin(theta) + 3.0 * torque
    nxt = np.stack([wrap_angle(theta + 0.05 * theta_dot),
                    np.clip(theta_dot + 0.05 * acc, -8.0, 8.0)], axis=1)
    return nxt, pendulum_reward(actions, nxt), np.zeros(len(nxt), dtype=bool)


ENVS = {
    "cartpole_continuous": (cartpole_step, cartpole_reward, cartpole_terminal),
    "pendulum": (pendulum_step, pendulum_reward,
                 lambda next_obs: np.zeros(len(next_obs), dtype=bool)),
}

# --- artifacts ---------------------------------------------------------------


def parse_buffer(text: str):
    """buffer.dat: header `S A size capacity`, then one transition a line:
    obs, action, next_obs, reward, done."""
    lines = text.splitlines()
    s, a, size, _ = (int(v) for v in lines[0].split())
    rows = np.array([[float(v) for v in line.split()] for line in lines[1:]])
    rows = rows.reshape(len(lines) - 1, 2 * s + a + 2)
    if len(rows) != size:
        raise ValueError(f"buffer header says {size} rows, file has "
                         f"{len(rows)}")
    return {"obs": rows[:, :s], "action": rows[:, s:s + a],
            "next_obs": rows[:, s + a:2 * s + a], "reward": rows[:, 2 * s + a],
            "done": rows[:, -1] != 0.0}


def parse_results(text: str):
    return [{"env_steps": int(r["env_steps"]),
             "episode_return": float(r["episode_return"])}
            for r in csv.DictReader(io.StringIO(text))]


def load_checkpoint(path):
    """(arrays, meta) from a model.ckpt.npz, read with numpy only."""
    with np.load(path) as data:
        header = json.loads(bytes(data["__header__"]).decode())
        arrays = {k: data[k] for k in data.files if k != "__header__"}
    return arrays, header["meta"]

# --- model forward ----------------------------------------------------------


def member_mean(arrays, meta, e, x):
    """Mean head of ensemble member e on raw (unnormalized) inputs x."""
    h = (x - arrays["norm_mean"]) / arrays["norm_std"]
    n_layers = len(meta["layer_sizes"]) - 1
    for i in range(n_layers):
        h = h @ arrays[f"member{e}_w{i}"].T + arrays[f"member{e}_b{i}"]
        if i < n_layers - 1:
            h = (np.maximum(h, 0.0) if meta["activation"] == "relu"
                 else h / (1.0 + np.exp(-h)))
    out = meta["obs_dim"] + (1 if meta["learned_rewards"] else 0)
    return h[:, :out]


def member_returns(arrays, meta, env_name, obs, actions):
    """Return of one action sequence (h, A) from obs under each elite member's
    mean prediction, freezing a particle once it terminates."""
    _, reward_fn, terminal_fn = ENVS[env_name]
    returns = {}
    for e in meta["elite_indices"]:
        state = np.asarray(obs, dtype=np.float64)[None]
        done = np.zeros(1, dtype=bool)
        total = 0.0
        for a in actions:
            a = np.asarray(a, dtype=np.float64)[None]
            pred = member_mean(arrays, meta, e, np.concatenate([state, a], 1))
            nxt = state + pred if meta["target_is_delta"] else pred
            nxt = np.where(done[:, None], state, nxt)
            total += float(np.where(done, 0.0, reward_fn(a, nxt))[0])
            done = done | terminal_fn(nxt)
            state = nxt
        returns[e] = total
    return returns

# --- checks -----------------------------------------------------------------


def episodes(n_rows, results, initial_steps, trial_length, done):
    """(start, end) row ranges: random-exploration episodes, then trials."""
    random_eps, start = [], 0
    for i in range(initial_steps):
        if done[i] or i + 1 - start == trial_length or i + 1 == initial_steps:
            random_eps.append((start, i + 1))
            start = i + 1
    trials, prev = [], initial_steps
    for row in results:
        trials.append((prev, row["env_steps"]))
        prev = row["env_steps"]
    if prev != n_rows:
        raise ValueError(f"results.csv covers {prev} env steps, "
                         f"buffer.dat holds {n_rows}")
    return random_eps, trials


def check_replay(env_name, buf, results, initial_steps, trial_length):
    """Every stored transition follows the true dynamics; episodes are
    contiguous; each trial's return equals the recomputed rewards' sum."""
    fails = []
    step_fn = ENVS[env_name][0]
    nxt, reward, done = step_fn(buf["obs"], buf["action"])
    bad = ~np.isclose(nxt, buf["next_obs"], rtol=1e-9, atol=1e-12).all(axis=1)
    if bad.any():
        fails.append(f"replay: {int(bad.sum())} transitions differ from the "
                     f"true dynamics (first at row {int(np.argmax(bad))})")
    if not np.allclose(reward, buf["reward"], rtol=1e-12, atol=1e-12):
        fails.append("replay: stored rewards differ from the reward formula")
    if not np.array_equal(done, buf["done"]):
        fails.append("replay: stored done flags differ from termination")
    try:
        random_eps, trials = episodes(len(reward), results, initial_steps,
                                      trial_length, buf["done"])
    except ValueError as exc:
        return fails + [f"replay: {exc}"]
    # the exploration budget may cut its last episode short
    for i, (start, end) in enumerate(random_eps + trials):
        if not np.array_equal(buf["obs"][start + 1:end],
                              buf["next_obs"][start:end - 1]):
            fails.append(f"replay: rows {start}-{end} are not one episode")
        full = end - start == trial_length or buf["done"][end - 1]
        if end - start > trial_length or (
                not full and i != len(random_eps) - 1):
            fails.append(f"replay: episode at rows {start}-{end} ends early")
    for k, ((start, end), row) in enumerate(zip(trials, results), start=1):
        ret = float(np.sum(reward[start:end]))
        if not np.isclose(ret, row["episode_return"], rtol=1e-9, atol=1e-9):
            fails.append(f"returns: trial {k} logged "
                         f"{row['episode_return']!r}, recomputed {ret!r}")
    return fails


def check_learning(buf, results, initial_steps, trial_length):
    """The better of the last two trials beats the mean random episode."""
    try:
        random_eps, _ = episodes(len(buf["reward"]), results, initial_steps,
                                 trial_length, buf["done"])
    except ValueError as exc:
        return [f"learning: {exc}"]
    random_mean = float(np.mean([buf["reward"][s:e].sum()
                                 for s, e in random_eps]))
    if not results:
        return ["learning: no trial completed"]
    final = max(r["episode_return"] for r in results[-2:])
    if final <= random_mean:
        return [f"learning: best of the final trials {final:.1f}, random "
                f"episodes average {random_mean:.1f}"]
    return []


def check_determinism(main, repeat):
    """The repeated run's results.csv and buffer.dat are a byte-exact prefix of
    the first run's, and its actions are bit-identical."""
    fails = []
    n = len(repeat["actions"])
    if n == 0 or not np.array_equal(np.asarray(main["actions"][:n]),
                                    np.asarray(repeat["actions"])):
        fails.append(f"determinism: the first {n} actions differ")
    if repeat["results"] is not None:
        main_res = main["results"].splitlines()
        rep_res = repeat["results"].splitlines()
        if main_res[:len(rep_res)] != rep_res:
            fails.append("determinism: results.csv differs")
        main_buf = main["buffer"].splitlines()
        rep_buf = repeat["buffer"].splitlines()
        if (main_buf[0].split()[:2] != rep_buf[0].split()[:2]
                or main_buf[1:len(rep_buf)] != rep_buf[1:]):
            fails.append("determinism: buffer.dat differs")
    return fails


def check_planner_values(env_name, arrays, meta, decisions, rel_tol=1e-3):
    """Each planner value lies in the range of per-member returns of the same
    action sequence, recomputed with the forward above. rel_tol admits a
    float32 planning path."""
    fails = []
    for obs, sequence, value in decisions:
        rets = list(member_returns(arrays, meta, env_name, obs,
                                   sequence).values())
        lo, hi = min(rets), max(rets)
        tol = rel_tol * max(1.0, abs(lo), abs(hi))
        if not lo - tol <= value <= hi + tol:
            fails.append(f"planner: value {value!r} outside member range "
                         f"[{lo!r}, {hi!r}]")
    if not decisions:
        fails.append("planner: no decision sampled")
    return fails


def r2_scores(pred, target):
    return 1.0 - ((pred - target) ** 2).mean(axis=0) / target.var(axis=0)


def check_loss_falls(name, train_losses):
    if not train_losses[-1] < train_losses[0]:
        return [f"{name}: training loss did not fall "
                f"({train_losses[0]!r} -> {train_losses[-1]!r})"]
    return []


def pooled_r2(pred, target):
    """1 - total squared error / total target variance, over all dimensions:
    the fit in the scale its loss is taken in."""
    return 1.0 - ((pred - target) ** 2).mean(axis=0).sum() / \
        target.var(axis=0).sum()


def check_r2(name, r2, floor):
    if r2 < floor:
        return [f"{name}: held-out pooled R^2 {r2:.4f} below {floor}"]
    return []


def check_same_arrays(name, a: dict, b: dict):
    """Bit-exact equality of two name -> array dicts."""
    if a.keys() != b.keys():
        return [f"{name}: array names differ"]
    for key in a:
        x, y = np.asarray(a[key]), np.asarray(b[key])
        if x.dtype != y.dtype or x.shape != y.shape or \
                x.tobytes() != y.tobytes():
            return [f"{name}: {key} differs after the round trip"]
    return []


def check_true_env_returns(returns, trial_length, short_allowed):
    """Every episode but at most short_allowed balances for the whole
    trial."""
    bad = [r for r in returns if r != float(trial_length)]
    if len(bad) > short_allowed or not returns:
        return [f"true-env: {len(bad)} of {len(returns)} episodes fell short "
                f"of {trial_length} (returns {bad[:5]})"]
    return []
