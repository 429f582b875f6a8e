"""The four workloads: each runs mbrlkit for a fixed window, times its unit
operation, then checks the program's outputs with `checks`.

A workload's unit operation ("op") is one `TrajectoryOptimizerAgent.act`
on the three planning workloads and one ensemble training step
(`TransitionRewardWrapper.update`) on model_fit. Timers and the window's
cut wrap those methods from here; the program's files are not changed.
Inputs depend only on the seed.
"""

from __future__ import annotations

import contextlib
import io
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

import checks
import tracing

ROOT = Path(__file__).resolve().parent.parent
perf_counter = time.perf_counter

SETUP_REPEATS = 3
# a PETS run is cut at the window's close; this many trials never finish first
PETS_TRIALS = 200
# the determinism repeat stops after its first trial or this many decisions
DETERMINISM_ACTS = 60
PLANNER_DECISIONS = 8
MODEL_FIT_ROWS = 4200        # what 20 trials of 200 steps collect
MODEL_FIT_HOLDOUT = 1000
# Deterministic cartpole fit, R^2 pooled over dimensions (0.9945 or more on
# 45 seeds). Per dimension it is no floor: the fit is on raw-scale delta
# targets, so the small-scale x and theta deltas range from 0.35 to 0.98
# while the velocity deltas reach 0.99 or more.
R2_FLOOR = 0.95
# CEM on the true cartpole dynamics lets the cart drift into the x limit on
# rare seeds (true-env-control --seed 406002 returns 189), about one episode
# in 400; a run holds 8-13 episodes.
TRUE_ENV_SHORT_EPISODES = 1

# Smoke-size overrides: same code paths, a planner small enough for a
# one-second window. Used by test_bench.py only.
SMALL_PETS = {"optimizer": {"population": 20, "elite_count": 4,
                            "iterations": 2},
              "agent": {"horizon": 5, "particles": 2},
              "algorithm": {"initial_exploration_steps": 20},
              "overrides": {"trial_length": 10, "num_epochs": 3}}
SMALL_TRUE_ENV = {"overrides": {"trial_length": 30}}


class Cut(Exception):
    """Raised from a timing hook to stop the program between two ops."""


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    workdir: Path
    small: bool = False
    tracer: tracing.Tracer = field(default_factory=tracing.Tracer)


@dataclass
class Outcome:
    attempted: int
    failures: list
    setup_s: list
    op_ms_p90: float
    peak_rss_mb: float
    details: dict
    per_layer: dict | None = None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def derive_config(ctx: Context, name: str, changes: dict) -> Path:
    """configs/<name>.yaml with some keys replaced, written to the workdir."""
    doc = yaml.safe_load((ROOT / "configs" / f"{name}.yaml").read_text())
    for section, values in changes.items():
        doc[section].update(values)
    path = ctx.workdir / f"{name}.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def run_cli(argv):
    """mbrlkit's CLI in this process; None when the act hook cut it."""
    from mbrlkit import cli
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.cli_main(argv)
        except Cut:
            return None


PERCENTILES = {"p25": 25, "p50": 50, "p75": 75, "p90": 90}


def percentiles(ms) -> dict:
    return {k: float(np.percentile(ms, q)) for k, q in PERCENTILES.items()}


def overhead_ratio(untraced, traced):
    if len(untraced) == 0 or len(traced) == 0:
        return 0.0
    return float(np.median(traced) / np.median(untraced) - 1.0)


class ActHook:
    """Wraps `TrajectoryOptimizerAgent.act` and `cem_optimize`.

    Before each decision `should_stop(now)` may end the run by raising Cut;
    each decision's latency, observation, action and CEM result are kept.
    """

    def __init__(self):
        self.should_stop = lambda now: False
        self.reset()

    def reset(self):
        self.first_act_at = None
        self.latencies = []
        self.decisions = []  # (obs, solution (h, A), CEM value)
        self.actions = []
        self._cem = None

    def install(self, patches: tracing.Patches) -> None:
        from mbrlkit import planning
        hook = self

        def make_act(fn):
            def act(agent, obs, rng):
                now = perf_counter()
                if hook.first_act_at is None:
                    hook.first_act_at = now
                if hook.should_stop(now):
                    raise Cut
                t0 = perf_counter()
                action = fn(agent, obs, rng)
                hook.latencies.append(perf_counter() - t0)
                result = hook._cem
                hook.decisions.append((
                    np.array(obs, dtype=np.float64),
                    result.solution.reshape(agent.horizon, agent.act_dim),
                    result.value))
                hook.actions.append(np.array(action))
                return action
            return act

        def make_cem(fn):
            def cem(*args, **kwargs):
                hook._cem = fn(*args, **kwargs)
                return hook._cem
            return cem

        patches.method(planning.TrajectoryOptimizerAgent, "act", make_act)
        patches.function(planning, "cem_optimize", make_cem)


# --- PETS: cartpole_pets, pendulum_pets --------------------------------------

def pets(ctx: Context, config_name: str, overrides: dict,
         learning_check: bool) -> Outcome:
    """`mbrlkit train` on a derived config, cut when the window closes."""
    from mbrlkit import envs, models, planning

    changes = {"overrides": {"num_trials": PETS_TRIALS, **overrides}}
    if ctx.small:
        for section, values in SMALL_PETS.items():
            changes[section] = {**changes.get(section, {}), **values}
    cfg_path = derive_config(ctx, config_name, changes)
    doc = yaml.safe_load(cfg_path.read_text())
    env_name = doc["overrides"]["env"]
    trial_length = doc["overrides"]["trial_length"]
    initial_steps = doc["algorithm"]["initial_exploration_steps"]
    deterministic = doc["dynamics_model"]["deterministic"]
    particles = doc["agent"]["particles"]
    tracer = ctx.tracer

    def train(out):
        return run_cli(["train", "--config", str(cfg_path), "--seed",
                        str(ctx.seed), "--out", str(out)])

    with tracing.Patches() as patches:
        if ctx.trace:
            tracing.instrument(patches, tracer)
            tracer.set_enabled(True)
        hook = ActHook()
        hook.install(patches)

        # Set-up is the time from invoking the command to its first
        # decision: config, model and agent construction, the random
        # exploration and the first retrain.
        setup = []
        hook.should_stop = lambda now: True
        for rep in range(SETUP_REPEATS - 1):
            hook.reset()
            t0 = perf_counter()
            if train(ctx.workdir / f"setup{rep}") is not None:
                raise RuntimeError("mbrlkit train ended before its first act")
            setup.append(hook.first_act_at - t0)

        window = {}

        def window_stop(now):
            if "start" not in window:
                window["start"] = now
                tracer.set_enabled(False)
            elif (ctx.trace and not tracer.enabled
                  and now >= window["start"] + ctx.seconds / 3):
                tracer.set_enabled(True)
                window["traced_from"] = len(hook.latencies)
            if now >= window["start"] + ctx.seconds:
                window["end"] = now
                return True
            return False

        main_dir = ctx.workdir / "main"
        hook.reset()
        hook.should_stop = window_stop
        t0 = perf_counter()
        if train(main_dir) is not None:
            raise RuntimeError("mbrlkit train ended before the window closed")
        setup.append(hook.first_act_at - t0)
        tracer.set_enabled(False)
        rss = peak_rss_mb()
        main = {"actions": hook.actions, "latencies": hook.latencies,
                "decisions": hook.decisions}

        # Determinism: the same command and seed again, stopped after its
        # first trial (or DETERMINISM_ACTS decisions).
        repeat_dir = ctx.workdir / "repeat"
        hook.reset()
        hook.should_stop = lambda now: (
            (repeat_dir / "results.csv").exists()
            or len(hook.actions) >= DETERMINISM_ACTS)
        train(repeat_dir)
        repeat = {"actions": hook.actions, "results": None}
        if (repeat_dir / "results.csv").exists():
            repeat["results"] = (repeat_dir / "results.csv").read_text()
            repeat["buffer"] = (repeat_dir / "buffer.dat").read_text()

    failures = []
    results_text = buffer_text = None
    if (main_dir / "results.csv").exists():
        results_text = (main_dir / "results.csv").read_text()
        buffer_text = (main_dir / "buffer.dat").read_text()
    if results_text is None:
        failures.append("pets: no trial completed inside the window")
        results = []
    else:
        results = checks.parse_results(results_text)
        buf = checks.parse_buffer(buffer_text)
        failures += checks.check_replay(env_name, buf, results,
                                        initial_steps, trial_length)
        if learning_check:
            failures += checks.check_learning(buf, results, initial_steps,
                                              trial_length)
        main["results"], main["buffer"] = results_text, buffer_text
        failures += checks.check_determinism(main, repeat)

        # Planner values, at decisions of the last completed trial: its
        # model is the one in the final checkpoint.
        first = (results[-2]["env_steps"] if len(results) > 1
                 else initial_steps) - initial_steps
        last = results[-1]["env_steps"] - initial_steps
        picks = np.unique(np.linspace(first, last - 1,
                                      PLANNER_DECISIONS).astype(int))
        ckpt = main_dir / "model.ckpt.npz"
        arrays, meta = checks.load_checkpoint(ckpt)
        wrapper = models.load_model(ckpt)
        _, term_fn, reward_fn = envs.make_env(env_name)
        model_env = models.ModelEnv(wrapper, term_fn, reward_fn=reward_fn)
        sampled = []
        for i in picks:
            obs, solution, value = main["decisions"][i]
            noise_off = planning.evaluate_action_sequences(
                model_env, obs, solution[None], particles,
                np.random.default_rng(0), sample=False)[0]
            sampled.append((obs, solution, float(noise_off)))
            if deterministic:
                sampled.append((obs, solution, value))
        failures += checks.check_planner_values(env_name, arrays, meta,
                                                sampled)

    lat = np.asarray(main["latencies"]) * 1e3
    window_s = window["end"] - window["start"]
    out = Outcome(
        attempted=len(lat), failures=failures, setup_s=setup,
        op_ms_p90=float(np.percentile(lat, 90)), peak_rss_mb=rss,
        details={"act_ms": percentiles(lat),
                 "env_steps_per_s": len(lat) / window_s,
                 "decisions": len(lat), "window_s": window_s,
                 "trials_completed": len(results),
                 "trial_returns": [r["episode_return"] for r in results]})
    if ctx.trace:
        cut = window.get("traced_from", len(lat))
        out.per_layer = tracing.per_layer_metrics(tracer,
                                                  tracer.traced_seconds)
        out.per_layer["trace.overhead_ratio"] = (
            overhead_ratio(lat[:cut], lat[cut:]), "1")
    return out


def cartpole_pets(ctx: Context) -> Outcome:
    return pets(ctx, "cartpole", {}, learning_check=not ctx.small)


def pendulum_pets(ctx: Context) -> Outcome:
    # 20-step trials so that several finish, and get checked, in the window;
    # a 200-step pendulum trial takes about a minute of planning.
    return pets(ctx, "pendulum", {"trial_length": 20}, learning_check=False)


# --- model_fit ---------------------------------------------------------------

def wrapper_arrays(wrapper) -> dict:
    model = wrapper.model
    out = {}
    for e, member in enumerate(model.members):
        for i, (w, b) in enumerate(zip(member.weights, member.biases)):
            out[f"member{e}_w{i}"], out[f"member{e}_b{i}"] = w, b
    out.update(min_logvar=model.min_logvar, max_logvar=model.max_logvar,
               norm_mean=wrapper.normalizer.mean,
               norm_std=wrapper.normalizer.std,
               elites=np.asarray(model.elite_indices))
    return out


def buffer_arrays(buffer) -> dict:
    batch = buffer.get_all()
    return {"obs": batch.obs, "action": batch.action,
            "next_obs": batch.next_obs, "reward": batch.reward,
            "done": batch.done,
            "shape": np.array([buffer.size, buffer.capacity])}


def model_fit(ctx: Context) -> Outcome:
    """Repeated full-size retrains of both shipped ensembles on fixed
    random-policy buffers, then held-out scoring and artifact round trips."""
    from mbrlkit import algorithms, config, data, envs, models, planning

    rows, holdout = MODEL_FIT_ROWS, MODEL_FIT_HOLDOUT
    tracer = ctx.tracer

    def setup():
        # the cartpole ensemble is deterministic ReLU, the pendulum one
        # probabilistic SiLU, as configured
        rng = np.random.default_rng([ctx.seed, 0])
        kinds = []
        for name in ("cartpole", "pendulum"):
            cfg = config.to_pets_config(
                config.load_config(ROOT / "configs" / f"{name}.yaml"),
                seed=ctx.seed)
            env, _, _ = envs.make_env(cfg.env)
            spec = env.spec
            policy = planning.RandomAgent(spec.act_dim, spec.action_low,
                                          spec.action_high)
            bufs = []
            for n in (rows, holdout):
                buf = data.ReplayBuffer(n)
                algorithms.rollout_agent_trajectories(
                    env, n, policy, buf, rng, cfg.trial_length)
                bufs.append(buf)
            kinds.append((name, cfg, spec, bufs[0], bufs[1]))
        return kinds

    with tracing.Patches() as patches:
        if ctx.trace:
            tracing.instrument(patches, tracer)
        steps = []
        window = {"armed": False}

        def make_update(fn):
            def update(wrapper, batch, optimizer):
                if window["armed"] and perf_counter() >= window["end"]:
                    raise Cut
                t0 = perf_counter()
                out = fn(wrapper, batch, optimizer)
                steps.append(perf_counter() - t0)
                return out
            return update

        patches.method(models.TransitionRewardWrapper, "update", make_update)

        tracer.set_enabled(ctx.trace)
        setup_s = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            kinds = setup()
            setup_s.append(perf_counter() - t0)
        tracer.set_enabled(False)

        # (kind index, report or None when cut, seconds, step latencies,
        # traced); the window may close inside a fit once each ensemble has
        # been fitted whole
        fits = []
        kept = {}
        start = perf_counter()
        window["end"] = start + ctx.seconds
        r = 0
        while True:
            if (ctx.trace and not tracer.enabled
                    and perf_counter() >= start + ctx.seconds / 3):
                tracer.set_enabled(True)
            window["armed"] = r >= 2
            k = r % 2
            name, cfg, spec, train_buf, _ = kinds[k]
            rng = np.random.default_rng([ctx.seed, 1, r])
            steps.clear()
            t0 = perf_counter()
            wrapper = algorithms.build_wrapper(cfg, spec.obs_dim,
                                               spec.act_dim, rng)
            trainer = models.ModelTrainer(wrapper, lr=cfg.lr,
                                          elite_count=cfg.elite_count)
            try:
                report = algorithms.train_model_on_buffer(
                    wrapper, trainer, train_buf, cfg.validation_ratio,
                    cfg.model_batch_size, rng, cfg.num_epochs, cfg.patience,
                    normalize=cfg.normalize,
                    shuffle_each_epoch=cfg.shuffle_each_epoch)
            except Cut:
                report = None
            fits.append((k, report, perf_counter() - t0, list(steps),
                         tracer.enabled))
            if report is None:
                break
            kept.setdefault(k, wrapper)
            r += 1
            if r >= 2 and perf_counter() >= window["end"]:
                break
        window["armed"] = False
        rss = peak_rss_mb()

        failures = []
        nmse, holdout_r2, io_s = [], {}, 0.0
        for k, wrapper in sorted(kept.items()):
            name, cfg, spec, train_buf, held_buf = kinds[k]
            ckpt = ctx.workdir / f"{name}.ckpt.npz"
            buf_path = ctx.workdir / f"{name}.buffer.dat"
            t0 = perf_counter()
            models.save_model(wrapper, ckpt)
            loaded = models.load_model(ckpt)
            train_buf.save(buf_path)
            reloaded = data.ReplayBuffer.load(buf_path)
            io_s += perf_counter() - t0
            failures += checks.check_same_arrays(
                f"{name} checkpoint", wrapper_arrays(wrapper),
                wrapper_arrays(loaded))
            failures += checks.check_same_arrays(
                f"{name} buffer", buffer_arrays(train_buf),
                buffer_arrays(reloaded))

            # held-out scoring with the benchmark's own forward, which must
            # agree with the program's ensemble-mean prediction
            held = held_buf.get_all()
            arrays, meta = checks.load_checkpoint(ckpt)
            x = np.concatenate([held.obs, held.action], axis=1)
            own = np.mean([checks.member_mean(arrays, meta, e, x)
                           for e in meta["elite_indices"]], axis=0)
            px, target = wrapper.process_batch(held)
            program = wrapper.model.ensemble_mean_predict(px)
            if not np.allclose(own, program, rtol=1e-9, atol=1e-12):
                failures.append(f"{name}: program prediction differs from "
                                f"the independent forward")
            r2 = checks.r2_scores(own, target)
            holdout_r2[name] = r2.tolist()
            nmse.extend((1.0 - r2).tolist())
            if wrapper.model.deterministic:
                pooled = checks.pooled_r2(own, target)
                holdout_r2[f"{name}_pooled"] = pooled
                failures += checks.check_r2(name, pooled, R2_FLOOR)
        for k, report, *_ in fits:
            if report is not None:
                failures += checks.check_loss_falls(kinds[k][0],
                                                    report.train_losses)
        tracer.set_enabled(False)

    # Each ensemble counts equally in the op metrics, however many steps its
    # early stopping gives it: percentiles are per ensemble, then combined by
    # geometric mean; rates are combined as for equal step counts.
    per_kind = {}
    for k in (0, 1):
        lat = np.concatenate([f[3] for f in fits if f[0] == k]) * 1e3
        secs = sum(f[2] for f in fits if f[0] == k)
        per_kind[k] = (lat, len(lat) / secs)
    kind_pcts = {kinds[k][0]: percentiles(v[0]) for k, v in per_kind.items()}
    op_ms_p90 = float(np.sqrt(np.prod(
        [p["p90"] for p in kind_pcts.values()])))
    rate = 2.0 / sum(1.0 / v[1] for v in per_kind.values())
    whole = [f for f in fits if f[1] is not None]
    retrain, rows_per_s = {}, {}
    for k in (0, 1):
        name, cfg = kinds[k][0], kinds[k][1]
        done = [f for f in whole if f[0] == k]
        retrain[name] = float(np.median([f[2] for f in done]))
        rows_per_s[name] = sum(
            cfg.ensemble_size * len(kinds[k][3]) * len(f[1].train_losses)
            for f in done) / sum(f[2] for f in done)
    out = Outcome(
        attempted=sum(len(f[3]) for f in fits), failures=failures,
        setup_s=setup_s, op_ms_p90=op_ms_p90, peak_rss_mb=rss,
        details={"step_ms": kind_pcts, "steps_per_s": rate,
                 "retrain_s": retrain,
                 "train_rows_per_s": rows_per_s,
                 "epochs": [len(f[1].train_losses) for f in whole],
                 "holdout_nmse": float(np.mean(nmse)),
                 "holdout_r2": holdout_r2,
                 "io_roundtrip_s": io_s, "fits": len(fits)})
    if ctx.trace:
        ratios = []
        for k in (0, 1):
            plain = [s for f in fits if f[0] == k and not f[4] for s in f[3]]
            traced = [s for f in fits if f[0] == k and f[4] for s in f[3]]
            if plain and traced:
                ratios.append(overhead_ratio(plain, traced))
        out.per_layer = tracing.per_layer_metrics(tracer, None)
        out.per_layer["trace.overhead_ratio"] = (
            float(np.mean(ratios)) if ratios else 0.0, "1")
    return out


# --- true_env_mpc ------------------------------------------------------------

def true_env_mpc(ctx: Context) -> Outcome:
    """`mbrlkit true-env-control`, one episode per call, until the window
    closes; episode k of seed s uses the command's --seed 1000 * s + k."""
    cfg_path = derive_config(ctx, "cartpole",
                             SMALL_TRUE_ENV if ctx.small else {})
    doc = yaml.safe_load(cfg_path.read_text())
    trial_length = doc["overrides"]["trial_length"]
    tracer = ctx.tracer
    with tracing.Patches() as patches:
        if ctx.trace:
            tracing.instrument(patches, tracer)
        hook = ActHook()
        hook.install(patches)
        setup, latencies, returns = [], [], []
        traced_from = None
        window = {}

        def window_stop(now):
            window.setdefault("start", now)
            if now >= window["start"] + ctx.seconds:
                window["end"] = now
                return True
            return False

        hook.should_stop = window_stop
        k = 0
        while "end" not in window:
            if (ctx.trace and "start" in window and not tracer.enabled
                    and perf_counter() >= window["start"] + ctx.seconds / 3):
                tracer.set_enabled(True)
                traced_from = len(latencies)
            out = ctx.workdir / f"episode{k}"
            hook.reset()
            t0 = perf_counter()
            code = run_cli(["true-env-control", "--config", str(cfg_path),
                            "--episodes", "1", "--seed",
                            str(1000 * ctx.seed + k), "--out", str(out)])
            setup.append(hook.first_act_at - t0)
            latencies.extend(hook.latencies)
            if code is None:
                break  # the window closed inside this episode
            if code != 0:
                raise RuntimeError(f"true-env-control exited with {code}")
            lines = (out / "returns.csv").read_text().splitlines()
            returns.extend(float(line.split(",")[1]) for line in lines[1:])
            shutil.rmtree(out)
            k += 1
        tracer.set_enabled(False)
        rss = peak_rss_mb()

    lat = np.asarray(latencies) * 1e3
    window_s = window["end"] - window["start"]
    out = Outcome(
        attempted=len(lat),
        failures=checks.check_true_env_returns(returns, trial_length,
                                               TRUE_ENV_SHORT_EPISODES),
        setup_s=setup, op_ms_p90=float(np.percentile(lat, 90)),
        peak_rss_mb=rss,
        details={"act_ms": percentiles(lat),
                 "env_steps_per_s": len(lat) / window_s,
                 "episodes": len(returns), "window_s": window_s,
                 "episode_s": window_s * trial_length / len(lat)})
    if ctx.trace:
        cut = traced_from if traced_from is not None else len(lat)
        out.per_layer = tracing.per_layer_metrics(tracer, None)
        out.per_layer["trace.overhead_ratio"] = (
            overhead_ratio(lat[:cut], lat[cut:]), "1")
    return out


WORKLOADS = {
    "cartpole_pets": cartpole_pets,
    "pendulum_pets": pendulum_pets,
    "model_fit": model_fit,
    "true_env_mpc": true_env_mpc,
}
