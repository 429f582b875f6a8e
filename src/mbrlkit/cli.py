"""Batch command-line front end.

Subcommands: train, eval-dataset, visualize, true-env-control. Outputs are
written under a run directory; exit code 0 on success, 2 for configuration
errors (the message names the offending key), 1 for runtime failures.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

import numpy as np

from . import algorithms, config as config_mod, diagnostics
from .data import ReplayBuffer, ValidationError
from .envs import make_env
from .fileio import replace_on_success
from .models import ModelEnv, load_model
from .planning import create_mpc_agent


def _count(text: str) -> int:
    """An argparse type: an integer >= 1, else exit 2 naming the flag."""
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbrlkit",
        description="Model-based RL toolkit: ensemble dynamics models with "
                    "CEM-based model-predictive control.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the full training loop")
    p_train.add_argument("--config", required=True, type=pathlib.Path)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--out", type=pathlib.Path, default=pathlib.Path("run"))

    p_eval = sub.add_parser("eval-dataset",
                            help="evaluate a trained model on a saved dataset")
    p_eval.add_argument("--model", required=True, type=pathlib.Path)
    p_eval.add_argument("--dataset", required=True, type=pathlib.Path)
    p_eval.add_argument("--out", type=pathlib.Path, default=pathlib.Path("eval"))

    p_vis = sub.add_parser("visualize",
                           help="compare model rollouts against the true env")
    p_vis.add_argument("--config", required=True, type=pathlib.Path)
    p_vis.add_argument("--model", required=True, type=pathlib.Path)
    p_vis.add_argument("--horizon", type=_count, default=30)
    p_vis.add_argument("--samples", type=_count, default=3)
    p_vis.add_argument("--seed", type=int, default=0)
    p_vis.add_argument("--out", type=pathlib.Path, default=pathlib.Path("vis"))

    p_ctrl = sub.add_parser("true-env-control",
                            help="CEM control on the true environment")
    p_ctrl.add_argument("--config", required=True, type=pathlib.Path)
    p_ctrl.add_argument("--horizon", type=_count, default=25)
    p_ctrl.add_argument("--episodes", type=_count, default=1)
    p_ctrl.add_argument("--seed", type=int, default=0)
    p_ctrl.add_argument("--out", type=pathlib.Path, default=pathlib.Path("ctrl"))
    return parser


def _cmd_train(args) -> int:
    cfg = config_mod.load_config(args.config)
    pets_cfg = config_mod.to_pets_config(cfg, seed=args.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    config_mod.save_config_snapshot(cfg, args.out / "config.yaml")
    curve = algorithms.pets_run(pets_cfg, out_dir=args.out)
    print(f"completed {len(curve.rows)} trials; results in {args.out}")
    return 0


def _cmd_eval_dataset(args) -> int:
    wrapper = load_model(args.model)
    buffer = ReplayBuffer.load(args.dataset)
    table = diagnostics.dataset_evaluate(wrapper, buffer)
    table.save(args.out)
    for d in range(len(table.mse)):
        print(f"dimension {d}: mse={table.mse[d]:.6g} r2={table.r2[d]:.6g}")
    return 0


def _cmd_visualize(args) -> int:
    cfg = config_mod.load_config(args.config)
    pets_cfg = config_mod.to_pets_config(cfg, seed=args.seed)
    wrapper = load_model(args.model)
    env, term_fn, reward_fn = make_env(cfg.env_name)
    model_env = ModelEnv(
        wrapper, term_fn,
        reward_fn=None if wrapper.learned_rewards else reward_fn)
    agent = create_mpc_agent(
        model_env, args.horizon, env.spec.act_dim, env.spec.action_low,
        env.spec.action_high, particles=pets_cfg.particles,
        cem_config=pets_cfg.cem)
    rng = np.random.default_rng(args.seed)
    _, true_traj, model_trajs = diagnostics.visualize_rollout(
        model_env, env, agent, args.horizon, args.samples, rng)
    diagnostics.save_rollout_comparison(true_traj, model_trajs, args.out)
    print(f"wrote rollout comparison for {true_traj.shape[1]} dimensions "
          f"to {args.out}")
    return 0


def _cmd_true_env_control(args) -> int:
    cfg = config_mod.load_config(args.config)
    cem = config_mod.to_cem_config(cfg)
    returns = diagnostics.true_env_cem_control(
        cfg.env_name, cem, args.horizon, args.episodes, seed=args.seed,
        trial_length=cfg.overrides.get("trial_length"))
    args.out.mkdir(parents=True, exist_ok=True)
    with replace_on_success(args.out / "returns.csv") as tmp, \
            open(tmp, "w") as f:
        f.write("episode,episode_return\n")
        for i, ret in enumerate(returns):
            f.write(f"{i},{ret!r}\n")
    for i, ret in enumerate(returns):
        print(f"episode {i}: return {ret:.3f}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "eval-dataset": _cmd_eval_dataset,
    "visualize": _cmd_visualize,
    "true-env-control": _cmd_true_env_control,
}


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return _COMMANDS[args.command](args)
    except config_mod.ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, OSError, KeyError, ValueError,
            FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
