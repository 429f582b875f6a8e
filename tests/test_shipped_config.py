"""The shipped cartpole config, as `mbrlkit train` runs it, learns to
balance: the same deterministic gate as the end-to-end PETS acceptance test,
which keeps gating the `PETSConfig()` defaults."""

import time
from pathlib import Path

import numpy as np
import pytest

from mbrlkit.algorithms import pets_run
from mbrlkit.config import load_config, to_pets_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.slow
class TestShippedCartpoleConfig:
    def test_cartpole_learning(self):
        """configs/cartpole.yaml reaches a last-3-of-20-trial mean return
        >= 180 on at least 2 of seeds 0-2."""
        t0 = time.monotonic()
        successes, failures, per_seed = 0, 0, []
        for seed in (0, 1, 2):
            cfg = to_pets_config(load_config(CONFIGS / "cartpole.yaml"),
                                 seed=seed)
            assert cfg.num_trials == 20
            curve = pets_run(cfg)
            last3 = np.mean([r["episode_return"] for r in curve.rows[-3:]])
            per_seed.append((seed, last3))
            if last3 >= 180.0:
                successes += 1
            else:
                failures += 1
            if successes >= 2 or failures >= 2:
                break
        assert successes >= 2, f"per-seed last-3 means: {per_seed}"
        print(f"\n[acceptance] shipped cartpole config: PASS last-3 means "
              f"{per_seed} in {time.monotonic() - t0:.0f}s")
