"""Model-based RL toolkit: probabilistic ensemble dynamics models with
CEM-based model-predictive control, at desk scale."""

from .data import (BootstrapIterator, Normalizer, ReplayBuffer,
                   TransitionBatch, TransitionIterator, ValidationError,
                   train_val_split)
from .models import (GaussianMLPEnsemble, ModelEnv, ModelTrainer,
                     TrainerReport, TransitionRewardWrapper,
                     gaussian_nll_loss, load_model, mse_loss, save_model)
from .planning import (Agent, CEMConfig, RandomAgent,
                       TrajectoryOptimizerAgent, cem_optimize,
                       create_mpc_agent, evaluate_action_sequences)
from .envs import make_env
from .algorithms import (LearningCurve, PETSConfig, pets_run,
                         rollout_agent_trajectories, train_model_on_buffer)

__version__ = "0.1.0"
