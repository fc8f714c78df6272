"""Deep-Q-network rebalancing agent: environment, network, training, evaluation."""

from .agent import (
    EpisodeStats,
    ReplayBatch,
    ReplayBuffer,
    epsilon_greedy,
    evaluate,
    train,
    write_training_log,
)
from .env import (
    EnvState,
    FeatureTable,
    annualized_sharpe,
    apply_action,
    env_reset,
    env_step,
    feature_dim,
    hold_action,
    num_actions,
    state_features,
)
from .network import (
    QNetwork,
    load_qnetwork,
    qnet_forward,
    qnet_init,
    qnet_train_step,
    save_qnetwork,
    td_targets,
)
from .params import Hyperparams

__all__ = [
    "EnvState",
    "EpisodeStats",
    "FeatureTable",
    "Hyperparams",
    "QNetwork",
    "ReplayBatch",
    "ReplayBuffer",
    "annualized_sharpe",
    "apply_action",
    "env_reset",
    "env_step",
    "epsilon_greedy",
    "evaluate",
    "feature_dim",
    "hold_action",
    "load_qnetwork",
    "num_actions",
    "qnet_forward",
    "qnet_init",
    "qnet_train_step",
    "save_qnetwork",
    "state_features",
    "td_targets",
    "train",
    "write_training_log",
]
