"""Deep-Q-network rebalancing agent: environment, network, training, evaluation."""
