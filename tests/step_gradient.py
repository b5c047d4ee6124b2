"""The gradient local training steps along, read off full-batch local_train
steps at learning rate 1, so that the finite-difference checks of the client
tests and of the acceptance gate test the training kernel itself.

Each probe trains one client whose train split is the given batch, with a
batch size of at least its row count, so every step takes the whole batch."""

import numpy as np

from fedswap.clients import (
    Clients,
    DomainSpec,
    FrozenBackbone,
    LocalConfig,
    local_train,
    local_train_fedprox,
)


def _one_client(features, labels, task, steps, mu=0.0):
    rows, dim = features.shape
    config = LocalConfig(steps=steps, learning_rate=1.0, batch_size=rows, prox_mu=mu)
    domain = DomainSpec("probe", rows, 1, (0.0,), 0.0, 0.0)
    return Clients((domain,), task, config, FrozenBackbone.create(0, 1, dim),
                   features.copy(), labels.copy(), features[None].copy(),
                   labels[None].copy(), np.array([0, rows]))


def step_gradient(theta, features, labels, task):
    """The gradient at theta (D,): theta minus one full-batch step from it."""
    [after] = local_train(theta[None], _one_client(features, labels, task, 1),
                          [np.random.default_rng(0)])
    return theta - after


def proximal_step_gradient(anchor, features, labels, task, mu):
    """FedProx's gradient with penalty (mu/2)*|theta - anchor|^2 away from the
    anchor: returns theta, where one full-batch step from the anchor ends (the
    first step's proximal term is zero), and theta minus the second step of
    local_train_fedprox from the anchor, the gradient at theta."""
    start = anchor[None]
    [theta] = local_train_fedprox(start, _one_client(features, labels, task, 1, mu),
                                  [np.random.default_rng(0)])
    [after] = local_train_fedprox(start, _one_client(features, labels, task, 2, mu),
                                  [np.random.default_rng(0)])
    return theta, theta - after
