"""The gradient local training steps along, read off full-batch local_train
steps at learning rate 1, so that the finite-difference checks of the client
tests and of the acceptance gate test the training kernel itself.

Each probe trains one client whose train split is the given batch, with a
batch size of at least its row count, so every step takes the whole batch."""

import numpy as np

from fedswap.clients import (
    Clients,
    DomainSpec,
    LocalConfig,
    Workspace,
    local_train,
    local_train_fedprox,
)


# the probe's one client trains full-batch, so it reads no PCG64 state words
_WORDS = np.zeros((1, 4), np.uint64)


def _one_client(features, labels, task, steps, mu=0.0):
    rows = len(features)
    config = LocalConfig(steps=steps, learning_rate=1.0, batch_size=rows, prox_mu=mu)
    domain = DomainSpec("probe", rows, 1, (0.0,), 0.0, 0.0)
    return Workspace(Clients((domain,), task, config, features.copy(), labels.copy(),
                             features[None].copy(), labels[None].copy(), np.array([0, rows])))


def step_gradient(theta, features, labels, task):
    """The gradient at theta (D,): theta minus one full-batch step from it."""
    [after] = local_train(theta[None], _one_client(features, labels, task, 1), _WORDS)
    return theta - after


def proximal_step_gradient(anchor, features, labels, task, mu):
    """FedProx's gradient with penalty (mu/2)*|theta - anchor|^2 away from the
    anchor: returns theta, where one full-batch step from the anchor ends (the
    first step's proximal term is zero), and theta minus the second step of
    local_train_fedprox from the anchor, the gradient at theta."""
    start = anchor[None]
    [theta] = local_train_fedprox(start, _one_client(features, labels, task, 1, mu), _WORDS)
    [after] = local_train_fedprox(start, _one_client(features, labels, task, 2, mu), _WORDS)
    return theta, theta - after
