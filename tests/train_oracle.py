"""Reference local training: one client at a time, one step at a time.

This is the per-client loop the batched kernel replaced. It calls nothing in
fedswap.clients, so comparing the kernel's uploads with its outputs bit for
bit checks that stacking clients changed no number."""

import numpy as np

from fedswap.errors import InvalidInput, NonFiniteLoss


def _loss_and_gradient(theta, features, labels, task, anchor, mu):
    s = features @ theta[:-1] + theta[-1]
    batch = features.shape[0]
    if task == "regression":
        loss = float(np.mean((s - labels) ** 2))
        residual = s - labels
        grad_w = (2.0 / batch) * (features.T @ residual)
        grad_b = 2.0 * float(np.mean(residual))
    else:
        loss = float(np.mean(np.logaddexp(0.0, -labels * s)))
        g = -labels * np.exp(-np.logaddexp(0.0, labels * s))
        grad_w = (features.T @ g) / batch
        grad_b = float(np.mean(g))
    grad = np.concatenate([grad_w, [grad_b]])
    if mu > 0.0 and anchor is not None:
        diff = theta - anchor
        loss += 0.5 * mu * float(np.dot(diff, diff))
        grad = grad + mu * diff
    return loss, grad


def oracle_local_train(decoder, clients, i, seed, proximal=False):
    """Client i's upload after its configured steps from decoder (D,), drawing
    one batch of indices per step from default_rng(seed); with proximal,
    FedProx's pull toward the starting decoder at the clients' prox_mu. Its
    train split is rows starts[i] to starts[i + 1] of the clients' block."""
    expected = clients.features_train.shape[1] + 1
    if decoder.shape != (expected,):
        raise InvalidInput(f"decoder shape {decoder.shape} does not match ({expected},)")
    cfg = clients.config
    rows = slice(clients.starts[i], clients.starts[i + 1])
    features, labels = clients.features_train[rows], clients.train_y[rows]
    n = labels.shape[0]
    name = clients.domains[i].domain_id
    anchor, mu = (decoder, cfg.prox_mu) if proximal else (None, 0.0)
    rng = np.random.default_rng(seed)
    theta = decoder.copy()
    for step in range(cfg.steps):
        if cfg.batch_size >= n:
            fb, yb = features, labels
        else:
            idx = rng.integers(0, n, size=cfg.batch_size)
            fb, yb = features[idx], labels[idx]
        loss, grad = _loss_and_gradient(theta, fb, yb, clients.task, anchor, mu)
        if not np.isfinite(loss):
            raise NonFiniteLoss(
                f"non-finite loss at step {step} on {name}; reduce the learning rate"
            )
        theta -= cfg.learning_rate * grad
    if not np.all(np.isfinite(theta)):
        raise NonFiniteLoss(f"training diverged on {name}; reduce the learning rate")
    return theta
