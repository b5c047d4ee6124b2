"""Reference evaluation: one client at a time, as each round was scored
before one stacked call evaluated all of its clients. It calls nothing in
fedswap.clients, so comparing the stacked evaluate with it bit for bit
checks that stacking changed no number."""

import numpy as np


def oracle_evaluate(decoder, clients, i):
    """(loss, accuracy) of one decoder (D,) on client i's test split, row i of
    the clients' test block; the accuracy is None for regression."""
    s = np.matmul(clients.features_test[i], decoder[:-1, None])[..., 0] + decoder[-1:]
    labels = clients.test_y[i]
    if clients.task == "regression":
        per_row = (s - labels) ** 2
    else:
        per_row = np.logaddexp(0.0, -labels * s)
    loss = float(per_row.sum(axis=-1) / s.shape[-1])
    if clients.task != "classification":
        return loss, None
    hits = np.count_nonzero(np.where(s >= 0.0, 1.0, -1.0) == labels)
    return loss, hits / s.size


def oracle_evaluate_round(deliveries, clients):
    """The per-client loop over a round: each client's (loss, accuracy)
    under its row of deliveries."""
    return [oracle_evaluate(decoder, clients, i) for i, decoder in enumerate(deliveries)]
