"""Reference for the local training objective, shared by the client tests'
gradient checks and the acceptance gate. It calls nothing in fedswap, so a
finite-difference check against it is independent of the training kernel."""

import numpy as np


def decoder_loss(theta, features, labels, task, anchor=None, mu=0.0):
    """Mean squared error (regression) or mean logistic loss log(1 + e^(-ys))
    (classification) of the scores s = features . theta[:-1] + theta[-1],
    plus the proximal penalty (mu/2)*|theta - anchor|^2 when mu > 0."""
    scores = features @ theta[:-1] + theta[-1]
    if task == "regression":
        per_row = (scores - labels) ** 2
    else:
        per_row = np.logaddexp(0.0, -labels * scores)
    loss = float(np.mean(per_row))
    if mu > 0.0 and anchor is not None:
        diff = theta - anchor
        loss += 0.5 * mu * float(np.dot(diff, diff))
    return loss
