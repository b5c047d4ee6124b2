"""Reference client building: one domain after another, on the calling thread.

This is the serial loop that make_clients' two threads replaced, statement
for statement. Comparing make_clients' blocks with its blocks byte for byte
checks that no byte depends on which thread drew which domain."""

import numpy as np

from fedswap.clients import FrozenBackbone, _inputs, _labels


def oracle_blocks(specs, seeds, *, feature_dim, task, test_count, train_fraction):
    """(features_train, train_y, features_test, test_y, starts) as make_clients
    draws them for the same arguments."""
    backbone = FrozenBackbone.create(seeds[0], specs[0].input_dim, feature_dim)
    shared_head = np.random.default_rng(seeds[1]).normal(size=feature_dim)
    n, dim = len(specs), feature_dim
    sizes = [max(1, int(round(spec.sample_count * train_fraction))) for spec in specs]
    starts = np.cumsum([0, *sizes])
    features_train, train_y = np.empty((starts[-1], dim)), np.empty(starts[-1])
    features_test, test_y = np.empty((n, test_count, dim)), np.empty((n, test_count))
    for i, (spec, seed) in enumerate(zip(specs, seeds[2:])):
        rng = np.random.default_rng(seed)
        direction = rng.normal(size=dim)
        direction /= np.linalg.norm(direction)
        true_head = shared_head + spec.concept_shift * direction
        shift = np.asarray(spec.shift, dtype=np.float64)
        rows = slice(starts[i], starts[i + 1])
        whole = sizes[i] == spec.sample_count
        full = backbone.features(_inputs(rng, spec.sample_count, shift),
                                 out=features_train[rows] if whole else None)
        train_eps = rng.normal(0.0, spec.label_noise, size=spec.sample_count)
        train_y[rows] = _labels(full, true_head, train_eps, task)[:sizes[i]]
        if not whole:
            features_train[rows] = full[:sizes[i]]
        backbone.features(_inputs(rng, test_count, shift), out=features_test[i])
        test_eps = rng.normal(0.0, spec.label_noise, size=test_count)
        test_y[i] = _labels(features_test[i], true_head, test_eps, task)
    return features_train, train_y, features_test, test_y, starts
