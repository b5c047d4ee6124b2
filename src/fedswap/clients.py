"""Simulated cross-domain clients.

Each client has the backbone features and labels of a synthetic domain
dataset; all of them share the frozen backbone (a fixed random affine map
plus tanh), the task and the local training settings. One Clients value holds
the whole population and never changes once built: make_clients draws every
client's data into one read-only block per split. A decoder is a flat linear
map over the backbone features; the round loop owns every client's, as the
rows of one (n, D) array. Local training is plain mini-batch gradient descent
on a convex loss, optionally with a proximal pull toward the decoder the
round starts from: under fedprox, the latest global decoder. One call trains
a whole round, stepping clients with equal batch shapes together, and one
call evaluates it, bit for bit as if each client trained and was scored
alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigInvalid, InvalidInput, NonFiniteLoss

__all__ = [
    "DomainSpec",
    "FrozenBackbone",
    "LocalConfig",
    "Clients",
    "make_clients",
    "decoder_loss_and_gradient",
    "local_train",
    "local_train_fedprox",
    "evaluate",
]

TASKS = ("regression", "classification")

# standard deviation of the backbone's feature biases
_BACKBONE_BIAS_SCALE = 0.2
# cap on local steps per round, checked before a round's (steps, clients,
# batch) index block is built; every workload and test takes at most 4000
MAX_STEPS = 10**5


@dataclass(frozen=True)
class DomainSpec:
    """A synthetic domain: input mean shift, concept perturbation, label noise."""

    domain_id: str
    sample_count: int
    input_dim: int
    shift: tuple[float, ...]
    concept_shift: float
    label_noise: float

    def __post_init__(self):
        object.__setattr__(self, "shift", tuple(float(v) for v in self.shift))
        if self.sample_count < 1:
            raise ConfigInvalid(f"{self.domain_id}: sample_count must be >= 1")
        if self.input_dim < 1:
            raise ConfigInvalid(f"{self.domain_id}: input_dim must be >= 1")
        if len(self.shift) != self.input_dim:
            raise ConfigInvalid(
                f"{self.domain_id}: shift has length {len(self.shift)}, "
                f"expected {self.input_dim}"
            )
        if not np.all(np.isfinite(self.shift + (self.concept_shift, self.label_noise))):
            raise ConfigInvalid(
                f"{self.domain_id}: shift, concept_shift and label_noise must be finite"
            )
        if self.concept_shift < 0 or self.label_noise < 0:
            raise ConfigInvalid(f"{self.domain_id}: shift magnitudes must be >= 0")


@dataclass(frozen=True, eq=False)
class FrozenBackbone:
    """Shared feature extractor: tanh(x @ W + b), never updated by training."""

    input_dim: int
    feature_dim: int
    weight: np.ndarray
    bias: np.ndarray

    @classmethod
    def create(cls, seed: int, input_dim: int, feature_dim: int) -> "FrozenBackbone":
        rng = np.random.default_rng(seed)
        weight = rng.normal(0.0, 1.0 / np.sqrt(input_dim), size=(input_dim, feature_dim))
        bias = rng.normal(0.0, _BACKBONE_BIAS_SCALE, size=feature_dim)
        weight.setflags(write=False)
        bias.setflags(write=False)
        return cls(input_dim=input_dim, feature_dim=feature_dim, weight=weight, bias=bias)

    def features(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """tanh(x @ W + b), written into out when it is given."""
        out = np.matmul(x, self.weight, out=out)  # biased and squashed in place
        return np.tanh(np.add(out, self.bias, out=out), out=out)

    @property
    def decoder_dim(self) -> int:
        """Size of the flat decoder: a linear head over the features, then one bias."""
        return self.feature_dim + 1


@dataclass(frozen=True)
class LocalConfig:
    """Per-round local training settings."""

    steps: int = 10
    learning_rate: float = 0.05
    batch_size: int = 32
    prox_mu: float = 0.01

    def __post_init__(self):
        if not 0 <= self.steps <= MAX_STEPS:
            raise ConfigInvalid(f"steps must be in [0, {MAX_STEPS}], got {self.steps}")
        if not np.isfinite(self.learning_rate) or not np.isfinite(self.prox_mu):
            raise ConfigInvalid("learning_rate and prox_mu must be finite")
        if self.learning_rate <= 0 or self.batch_size < 1 or self.prox_mu < 0:
            raise ConfigInvalid("invalid local training configuration")


@dataclass(frozen=True, eq=False)
class Clients:
    """A simulation's clients, in order, and their data as one block per split.

    Client i draws its data from domains[i]; every client trains on task
    with config over backbone. features_train (N, F) and train_y (N,) hold
    every train split, client i's in rows starts[i] to starts[i + 1];
    features_test (n, test_count, F) and test_y (n, test_count) hold one test
    split per client. groups holds the index arrays of the clients that
    training steps together, those of one batch shape: each full-batch train
    size is a group, and the mini-batch clients are one."""

    domains: tuple[DomainSpec, ...]
    task: str
    config: LocalConfig
    backbone: FrozenBackbone
    features_train: np.ndarray = field(repr=False)
    train_y: np.ndarray = field(repr=False)
    features_test: np.ndarray = field(repr=False)
    test_y: np.ndarray = field(repr=False)
    starts: np.ndarray = field(repr=False)
    train_sizes: tuple[int, ...] = field(init=False, repr=False)
    groups: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("features_train", "train_y", "features_test", "test_y", "starts"):
            getattr(self, name).setflags(write=False)
        sizes = tuple(np.diff(self.starts).tolist())
        groups: dict[Optional[int], list[int]] = {}
        for i, size in enumerate(sizes):
            groups.setdefault(size if self.config.batch_size >= size else None, []).append(i)
        object.__setattr__(self, "train_sizes", sizes)
        object.__setattr__(self, "groups", tuple(map(np.array, groups.values())))

    def __len__(self) -> int:
        return len(self.domains)


def _inputs(rng: np.random.Generator, count: int, shift: np.ndarray) -> np.ndarray:
    """count rows of normal(loc=shift, scale=1.0) bit for bit, unscaled and
    shifted in place."""
    x = rng.standard_normal((count, shift.size))
    x += shift
    return x


def _labels(features: np.ndarray, head: np.ndarray, eps: np.ndarray, task: str) -> np.ndarray:
    score = features @ head + eps
    return np.where(score >= 0.0, 1.0, -1.0) if task == "classification" else score


def make_clients(
    specs: Sequence[DomainSpec],
    backbone: FrozenBackbone,
    shared_head: np.ndarray,
    domain_seeds: Sequence[int],
    *,
    config: LocalConfig,
    task: str,
    test_count: int,
    train_fraction: float,
) -> Clients:
    """Draw each domain's data, x ~ N(shift, I) with y from the shared head
    perturbed by concept_shift in a random direction, from its own seed, and
    build the clients over one block per split; client i takes specs[i] and
    domain_seeds[i], and all of them train on task with config.

    The full sample_count is always drawn and the train split keeps the first
    round(sample_count * train_fraction) rows, so a reduced-fraction split is
    a prefix of the full one and the test split is unaffected. Features are
    computed straight into the blocks; only a reduced split's full draw passes
    through a temporary, so no second copy of the data is ever resident.
    """
    n = len(specs)
    if n < 1 or n != len(domain_seeds):
        raise ConfigInvalid(f"got {n} domains and {len(domain_seeds)} seeds")
    if task not in TASKS:
        raise ConfigInvalid(f"unknown task {task!r}")
    if not 0.0 < train_fraction <= 1.0:
        raise ConfigInvalid(f"train_fraction must be in (0, 1], got {train_fraction}")
    if test_count < 1:
        raise ConfigInvalid("test_count must be >= 1")
    for spec in specs:
        if spec.input_dim != backbone.input_dim:
            raise ConfigInvalid(
                f"{spec.domain_id}: input_dim {spec.input_dim} does not match "
                f"backbone input_dim {backbone.input_dim}"
            )
    if np.shape(shared_head) != (backbone.feature_dim,):
        raise ConfigInvalid(f"shared_head must have shape ({backbone.feature_dim},)")

    sizes = [max(1, int(round(spec.sample_count * train_fraction))) for spec in specs]
    starts = np.cumsum([0, *sizes])
    dim, split = backbone.feature_dim, starts[-1]
    # one allocation holds both blocks, the train rows then the test rows: with
    # two, malloc handed both back to the system when a cell ended, and every
    # cell faulted its data's pages in afresh (about 900 faults on wide64)
    features, labels = np.empty((split + n * test_count, dim)), np.empty(split + n * test_count)
    features_train, train_y = features[:split], labels[:split]
    features_test = features[split:].reshape(n, test_count, dim)
    test_y = labels[split:].reshape(n, test_count)
    for i, (spec, seed) in enumerate(zip(specs, domain_seeds)):
        rng = np.random.default_rng(seed)
        direction = rng.normal(size=dim)
        direction /= np.linalg.norm(direction)
        true_head = shared_head + spec.concept_shift * direction

        # each split's inputs are dropped once its features are in the block;
        # the prefix is cut after the labels, since the rows of a matrix-vector
        # product can change in the last bit with the row count
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
    features.setflags(write=False)
    labels.setflags(write=False)
    return Clients(tuple(specs), task, config, backbone, features_train, train_y,
                   features_test, test_y, starts)


def _scores(theta: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Scores of k decoders (k, D), each on its own (k, B, F) batch: one
    matrix-vector product per decoder, then the bias added in place."""
    s = np.matmul(features, theta[..., :-1, None])[..., 0]
    s += theta[..., -1:]
    return s


def _mean_loss(s: np.ndarray, labels: np.ndarray, task: str):
    """Squared error or logistic loss, averaged over the last axis as sum / count.
    The per-row losses share one buffer: a round's evaluation has one per test row."""
    if task == "regression":
        per_row = s - labels
        per_row *= per_row
    else:  # log(1 + e^(-ys)); -(ys) is (-y)s exactly
        per_row = labels * s
        np.logaddexp(0.0, np.negative(per_row, out=per_row), out=per_row)
    return per_row.sum(axis=-1) / s.shape[-1]


def decoder_loss_and_gradient(thetas: np.ndarray, features: np.ndarray, labels: np.ndarray,
                              task: str, anchors: Optional[np.ndarray] = None,
                              mu: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Mean squared error (regression) or mean logistic loss (classification)
    of k decoders (k, D), each on its own batch of features (k, B, F) and
    labels (k, B), plus an optional proximal penalty (mu/2)*|theta - anchor|^2;
    returns the (k,) losses and their exact (k, D) gradients, from one
    computation of the scores. Each client gets the operations it would get
    alone (a matrix-vector product for the scores and the head gradient,
    sum / count for each mean), so stacking reorders no sum."""
    s = _scores(thetas, features)
    loss = _mean_loss(s, labels, task)
    batch = features.shape[1]
    features_t = features.transpose(0, 2, 1)
    grad = np.empty_like(thetas)
    if task == "regression":
        residual = s - labels
        grad[:, :-1] = (2.0 / batch) * np.matmul(features_t, residual[..., None])[..., 0]
        grad[:, -1] = 2.0 * (residual.sum(axis=-1) / batch)
    else:
        # d/ds log(1 + exp(-y s)) = -y * sigmoid(-y s)
        g = -labels * np.exp(-np.logaddexp(0.0, labels * s))
        grad[:, :-1] = np.matmul(features_t, g[..., None])[..., 0] / batch
        grad[:, -1] = g.sum(axis=-1) / batch
    if mu > 0.0 and anchors is not None:
        diff = thetas - anchors
        # this loss only feeds the finiteness check; vecdot is each client's
        # own dot, so it equals a single client's
        loss = loss + 0.5 * mu * np.vecdot(diff, diff)
        grad = grad + mu * diff
    return loss, grad


def _train_group(clients: Clients, members: np.ndarray, thetas: np.ndarray,
                 rngs: Sequence[np.random.Generator], proximal: bool) -> np.ndarray:
    """Steps one group of clients together, updating their decoders thetas
    (k, D) in place; returns the step at which each client's loss was first
    non-finite, or -1. A diverged client keeps stepping: no other client's
    numbers depend on it. Each client's batch indices are offset by its
    first row in the train block."""
    cfg, size = clients.config, clients.train_sizes[members[0]]
    if cfg.batch_size >= size:  # every step takes each client's whole split
        rows = np.tile(np.arange(size), (cfg.steps, len(members), 1))
    else:
        # one (steps, B) draw equals steps successive draws of B indices
        rows = np.stack([rngs[i].integers(0, clients.train_sizes[i],
                                          size=(cfg.steps, cfg.batch_size))
                         for i in members], axis=1)
    # (steps, k, B) block rows, so that each step's batches are one take
    rows += clients.starts[members, None]
    step_labels = clients.train_y.take(rows)
    # one buffer, refilled each step
    batch = np.empty((len(members), rows.shape[2], clients.features_train.shape[1]))
    anchors, mu = (thetas.copy(), cfg.prox_mu) if proximal else (None, 0.0)
    failed_at = np.full(len(members), -1)
    for step in range(cfg.steps):
        clients.features_train.take(rows[step], axis=0, out=batch, mode="clip")
        loss, grad = decoder_loss_and_gradient(thetas, batch, step_labels[step],
                                               clients.task, anchors, mu)
        failed_at[(failed_at < 0) & ~np.isfinite(loss)] = step
        thetas -= cfg.learning_rate * grad
    return failed_at


def _check_decoders(decoders: np.ndarray, clients: Clients) -> None:
    shape = (len(clients), clients.backbone.decoder_dim)
    if np.shape(decoders) != shape:
        raise InvalidInput(f"decoders have shape {np.shape(decoders)}, expected {shape}: "
                           "one row of the backbone's decoder dim per client")


def _train_round(decoders: np.ndarray, clients: Clients,
                 rngs: Sequence[np.random.Generator], proximal: bool) -> np.ndarray:
    _check_decoders(decoders, clients)
    if len(rngs) != len(clients):
        raise InvalidInput(f"got {len(clients)} clients and {len(rngs)} generators")
    uploads = np.empty(decoders.shape)
    failed_at = np.empty(len(clients), dtype=int)
    # a diverging client overflows before the checks below report it
    with np.errstate(over="ignore", invalid="ignore"):
        for members in clients.groups:
            thetas = decoders[members]
            failed_at[members] = _train_group(clients, members, thetas, rngs, proximal)
            uploads[members] = thetas
    # the lowest-index failure, as if the clients had trained one at a time
    bad = (failed_at >= 0) | ~np.isfinite(uploads).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        name = clients.domains[i].domain_id
        if failed_at[i] >= 0:
            raise NonFiniteLoss(f"non-finite loss at step {failed_at[i]} on {name}; "
                                "reduce the learning rate")
        raise NonFiniteLoss(f"training diverged on {name}; reduce the learning rate")
    uploads.setflags(write=False)
    return uploads


def local_train(decoders: np.ndarray, clients: Clients,
                rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """One round of local training: each client runs its configured number
    of mini-batch gradient steps from its row of decoders (n, D), drawing
    batches from its own generator; returns the uploads as a read-only
    (n, D) array in client order. Backbones untouched."""
    return _train_round(decoders, clients, rngs, proximal=False)


def local_train_fedprox(decoders: np.ndarray, clients: Clients,
                        rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """local_train plus FedProx's proximal gradient term mu * (theta - anchor),
    with mu = the clients' config.prox_mu and each one's starting decoder as the anchor."""
    return _train_round(decoders, clients, rngs, proximal=True)


def evaluate(decoders: np.ndarray, clients: Clients
             ) -> tuple[tuple[float, ...], Optional[tuple[float, ...]]]:
    """Each client's loss on its test split under its row of decoders (n, D),
    from one stacked product, and each one's accuracy if the clients
    classify, else None."""
    _check_decoders(decoders, clients)
    s = _scores(decoders, clients.features_test)
    losses = tuple(_mean_loss(s, clients.test_y, clients.task).tolist())
    if clients.task != "classification":
        return losses, None
    hits = np.count_nonzero(np.where(s >= 0.0, 1.0, -1.0) == clients.test_y, axis=-1)
    return losses, tuple((hits / s.shape[-1]).tolist())
