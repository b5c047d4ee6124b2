"""Simulated cross-domain clients.

Each client holds the backbone features and labels of a synthetic domain
dataset and a reference to the shared frozen backbone (a fixed random affine
map plus tanh); it never changes once built. A decoder is a flat linear map
over the backbone features; the round loop owns every client's. Local
training is plain mini-batch gradient descent on a convex loss, optionally
with a proximal pull toward the decoder the round starts from: under
fedprox, the latest global decoder. One call trains a whole round, stepping
clients with equal batch shapes together, bit for bit as if each trained alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigInvalid, InvalidInput, NonFiniteLoss
from .params import ParamVector

__all__ = [
    "DomainSpec",
    "FrozenBackbone",
    "LocalConfig",
    "ClientState",
    "EvalResult",
    "make_client",
    "decoder_loss_and_gradient",
    "local_train",
    "local_train_fedprox",
    "evaluate",
]

TASKS = ("regression", "classification")

# standard deviation of the backbone's feature biases
_BACKBONE_BIAS_SCALE = 0.2


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

    def features(self, x: np.ndarray) -> np.ndarray:
        out = x @ self.weight  # biased and squashed in place, without temporaries
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
        if self.steps < 0:
            raise ConfigInvalid("steps must be >= 0")
        if not np.isfinite(self.learning_rate) or not np.isfinite(self.prox_mu):
            raise ConfigInvalid("learning_rate and prox_mu must be finite")
        if self.learning_rate <= 0 or self.batch_size < 1 or self.prox_mu < 0:
            raise ConfigInvalid("invalid local training configuration")


@dataclass(frozen=True, eq=False)
class ClientState:
    """One client, fixed once built: its domain, the backbone features and
    labels of each split, and the head that generated them (the tests'
    oracle). The decoder it trains belongs to the round loop."""

    domain: DomainSpec
    task: str
    backbone: FrozenBackbone
    config: LocalConfig
    features_train: np.ndarray = field(repr=False)
    train_y: np.ndarray = field(repr=False)
    features_test: np.ndarray = field(repr=False)
    test_y: np.ndarray = field(repr=False)
    true_head: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("features_train", "train_y", "features_test", "test_y", "true_head"):
            getattr(self, name).setflags(write=False)

    @property
    def train_size(self) -> int:
        return int(self.train_y.shape[0])


def make_client(
    spec: DomainSpec,
    backbone: FrozenBackbone,
    local: LocalConfig,
    shared_head: np.ndarray,
    domain_seed: int,
    *,
    task: str,
    test_count: int,
    train_fraction: float,
) -> ClientState:
    """Draw one domain's data, x ~ N(shift, I) with y from the shared head
    perturbed by concept_shift in a random direction, and build its client.

    The full sample_count is always drawn and the train split keeps the first
    round(sample_count * train_fraction) rows, so a reduced-fraction split is
    a prefix of the full one and the test split is unaffected.
    """
    if task not in TASKS:
        raise ConfigInvalid(f"unknown task {task!r}")
    if not 0.0 < train_fraction <= 1.0:
        raise ConfigInvalid(f"train_fraction must be in (0, 1], got {train_fraction}")
    if test_count < 1:
        raise ConfigInvalid("test_count must be >= 1")
    if spec.input_dim != backbone.input_dim:
        raise ConfigInvalid(
            f"{spec.domain_id}: input_dim {spec.input_dim} does not match "
            f"backbone input_dim {backbone.input_dim}"
        )
    if np.shape(shared_head) != (backbone.feature_dim,):
        raise ConfigInvalid(f"shared_head must have shape ({backbone.feature_dim},)")

    rng = np.random.default_rng(domain_seed)
    direction = rng.normal(size=backbone.feature_dim)
    direction /= np.linalg.norm(direction)
    true_head = shared_head + spec.concept_shift * direction

    shift = np.asarray(spec.shift, dtype=np.float64)
    # normal(loc=shift, scale=1.0) bit for bit, unscaled and added in place
    train_x = rng.standard_normal((spec.sample_count, spec.input_dim))
    train_x += shift
    train_eps = rng.normal(0.0, spec.label_noise, size=spec.sample_count)
    test_x = rng.standard_normal((test_count, spec.input_dim))
    test_x += shift
    test_eps = rng.normal(0.0, spec.label_noise, size=test_count)

    def split(x: np.ndarray, eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        features = backbone.features(x)
        score = features @ true_head + eps
        if task == "classification":
            return features, np.where(score >= 0.0, 1.0, -1.0)
        return features, score

    # the prefix is cut after the labels: the rows of a matrix-vector product
    # can change in the last bit with the row count
    features_train, train_y = split(train_x, train_eps)
    features_test, test_y = split(test_x, test_eps)
    keep = max(1, int(round(spec.sample_count * train_fraction)))
    if keep < spec.sample_count:  # copied, so as not to keep the full draw alive
        features_train, train_y = features_train[:keep].copy(), train_y[:keep].copy()
    return ClientState(spec, task, backbone, local, features_train, train_y,
                       features_test, test_y, true_head)


@dataclass(frozen=True)
class EvalResult:
    loss: float
    accuracy: Optional[float] = None


def _scores(theta: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Scores of one decoder (D,) on (n, F) features, or of k decoders (k, D)
    each on its own (k, B, F) batch: one matrix-vector product per decoder."""
    return np.matmul(features, theta[..., :-1, None])[..., 0] + theta[..., -1:]


def _mean_loss(s: np.ndarray, labels: np.ndarray, task: str):
    """Squared error or logistic loss, averaged over the last axis as sum / count."""
    per_row = (s - labels) ** 2 if task == "regression" else np.logaddexp(0.0, -labels * s)
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


def _train_group(clients: Sequence[ClientState], thetas: np.ndarray,
                 rngs: Sequence[np.random.Generator], proximal: bool) -> np.ndarray:
    """Steps clients that share a LocalConfig, task and batch shape together,
    updating thetas (k, D) in place; returns the step at which each client's
    loss was first non-finite, or -1. A diverged client keeps stepping: no
    other client's numbers depend on it."""
    cfg, task = clients[0].config, clients[0].task
    draws = None
    if cfg.batch_size >= clients[0].train_size:
        batch = np.stack([c.features_train for c in clients])
        labels = np.stack([c.train_y for c in clients])
    else:
        # one (steps, B) draw equals steps successive draws of B indices
        draws = [rng.integers(0, c.train_size, size=(cfg.steps, cfg.batch_size))
                 for c, rng in zip(clients, rngs)]
        # (steps, k, B), so that each step's labels are one contiguous block
        step_labels = np.stack([c.train_y[idx] for c, idx in zip(clients, draws)], axis=1)
        # one buffer, refilled each step
        batch = np.empty((len(clients), cfg.batch_size, thetas.shape[1] - 1))
    anchors, mu = (thetas.copy(), cfg.prox_mu) if proximal else (None, 0.0)
    failed_at = np.full(len(clients), -1)
    for step in range(cfg.steps):
        if draws is not None:
            for c, idx, out in zip(clients, draws, batch):
                c.features_train.take(idx[step], axis=0, out=out, mode="clip")
            labels = step_labels[step]
        loss, grad = decoder_loss_and_gradient(thetas, batch, labels, task, anchors, mu)
        failed_at[(failed_at < 0) & ~np.isfinite(loss)] = step
        thetas -= cfg.learning_rate * grad
    return failed_at


def _train_round(decoders: Sequence[ParamVector], clients: Sequence[ClientState],
                 rngs: Sequence[np.random.Generator], proximal: bool) -> list[ParamVector]:
    if not len(decoders) == len(clients) == len(rngs):
        raise InvalidInput(
            f"got {len(decoders)} decoders, {len(clients)} clients and {len(rngs)} generators")
    for decoder, client in zip(decoders, clients):
        if decoder.dim != client.backbone.decoder_dim:
            raise InvalidInput(f"decoder dim {decoder.dim} does not match the backbone's "
                               f"decoder dim {client.backbone.decoder_dim}")
    # clients whose batches have the same shape step together
    groups: dict[tuple, list[int]] = {}
    for i, c in enumerate(clients):
        full_size = c.train_size if c.config.batch_size >= c.train_size else None
        groups.setdefault((c.config, c.task, c.backbone.feature_dim, full_size), []).append(i)
    thetas, failed_at = [None] * len(clients), [-1] * len(clients)
    # a diverging client overflows before the checks below report it
    with np.errstate(over="ignore", invalid="ignore"):
        for members in groups.values():
            stacked = np.stack([decoders[i].values for i in members])
            steps = _train_group([clients[i] for i in members], stacked,
                                 [rngs[i] for i in members], proximal)
            for i, theta, step in zip(members, stacked, steps):
                thetas[i], failed_at[i] = theta, step
    # the lowest-index failure, as if the clients had trained one at a time
    for client, theta, step in zip(clients, thetas, failed_at):
        name = client.domain.domain_id
        if step >= 0:
            raise NonFiniteLoss(f"non-finite loss at step {step} on {name}; "
                                "reduce the learning rate")
        if not np.all(np.isfinite(theta)):
            raise NonFiniteLoss(f"training diverged on {name}; reduce the learning rate")
    return [ParamVector(theta) for theta in thetas]


def local_train(decoders: Sequence[ParamVector], clients: Sequence[ClientState],
                rngs: Sequence[np.random.Generator]) -> list[ParamVector]:
    """One round of local training: each client runs its configured number
    of mini-batch gradient steps from its decoder, drawing batches from its
    own generator; returns the uploads in client order. Backbones untouched."""
    return _train_round(decoders, clients, rngs, proximal=False)


def local_train_fedprox(decoders: Sequence[ParamVector], clients: Sequence[ClientState],
                        rngs: Sequence[np.random.Generator]) -> list[ParamVector]:
    """local_train plus FedProx's proximal gradient term mu * (theta - anchor),
    with mu = each client's config.prox_mu and its starting decoder as the anchor."""
    return _train_round(decoders, clients, rngs, proximal=True)


def evaluate(decoder: ParamVector, client: ClientState) -> EvalResult:
    """Loss (and accuracy, for classification) on the client's test split."""
    s = _scores(decoder.values, client.features_test)
    labels = client.test_y
    loss = float(_mean_loss(s, labels, client.task))
    if client.task != "classification":
        return EvalResult(loss=loss)
    hits = np.count_nonzero(np.where(s >= 0.0, 1.0, -1.0) == labels)
    return EvalResult(loss=loss, accuracy=hits / s.size)
