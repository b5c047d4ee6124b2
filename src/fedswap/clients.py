"""Simulated cross-domain clients.

Each client holds a synthetic domain dataset, a reference to the shared
frozen backbone (a fixed random affine map plus tanh), and a flat linear
decoder over the backbone features. Local training is plain mini-batch
gradient descent on a convex loss, optionally with a proximal pull toward
the latest global decoder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidSpec, ManifestMismatch, NonFiniteLoss
from .params import ParamVector

__all__ = [
    "DomainSpec",
    "FrozenBackbone",
    "DomainDataset",
    "LocalConfig",
    "ClientState",
    "EvalResult",
    "generate_domain_dataset",
    "decoder_loss",
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
            raise InvalidSpec(f"{self.domain_id}: sample_count must be >= 1")
        if self.input_dim < 1:
            raise InvalidSpec(f"{self.domain_id}: input_dim must be >= 1")
        if len(self.shift) != self.input_dim:
            raise InvalidSpec(
                f"{self.domain_id}: shift has length {len(self.shift)}, "
                f"expected {self.input_dim}"
            )
        if not np.all(np.isfinite(self.shift + (self.concept_shift, self.label_noise))):
            raise InvalidSpec(
                f"{self.domain_id}: shift, concept_shift and label_noise must be finite"
            )
        if self.concept_shift < 0 or self.label_noise < 0:
            raise InvalidSpec(f"{self.domain_id}: shift magnitudes must be >= 0")


@dataclass(frozen=True, eq=False)
class FrozenBackbone:
    """Shared feature extractor: tanh(x @ W + b), never updated by training."""

    seed: int
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
        return cls(seed=seed, input_dim=input_dim, feature_dim=feature_dim,
                   weight=weight, bias=bias)

    def features(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x @ self.weight + self.bias)

    @property
    def decoder_dim(self) -> int:
        """Size of the flat decoder: a linear head over the features, then one bias."""
        return self.feature_dim + 1


@dataclass(frozen=True, eq=False)
class DomainDataset:
    """Train/test splits for one domain, plus the generating head for oracles."""

    domain_id: str
    task: str
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    true_head: np.ndarray

    def __post_init__(self):
        for name in ("train_x", "train_y", "test_x", "test_y", "true_head"):
            getattr(self, name).setflags(write=False)

    @property
    def train_size(self) -> int:
        return int(self.train_x.shape[0])


def generate_domain_dataset(
    spec: DomainSpec,
    backbone: FrozenBackbone,
    shared_concept_seed: int,
    domain_seed: int,
    *,
    task: str = "regression",
    test_count: int = 500,
    train_fraction: float = 1.0,
) -> DomainDataset:
    """Draw one domain's data: x ~ N(shift, I), y from a perturbed shared head.

    The full sample_count is always drawn and the train split keeps the first
    round(sample_count * train_fraction) rows, so a reduced-fraction split is
    a prefix of the full one and the test split is unaffected.
    """
    if task not in TASKS:
        raise InvalidSpec(f"unknown task {task!r}")
    if not 0.0 < train_fraction <= 1.0:
        raise InvalidSpec(f"train_fraction must be in (0, 1], got {train_fraction}")
    if test_count < 1:
        raise InvalidSpec("test_count must be >= 1")
    if spec.input_dim != backbone.input_dim:
        raise InvalidSpec(
            f"{spec.domain_id}: input_dim {spec.input_dim} does not match "
            f"backbone input_dim {backbone.input_dim}"
        )

    concept_rng = np.random.default_rng(shared_concept_seed)
    shared_head = concept_rng.normal(size=backbone.feature_dim)

    rng = np.random.default_rng(domain_seed)
    direction = rng.normal(size=backbone.feature_dim)
    direction /= np.linalg.norm(direction)
    true_head = shared_head + spec.concept_shift * direction

    shift = np.asarray(spec.shift, dtype=np.float64)
    train_x = rng.normal(loc=shift, scale=1.0, size=(spec.sample_count, spec.input_dim))
    train_eps = rng.normal(0.0, spec.label_noise, size=spec.sample_count)
    test_x = rng.normal(loc=shift, scale=1.0, size=(test_count, spec.input_dim))
    test_eps = rng.normal(0.0, spec.label_noise, size=test_count)

    def labels(x: np.ndarray, eps: np.ndarray) -> np.ndarray:
        score = backbone.features(x) @ true_head + eps
        if task == "classification":
            return np.where(score >= 0.0, 1.0, -1.0)
        return score

    train_y = labels(train_x, train_eps)
    test_y = labels(test_x, test_eps)

    keep = max(1, int(round(spec.sample_count * train_fraction)))
    return DomainDataset(
        domain_id=spec.domain_id,
        task=task,
        train_x=train_x[:keep].copy(),
        train_y=train_y[:keep].copy(),
        test_x=test_x,
        test_y=test_y,
        true_head=true_head,
    )


@dataclass(frozen=True)
class LocalConfig:
    """Per-round local training settings."""

    steps: int = 10
    learning_rate: float = 0.05
    batch_size: int = 32
    prox_mu: float = 0.01

    def __post_init__(self):
        if self.steps < 0:
            raise InvalidSpec("steps must be >= 0")
        if not np.isfinite(self.learning_rate) or not np.isfinite(self.prox_mu):
            raise InvalidSpec("learning_rate and prox_mu must be finite")
        if self.learning_rate <= 0 or self.batch_size < 1 or self.prox_mu < 0:
            raise InvalidSpec("invalid local training configuration")


@dataclass(eq=False)
class ClientState:
    """One client: its domain data, cached backbone features, and current decoder."""

    domain: DomainSpec
    data: DomainDataset
    backbone: FrozenBackbone
    config: LocalConfig
    decoder: Optional[ParamVector] = None
    features_train: np.ndarray = field(init=False, repr=False)
    features_test: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.features_train = self.backbone.features(self.data.train_x)
        self.features_test = self.backbone.features(self.data.test_x)
        self.features_train.setflags(write=False)
        self.features_test.setflags(write=False)

    @property
    def train_size(self) -> int:
        return self.data.train_size


@dataclass(frozen=True)
class EvalResult:
    loss: float
    accuracy: Optional[float] = None


def _scores(theta: np.ndarray, features: np.ndarray) -> np.ndarray:
    return features @ theta[:-1] + theta[-1]


def _mean_loss(s: np.ndarray, labels: np.ndarray, task: str) -> float:
    if task == "regression":
        return float(np.mean((s - labels) ** 2))
    return float(np.mean(np.logaddexp(0.0, -labels * s)))


def decoder_loss(
    theta: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
    task: str,
    anchor: Optional[np.ndarray] = None,
    mu: float = 0.0,
) -> float:
    """Mean squared error (regression) or mean logistic loss (classification),
    plus an optional proximal penalty (mu/2)*|theta - anchor|^2."""
    loss = _mean_loss(_scores(theta, features), labels, task)
    if mu > 0.0 and anchor is not None:
        diff = theta - anchor
        loss += 0.5 * mu * float(np.dot(diff, diff))
    return loss


def decoder_loss_and_gradient(
    theta: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
    task: str,
    anchor: Optional[np.ndarray] = None,
    mu: float = 0.0,
) -> tuple[float, np.ndarray]:
    """decoder_loss and its exact gradient with respect to theta, from one
    computation of the scores."""
    s = _scores(theta, features)
    loss = _mean_loss(s, labels, task)
    batch = features.shape[0]
    if task == "regression":
        residual = s - labels
        grad_w = (2.0 / batch) * (features.T @ residual)
        grad_b = 2.0 * float(np.mean(residual))
    else:
        # d/ds log(1 + exp(-y s)) = -y * sigmoid(-y s)
        margin = labels * s
        g = -labels * np.exp(-np.logaddexp(0.0, margin))
        grad_w = (features.T @ g) / batch
        grad_b = float(np.mean(g))
    grad = np.concatenate([grad_w, [grad_b]])
    if mu > 0.0 and anchor is not None:
        diff = theta - anchor
        loss += 0.5 * mu * float(np.dot(diff, diff))
        grad = grad + mu * diff
    return loss, grad


def _run_steps(
    decoder: ParamVector,
    client: ClientState,
    seed: int,
    anchor: Optional[np.ndarray],
    mu: float,
) -> ParamVector:
    expected = client.backbone.decoder_dim
    if decoder.dim != expected:
        raise ManifestMismatch(
            f"decoder dim {decoder.dim} does not match the backbone's decoder dim "
            f"{expected}"
        )
    cfg = client.config
    n = client.train_size
    features = client.features_train
    labels = client.data.train_y
    task = client.data.task
    rng = np.random.default_rng(seed)
    theta = decoder.values.copy()
    full_batch = cfg.batch_size >= n
    for step in range(cfg.steps):
        if full_batch:
            fb, yb = features, labels
        else:
            idx = rng.integers(0, n, size=cfg.batch_size)
            fb, yb = features[idx], labels[idx]
        loss, grad = decoder_loss_and_gradient(theta, fb, yb, task, anchor, mu)
        if not np.isfinite(loss):
            raise NonFiniteLoss(
                f"non-finite loss at step {step} on {client.domain.domain_id}; "
                "reduce the learning rate"
            )
        theta -= cfg.learning_rate * grad
    if not np.all(np.isfinite(theta)):
        raise NonFiniteLoss(
            f"training diverged on {client.domain.domain_id}; reduce the learning rate"
        )
    return ParamVector(theta)


def local_train(decoder: ParamVector, client: ClientState, derived_seed: int) -> ParamVector:
    """Run the configured number of mini-batch gradient steps; backbone untouched."""
    return _run_steps(decoder, client, derived_seed, None, 0.0)


def local_train_fedprox(
    decoder: ParamVector,
    client: ClientState,
    global_anchor: ParamVector,
    mu: float,
    derived_seed: int,
) -> ParamVector:
    """Local training with an added proximal gradient term mu * (theta - anchor)."""
    if mu < 0:
        raise InvalidSpec("mu must be >= 0")
    return _run_steps(decoder, client, derived_seed, global_anchor.values, mu)


def evaluate(decoder: ParamVector, client: ClientState) -> EvalResult:
    """Loss (and accuracy, for classification) on the client's test split."""
    s = _scores(decoder.values, client.features_test)
    labels = client.data.test_y
    loss = _mean_loss(s, labels, client.data.task)
    if client.data.task != "classification":
        return EvalResult(loss=loss)
    predicted = np.where(s >= 0.0, 1.0, -1.0)
    return EvalResult(loss=loss, accuracy=float(np.mean(predicted == labels)))
