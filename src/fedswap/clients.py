"""Simulated cross-domain clients.

Each client has the backbone features and labels of a synthetic domain
dataset; all of them share the frozen backbone (a fixed random affine map plus
tanh), the task and the local training settings. One Clients value holds the
whole population and never changes once built: make_clients draws every
client's data into one read-only block per split, on two threads that share a
queue of domains, each domain into its own rows. A decoder is a flat linear
map over the backbone features; the round loop owns every client's, as the
rows of one (n, D) array, and one training Workspace per cell. Local training
is mini-batch gradient descent on a convex loss, optionally pulled toward the
round's starting decoder (under fedprox, the latest global decoder). One call
trains a whole round in one step loop over all clients, and one call evaluates
it, on one thread, bit for bit as if each client trained and was scored alone.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigInvalid, InvalidInput, NonFiniteLoss

TASKS = ("regression", "classification")

# standard deviation of the backbone's feature biases
_BACKBONE_BIAS_SCALE = 0.2
# cap on local steps per round, checked before a workspace's (steps, rows)
# index block is built; every workload and test takes at most 4000
MAX_STEPS = 10**5
# cap on steps times a round's batch rows, checked when the clients are built: a
# workspace's index and label blocks take 16 B per step-row, 480 MB at the cap,
# and classification's -ys 8 B more; its per-step views take about 0.6 kB plus
# 0.4 kB per group a step, at most 1.1 GB at both caps, 1.8 GB in all
MAX_STEP_ROWS = 3 * 10**7


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

    weight: np.ndarray
    bias: np.ndarray

    @classmethod
    def create(cls, words: np.ndarray, input_dim: int, feature_dim: int) -> "FrozenBackbone":
        """Draws weight, then bias, from _generator of the PCG64 state words (4,)."""
        rng = _generator(words)
        weight = rng.normal(0.0, 1.0 / np.sqrt(input_dim), size=(input_dim, feature_dim))
        bias = rng.normal(0.0, _BACKBONE_BIAS_SCALE, size=feature_dim)
        weight.setflags(write=False)
        bias.setflags(write=False)
        return cls(weight, bias)

    def features(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """tanh(x @ W + b), written into out when it is given."""
        out = np.matmul(x, self.weight, out=out)  # biased and squashed in place
        return np.tanh(np.add(out, self.bias, out=out), out=out)


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
    with config. features_train (N, F) and train_y (N,) hold
    every train split, client i's in rows starts[i] to starts[i + 1];
    features_test (n, test_count, F) and test_y (n, test_count) hold one test
    split per client. groups holds the index arrays of the clients of one
    batch shape: each full-batch train size is a group, and the mini-batch
    clients are one. order lists the clients group by group, batches holds
    each one's batch size in that order, and row_client maps each row of a
    round's batches, every group's (k, B) batches side by side, to its
    client's position in order; row_starts holds each position's first row."""

    domains: tuple[DomainSpec, ...]
    task: str
    config: LocalConfig
    features_train: np.ndarray = field(repr=False)
    train_y: np.ndarray = field(repr=False)
    features_test: np.ndarray = field(repr=False)
    test_y: np.ndarray = field(repr=False)
    starts: np.ndarray = field(repr=False)
    train_sizes: tuple[int, ...] = field(init=False, repr=False)
    groups: tuple[np.ndarray, ...] = field(init=False, repr=False)
    order: np.ndarray = field(init=False, repr=False)
    batches: np.ndarray = field(init=False, repr=False)
    row_client: np.ndarray = field(init=False, repr=False)
    row_starts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("features_train", "train_y", "features_test", "test_y", "starts"):
            getattr(self, name).setflags(write=False)
        sizes = tuple(np.diff(self.starts).tolist())
        groups: dict[Optional[int], list[int]] = {}
        for i, size in enumerate(sizes):
            groups.setdefault(size if self.config.batch_size >= size else None, []).append(i)
        object.__setattr__(self, "train_sizes", sizes)
        object.__setattr__(self, "groups", tuple(map(np.array, groups.values())))
        order = np.concatenate(self.groups)
        batches = np.minimum(np.take(sizes, order), self.config.batch_size)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "batches", batches)
        object.__setattr__(self, "row_client", np.repeat(np.arange(len(order)), batches))
        object.__setattr__(self, "row_starts", np.cumsum(batches) - batches)
        if self.config.steps * self.row_client.size > MAX_STEP_ROWS:
            raise ConfigInvalid(f"steps times batch rows must be at most {MAX_STEP_ROWS}, got "
                                f"{self.config.steps} x {self.row_client.size}")

    def __len__(self) -> int:
        return len(self.domains)

    @property
    def decoder_dim(self) -> int:
        """Size of the flat decoder: a linear head over the features, then one bias."""
        return self.features_train.shape[1] + 1


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
    words: np.ndarray,
    *,
    feature_dim: int,
    config: LocalConfig,
    task: str,
    test_count: int,
    train_fraction: float,
) -> Clients:
    """Draw the backbone from words[0], the shared head from words[1] and each
    domain's data, x ~ N(shift, I) with y from the shared head perturbed by
    concept_shift in a random direction, from words[i + 2] for specs[i], each
    row of the (n + 2, 4) PCG64 state words through _generator; every client
    trains on task with config. The arguments are checked config values.

    The full sample_count is always drawn and the train split keeps the first
    round(sample_count * train_fraction) rows, so a reduced-fraction split is
    a prefix of the full one and the test split is unaffected. Features are
    computed straight into the blocks; only a reduced split's full draw passes
    through a temporary, so no second copy of the data is ever resident.
    """
    backbone = FrozenBackbone.create(words[0], specs[0].input_dim, feature_dim)
    shared_head = _generator(words[1]).normal(size=feature_dim)
    n = len(specs)
    sizes = [max(1, int(round(spec.sample_count * train_fraction))) for spec in specs]
    starts = np.cumsum([0, *sizes])
    dim, split = feature_dim, starts[-1]
    # one allocation holds both blocks, the train rows then the test rows: with
    # two, malloc handed both back to the system when a cell ended, and every
    # cell faulted its data's pages in afresh (about 900 faults on wide64)
    features, labels = np.empty((split + n * test_count, dim)), np.empty(split + n * test_count)
    features_train, train_y = features[:split], labels[:split]
    features_test = features[split:].reshape(n, test_count, dim)
    test_y = labels[split:].reshape(n, test_count)

    def draw(i: int) -> None:
        spec, rng = specs[i], _generator(words[i + 2])
        direction = rng.normal(size=dim)
        direction /= np.sqrt(np.vecdot(direction, direction))
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
    # the caller and one helper drain one queue of domains, each into its own rows
    todo, errors = iter(range(n)), []

    def work() -> None:
        try:
            for i in todo:
                draw(i)
        except BaseException as exc:  # raised in the caller once both stop
            errors.append(exc)

    helper = threading.Thread(target=work)
    helper.start()
    work()
    helper.join()
    if errors:
        raise errors[0]
    features.setflags(write=False)
    labels.setflags(write=False)
    return Clients(tuple(specs), task, config, features_train, train_y,
                   features_test, test_y, starts)


@dataclass(frozen=True)
class _StateWords(np.random.bit_generator.ISeedSequence):
    """default_rng(seed)'s PCG64 state: derive_seed(seed & 0xFFFFFFFF, seed >> 32, words=4)."""

    words: np.ndarray

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise InvalidInput(f"pre-hashed PCG64 words, not {n_words} {np.dtype(dtype)}")
        return np.ascontiguousarray(self.words)  # PCG64 reads the raw buffer


def _generator(words: np.ndarray) -> np.random.Generator:
    """default_rng(seed) for the state words derive_seed pre-hashed from seed."""
    return np.random.Generator(np.random.PCG64(_StateWords(words)))


def _draw_indices(words: np.ndarray, highs: np.ndarray, count: int) -> np.ndarray:
    """Row j is _generator(words[j]).integers(0, highs[j], size=count), for highs
    in [1, 2**32], as a (k, count) uint32 view. It replays numpy's buffered
    32-bit Lemire draw (Lemire, ACM TOMACS 2019) on each row's raw PCG64 words,
    low half first: m = u * high gives the index m >> 32, unless m's low word is
    below (2**32 - high) % high, where numpy draws again; a row with such a draw
    takes Generator.integers instead."""
    highs = np.asarray(highs, np.uint64)
    raw = np.array([np.random.PCG64(_StateWords(w)).random_raw(-(-count // 2)) for w in words])
    m = raw.astype("<u8", copy=False).view("<u4")[:, :count].astype("<u8")
    m *= highs[:, None]
    halves = m.view("<u4")
    picks = halves[:, 1::2]
    lowest = halves[:, ::2].min(axis=1, initial=2**32 - 1)
    for j in np.flatnonzero(lowest < (2**32 - highs) % highs):
        picks[j] = _generator(words[j]).integers(0, highs[j], size=count)
    return picks


def _check_decoders(decoders: np.ndarray, clients: Clients) -> None:
    shape = (len(clients), clients.decoder_dim)
    if np.shape(decoders) != shape:
        raise InvalidInput(f"decoders have shape {np.shape(decoders)}, expected {shape}: "
                           "one row of the clients' decoder dim per client")


@dataclass(frozen=True, eq=False)
class Workspace:
    """A cell's training buffers and their views, built once from its clients
    and refilled by each round's training call. A step reads only constants of
    the cell (the full-batch groups' index columns and batch rows) or what its
    round wrote first. A run_simulation local, like the decoders: no two
    threads share one."""

    clients: Clients
    blocks: tuple = field(init=False, repr=False)  # (steps, rows) index, labels, per_row
    params: np.ndarray = field(init=False, repr=False)  # thetas, anchors, grad, diff; in order
    rows: np.ndarray = field(init=False, repr=False)  # scores, resid, bias
    tables: np.ndarray = field(init=False, repr=False)  # (steps, n) losses and pulls
    scales: tuple = field(init=False, repr=False)  # B as floats, flat and as a column; 2 / B
    draw: tuple = field(init=False, repr=False)  # () or the mini-batch group's
    drawn_batch: np.ndarray = field(init=False, repr=False)  # its rows of the step's batch
    forward: tuple = field(init=False, repr=False)  # each group's score product
    steps: tuple = field(init=False, repr=False)  # each step's views

    def __post_init__(self):
        clients = self.clients
        steps, rows, n = clients.config.steps, clients.row_client.size, len(clients)
        dim = clients.features_train.shape[1]
        # every group's batches side by side; each step's labels row becomes its residual
        index, batch = np.empty((steps, rows), dtype=np.intp), np.empty((rows, dim))
        labels, tables = np.empty((steps, rows)), np.empty((2, steps, n))
        per_row = labels if clients.task == "regression" else np.empty_like(labels)
        params, buffers = np.empty((4, n, dim + 1)), np.empty((3, rows))
        thetas, grad, scores, sizes = params[0], params[2], buffers[0], clients.batches * 1.0
        forward, backward, draw, drawn, c, o = [], [], (), slice(0), 0, 0
        for members in clients.groups:
            k, size = len(members), int(clients.batches[c])
            cs, rs = slice(c, c + k), slice(o, o + k * size)
            block = index[:, rs].reshape(steps, k, size)
            x, r = batch[rs].reshape(k, size, dim), labels[:, rs].reshape(steps, k, size)
            if size < clients.train_sizes[members[0]]:
                draw, drawn = (members, np.array(clients.train_sizes, np.uint64)[members],
                               clients.starts[members].reshape(1, k, 1), block), rs
            else:  # every step takes each client's whole split
                block[:] = whole = clients.starts[members, None] + np.arange(size)
                clients.features_train.take(whole, axis=0, out=x, mode="clip")
            forward.append((x, thetas[cs, :-1, None], scores[rs].reshape(k, size, 1)))
            backward.append((x.transpose(0, 2, 1), r[..., None], grad[cs, :-1, None], r,
                             grad[cs, -1]))
            c, o = c + k, o + k * size
        views = tuple((index[s, drawn], labels[s], per_row[s], tables[1, s],
                       tuple((xt, r4[s], w, r3[s], b) for xt, r4, w, r3, b in backward))
                      for s in range(steps))
        for name, value in dict(
                blocks=(index, labels, per_row), params=params, rows=buffers, tables=tables,
                scales=(sizes, sizes[:, None], 2.0 / sizes[:, None]), draw=draw,
                drawn_batch=batch[drawn], forward=tuple(forward), steps=views).items():
            object.__setattr__(self, name, value)


def _train_round(decoders: np.ndarray, work: Workspace, words: np.ndarray,
                 proximal: bool) -> np.ndarray:
    """Steps every client at once, bit for bit as if each trained alone. Each
    group runs its own matrix-vector products and bias-gradient sums over B
    on its (k, B) batches; every elementwise op runs once over all rows or all
    clients, which sit group by group in clients.order. A step runs only what
    its gradient needs, and the (steps, clients) loss table is built after the
    loop. A loss only has to be checked for finiteness, so a classification row
    holds max(-ys, 0): finite where log(1 + e^(-ys)) is, and within log 2 of it."""
    clients = work.clients
    _check_decoders(decoders, clients)
    if np.shape(words) != (len(clients), 4) or np.asarray(words).dtype != np.uint64:
        raise InvalidInput(f"state words have shape {np.shape(words)}, expected ({len(clients)}, "
                           "4) uint64: one row of PCG64 state words per client")
    cfg, order, regression = clients.config, clients.order, clients.task == "regression"
    (thetas, anchors, grad, diff), (scores, resid, bias) = work.params, work.rows
    (index, labels, per_row), (sizes, size_column, head_scale) = work.blocks, work.scales
    np.take(decoders, order, axis=0, out=thetas, mode="clip")  # stepped in place
    if proximal:
        np.copyto(anchors, thetas)
    if work.draw:
        # one (steps, B) draw equals steps successive draws of B indices
        members, highs, starts, block = work.draw
        steps, k, size = block.shape
        picks = _draw_indices(words[members], highs, steps * size)
        np.add(picks.reshape(k, steps, size).transpose(1, 0, 2), starts, out=block)
    clients.train_y.take(index, out=labels, mode="clip")
    if not regression:  # the loss and its gradient both take -y
        np.negative(labels, out=labels)
    head, bias_grad, bias_of = grad[:, :-1], grad[:, -1], thetas[:, -1]
    # a diverging client overflows before the checks below report it
    with np.errstate(over="ignore", invalid="ignore"):
        for drawn, y, ys, step_pull, backward in work.steps:
            clients.features_train.take(drawn, axis=0, out=work.drawn_batch, mode="clip")
            for x, w, s in work.forward:
                np.matmul(x, w, out=s)
            scores += bias_of.take(clients.row_client, out=bias, mode="clip")
            if regression:
                np.subtract(scores, y, out=y)
            else:  # -ys and the logistic derivative -y * sigmoid(-ys)
                np.negative(np.multiply(y, scores, out=ys), out=resid)
                np.logaddexp(0.0, resid, out=resid)
                np.exp(np.negative(resid, out=resid), out=resid)
                y *= resid
            for xt, r, w_grad, r_flat, b_grad in backward:
                np.matmul(xt, r, out=w_grad)
                np.add.reduce(r_flat, axis=-1, out=b_grad)
            if regression:
                head *= head_scale
                bias_grad /= sizes
                bias_grad *= 2.0
            else:
                grad /= size_column
            if proximal:
                np.subtract(thetas, anchors, out=diff)
                np.vecdot(diff, diff, out=step_pull)
                diff *= cfg.prox_mu
                grad += diff
            grad *= cfg.learning_rate
            thetas -= grad
        if regression:
            np.multiply(per_row, per_row, out=per_row)
        else:
            np.maximum(per_row, 0.0, out=per_row)
        losses, pull = work.tables
        np.add.reduceat(per_row, clients.row_starts, axis=1, out=losses)
        if proximal:
            # a sum is finite when its mean is, but mean + pull can overflow
            # where neither does: each step's loss is its mean plus its pull
            losses /= sizes
            losses += np.multiply(pull, 0.5 * cfg.prox_mu, out=pull)
    uploads = np.empty_like(thetas)
    uploads[order] = thetas
    if not (np.isfinite(losses).all() and np.isfinite(thetas).all()):
        failed = np.empty(losses.shape, dtype=bool)
        failed[:, order] = ~np.isfinite(losses)
        # the lowest-index failure, as if the clients had trained one at a time
        i = int(np.argmax(failed.any(axis=0) | ~np.isfinite(uploads).all(axis=1)))
        name = clients.domains[i].domain_id
        if failed[:, i].any():
            raise NonFiniteLoss(f"non-finite loss at step {np.argmax(failed[:, i])} on {name}; "
                                "reduce the learning rate")
        raise NonFiniteLoss(f"training diverged on {name}; reduce the learning rate")
    uploads.setflags(write=False)
    return uploads


def local_train(decoders: np.ndarray, work: Workspace, words: np.ndarray) -> np.ndarray:
    """One round of local training of work's clients: each runs its configured
    number of mini-batch gradient steps from its row of decoders (n, D),
    drawing batches as _generator of its row of PCG64 state words (n, 4)
    would; returns the uploads as a fresh read-only (n, D) array in client order."""
    return _train_round(decoders, work, words, proximal=False)


def local_train_fedprox(decoders: np.ndarray, work: Workspace,
                        words: np.ndarray) -> np.ndarray:
    """local_train plus FedProx's proximal gradient term mu * (theta - anchor),
    with mu = the clients' config.prox_mu and each one's starting decoder as the anchor."""
    return _train_round(decoders, work, words, proximal=True)


def evaluate(decoders: np.ndarray, clients: Clients
             ) -> tuple[tuple[float, ...], Optional[tuple[float, ...]]]:
    """Each client's loss on its test split under its row of decoders (n, D),
    squared error or logistic, averaged as sum / count, and each one's
    accuracy if the clients classify, else None. One stacked matrix-vector
    product scores every test row, and the per-row losses share one buffer.
    A non-finite loss raises NonFiniteLoss naming the lowest-index client
    with one."""
    _check_decoders(decoders, clients)
    s = np.matmul(clients.features_test, decoders[:, :-1, None])[..., 0]
    s += decoders[:, -1:]
    if clients.task == "regression":
        per_row = s - clients.test_y
        per_row *= per_row
    else:  # log(1 + e^(-ys)); -(ys) is (-y)s exactly
        per_row = clients.test_y * s
        np.logaddexp(0.0, np.negative(per_row, out=per_row), out=per_row)
    losses = per_row.sum(axis=-1) / s.shape[-1]
    if not np.isfinite(losses).all():
        name = clients.domains[int(np.argmin(np.isfinite(losses)))].domain_id
        raise NonFiniteLoss(f"non-finite test loss on {name}; reduce the learning rate")
    losses = tuple(losses.tolist())
    if clients.task != "classification":
        return losses, None
    hits = np.count_nonzero((s >= 0.0) == (clients.test_y > 0.0), axis=-1)
    return losses, tuple((hits / s.shape[-1]).tolist())
