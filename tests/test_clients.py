import re
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedswap import clients as clients_module
from fedswap.clients import (
    Clients,
    DomainSpec,
    FrozenBackbone,
    LocalConfig,
    _draw_indices,
    _generator,
    _StateWords,
    evaluate,
    local_train,
    local_train_fedprox,
    make_clients,
)
from fedswap.errors import ConfigInvalid, InvalidInput, NonFiniteLoss
from fedswap.harness import MAX_ROWS
from fedswap.server import derive_seed
from build_oracle import oracle_blocks
from eval_oracle import oracle_evaluate
from loss_oracle import decoder_loss
from step_gradient import proximal_step_gradient, step_gradient
from train_oracle import oracle_local_train

INPUT_DIM = 6
FEATURE_DIM = 8


def spec(domain_id="d0", count=200, shift=0.0, concept=0.5, noise=0.1):
    return DomainSpec(
        domain_id=domain_id,
        sample_count=count,
        input_dim=INPUT_DIM,
        shift=(shift,) * INPUT_DIM,
        concept_shift=concept,
        label_noise=noise,
    )


def backbone(seed=0):
    return FrozenBackbone.create(seed, INPUT_DIM, FEATURE_DIM)


def shared_head_of(concept_seed):
    return np.random.default_rng(concept_seed).normal(size=FEATURE_DIM)


def population(domains, backbone_seed, concept_seed, domain_seeds, *, task, local,
               test_count=500, train_fraction=1.0):
    """Clients over backbone(backbone_seed) and one block per split, client i
    from domains[i] and domain_seeds[i], all training on task with local."""
    return make_clients(
        domains, [backbone_seed, concept_seed, *domain_seeds], feature_dim=FEATURE_DIM,
        config=local, task=task, test_count=test_count, train_fraction=train_fraction,
    )


def dataset(domain, backbone_seed, concept_seed, domain_seed, *, task="regression",
            test_count=500, train_fraction=1.0, local=None):
    """A one-client population: its blocks are that client's splits, the
    test block with a leading axis of one."""
    return population(
        [domain], backbone_seed, concept_seed, [domain_seed], task=task,
        local=local or LocalConfig(), test_count=test_count,
        train_fraction=train_fraction,
    )


def generating_head(domain, concept_seed, domain_seed):
    """The head behind a domain's labels, replayed: the shared head moved by
    concept_shift along the unit vector of d, the first normal(size=F) draw
    of default_rng(domain_seed)."""
    d = np.random.default_rng(domain_seed).normal(size=FEATURE_DIM)
    return shared_head_of(concept_seed) + domain.concept_shift * (d / np.linalg.norm(d))


def assert_noiseless_labels_follow(ds, head):
    assert np.allclose(ds.train_y, ds.features_train @ head, atol=1e-12)
    assert np.allclose(ds.test_y, ds.features_test @ head, atol=1e-12)


def client(task="regression", noise=0.1, count=200, local=None, seed=0):
    """A one-client population, as local_train and evaluate take it, drawn
    from spec(count=count, noise=noise) with concept seed 11 and domain seed 22."""
    return population(
        [spec(count=count, noise=noise)], seed, 11, [22], task=task,
        local=local or LocalConfig(steps=5, learning_rate=0.05, batch_size=32),
        test_count=100,
    )


def decoder(seed=None, fill=None):
    """One decoder row, (1, D): normal draws from seed, or every entry fill."""
    if fill is not None:
        return np.full((1, FEATURE_DIM + 1), float(fill))
    return np.random.default_rng(seed).normal(size=(1, FEATURE_DIM + 1))


def state_words(*seeds):
    """One round's (n, 4) PCG64 state words, one row per client, each
    default_rng(seed)'s, as run_simulation hashes them in bulk."""
    seeds = np.array(seeds, dtype=np.uint64)
    return derive_seed(seeds & 0xFFFFFFFF, seeds >> 32, words=4)


def fd_gradient(theta, features, labels, task, anchor=None, mu=0.0, h=1e-6):
    grad = np.zeros_like(theta)
    for k in range(theta.size):
        up = theta.copy()
        up[k] += h
        down = theta.copy()
        down[k] -= h
        grad[k] = (
            decoder_loss(up, features, labels, task, anchor, mu)
            - decoder_loss(down, features, labels, task, anchor, mu)
        ) / (2 * h)
    return grad


class TestDomainSpec:
    def test_rejects_bad_fields(self):
        with pytest.raises(ConfigInvalid):
            spec(count=0)
        with pytest.raises(ConfigInvalid):
            DomainSpec("x", 10, 3, (0.0,), 0.1, 0.1)
        with pytest.raises(ConfigInvalid, match="^x: input_dim must be >= 1$"):
            DomainSpec("x", 10, 0, (), 0.1, 0.1)
        with pytest.raises(ConfigInvalid):
            spec(concept=-1.0)
        with pytest.raises(ConfigInvalid):
            spec(noise=-0.1)
        with pytest.raises(ConfigInvalid):
            spec(concept=float("nan"))
        with pytest.raises(ConfigInvalid):
            spec(noise=float("inf"))
        with pytest.raises(ConfigInvalid):
            spec(shift=float("nan"))


class TestFrozenBackbone:
    def test_same_seed_same_weights(self):
        a, b = backbone(3), backbone(3)
        assert np.array_equal(a.weight, b.weight)
        assert np.array_equal(a.bias, b.bias)

    def test_features_bounded_by_tanh(self):
        bb = backbone()
        x = np.random.default_rng(0).normal(size=(50, INPUT_DIM)) * 10
        f = bb.features(x)
        assert f.shape == (50, FEATURE_DIM)
        assert np.all(np.abs(f) <= 1.0)

    def test_manifest_covers_weights_and_bias(self):
        assert client().decoder_dim == FEATURE_DIM + 1


class TestGenerateDomainDataset:
    """The domain data make_clients draws."""

    def test_deterministic(self):
        a = dataset(spec(), 0, 1, 2)
        b = dataset(spec(), 0, 1, 2)
        for name in ("features_train", "train_y", "features_test", "test_y"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_zero_concept_shift_shares_the_generating_head(self):
        domain = spec(concept=0.0, noise=0.0)
        a_head = generating_head(domain, 7, 100)
        b_head = generating_head(domain, 7, 200)
        assert np.array_equal(a_head, b_head)
        # the replayed heads are the ones that labelled the data
        assert_noiseless_labels_follow(dataset(domain, 0, 7, 100), a_head)
        assert_noiseless_labels_follow(dataset(domain, 0, 7, 200), b_head)

    def test_concept_shift_magnitude(self):
        base, moved = spec(concept=0.0, noise=0.0), spec(concept=0.8, noise=0.0)
        base_head = generating_head(base, 7, 100)
        moved_head = generating_head(moved, 7, 100)
        assert np.linalg.norm(moved_head - base_head) == pytest.approx(0.8, abs=1e-12)
        assert_noiseless_labels_follow(dataset(base, 0, 7, 100), base_head)
        assert_noiseless_labels_follow(dataset(moved, 0, 7, 100), moved_head)

    def test_fraction_keeps_prefix(self):
        full = dataset(spec(count=100), 0, 1, 2)
        half = dataset(spec(count=100), 0, 1, 2, train_fraction=0.5)
        assert half.train_sizes == (50,)
        assert np.array_equal(half.features_train, full.features_train[:50])
        assert np.array_equal(half.train_y, full.train_y[:50])
        assert np.array_equal(half.features_test, full.features_test)
        assert np.array_equal(half.test_y, full.test_y)
        # the reduced split is a view of the clients' one allocation (its 50
        # kept rows, then the 500 test rows), not of the full draw
        assert half.features_train.base.shape == (50 + 500, FEATURE_DIM)
        assert half.train_y.base.shape == (50 + 500,)

    def test_tenth_fraction_size(self):
        small = dataset(spec(count=100), 0, 1, 2, train_fraction=0.1)
        assert small.train_sizes == (10,)

    def test_classification_labels_are_signs(self):
        ds = dataset(spec(), 0, 1, 2, task="classification")
        assert set(np.unique(ds.train_y)) <= {-1.0, 1.0}
        assert set(np.unique(ds.test_y)) <= {-1.0, 1.0}

    def test_regression_labels_match_head_when_noiseless(self):
        domain = spec(noise=0.0)
        assert_noiseless_labels_follow(dataset(domain, 0, 1, 2), generating_head(domain, 1, 2))

    def test_inputs_equal_the_scaled_normal_draws(self):
        # standard_normal + shift is bit for bit normal(loc=shift, scale=1.0);
        # the backbone is replayed too, weight drawn before bias
        domain = replace(spec(count=300), shift=(0.3, -1.2, 2.5, 0.0, 7.1, -0.01))
        ds = dataset(domain, 0, 1, 2, test_count=70)
        rng = np.random.default_rng(0)
        weight = rng.normal(0.0, 1.0 / np.sqrt(INPUT_DIM), (INPUT_DIM, FEATURE_DIM))
        bias = rng.normal(0.0, 0.2, FEATURE_DIM)
        rng = np.random.default_rng(2)
        rng.normal(size=FEATURE_DIM)  # the concept direction
        shift = np.array(domain.shift)
        train_x = rng.normal(loc=shift, scale=1.0, size=(300, INPUT_DIM))
        rng.normal(0.0, domain.label_noise, size=300)
        test_x = rng.normal(loc=shift, scale=1.0, size=(70, INPUT_DIM))
        assert ds.features_train.tobytes() == np.tanh(train_x @ weight + bias).tobytes()
        assert ds.features_test[0].tobytes() == np.tanh(test_x @ weight + bias).tobytes()


# log-uniform in 8..1500, as the ragged benchmark draws them, with 1 and 2 rows
RAGGED_COUNTS = (1500, 8, 2, 311, 41, 1, 977, 120, 15)


def ragged_build(build, n, task="regression", train_fraction=1.0):
    """build (make_clients or the serial oracle) over n domains cycling through
    RAGGED_COUNTS, domain i shifted by 0.1 * i and drawn from seed 300 + i."""
    specs = [spec(f"d{i}", count=RAGGED_COUNTS[i % len(RAGGED_COUNTS)], shift=0.1 * i,
                  concept=0.1 * (i % 4), noise=0.05 * (i % 3)) for i in range(n)]
    extra = {"config": LocalConfig()} if build is make_clients else {}
    return build(specs, [5, 6, *range(300, 300 + n)], feature_dim=FEATURE_DIM, task=task,
                 test_count=13, train_fraction=train_fraction, **extra)


def assert_blocks_equal(clients, blocks):
    names = ("features_train", "train_y", "features_test", "test_y", "starts")
    for name, block in zip(names, blocks):
        assert getattr(clients, name).shape == block.shape, name
        assert getattr(clients, name).tobytes() == block.tobytes(), name


class TestThreadedBuild:
    """make_clients draws the domains on two threads, byte for byte as one
    thread drawing them in order would."""

    @pytest.mark.parametrize("train_fraction", [1.0, 0.5])
    @pytest.mark.parametrize("task", ["regression", "classification"])
    @pytest.mark.parametrize("n", [1, 2, 9, 33])
    def test_blocks_equal_the_serial_loop(self, n, task, train_fraction):
        got = ragged_build(make_clients, n, task, train_fraction)
        want = ragged_build(oracle_blocks, n, task, train_fraction)
        assert_blocks_equal(got, want)

    def test_concurrent_builds_under_fast_switching_equal_the_serial_loop(self):
        # four builds at once are eight threads on fewer cores, switching every
        # microsecond: a domain that a lost update of the queue skipped would
        # leave its rows unwritten
        want = ragged_build(oracle_blocks, 40, "classification", 0.5)
        got = [None] * 4

        def build(j):
            got[j] = ragged_build(make_clients, 40, "classification", 0.5)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(j,)) for j in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for clients in got:
            assert_blocks_equal(clients, want)

    @pytest.mark.parametrize("failing", [0, 1, 4, 8])
    def test_a_domain_error_reaches_the_caller_and_no_thread_outlives_it(
            self, monkeypatch, failing):
        # the failing domain is the one whose shift is 0.1 * failing; the
        # others draw on, and the caller gets the very exception raised
        error = MemoryError(f"domain {failing}")
        real = clients_module._inputs

        def inputs(rng, count, shift):
            if shift[0] == 0.1 * failing:
                raise error
            return real(rng, count, shift)

        monkeypatch.setattr(clients_module, "_inputs", inputs)
        before = threading.active_count()
        with pytest.raises(MemoryError) as info:
            ragged_build(make_clients, 9)
        assert info.value is error
        assert threading.active_count() == before

    def test_errors_on_both_threads_raise_one_of_them(self, monkeypatch):
        errors = [ValueError(f"domain {i}") for i in range(9)]
        real = clients_module._inputs

        def inputs(rng, count, shift):
            real(rng, count, shift)
            raise errors[round(shift[0] / 0.1)]

        monkeypatch.setattr(clients_module, "_inputs", inputs)
        before = threading.active_count()
        with pytest.raises(ValueError) as info:
            ragged_build(make_clients, 9)
        assert any(info.value is e for e in errors)
        assert threading.active_count() == before


class TestGradients:
    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_matches_finite_differences(self, task):
        cl = client(task=task)
        rng = np.random.default_rng(17)
        for trial in range(50):
            theta = rng.normal(size=FEATURE_DIM + 1)
            idx = rng.integers(0, cl.train_sizes[0], size=16)
            fb = cl.features_train[idx]
            yb = cl.train_y[idx]
            grad = step_gradient(theta, fb, yb, task)
            approx = fd_gradient(theta, fb, yb, task)
            denom = max(np.linalg.norm(approx), 1e-8)
            assert np.linalg.norm(grad - approx) / denom < 1e-5

    def test_proximal_term_matches_finite_differences(self):
        cl = client()
        rng = np.random.default_rng(23)
        for trial in range(20):
            anchor = rng.normal(size=FEATURE_DIM + 1)
            fb = cl.features_train[:16]
            yb = cl.train_y[:16]
            # the gradient one step away from the anchor, where the pull is not zero
            theta, grad = proximal_step_gradient(anchor, fb, yb, "regression", 0.7)
            assert not np.array_equal(theta, anchor)
            approx = fd_gradient(theta, fb, yb, "regression", anchor, 0.7)
            denom = max(np.linalg.norm(approx), 1e-8)
            assert np.linalg.norm(grad - approx) / denom < 1e-5


class TestLocalTrain:
    def test_zero_steps_returns_decoder_unchanged(self):
        cl = client(local=LocalConfig(steps=0, learning_rate=0.05, batch_size=32))
        start = decoder(0)
        out = local_train(start, cl, state_words(99))
        assert np.array_equal(out, start)
        assert out.shape == start.shape and not out.flags.writeable

    def test_one_full_batch_step_is_exact_gradient_step(self):
        lr = 0.03
        cl = client(local=LocalConfig(steps=1, learning_rate=lr, batch_size=10_000))
        start = decoder(1)
        out = local_train(start, cl, state_words(0))
        # the mean squared error's gradient over the whole split
        x, y, size = cl.features_train, cl.train_y, cl.train_sizes[0]
        residual = x @ start[0, :-1] + start[0, -1] - y
        grad = np.append((2.0 / size) * (x.T @ residual), 2.0 * np.mean(residual))
        assert np.allclose(out, start - lr * grad, atol=1e-14)

    def test_replay_is_bitwise_identical(self):
        cl = client()
        start = decoder(fill=0.0)
        assert np.array_equal(
            local_train(start, cl, state_words(7)), local_train(start, cl, state_words(7)),
        )

    def test_noiseless_task_trains_to_tiny_loss(self):
        cl = client(
            noise=0.0,
            local=LocalConfig(steps=4000, learning_rate=0.3, batch_size=10_000),
        )
        [out] = local_train(decoder(fill=0.0), cl, state_words(0))
        final = decoder_loss(out, cl.features_train, cl.train_y, "regression")
        # the noiseless targets are realizable, so the least-squares optimum is 0
        coeffs, *_ = np.linalg.lstsq(
            np.hstack([cl.features_train, np.ones((cl.train_sizes[0], 1))]),
            cl.train_y,
            rcond=None,
        )
        optimum = decoder_loss(coeffs, cl.features_train, cl.train_y, "regression")
        assert optimum < 1e-20
        assert final < 1e-6

    def test_full_batch_loss_is_non_increasing(self):
        cl = client(local=LocalConfig(steps=1, learning_rate=0.05, batch_size=10_000))
        theta = decoder(2)
        losses = []
        for _ in range(30):
            losses.append(
                decoder_loss(theta[0], cl.features_train, cl.train_y, "regression")
            )
            theta = local_train(theta, cl, state_words(0))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_dimension_checked_against_manifest(self):
        cl = client()
        for bad in (np.zeros((1, FEATURE_DIM)), np.zeros(FEATURE_DIM + 1),
                    np.zeros((2, FEATURE_DIM + 1))):
            with pytest.raises(InvalidInput, match=r"expected \(1, 9\)"):
                local_train(bad, cl, state_words(0))

    def test_divergence_raises_non_finite_loss(self):
        cl = client(local=LocalConfig(steps=400, learning_rate=50.0, batch_size=10_000))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteLoss):
            local_train(decoder(fill=1.0), cl, state_words(0))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_output_always_finite(self, seed):
        cl = client(local=LocalConfig(steps=3, learning_rate=0.05, batch_size=8))
        out = local_train(decoder(seed), cl, state_words(seed))
        assert np.all(np.isfinite(out))


class TestLocalTrainFedprox:
    def test_mu_zero_matches_plain_training(self):
        local = LocalConfig(steps=5, learning_rate=0.05, batch_size=32, prox_mu=0.0)
        start = decoder(4)
        plain = local_train(start, client(local=local), state_words(13))
        prox = local_train_fedprox(start, client(local=local), state_words(13))
        assert np.array_equal(plain, prox)
        # mu is read from the client's config
        pulled = client(local=replace(local, prox_mu=0.5))
        assert not np.array_equal(plain, local_train_fedprox(start, pulled, state_words(13)))

    def test_huge_mu_pins_decoder_to_anchor(self):
        cl = client(local=LocalConfig(steps=200, learning_rate=1e-7,
                                      batch_size=10_000, prox_mu=1e6))
        anchor = decoder(5)
        out = local_train_fedprox(anchor, cl, state_words(0))
        assert np.max(np.abs(out - anchor)) < 1e-3

    def test_pull_that_overflows_the_step_loss_is_reported(self):
        # one zero feature row labelled y: step 0's loss is y^2, finite, and
        # at rate 0.5 its step lands the bias on y, so step 1's mean loss is 0
        # and its pull y^2, finite; 0.5 * mu * y^2 overflows at mu = 3, where
        # a quarter of mu times the pull would not, and the uploads stay finite
        y, mu = np.sqrt(1.5e308), 3.0
        assert np.isfinite(y * y) and np.isfinite(0.25 * mu * (y * y))
        with np.errstate(over="ignore"):
            assert np.isinf(0.5 * mu * (y * y))
        local = LocalConfig(steps=2, learning_rate=0.5, batch_size=1, prox_mu=mu)
        cl = Clients((spec(count=1),), "regression", local, np.zeros((1, FEATURE_DIM)),
                     np.array([y]), np.zeros((1, 1, FEATURE_DIM)), np.zeros((1, 1)),
                     np.array([0, 1]))
        start = decoder(fill=0.0)
        expected = "non-finite loss at step 1 on d0; reduce the learning rate"
        assert oracle_failure(start[0], cl, 0, 0, proximal=True) == expected
        with pytest.raises(NonFiniteLoss) as info:
            local_train_fedprox(start, cl, state_words(0))
        assert str(info.value) == expected
        # without the pull the same round trains to finite uploads
        assert np.isfinite(local_train(start, cl, state_words(0))).all()

    def test_negative_mu_rejected(self):
        with pytest.raises(ConfigInvalid):
            LocalConfig(steps=5, learning_rate=0.05, batch_size=32, prox_mu=-0.1)


# batch size 16 against train sizes below, at and above it
BATCH = 16
SIZES = (5, 16, 17, 40, 200)
ONE_CONFIG = (LocalConfig(steps=4, learning_rate=0.05, batch_size=BATCH, prox_mu=0.3),)
MIXED_CONFIGS = (
    LocalConfig(steps=4, learning_rate=0.05, batch_size=BATCH, prox_mu=0.3),
    LocalConfig(steps=3, learning_rate=0.1, batch_size=8, prox_mu=0.0),
    LocalConfig(steps=0, learning_rate=0.05, batch_size=BATCH),
)


TASK_MIXES = {"regression": ("regression",), "classification": ("classification",),
              "mixed": ("regression", "classification")}


def round_of_clients(k, task, local, train_fraction=1.0):
    """k clients over one backbone, cycling through SIZES, all training on
    task with local."""
    return population(
        [spec(f"d{i}", count=SIZES[i % len(SIZES)], shift=0.1 * (i % 7),
              concept=0.2 + 0.1 * (i % 5)) for i in range(k)],
        0, 11, [100 + i for i in range(k)], task=task, local=local,
        test_count=10, train_fraction=train_fraction,
    )


def rounds_of_clients(k, task, configs, train_fraction=1.0):
    """One population of k clients per config and task; the task "mixed"
    takes regression and classification in turn."""
    return [round_of_clients(k, one, local, train_fraction)
            for local in configs for one in TASK_MIXES[task]]


def oracle_failure(decoder, clients, i, seed, proximal=False):
    """The oracle's divergence message for client i, or None."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            oracle_local_train(decoder, clients, i, seed, proximal)
        except NonFiniteLoss as exc:
            return str(exc)
    return None


def assert_round_matches_the_oracle(decoders, clients, seeds, proximal):
    """The kernel raises the message of the lowest-index client the oracle
    fails on, or, if it fails on none, returns the oracle's uploads. Returns
    the oracle's message."""
    failures = [oracle_failure(d, clients, i, seed, proximal)
                for i, (d, seed) in enumerate(zip(decoders, seeds))]
    expected = next(filter(None, failures), None)
    train = local_train_fedprox if proximal else local_train
    if expected is not None:
        with pytest.raises(NonFiniteLoss) as info:
            train(decoders, clients, state_words(*seeds))
        assert str(info.value) == expected
        return expected
    got = train(decoders, clients, state_words(*seeds))
    for i, (decoder, seed, upload) in enumerate(zip(decoders, seeds, got)):
        assert upload.tobytes() == oracle_local_train(decoder, clients, i, seed,
                                                      proximal).tobytes(), i
    return None


# rows of a hand-made classification split under a decoder whose only nonzero
# weight w is on feature 0, which is 0.5, -0.5 or 0 times the label: under an
# infinite w, "r" scores infinite with the label's sign (loss 0), "w" against
# it (loss inf) and "z" scores 0 * inf = NaN
EDGE_ROWS = {"r": 0.5, "w": -0.5, "z": 0.0}
# batch 4: d0, d1, d2 and d7 train full-batch in one group of size 3, d3 in
# one of size 4; d4, d5 and d6 draw mini-batches from 12 rows, each holding at
# most one row whose loss is not finite
EDGE_CLIENTS = ("rrr", "rwr", "rzr", "wrww", "r" * 11 + "w", "r" * 6 + "z" + "r" * 5,
                "r" * 12, "rrz")
# under a weight of 1.5e308, each "w" row of "wrww" has loss 0.75e308 and its
# "r" row 0: the three overflow the loss sum, while the plain -ys sum to a
# finite 1.5e308, the "r" row cancelling one "w"
HUGE_WEIGHT = 1.5e308


def edge_population(proximal):
    """Classification clients over the EDGE_CLIENTS rows, labels alternating
    +1 and -1, the other features small and finite."""
    rng = np.random.default_rng(9)
    rows = [EDGE_ROWS[kind] for pattern in EDGE_CLIENTS for kind in pattern]
    labels = np.resize([1.0, -1.0], len(rows))
    features = rng.normal(0.0, 0.1, size=(len(rows), FEATURE_DIM))
    features[:, 0] = np.multiply(rows, labels)
    starts = np.cumsum([0, *map(len, EDGE_CLIENTS)])
    n = len(EDGE_CLIENTS)
    local = LocalConfig(steps=6, learning_rate=0.1, batch_size=4,
                        prox_mu=0.5 if proximal else 0.0)
    domains = tuple(spec(f"d{i}", count=len(p)) for i, p in enumerate(EDGE_CLIENTS))
    return Clients(domains, "classification", local, features, labels,
                   np.zeros((n, 1, FEATURE_DIM)), np.ones((n, 1)), starts)


def edge_decoders(weights):
    """One decoder per client, zero but for feature 0's weight."""
    decoders = np.zeros((len(weights), FEATURE_DIM + 1))
    decoders[:, 0] = weights
    return decoders


class TestBatchedTraining:
    @pytest.mark.parametrize("proximal", [False, True], ids=["plain", "fedprox"])
    @pytest.mark.parametrize("configs", [ONE_CONFIG, MIXED_CONFIGS],
                             ids=["one_config", "mixed_configs"])
    @pytest.mark.parametrize("task", ["regression", "classification", "mixed"])
    @pytest.mark.parametrize("k", [1, 2, 5, 64])
    def test_uploads_equal_the_per_client_oracle(self, k, task, configs, proximal):
        for clients in rounds_of_clients(k, task, configs):
            rng = np.random.default_rng(k)
            decoders = rng.normal(size=(k, FEATURE_DIM + 1))
            seeds = [int(s) for s in rng.integers(0, 2**62, size=k)]
            train = local_train_fedprox if proximal else local_train
            got = train(decoders, clients, state_words(*seeds))
            assert got.shape == (k, FEATURE_DIM + 1)
            for i, (decoder, seed, upload) in enumerate(zip(decoders, seeds, got)):
                want = oracle_local_train(decoder, clients, i, seed, proximal)
                assert upload.tobytes() == want.tobytes(), (clients.config, clients.task, i)

    def test_groups_are_batch_shapes_in_first_member_order(self):
        # batch 16 over sizes 5, 16, 17, 40, 200, twice: 5 and 16 are
        # full-batch sizes, 17, 40 and 200 mini-batch
        clients = round_of_clients(10, "regression", ONE_CONFIG[0])
        groups = [g.tolist() for g in clients.groups]
        assert groups == [[0, 5], [1, 6], [2, 3, 4, 7, 8, 9]]
        assert sorted(i for g in groups for i in g) == list(range(10))
        assert [g[0] for g in groups] == sorted(g[0] for g in groups)
        for g in groups[:2]:
            assert len({clients.train_sizes[i] for i in g}) == 1
            assert clients.train_sizes[g[0]] <= BATCH
        assert all(clients.train_sizes[i] > BATCH for i in groups[2])
        first_rows = [int(np.flatnonzero(clients.row_client == j)[0]) for j in range(10)]
        assert clients.row_starts.tolist() == first_rows

    def test_divergence_names_the_lowest_index_client(self):
        # one group steps all three together; the larger the input shift, the
        # sooner a client's loss overflows, so client 2 fails before client 1
        local = LocalConfig(steps=300, learning_rate=1.0, batch_size=10_000)
        clients = population([spec(f"d{i}", shift=shift) for i, shift in enumerate((0, 1, 3))],
                             0, 11, [22, 23, 24], task="regression", local=local,
                             test_count=10)
        assert [g.tolist() for g in clients.groups] == [[0, 1, 2]]
        decoders = np.ones((3, FEATURE_DIM + 1))
        expected = [oracle_failure(d, clients, i, 0) for i, d in enumerate(decoders)]
        assert expected[0] is None
        steps = [int(re.search(r"step (\d+) on", msg).group(1)) for msg in expected[1:]]
        assert steps[1] < steps[0]
        with pytest.raises(NonFiniteLoss) as info:
            local_train(decoders, clients, state_words(0, 0, 0))
        assert str(info.value) == expected[1]

    @pytest.mark.parametrize("batch_size", [10_000, 180], ids=["full_batch", "mini_batch"])
    def test_divergence_across_groups_names_the_lowest_index_client(self, batch_size):
        # client 1 (150 rows, full-batch) is stepped in the second group, after
        # clients 0 and 2 (200 rows each); client 2's larger shift makes it
        # fail at an earlier step than client 1, client 0 does not fail
        local = LocalConfig(steps=300, learning_rate=1.0, batch_size=batch_size)
        clients = population([spec(f"d{i}", count=count, shift=shift)
                              for i, (count, shift) in enumerate(((200, 0), (150, 1), (200, 3)))],
                             0, 11, [22, 23, 24], task="regression", local=local,
                             test_count=10)
        assert [g.tolist() for g in clients.groups] == [[0, 2], [1]]
        decoders = np.ones((3, FEATURE_DIM + 1))
        expected = [oracle_failure(d, clients, i, 5 + i) for i, d in enumerate(decoders)]
        assert expected[0] is None
        steps = [int(re.search(r"step (\d+) on", msg).group(1)) for msg in expected[1:]]
        assert steps[1] < steps[0]
        with pytest.raises(NonFiniteLoss) as info:
            local_train(decoders, clients, state_words(5, 6, 7))
        assert str(info.value) == expected[1]

    @pytest.mark.parametrize("proximal", [False, True], ids=["plain", "fedprox"])
    def test_later_divergence_in_the_middle_of_a_group_is_named(self, proximal):
        # groups {0, 2} (150 rows, full-batch) and {1, 3} (mini-batch): d2's
        # rows sit between d0's and the second group's, and d3 fails first,
        # at an earlier step than d2, the client to name
        local = LocalConfig(steps=300, learning_rate=1.0, batch_size=180, prox_mu=0.01)
        clients = population([spec(f"d{i}", count=count, shift=shift) for i, (count, shift)
                              in enumerate(((150, 0), (200, 0), (150, 1), (200, 3)))],
                             0, 11, [22, 23, 24, 25], task="regression",
                             local=local, test_count=10)
        assert [g.tolist() for g in clients.groups] == [[0, 2], [1, 3]]
        decoders = np.ones((4, FEATURE_DIM + 1))
        failures = [oracle_failure(d, clients, i, 5 + i, proximal)
                    for i, d in enumerate(decoders)]
        assert failures[:2] == [None, None]
        steps = [int(re.search(r"step (\d+) on", msg).group(1)) for msg in failures[2:]]
        assert 0 < steps[1] < steps[0]
        assert assert_round_matches_the_oracle(decoders, clients, [5, 6, 7, 8],
                                               proximal) == failures[2]

    @pytest.mark.parametrize("proximal", [False, True], ids=["plain", "fedprox"])
    def test_non_finite_scores_give_the_oracle_verdict(self, proximal):
        # one client at a time takes an infinite weight of either sign (the
        # others stay at zero and finite), then every client at once: every
        # verdict, message or upload, is the oracle's, with FedProx's pull
        # added to each step's loss after the step loop
        clients = edge_population(proximal)
        n = len(clients)
        assert [g.tolist() for g in clients.groups] == [[0, 1, 2, 7], [3], [4, 5, 6]]
        seeds = list(range(40, 40 + n))
        verdicts = set()
        for sign in (1.0, -1.0):
            for i in range(n):
                weights = np.zeros(n)
                weights[i] = sign * np.inf
                verdicts.add(assert_round_matches_the_oracle(
                    edge_decoders(weights), clients, seeds, proximal))
            verdicts.add(assert_round_matches_the_oracle(
                edge_decoders(np.full(n, sign * np.inf)), clients, seeds, proximal))
        if proximal:
            # inf - inf makes step 0's pull NaN on every client with an
            # infinite weight, whatever its scores
            assert verdicts == {f"non-finite loss at step 0 on d{i}; reduce the learning rate"
                                for i in range(n)}
            return
        # a loss that is not finite at step 0 and at a later one, and an
        # upload that is not finite after losses that all were
        assert None not in verdicts
        assert any(v.startswith("training diverged") for v in verdicts)
        assert any(re.search(r"at step [1-9]", v) for v in verdicts)

    @pytest.mark.parametrize("proximal", [False, True], ids=["plain", "fedprox"])
    def test_huge_finite_scores_give_the_oracle_verdict(self, proximal):
        # d3's "wrww" rows overflow their loss sum at step 0; a surrogate
        # without the max would sum -ys to 1.5e308, finite, and train on
        clients = edge_population(proximal)
        weights = np.zeros(len(clients))
        weights[3] = HUGE_WEIGHT
        seeds = list(range(40, 40 + len(clients)))
        assert assert_round_matches_the_oracle(edge_decoders(weights), clients, seeds,
                                               proximal) == (
            "non-finite loss at step 0 on d3; reduce the learning rate")

    def test_end_of_loop_check_catches_a_non_finite_decoder(self):
        # the one step's loss is finite, but its update overflows
        cl = client(local=LocalConfig(steps=1, learning_rate=1e300, batch_size=10_000))
        start = decoder(fill=1e10)
        assert np.isfinite(decoder_loss(start[0], cl.features_train, cl.train_y, "regression"))
        expected = oracle_failure(start[0], cl, 0, 0)
        assert expected.startswith("training diverged on d0")
        with pytest.raises(NonFiniteLoss) as info:
            local_train(start, cl, state_words(0))
        assert str(info.value) == expected

    def test_words_and_decoders_need_one_row_per_client(self):
        cl = client()
        for bad in (state_words(0, 1), state_words(0)[0], state_words(0)[:, :3],
                    state_words(0).astype(np.int64), state_words(0).tolist()):
            with pytest.raises(InvalidInput, match="state words"):
                local_train(decoder(fill=0.0), cl, bad)
        with pytest.raises(InvalidInput):
            local_train(np.zeros((2, FEATURE_DIM + 1)), cl, state_words(0))

    def test_only_mini_batch_clients_read_their_words(self):
        # clients 0 and 1 (5 and 16 rows) train full-batch at batch size 16
        clients = round_of_clients(5, "regression", ONE_CONFIG[0])
        decoders = np.random.default_rng(4).normal(size=(5, FEATURE_DIM + 1))
        words = state_words(10, 11, 12, 13, 14)
        base = local_train(decoders, clients, words)
        for i in range(5):
            changed = words.copy()
            changed[i] ^= np.uint64(1)
            got = local_train(decoders, clients, changed)
            same = [a.tobytes() == b.tobytes() for a, b in zip(base, got)]
            assert same == [j != i or clients.train_sizes[i] <= BATCH for j in range(5)], i

    def test_reduced_fraction_equals_the_per_client_oracle(self):
        # ragged prefixes of the draws, gathered from one block by offset
        for clients in rounds_of_clients(10, "mixed", MIXED_CONFIGS, train_fraction=0.5):
            assert clients.train_sizes[:5] == (2, 8, 8, 20, 100)
            rng = np.random.default_rng(3)
            decoders = rng.normal(size=(10, FEATURE_DIM + 1))
            seeds = [int(s) for s in rng.integers(0, 2**62, size=10)]
            got = local_train_fedprox(decoders, clients, state_words(*seeds))
            for i, (decoder, seed, upload) in enumerate(zip(decoders, seeds, got)):
                want = oracle_local_train(decoder, clients, i, seed, proximal=True)
                assert upload.tobytes() == want.tobytes(), (clients.config, clients.task, i)


class TestDrawIndices:
    """The mini-batch draws replay numpy's bounded integers from raw PCG64
    words. NEP 19 does not freeze Generator.integers, so these are the first
    tests to fail when a numpy upgrade changes its draws."""

    @staticmethod
    def assert_rows_equal_integers(words, highs, count):
        changed = f"numpy {np.__version__} changed Generator.integers's draws"
        got = _draw_indices(words, highs, count)
        assert got.shape == (len(highs), count)
        for row, w, high in zip(got, words, highs):
            want = np.random.Generator(np.random.PCG64(_StateWords(w))).integers(
                0, high, size=count)
            assert row.tobytes() == want.astype(np.uint32).tobytes(), (high, changed)

    @staticmethod
    def redrawn(words, high, count):
        """Whether Generator.integers took more PCG64 words than one per two draws."""
        rng, raw = _generator(words), np.random.PCG64(_StateWords(words))
        rng.integers(0, high, size=count)
        raw.random_raw(-(-count // 2))
        return rng.bit_generator.state["state"] != raw.state["state"]

    @pytest.mark.parametrize("count", [0, 1, 2, 7, 320, 321])
    def test_equals_generator_integers(self, count):
        rng = np.random.default_rng(count)
        edges = [1, 2, 3, 5, 17, 500, MAX_ROWS - 1, MAX_ROWS, 2**32 - 1, 2**32]
        highs = np.concatenate([edges, rng.integers(2, MAX_ROWS + 1, size=54)])
        words = state_words(*rng.integers(0, 2**64, size=highs.size, dtype=np.uint64))
        self.assert_rows_equal_integers(words, highs, count)

    @pytest.mark.parametrize("count", [1, 2, 7, 320, 321])
    def test_redrawn_rows_equal_generator_integers(self, count):
        # above 2**31 numpy draws again with probability (2**32 - high) / 2**32,
        # here at least a quarter: rows that redraw sit beside rows that do not
        rng = np.random.default_rng(100 + count)
        highs = np.concatenate([rng.integers(2**31 + 1, 2**31 + 2**30, size=48),
                                rng.integers(2, MAX_ROWS + 1, size=16)])
        rng.shuffle(highs)
        words = state_words(*rng.integers(0, 2**64, size=highs.size, dtype=np.uint64))
        assert any(self.redrawn(w, high, count) for w, high in zip(words, highs))
        self.assert_rows_equal_integers(words, highs, count)


class TestEvaluate:
    def test_perfect_decoder_on_noiseless_data(self):
        cl = client(noise=0.0)
        theta = np.concatenate([generating_head(spec(noise=0.0), 11, 22), [0.0]])
        losses, accuracies = evaluate(theta[None], cl)
        assert losses[0] < 1e-9
        assert accuracies is None

    def test_constant_zero_decoder_near_chance_accuracy(self):
        # a zero decoder scores 0 on every row, which counts as a +1 guess, so
        # its accuracy is exactly the share of +1 test labels
        big = DomainSpec("d", 10, INPUT_DIM, (0.0,) * INPUT_DIM, 0.5, 0.0)
        cl = population([big], 1, 3, [4], task="classification",
                        local=LocalConfig(), test_count=1000)
        _, accuracies = evaluate(decoder(fill=0.0), cl)
        assert accuracies[0] == np.count_nonzero(cl.test_y > 0) / 1000
        assert 0 < accuracies[0] < 1

    def test_classification_reports_accuracy(self):
        cl = client(task="classification")
        _, accuracies = evaluate(decoder(fill=0.0), cl)
        assert accuracies is not None
        assert 0.0 <= accuracies[0] <= 1.0

    def test_repeat_evaluation_identical(self):
        cl = client()
        theta = decoder(6)
        assert evaluate(theta, cl) == evaluate(theta, cl)

    @pytest.mark.parametrize("fraction", [1.0, 0.5])
    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_stacked_scores_equal_the_per_client_oracle(self, task, fraction):
        clients = round_of_clients(12, task, MIXED_CONFIGS[0], train_fraction=fraction)
        rng = np.random.default_rng(12)
        decoders = rng.normal(size=(12, FEATURE_DIM + 1))
        for deliveries in (decoders, np.broadcast_to(decoders[3], decoders.shape)):
            losses, accuracies = evaluate(deliveries, clients)
            want = [oracle_evaluate(d, clients, i) for i, d in enumerate(deliveries)]
            assert losses == tuple(loss for loss, _ in want)
            if task == "classification":
                assert accuracies == tuple(acc for _, acc in want)
            else:
                assert accuracies is None

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_non_finite_loss_names_the_lowest_index_client(self, task):
        clients = round_of_clients(4, task, ONE_CONFIG[0])
        decoders = np.zeros((4, FEATURE_DIM + 1))
        decoders[3, -1] = decoders[1, -1] = np.inf  # an infinite bias, so infinite losses
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteLoss) as info:
            evaluate(decoders, clients)
        assert str(info.value) == "non-finite test loss on d1; reduce the learning rate"
        decoders[1] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteLoss,
                                                          match="^non-finite test loss on d1;"):
            evaluate(decoders, clients)

    def test_decoder_shape_checked(self):
        cl = client()
        with pytest.raises(InvalidInput, match=r"expected \(1, 9\)"):
            evaluate(np.zeros(FEATURE_DIM + 1), cl)
