import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedswap.clients import (
    DomainSpec,
    FrozenBackbone,
    LocalConfig,
    decoder_loss_and_gradient,
    evaluate,
    local_train,
    local_train_fedprox,
    make_client,
)
from fedswap.errors import ConfigInvalid, InvalidInput, NonFiniteLoss
from fedswap.params import ParamVector
from loss_oracle import decoder_loss
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


def dataset(domain, bb, concept_seed, domain_seed, *, task="regression",
            test_count=500, train_fraction=1.0, local=None):
    shared_head = np.random.default_rng(concept_seed).normal(size=bb.feature_dim)
    return make_client(
        domain, bb, local or LocalConfig(), shared_head, domain_seed,
        task=task, test_count=test_count, train_fraction=train_fraction,
    )


def client(task="regression", noise=0.1, count=200, local=None, seed=0):
    return dataset(
        spec(count=count, noise=noise), backbone(seed), 11, 22, task=task,
        test_count=100,
        local=local or LocalConfig(steps=5, learning_rate=0.05, batch_size=32),
    )


def rngs(*seeds):
    """One round's generators, one per client, as default_rng of each seed."""
    return [np.random.default_rng(seed) for seed in seeds]


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
        assert backbone().decoder_dim == FEATURE_DIM + 1


class TestGenerateDomainDataset:
    """The domain data make_client draws."""

    def test_deterministic(self):
        bb = backbone()
        a = dataset(spec(), bb, 1, 2)
        b = dataset(spec(), bb, 1, 2)
        for name in ("features_train", "train_y", "features_test", "test_y"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_zero_concept_shift_shares_the_generating_head(self):
        bb = backbone()
        a = dataset(spec(concept=0.0), bb, 7, 100)
        b = dataset(spec(concept=0.0), bb, 7, 200)
        assert np.array_equal(a.true_head, b.true_head)

    def test_concept_shift_magnitude(self):
        bb = backbone()
        base = dataset(spec(concept=0.0), bb, 7, 100)
        moved = dataset(spec(concept=0.8), bb, 7, 100)
        assert np.linalg.norm(moved.true_head - base.true_head) == pytest.approx(
            0.8, abs=1e-12
        )

    def test_fraction_keeps_prefix(self):
        bb = backbone()
        full = dataset(spec(count=100), bb, 1, 2)
        half = dataset(spec(count=100), bb, 1, 2, train_fraction=0.5)
        assert half.train_size == 50
        assert np.array_equal(half.features_train, full.features_train[:50])
        assert np.array_equal(half.train_y, full.train_y[:50])
        assert np.array_equal(half.features_test, full.features_test)
        assert np.array_equal(half.test_y, full.test_y)
        # the reduced split owns its rows and does not keep the full draw alive
        assert half.features_train.base is None and half.train_y.base is None

    def test_tenth_fraction_size(self):
        bb = backbone()
        small = dataset(spec(count=100), bb, 1, 2, train_fraction=0.1)
        assert small.train_size == 10

    def test_classification_labels_are_signs(self):
        bb = backbone()
        ds = dataset(spec(), bb, 1, 2, task="classification")
        assert set(np.unique(ds.train_y)) <= {-1.0, 1.0}
        assert set(np.unique(ds.test_y)) <= {-1.0, 1.0}

    def test_regression_labels_match_head_when_noiseless(self):
        bb = backbone()
        ds = dataset(spec(noise=0.0), bb, 1, 2)
        assert np.allclose(ds.train_y, ds.features_train @ ds.true_head, atol=1e-12)
        assert np.allclose(ds.test_y, ds.features_test @ ds.true_head, atol=1e-12)

    def test_inputs_equal_the_scaled_normal_draws(self):
        # standard_normal + shift is bit for bit normal(loc=shift, scale=1.0)
        bb = backbone()
        domain = replace(spec(count=300), shift=(0.3, -1.2, 2.5, 0.0, 7.1, -0.01))
        ds = dataset(domain, bb, 1, 2, test_count=70)
        rng = np.random.default_rng(2)
        rng.normal(size=FEATURE_DIM)  # the concept direction
        shift = np.array(domain.shift)
        train_x = rng.normal(loc=shift, scale=1.0, size=(300, INPUT_DIM))
        rng.normal(0.0, domain.label_noise, size=300)
        test_x = rng.normal(loc=shift, scale=1.0, size=(70, INPUT_DIM))
        assert ds.features_train.tobytes() == bb.features(train_x).tobytes()
        assert ds.features_test.tobytes() == bb.features(test_x).tobytes()

    def test_rejects_bad_arguments(self):
        bb = backbone()
        with pytest.raises(ConfigInvalid):
            dataset(spec(), bb, 1, 2, task="ranking")
        with pytest.raises(ConfigInvalid):
            dataset(spec(), bb, 1, 2, train_fraction=0.0)
        with pytest.raises(ConfigInvalid):
            dataset(spec(), bb, 1, 2, test_count=0)
        other = FrozenBackbone.create(0, INPUT_DIM + 1, FEATURE_DIM)
        with pytest.raises(ConfigInvalid):
            dataset(spec(), other, 1, 2)
        with pytest.raises(ConfigInvalid, match="^shared_head must have shape"):
            make_client(spec(), bb, LocalConfig(), np.zeros(FEATURE_DIM + 1), 2,
                        task="regression", test_count=10, train_fraction=1.0)


class TestGradients:
    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_matches_finite_differences(self, task):
        cl = client(task=task)
        rng = np.random.default_rng(17)
        for trial in range(50):
            theta = rng.normal(size=FEATURE_DIM + 1)
            idx = rng.integers(0, cl.train_size, size=16)
            fb = cl.features_train[idx]
            yb = cl.train_y[idx]
            loss, grad = decoder_loss_and_gradient(theta[None], fb[None], yb[None], task)
            assert loss[0] == decoder_loss(theta, fb, yb, task)
            approx = fd_gradient(theta, fb, yb, task)
            denom = max(np.linalg.norm(approx), 1e-8)
            assert np.linalg.norm(grad[0] - approx) / denom < 1e-5

    def test_proximal_term_matches_finite_differences(self):
        cl = client()
        rng = np.random.default_rng(23)
        for trial in range(20):
            theta = rng.normal(size=FEATURE_DIM + 1)
            anchor = rng.normal(size=FEATURE_DIM + 1)
            fb = cl.features_train[:16]
            yb = cl.train_y[:16]
            loss, grad = decoder_loss_and_gradient(
                theta[None], fb[None], yb[None], "regression", anchor[None], 0.7
            )
            assert loss[0] == decoder_loss(theta, fb, yb, "regression", anchor, 0.7)
            approx = fd_gradient(theta, fb, yb, "regression", anchor, 0.7)
            denom = max(np.linalg.norm(approx), 1e-8)
            assert np.linalg.norm(grad[0] - approx) / denom < 1e-5


class TestLocalTrain:
    def test_zero_steps_returns_decoder_unchanged(self):
        cl = client(local=LocalConfig(steps=0, learning_rate=0.05, batch_size=32))
        start = ParamVector(np.random.default_rng(0).normal(size=FEATURE_DIM + 1))
        [out] = local_train([start], [cl], rngs(99))
        assert np.array_equal(out.values, start.values)

    def test_one_full_batch_step_is_exact_gradient_step(self):
        lr = 0.03
        cl = client(local=LocalConfig(steps=1, learning_rate=lr, batch_size=10_000))
        start = ParamVector(np.random.default_rng(1).normal(size=FEATURE_DIM + 1))
        [out] = local_train([start], [cl], rngs(0))
        _, grad = decoder_loss_and_gradient(
            start.values[None], cl.features_train[None], cl.train_y[None], "regression"
        )
        assert np.allclose(out.values, start.values - lr * grad[0], atol=1e-14)

    def test_replay_is_bitwise_identical(self):
        cl = client()
        start = ParamVector(np.zeros(FEATURE_DIM + 1))
        assert np.array_equal(
            local_train([start], [cl], rngs(7))[0].values,
            local_train([start], [cl], rngs(7))[0].values,
        )

    def test_noiseless_task_trains_to_tiny_loss(self):
        cl = client(
            noise=0.0,
            local=LocalConfig(steps=4000, learning_rate=0.3, batch_size=10_000),
        )
        [out] = local_train([ParamVector(np.zeros(FEATURE_DIM + 1))], [cl], rngs(0))
        final = decoder_loss(
            out.values, cl.features_train, cl.train_y, "regression"
        )
        # the noiseless targets are realizable, so the least-squares optimum is 0
        coeffs, *_ = np.linalg.lstsq(
            np.hstack([cl.features_train, np.ones((cl.train_size, 1))]),
            cl.train_y,
            rcond=None,
        )
        optimum = decoder_loss(
            coeffs, cl.features_train, cl.train_y, "regression"
        )
        assert optimum < 1e-20
        assert final < 1e-6

    def test_full_batch_loss_is_non_increasing(self):
        cl = client(local=LocalConfig(steps=1, learning_rate=0.05, batch_size=10_000))
        theta = ParamVector(np.random.default_rng(2).normal(size=FEATURE_DIM + 1))
        losses = []
        for _ in range(30):
            losses.append(
                decoder_loss(
                    theta.values, cl.features_train, cl.train_y, "regression"
                )
            )
            [theta] = local_train([theta], [cl], rngs(0))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_backbone_untouched_by_training(self):
        cl = client()
        before_w = cl.backbone.weight.copy()
        before_b = cl.backbone.bias.copy()
        local_train([ParamVector(np.zeros(FEATURE_DIM + 1))], [cl], rngs(0))
        assert np.array_equal(cl.backbone.weight, before_w)
        assert np.array_equal(cl.backbone.bias, before_b)

    def test_dimension_checked_against_manifest(self):
        cl = client()
        with pytest.raises(InvalidInput):
            local_train([ParamVector(np.zeros(FEATURE_DIM))], [cl], rngs(0))

    def test_divergence_raises_non_finite_loss(self):
        cl = client(local=LocalConfig(steps=400, learning_rate=50.0, batch_size=10_000))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteLoss):
            local_train([ParamVector(np.ones(FEATURE_DIM + 1))], [cl], rngs(0))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_output_always_finite(self, seed):
        cl = client(local=LocalConfig(steps=3, learning_rate=0.05, batch_size=8))
        start = ParamVector(np.random.default_rng(seed).normal(size=FEATURE_DIM + 1))
        [out] = local_train([start], [cl], rngs(seed))
        assert np.all(np.isfinite(out.values))


class TestLocalTrainFedprox:
    def test_mu_zero_matches_plain_training(self):
        local = LocalConfig(steps=5, learning_rate=0.05, batch_size=32, prox_mu=0.0)
        start = ParamVector(np.random.default_rng(4).normal(size=FEATURE_DIM + 1))
        [plain] = local_train([start], [client(local=local)], rngs(13))
        [prox] = local_train_fedprox([start], [client(local=local)], rngs(13))
        assert np.array_equal(plain.values, prox.values)
        # mu is read from the client's config
        pulled = client(local=replace(local, prox_mu=0.5))
        assert not np.array_equal(
            plain.values, local_train_fedprox([start], [pulled], rngs(13))[0].values
        )

    def test_huge_mu_pins_decoder_to_anchor(self):
        cl = client(local=LocalConfig(steps=200, learning_rate=1e-7,
                                      batch_size=10_000, prox_mu=1e6))
        anchor = ParamVector(np.random.default_rng(5).normal(size=FEATURE_DIM + 1))
        [out] = local_train_fedprox([anchor], [cl], rngs(0))
        assert np.max(np.abs(out.values - anchor.values)) < 1e-3

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


def round_of_clients(k, task, configs):
    """k clients over one backbone, cycling through SIZES and configs; the
    task "mixed" alternates regression and classification."""
    bb = backbone()
    tasks = ("regression", "classification") if task == "mixed" else (task,)
    return [
        dataset(spec(f"d{i}", count=SIZES[i % len(SIZES)], shift=0.1 * (i % 7),
                     concept=0.2 + 0.1 * (i % 5)),
                bb, 11, 100 + i, task=tasks[i % len(tasks)], test_count=10,
                local=configs[i % len(configs)])
        for i in range(k)
    ]


def oracle_failure(decoder, cl, seed):
    """The oracle's divergence message for one client, or None."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            oracle_local_train(decoder, cl, seed)
        except NonFiniteLoss as exc:
            return str(exc)
    return None


class TestBatchedTraining:
    @pytest.mark.parametrize("proximal", [False, True], ids=["plain", "fedprox"])
    @pytest.mark.parametrize("configs", [ONE_CONFIG, MIXED_CONFIGS],
                             ids=["one_config", "mixed_configs"])
    @pytest.mark.parametrize("task", ["regression", "classification", "mixed"])
    @pytest.mark.parametrize("k", [1, 2, 5, 64])
    def test_uploads_equal_the_per_client_oracle(self, k, task, configs, proximal):
        clients = round_of_clients(k, task, configs)
        rng = np.random.default_rng(k)
        decoders = [ParamVector(rng.normal(size=FEATURE_DIM + 1)) for _ in range(k)]
        seeds = [int(s) for s in rng.integers(0, 2**62, size=k)]
        train = local_train_fedprox if proximal else local_train
        got = train(decoders, clients, rngs(*seeds))
        assert len(got) == k
        for decoder, cl, seed, upload in zip(decoders, clients, seeds, got):
            want = oracle_local_train(decoder, cl, seed, proximal)
            assert upload.values.tobytes() == want.values.tobytes(), cl.domain.domain_id

    def test_divergence_names_the_lowest_index_client(self):
        # clients 1 and 2 share a config, so they step together; client 2
        # starts far out and fails at an earlier step than client 1
        wild = LocalConfig(steps=100, learning_rate=50.0, batch_size=10_000)
        tame = LocalConfig(steps=100, learning_rate=0.05, batch_size=10_000)
        bb = backbone()
        clients = [dataset(spec(f"d{i}"), bb, 11, 22 + i, test_count=10, local=local)
                   for i, local in enumerate((tame, wild, wild))]
        decoders = [ParamVector(np.ones(FEATURE_DIM + 1) * scale) for scale in (1, 1, 1e100)]
        expected = [oracle_failure(d, c, 0) for d, c in zip(decoders, clients)]
        assert expected[0] is None
        steps = [int(re.search(r"step (\d+) on", msg).group(1)) for msg in expected[1:]]
        assert steps[1] < steps[0]
        with pytest.raises(NonFiniteLoss) as info:
            local_train(decoders, clients, rngs(0, 0, 0))
        assert str(info.value) == expected[1]

    def test_end_of_loop_check_catches_a_non_finite_decoder(self):
        # the one step's loss is finite, but its update overflows
        cl = client(local=LocalConfig(steps=1, learning_rate=1e300, batch_size=10_000))
        start = ParamVector(np.full(FEATURE_DIM + 1, 1e10))
        loss, _ = decoder_loss_and_gradient(
            start.values[None], cl.features_train[None], cl.train_y[None], "regression"
        )
        assert np.isfinite(loss[0])
        expected = oracle_failure(start, cl, 0)
        assert expected.startswith("training diverged on d0")
        with pytest.raises(NonFiniteLoss) as info:
            local_train([start], [cl], rngs(0))
        assert str(info.value) == expected

    def test_list_lengths_must_agree(self):
        cl = client()
        with pytest.raises(InvalidInput):
            local_train([ParamVector(np.zeros(FEATURE_DIM + 1))] * 2, [cl], rngs(0))


class TestEvaluate:
    def test_perfect_decoder_on_noiseless_data(self):
        cl = client(noise=0.0)
        theta = np.concatenate([cl.true_head, [0.0]])
        result = evaluate(ParamVector(theta), cl)
        assert result.loss < 1e-9
        assert result.accuracy is None

    def test_constant_zero_decoder_near_chance_accuracy(self):
        # bias-free backbone on centered inputs makes the score distribution
        # symmetric around zero, so the label split is a fair coin
        bb = replace(FrozenBackbone.create(1, INPUT_DIM, FEATURE_DIM),
                     bias=np.zeros(FEATURE_DIM))
        big = DomainSpec("d", 10, INPUT_DIM, (0.0,) * INPUT_DIM, 0.5, 0.0)
        cl = dataset(big, bb, 3, 4, task="classification", test_count=1000)
        result = evaluate(ParamVector(np.zeros(FEATURE_DIM + 1)), cl)
        assert abs(result.accuracy - 0.5) <= 0.05

    def test_classification_reports_accuracy(self):
        cl = client(task="classification")
        result = evaluate(ParamVector(np.zeros(FEATURE_DIM + 1)), cl)
        assert result.accuracy is not None
        assert 0.0 <= result.accuracy <= 1.0

    def test_repeat_evaluation_identical(self):
        cl = client()
        theta = ParamVector(np.random.default_rng(6).normal(size=FEATURE_DIM + 1))
        assert evaluate(theta, cl) == evaluate(theta, cl)

