from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedswap.clients import (
    ClientState,
    DomainSpec,
    FrozenBackbone,
    LocalConfig,
    decoder_loss,
    decoder_loss_and_gradient,
    evaluate,
    generate_domain_dataset,
    local_train,
    local_train_fedprox,
)
from fedswap.errors import InvalidSpec, ManifestMismatch, NonFiniteLoss
from fedswap.params import ParamVector

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


def client(task="regression", noise=0.1, count=200, local=None, seed=0):
    bb = backbone(seed)
    data = generate_domain_dataset(
        spec(count=count, noise=noise), bb, 11, 22, task=task, test_count=100
    )
    return ClientState(
        domain=spec(count=count, noise=noise),
        data=data,
        backbone=bb,
        config=local or LocalConfig(steps=5, learning_rate=0.05, batch_size=32),
    )


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
        with pytest.raises(InvalidSpec):
            spec(count=0)
        with pytest.raises(InvalidSpec):
            DomainSpec("x", 10, 3, (0.0,), 0.1, 0.1)
        with pytest.raises(InvalidSpec):
            spec(concept=-1.0)
        with pytest.raises(InvalidSpec):
            spec(noise=-0.1)
        with pytest.raises(InvalidSpec):
            spec(concept=float("nan"))
        with pytest.raises(InvalidSpec):
            spec(noise=float("inf"))
        with pytest.raises(InvalidSpec):
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
    def test_deterministic(self):
        bb = backbone()
        a = generate_domain_dataset(spec(), bb, 1, 2)
        b = generate_domain_dataset(spec(), bb, 1, 2)
        assert np.array_equal(a.train_x, b.train_x)
        assert np.array_equal(a.train_y, b.train_y)
        assert np.array_equal(a.test_x, b.test_x)

    def test_zero_concept_shift_shares_the_generating_head(self):
        bb = backbone()
        a = generate_domain_dataset(spec(concept=0.0), bb, 7, 100)
        b = generate_domain_dataset(spec(concept=0.0), bb, 7, 200)
        assert np.array_equal(a.true_head, b.true_head)

    def test_concept_shift_magnitude(self):
        bb = backbone()
        base = generate_domain_dataset(spec(concept=0.0), bb, 7, 100)
        moved = generate_domain_dataset(spec(concept=0.8), bb, 7, 100)
        assert np.linalg.norm(moved.true_head - base.true_head) == pytest.approx(
            0.8, abs=1e-12
        )

    def test_fraction_keeps_prefix(self):
        bb = backbone()
        full = generate_domain_dataset(spec(count=100), bb, 1, 2)
        half = generate_domain_dataset(spec(count=100), bb, 1, 2, train_fraction=0.5)
        assert half.train_size == 50
        assert np.array_equal(half.train_x, full.train_x[:50])
        assert np.array_equal(half.train_y, full.train_y[:50])
        assert np.array_equal(half.test_x, full.test_x)

    def test_tenth_fraction_size(self):
        bb = backbone()
        small = generate_domain_dataset(spec(count=100), bb, 1, 2, train_fraction=0.1)
        assert small.train_size == 10

    def test_classification_labels_are_signs(self):
        bb = backbone()
        ds = generate_domain_dataset(spec(), bb, 1, 2, task="classification")
        assert set(np.unique(ds.train_y)) <= {-1.0, 1.0}
        assert set(np.unique(ds.test_y)) <= {-1.0, 1.0}

    def test_regression_labels_match_head_when_noiseless(self):
        bb = backbone()
        ds = generate_domain_dataset(spec(noise=0.0), bb, 1, 2)
        expected = bb.features(ds.train_x) @ ds.true_head
        assert np.allclose(ds.train_y, expected, atol=1e-12)

    def test_rejects_bad_arguments(self):
        bb = backbone()
        with pytest.raises(InvalidSpec):
            generate_domain_dataset(spec(), bb, 1, 2, task="ranking")
        with pytest.raises(InvalidSpec):
            generate_domain_dataset(spec(), bb, 1, 2, train_fraction=0.0)
        with pytest.raises(InvalidSpec):
            generate_domain_dataset(spec(), bb, 1, 2, test_count=0)
        other = FrozenBackbone.create(0, INPUT_DIM + 1, FEATURE_DIM)
        with pytest.raises(InvalidSpec):
            generate_domain_dataset(spec(), other, 1, 2)


class TestGradients:
    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_matches_finite_differences(self, task):
        cl = client(task=task)
        rng = np.random.default_rng(17)
        for trial in range(50):
            theta = rng.normal(size=FEATURE_DIM + 1)
            idx = rng.integers(0, cl.train_size, size=16)
            fb = cl.features_train[idx]
            yb = cl.data.train_y[idx]
            loss, grad = decoder_loss_and_gradient(theta, fb, yb, task)
            assert loss == decoder_loss(theta, fb, yb, task)
            approx = fd_gradient(theta, fb, yb, task)
            denom = max(np.linalg.norm(approx), 1e-8)
            assert np.linalg.norm(grad - approx) / denom < 1e-5

    def test_proximal_term_matches_finite_differences(self):
        cl = client()
        rng = np.random.default_rng(23)
        for trial in range(20):
            theta = rng.normal(size=FEATURE_DIM + 1)
            anchor = rng.normal(size=FEATURE_DIM + 1)
            fb = cl.features_train[:16]
            yb = cl.data.train_y[:16]
            loss, grad = decoder_loss_and_gradient(
                theta, fb, yb, "regression", anchor, 0.7
            )
            assert loss == decoder_loss(theta, fb, yb, "regression", anchor, 0.7)
            approx = fd_gradient(theta, fb, yb, "regression", anchor, 0.7)
            denom = max(np.linalg.norm(approx), 1e-8)
            assert np.linalg.norm(grad - approx) / denom < 1e-5


class TestLocalTrain:
    def test_zero_steps_returns_decoder_unchanged(self):
        cl = client(local=LocalConfig(steps=0, learning_rate=0.05, batch_size=32))
        start = ParamVector(np.random.default_rng(0).normal(size=FEATURE_DIM + 1))
        out = local_train(start, cl, 99)
        assert np.array_equal(out.values, start.values)

    def test_one_full_batch_step_is_exact_gradient_step(self):
        lr = 0.03
        cl = client(local=LocalConfig(steps=1, learning_rate=lr, batch_size=10_000))
        start = ParamVector(np.random.default_rng(1).normal(size=FEATURE_DIM + 1))
        out = local_train(start, cl, 0)
        _, grad = decoder_loss_and_gradient(
            start.values, cl.features_train, cl.data.train_y, "regression"
        )
        assert np.allclose(out.values, start.values - lr * grad, atol=1e-14)

    def test_replay_is_bitwise_identical(self):
        cl = client()
        start = ParamVector(np.zeros(FEATURE_DIM + 1))
        assert np.array_equal(
            local_train(start, cl, 7).values, local_train(start, cl, 7).values
        )

    def test_noiseless_task_trains_to_tiny_loss(self):
        cl = client(
            noise=0.0,
            local=LocalConfig(steps=4000, learning_rate=0.3, batch_size=10_000),
        )
        out = local_train(ParamVector(np.zeros(FEATURE_DIM + 1)), cl, 0)
        final = decoder_loss(
            out.values, cl.features_train, cl.data.train_y, "regression"
        )
        # the noiseless targets are realizable, so the least-squares optimum is 0
        coeffs, *_ = np.linalg.lstsq(
            np.hstack([cl.features_train, np.ones((cl.train_size, 1))]),
            cl.data.train_y,
            rcond=None,
        )
        optimum = decoder_loss(
            coeffs, cl.features_train, cl.data.train_y, "regression"
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
                    theta.values, cl.features_train, cl.data.train_y, "regression"
                )
            )
            theta = local_train(theta, cl, 0)
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_backbone_untouched_by_training(self):
        cl = client()
        before_w = cl.backbone.weight.copy()
        before_b = cl.backbone.bias.copy()
        local_train(ParamVector(np.zeros(FEATURE_DIM + 1)), cl, 0)
        assert np.array_equal(cl.backbone.weight, before_w)
        assert np.array_equal(cl.backbone.bias, before_b)

    def test_dimension_checked_against_manifest(self):
        cl = client()
        with pytest.raises(ManifestMismatch):
            local_train(ParamVector(np.zeros(FEATURE_DIM)), cl, 0)

    def test_divergence_raises_non_finite_loss(self):
        cl = client(local=LocalConfig(steps=400, learning_rate=50.0, batch_size=10_000))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteLoss):
            local_train(ParamVector(np.ones(FEATURE_DIM + 1)), cl, 0)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_output_always_finite(self, seed):
        cl = client(local=LocalConfig(steps=3, learning_rate=0.05, batch_size=8))
        start = ParamVector(np.random.default_rng(seed).normal(size=FEATURE_DIM + 1))
        out = local_train(start, cl, seed)
        assert np.all(np.isfinite(out.values))


class TestLocalTrainFedprox:
    def test_mu_zero_matches_plain_training(self):
        cl = client()
        start = ParamVector(np.random.default_rng(4).normal(size=FEATURE_DIM + 1))
        anchor = ParamVector(np.zeros(FEATURE_DIM + 1))
        plain = local_train(start, cl, 13)
        prox = local_train_fedprox(start, cl, anchor, 0.0, 13)
        assert np.array_equal(plain.values, prox.values)

    def test_huge_mu_pins_decoder_to_anchor(self):
        cl = client(
            local=LocalConfig(steps=200, learning_rate=1e-7, batch_size=10_000)
        )
        anchor = ParamVector(np.random.default_rng(5).normal(size=FEATURE_DIM + 1))
        out = local_train_fedprox(anchor, cl, anchor, 1e6, 0)
        assert np.max(np.abs(out.values - anchor.values)) < 1e-3

    def test_negative_mu_rejected(self):
        cl = client()
        start = ParamVector(np.zeros(FEATURE_DIM + 1))
        with pytest.raises(InvalidSpec):
            local_train_fedprox(start, cl, start, -0.1, 0)


class TestEvaluate:
    def test_perfect_decoder_on_noiseless_data(self):
        cl = client(noise=0.0)
        theta = np.concatenate([cl.data.true_head, [0.0]])
        result = evaluate(ParamVector(theta), cl)
        assert result.loss < 1e-9
        assert result.accuracy is None

    def test_constant_zero_decoder_near_chance_accuracy(self):
        # bias-free backbone on centered inputs makes the score distribution
        # symmetric around zero, so the label split is a fair coin
        bb = replace(FrozenBackbone.create(1, INPUT_DIM, FEATURE_DIM),
                     bias=np.zeros(FEATURE_DIM))
        big = DomainSpec("d", 10, INPUT_DIM, (0.0,) * INPUT_DIM, 0.5, 0.0)
        data = generate_domain_dataset(
            big, bb, 3, 4, task="classification", test_count=1000
        )
        cl = ClientState(domain=big, data=data, backbone=bb, config=LocalConfig())
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

