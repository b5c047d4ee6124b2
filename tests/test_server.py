import numpy as np
import pytest

from fedswap import server
from fedswap.clients import (
    ClientState,
    DomainSpec,
    FrozenBackbone,
    LocalConfig,
    evaluate,
    generate_domain_dataset,
    local_train,
)
from fedswap.clustering import build_distance_matrix, cluster_to_two
from fedswap.errors import ConfigInvalid, ZeroNormVector
from fedswap.exchange import build_clustered_plan
from fedswap.params import AggregationWeights, ParamVector, weighted_average
from fedswap.server import (
    AGGREGATE,
    EXCHANGE,
    PURPOSES,
    WARMUP,
    RoundRecord,
    ServerConfig,
    ServerState,
    derive_seed,
    run_round,
    run_simulation,
    schedule_decision,
)

INPUT_DIM = 6
FEATURE_DIM = 8


def make_clients(n=3, master_seed=0, counts=(120, 120, 60), steps=3):
    backbone = FrozenBackbone.create(
        derive_seed(master_seed, PURPOSES["backbone"]), INPUT_DIM, FEATURE_DIM
    )
    concept = derive_seed(master_seed, PURPOSES["concept"])
    local = LocalConfig(steps=steps, learning_rate=0.05, batch_size=16)
    clients = []
    for i in range(n):
        spec = DomainSpec(
            domain_id=f"d{i}",
            sample_count=counts[i % len(counts)],
            input_dim=INPUT_DIM,
            shift=(0.3 * i,) * INPUT_DIM,
            concept_shift=0.2 + 0.4 * i,
            label_noise=0.05,
        )
        data = generate_domain_dataset(
            spec,
            backbone,
            concept,
            derive_seed(master_seed, PURPOSES["domain"], i),
            test_count=50,
        )
        clients.append(
            ClientState(domain=spec, data=data, backbone=backbone, config=local)
        )
    return clients


def uploads_of(n=4, seed=0):
    rng = np.random.default_rng(seed)
    return [ParamVector(rng.normal(size=5)) for _ in range(n)]


class TestDeriveSeed:
    def test_deterministic_and_path_sensitive(self):
        assert derive_seed(5, 1, 2) == derive_seed(5, 1, 2)
        assert derive_seed(5, 1, 2) != derive_seed(5, 2, 1)
        assert derive_seed(5, 1) != derive_seed(6, 1)

    def test_rejects_negative_entries(self):
        with pytest.raises(ConfigInvalid):
            derive_seed(-1)
        with pytest.raises(ConfigInvalid):
            derive_seed(3, -2)


class TestServerConfig:
    def test_rejects_non_divisible_rounds(self):
        with pytest.raises(ConfigInvalid):
            ServerConfig(rounds=4, aggregation_frequency=5)

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ConfigInvalid):
            ServerConfig(rounds=4, aggregation_frequency=2, strategy="mystery")

    def test_pure_aggregation_strategies_require_t1(self):
        with pytest.raises(ConfigInvalid):
            ServerConfig(rounds=4, aggregation_frequency=2, strategy="fedavg_only")
        with pytest.raises(ConfigInvalid):
            ServerConfig(rounds=4, aggregation_frequency=2, strategy="fedprox")
        ServerConfig(rounds=4, aggregation_frequency=1, strategy="fedprox")

    def test_rejects_negative_seed_and_warmup(self):
        with pytest.raises(ConfigInvalid):
            ServerConfig(rounds=2, aggregation_frequency=1, master_seed=-1)
        with pytest.raises(ConfigInvalid):
            ServerConfig(rounds=2, aggregation_frequency=1, warmup_rounds=-1)


class TestScheduleDecision:
    def test_rule_examples(self):
        assert schedule_decision(2, 2) == AGGREGATE
        assert schedule_decision(1, 2) == EXCHANGE
        assert schedule_decision(50, 50) == AGGREGATE

    def test_counts_over_full_horizon(self):
        for T in (2, 5, 10, 50):
            decisions = [schedule_decision(r, T) for r in range(1, 101)]
            aggregates = [r for r, d in enumerate(decisions, 1) if d == AGGREGATE]
            assert aggregates == list(range(T, 101, T))
            assert len(aggregates) == 100 // T
            assert decisions[-1] == AGGREGATE

    def test_rejects_bad_indices(self):
        with pytest.raises(ConfigInvalid):
            schedule_decision(0, 2)
        with pytest.raises(ConfigInvalid):
            schedule_decision(1, 0)


class TestRunRound:
    def cfg(self, strategy="clustered", T=2):
        return ServerConfig(
            rounds=4, aggregation_frequency=T, strategy=strategy, master_seed=7
        )

    def test_aggregate_round_delivers_identical_average(self):
        uploads = uploads_of(3)
        weights = AggregationWeights.from_sizes([10, 10, 20])
        state = ServerState(current_round=2)
        deliveries = run_round(state, uploads, weights, self.cfg())
        expected = weighted_average(uploads, weights)
        assert len(deliveries) == 3
        for d in deliveries:
            assert np.array_equal(d.values, expected.values)
        assert state.trace[-1].decision == AGGREGATE

    def test_exchange_round_permutes_uploads(self):
        uploads = uploads_of(4)
        weights = AggregationWeights.from_sizes([1, 1, 1, 1])
        state = ServerState(current_round=1)
        deliveries = run_round(state, uploads, weights, self.cfg())
        assert {id(d) for d in deliveries} == {id(u) for u in uploads}
        record = state.trace[-1]
        assert record.decision == EXCHANGE
        assert sorted(record.plan) == [0, 1, 2, 3]
        assert record.assignment is not None
        assert state.last_plan == record.plan

    def test_round_context_attached_to_errors(self):
        uploads = [ParamVector(np.zeros(3) + [1, 0, 0]), ParamVector(np.zeros(3))]
        weights = AggregationWeights.from_sizes([1, 1])
        state = ServerState(current_round=1)
        with pytest.raises(ZeroNormVector, match="round 1:"):
            run_round(state, uploads, weights, self.cfg())

    def test_upload_count_checked_against_weights(self):
        state = ServerState(current_round=1)
        with pytest.raises(ConfigInvalid):
            run_round(
                state, uploads_of(3), AggregationWeights.from_sizes([1, 1]), self.cfg()
            )


class TestRunSimulation:
    def test_decision_sequence_and_trace_shape(self):
        cfg = ServerConfig(
            rounds=4, aggregation_frequency=2, warmup_rounds=2, master_seed=3
        )
        trace = run_simulation(cfg, make_clients())
        assert len(trace) == 6
        assert [r.decision for r in trace] == [
            WARMUP, WARMUP, EXCHANGE, AGGREGATE, EXCHANGE, AGGREGATE,
        ]
        assert [r.round_index for r in trace] == [-1, 0, 1, 2, 3, 4]
        for record in trace:
            assert len(record.domain_losses) == 3
            assert record.std_loss == pytest.approx(
                float(np.std(record.domain_losses)), abs=1e-9
            )
            assert record.avg_loss == pytest.approx(
                float(np.mean(record.domain_losses)), abs=1e-12
            )

    def test_final_round_leaves_identical_decoders(self):
        cfg = ServerConfig(
            rounds=4, aggregation_frequency=2, warmup_rounds=1, master_seed=5
        )
        clients = make_clients()
        run_simulation(cfg, clients)
        base = clients[0].decoder.values
        for c in clients[1:]:
            assert np.array_equal(c.decoder.values, base)

    def test_exchange_rounds_record_plan_and_cluster(self):
        cfg = ServerConfig(
            rounds=2, aggregation_frequency=2, warmup_rounds=0, master_seed=5
        )
        trace = run_simulation(cfg, make_clients(n=4, counts=(80, 80, 80, 80)))
        exchange_rows = [r for r in trace if r.decision == EXCHANGE]
        assert exchange_rows
        for row in exchange_rows:
            assert sorted(row.plan) == [0, 1, 2, 3]
            assert set(row.assignment) == {0, 1}
        aggregate_rows = [r for r in trace if r.decision == AGGREGATE]
        for row in aggregate_rows:
            assert row.plan is None and row.assignment is None

    def test_determinism_bitwise(self):
        cfg = ServerConfig(
            rounds=4, aggregation_frequency=2, warmup_rounds=2, master_seed=11
        )
        t1 = run_simulation(cfg, make_clients(master_seed=11))
        t2 = run_simulation(cfg, make_clients(master_seed=11))
        for a, b in zip(t1, t2):
            assert a.domain_losses == b.domain_losses
            assert a.plan == b.plan
            assert a.assignment == b.assignment

    def test_fedavg_only_matches_clustered_at_t1(self):
        base = dict(rounds=3, warmup_rounds=1, master_seed=2)
        t_fedavg = run_simulation(
            ServerConfig(aggregation_frequency=1, strategy="fedavg_only", **base),
            make_clients(master_seed=2),
        )
        t_clustered = run_simulation(
            ServerConfig(aggregation_frequency=1, strategy="clustered", **base),
            make_clients(master_seed=2),
        )
        assert [r.decision for r in t_fedavg] == [r.decision for r in t_clustered]
        for a, b in zip(t_fedavg, t_clustered):
            assert a.domain_losses == b.domain_losses

    def test_fedprox_differs_from_fedavg_only(self):
        base = dict(rounds=3, aggregation_frequency=1, warmup_rounds=1, master_seed=2)
        t_prox = run_simulation(
            ServerConfig(strategy="fedprox", **base), make_clients(master_seed=2)
        )
        t_avg = run_simulation(
            ServerConfig(strategy="fedavg_only", **base), make_clients(master_seed=2)
        )
        assert t_prox[-1].domain_losses != t_avg[-1].domain_losses

    def test_too_few_clients_rejected(self):
        cfg = ServerConfig(rounds=2, aggregation_frequency=1)
        with pytest.raises(ConfigInvalid):
            run_simulation(cfg, make_clients()[:1])

    def test_manual_replay_of_seed_scheme(self):
        """Re-derives the whole loop from the documented seed paths and
        compares against run_simulation bitwise."""
        master = 21
        cfg = ServerConfig(
            rounds=2, aggregation_frequency=2, warmup_rounds=1, master_seed=master
        )
        clients = make_clients(master_seed=master)
        trace = run_simulation(cfg, clients)

        replay = make_clients(master_seed=master)
        dim = FEATURE_DIM + 1
        rng = np.random.default_rng(derive_seed(master, PURPOSES["init"]))
        decoders = [ParamVector(rng.normal(0.0, 0.1, size=dim))] * 3
        weights = AggregationWeights.from_sizes([c.train_size for c in replay])

        # warm-up round
        ups = [
            local_train(decoders[i], replay[i],
                        derive_seed(master, PURPOSES["warmup"], 1, i))
            for i in range(3)
        ]
        global_decoder = weighted_average(ups, weights)
        decoders = [global_decoder] * 3

        # round 1: exchange
        ups = [
            local_train(decoders[i], replay[i],
                        derive_seed(master, PURPOSES["train"], 1, i))
            for i in range(3)
        ]
        ca = cluster_to_two(build_distance_matrix(ups))
        plan = build_clustered_plan(
            ca, None, derive_seed(master, PURPOSES["exchange"], 1)
        )
        decoders = [ups[plan.assignment[i]] for i in range(3)]
        losses_r1 = tuple(evaluate(decoders[i], replay[i]).loss for i in range(3))
        assert trace[1].plan == plan.assignment
        assert trace[1].domain_losses == losses_r1

        # round 2: aggregate
        ups = [
            local_train(decoders[i], replay[i],
                        derive_seed(master, PURPOSES["train"], 2, i))
            for i in range(3)
        ]
        global_decoder = weighted_average(ups, weights)
        losses_r2 = tuple(
            evaluate(global_decoder, replay[i]).loss for i in range(3)
        )
        assert trace[2].domain_losses == losses_r2
        for c in clients:
            assert np.array_equal(c.decoder.values, global_decoder.values)


class TestStrategyDispatch:
    LAYERS = (
        "local_train", "local_train_fedprox", "build_distance_matrix",
        "cluster_to_two", "build_clustered_plan", "build_round_robin_plan",
        "build_random_plan",
    )
    TRAINS = 15  # (1 warm-up + 4 protocol rounds) x 3 clients
    # at T=2, rounds 1 and 3 of 4 exchange

    @pytest.mark.parametrize("strategy, T, expected", [
        ("clustered", 2, {"local_train": TRAINS, "build_distance_matrix": 2,
                          "cluster_to_two": 2, "build_clustered_plan": 2}),
        ("round_robin", 2, {"local_train": TRAINS, "build_round_robin_plan": 2}),
        ("random", 2, {"local_train": TRAINS, "build_random_plan": 2}),
        ("fedprox", 1, {"local_train_fedprox": TRAINS}),
        ("fedavg_only", 1, {"local_train": TRAINS}),
    ])
    def test_reaches_the_right_layers(self, monkeypatch, strategy, T, expected):
        # counts the calls made through the names the server module looks up,
        # which is where call tracing wraps them
        calls = dict.fromkeys(self.LAYERS, 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in self.LAYERS:
            monkeypatch.setattr(server, name, counted(name, getattr(server, name)))
        cfg = ServerConfig(rounds=4, aggregation_frequency=T, strategy=strategy,
                           warmup_rounds=1, master_seed=4)
        run_simulation(cfg, make_clients())
        assert calls == {name: expected.get(name, 0) for name in self.LAYERS}
