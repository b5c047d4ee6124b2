import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedswap import harness, server
from fedswap.clients import DomainSpec, LocalConfig, _generator, _StateWords
from fedswap.clients import make_clients as draw_clients
from fedswap.clustering import ClusterAssignment, build_distance_matrix, cluster_to_two
from fedswap.errors import ConfigInvalid, InvalidInput
from fedswap.exchange import ExchangePlan, build_clustered_plan, build_random_plan
from fedswap.server import (
    AGGREGATE,
    EXCHANGE,
    PURPOSES,
    WARMUP,
    ServerConfig,
    derive_seed,
    run_round,
    run_simulation,
    schedule_decision,
    weighted_average,
)
from eval_oracle import oracle_evaluate, oracle_evaluate_round
from linkage_oracle import oracle_full_recompute
from train_oracle import oracle_local_train

INPUT_DIM = 6
FEATURE_DIM = 8


def make_clients(n=3, master_seed=0, counts=(120, 120, 60), steps=3):
    local = LocalConfig(steps=steps, learning_rate=0.05, batch_size=16)
    specs = [
        DomainSpec(
            domain_id=f"d{i}",
            sample_count=counts[i % len(counts)],
            input_dim=INPUT_DIM,
            shift=(0.3 * i,) * INPUT_DIM,
            concept_shift=0.2 + 0.4 * i,
            label_noise=0.05,
        )
        for i in range(n)
    ]
    seeds = np.array([derive_seed(master_seed, PURPOSES["backbone"]),
                      derive_seed(master_seed, PURPOSES["concept"]),
                      *(derive_seed(master_seed, PURPOSES["domain"], i) for i in range(n))],
                     np.uint64)
    words = derive_seed(seeds & 0xFFFFFFFF, seeds >> 32, words=4)
    return draw_clients(specs, words, feature_dim=FEATURE_DIM, config=local,
                        task="regression", test_count=50, train_fraction=1.0)


@functools.cache
def clients_of(n):
    return make_clients(n=n, counts=(20,), steps=1)


def uploads_of(n=4, seed=0):
    return np.random.default_rng(seed).normal(size=(n, 5))


class TestDeriveSeed:
    def test_deterministic_and_path_sensitive(self):
        assert derive_seed(5, 1, 2) == derive_seed(5, 1, 2)
        assert derive_seed(5, 1, 2) != derive_seed(5, 2, 1)
        assert derive_seed(5, 1) != derive_seed(6, 1)

    def test_rejects_entries_outside_uint32(self):
        for path in ((-1,), (3, -2), (2**32,), (3, 1, 2**32)):
            with pytest.raises(ConfigInvalid, match=r"\[0, 2\*\*32\)"):
                derive_seed(*path)
        # non-integers are not truncated, and ints past 64 bits do not overflow
        for path in ((5, 1.9), (5, True), (5, np.True_), (5, float("nan")),
                     (np.float64(3.0),), (5, np.array([1.0, 2.0])), (5, np.array([True])),
                     (2**63,), (5, 2**64), (5, -2**70), (5, 1, 2**100)):
            with pytest.raises(ConfigInvalid, match=r"\[0, 2\*\*32\)") as info:
                derive_seed(*path)
            assert "\n" not in str(info.value)
        # an array entry names its first bad element, not the whole array
        rounds = np.arange(1000)
        rounds[[7, 9]] = [-5, 2**32]
        with pytest.raises(ConfigInvalid, match=r"got -5$"):
            derive_seed(5, 4, rounds)
        with pytest.raises(ConfigInvalid, match="at most 64 entries"):
            derive_seed(*range(65))

    def test_equals_seed_sequence_of_the_int_list(self):
        # 100k paths of lengths 1-6, 9 and 16, hashed in bulk, against numpy's
        # own SeedSequence path by path; a third use only the edges of the range
        rng = np.random.default_rng(2024)
        checked = 0
        for length, count in ((1, 20_000), (2, 20_000), (3, 20_000), (4, 20_000),
                              (5, 8_000), (6, 6_000), (9, 4_000), (16, 2_000)):
            words = rng.integers(0, 2**32, size=(count, length))
            words[::3] = (words[::3] % 2) * (2**32 - 1)
            got = derive_seed(*words.T)
            assert got.shape == (count,) and got.dtype == np.uint64
            for path, seed in zip(words.tolist(), got.tolist()):
                expected = np.random.SeedSequence(path).generate_state(1, np.uint64)[0]
                assert seed == int(expected), path
            checked += count
        assert checked >= 100_000

    def test_scalar_and_broadcast_shapes(self):
        # a (rounds, clients) grid as run_simulation derives it, and scalar paths
        R, n = 50, 100
        grid = derive_seed(7, PURPOSES["train"], np.arange(1, R + 1)[:, None], np.arange(n))
        assert grid.shape == (R, n) and grid.dtype == np.uint64
        for (r, i), seed in np.ndenumerate(grid):
            path = [7, PURPOSES["train"], r + 1, i]
            assert seed == np.random.SeedSequence(path).generate_state(1, np.uint64)[0]
        scalar = derive_seed(7, PURPOSES["train"], 3, 5)
        assert type(scalar) is int and scalar == int(grid[2, 5])
        assert derive_seed(np.uint32(7), np.int64(4), np.array(3), 5) == scalar
        rng = np.random.default_rng(8)
        for _ in range(300):
            path = rng.integers(0, 2**32, size=int(rng.integers(1, 6))).tolist()
            expected = np.random.SeedSequence(path).generate_state(1, np.uint64)[0]
            assert derive_seed(*path) == int(expected), path
        # words > 1 adds a last axis: generate_state(words, np.uint64) of each path
        words = derive_seed(7, np.arange(3), words=4)
        assert words.shape == (3, 4)
        for p in range(3):
            expected = np.random.SeedSequence([7, p]).generate_state(4, np.uint64)
            assert words[p].tolist() == expected.tolist()

    def test_short_paths_equal_their_zero_padding(self):
        # why every PURPOSES tag must keep one path length
        assert derive_seed(9, 5) == derive_seed(9, 5, 0) == derive_seed(9, 5, 0, 0)
        assert derive_seed(9, 5, 3) == derive_seed(9, 5, 3, 0)
        assert derive_seed(9, 5, 3, 0) != derive_seed(9, 5, 3, 0, 0)


class TestRoundGenerators:
    """PCG64 seeded with state words that derive_seed pre-hashed in bulk must
    draw as default_rng(seed). Only exchange rounds build a Generator from
    them; training draws a client-round's batches from its raw PCG64 words,
    as test_clients.TestDrawIndices checks."""

    def test_draws_equal_default_rng(self):
        rng = np.random.default_rng(31)
        edges = np.array([0, 1, 2**32 - 1, 2**32, 2**64 - 1], dtype=np.uint64)
        seeds = np.concatenate([edges, rng.integers(0, 2**64, size=10_000, dtype=np.uint64)])
        words = derive_seed(seeds & 0xFFFFFFFF, seeds >> 32, words=4)
        shapes = [(), (7,), (10, 32), (3, 4, 5)]
        for k, (seed, w) in enumerate(zip(seeds.tolist(), words)):
            high, shape = int(rng.integers(1, 2**40)), shapes[k % len(shapes)]
            got = _generator(w).integers(0, high, size=shape)
            want = np.random.default_rng(seed).integers(0, high, size=shape)
            assert np.array_equal(got, want), seed
        # a strided view of the words seeds the same generator
        strided = np.repeat(words[3], 2)[::2]
        assert not strided.flags.c_contiguous
        assert _generator(strided).integers(0, 100, size=8).tolist() == \
            np.random.default_rng(2**32).integers(0, 100, size=8).tolist()

    def test_state_words_serve_only_pcg64(self):
        stub = _StateWords(np.arange(4, dtype=np.uint64))
        assert stub.generate_state(4, np.uint64).tolist() == [0, 1, 2, 3]
        for n_words, dtype in ((4, np.uint32), (2, np.uint64), (8, np.uint64), (1, np.uint32)):
            with pytest.raises(InvalidInput):
                stub.generate_state(n_words, dtype)
        for bit_generator in (np.random.MT19937, np.random.SFC64):
            with pytest.raises(InvalidInput):
                bit_generator(stub)

    @pytest.mark.parametrize("strategy", ["clustered", "random"])
    def test_exchange_plans_equal_default_rng_plans(self, strategy, monkeypatch):
        # each exchange round's generator comes from words hashed in the cell's
        # bulk call; its plan must be the one default_rng(exchange seed) builds
        builder = {"clustered": build_clustered_plan, "random": build_random_plan}[strategy]
        calls = []

        def recording(*args):
            plan = builder(*args)
            calls.append((args[:-1], plan))
            return plan

        monkeypatch.setattr(server, builder.__name__, recording)
        cfg = ServerConfig(rounds=12, aggregation_frequency=3, strategy=strategy,
                           warmup_rounds=1, master_seed=17)
        trace = run_simulation(cfg, make_clients(n=7, counts=(40, 90, 25)))
        rounds = [row.round_index for row in trace if row.decision == EXCHANGE]
        assert len(rounds) == len(calls) == 8
        for r, (args, plan) in zip(rounds, calls):
            seed = derive_seed(17, PURPOSES["exchange"], r)
            assert builder(*args, np.random.default_rng(seed)) == plan


    def test_only_exchange_rounds_build_a_generator(self, monkeypatch):
        # the initial decoder's generator comes first; then each exchange round
        # builds one from its exchange words, and no other round builds any;
        # counting them changes no trace
        built = []

        def counting(words):
            built.append(words.tolist())
            return _generator(words)

        clients = make_clients(n=4, counts=(40, 90, 25))
        for strategy, exchanges in (("clustered", 3), ("fedavg_only", 0)):
            cfg = ServerConfig(rounds=6, aggregation_frequency=2, strategy=strategy,
                               warmup_rounds=2, master_seed=7)
            plain = run_simulation(cfg, clients)
            built.clear()
            with monkeypatch.context() as mp:
                mp.setattr(server, "_generator", counting)
                assert run_simulation(cfg, clients) == plain
            rounds = [row.round_index for row in plain if row.decision == EXCHANGE]
            assert rounds == [1, 3, 5][:exchanges]
            seeds = np.array([derive_seed(7, PURPOSES["init"]),
                              *(derive_seed(7, PURPOSES["exchange"], r) for r in rounds)],
                             dtype=np.uint64)
            assert built == derive_seed(seeds & 0xFFFFFFFF, seeds >> 32, words=4).tolist()


class TestSeedPaths:
    @pytest.mark.parametrize("strategy", ["clustered", "fedprox"])
    def test_one_length_per_purpose_and_distinct_seeds(self, strategy, monkeypatch):
        # SeedSequence pads short paths with zeros, so a purpose derived at two
        # path lengths could repeat another path's seed
        calls = []

        def recording(master_seed, *path, words=1):
            seeds = derive_seed(master_seed, *path, words=words)
            calls.append((path, words, seeds))
            return seeds

        monkeypatch.setattr(server, "derive_seed", recording)
        monkeypatch.setattr(harness, "derive_seed", recording)
        cfg = harness.default_experiment_config()
        run_simulation(cfg.server_config(strategy, 0), harness.build_clients(cfg, 0))
        # bulk derivation: two calls build the clients, four run the cell
        assert len(calls) == 6
        lengths, seeds = {}, []
        for path, words, out in calls:
            if words == 1:  # words=4 pre-hashes generator states from seeds
                for tag in np.unique(path[0]).tolist():
                    lengths.setdefault(tag, set()).add(1 + len(path))
                seeds += np.ravel(out).tolist()
        assert set(lengths) == set(PURPOSES.values())
        assert all(len(found) == 1 for found in lengths.values()), lengths
        assert len(set(seeds)) == len(seeds)


class TestServerConfig:
    def test_rejects_non_divisible_rounds(self):
        with pytest.raises(ConfigInvalid):
            ServerConfig(rounds=4, aggregation_frequency=5)

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ConfigInvalid):
            ServerConfig(rounds=4, aggregation_frequency=2, strategy="mystery")

    def test_pure_aggregation_strategies_run_at_t1(self):
        # a strategy without a plan aggregates every round whatever T it is
        # given, also a T that does not divide the rounds; T < 1 is refused first
        for strategy in ("fedavg_only", "fedprox"):
            for t in (2, 3):
                cfg = ServerConfig(rounds=4, aggregation_frequency=t, strategy=strategy)
                assert cfg.aggregation_frequency == 1
            for t in (0, -3):
                with pytest.raises(ConfigInvalid,
                                   match=f"^aggregation_frequency must be >= 1, got {t}$"):
                    ServerConfig(rounds=4, aggregation_frequency=t, strategy=strategy)
        assert ServerConfig(rounds=4, aggregation_frequency=2).aggregation_frequency == 2

    def test_rejects_out_of_range_seed_and_negative_warmup(self):
        for seed in (-1, 2**32):
            with pytest.raises(ConfigInvalid, match="^master_seed must lie in"):
                ServerConfig(rounds=2, aggregation_frequency=1, master_seed=seed)
        ServerConfig(rounds=2, aggregation_frequency=1, master_seed=2**32 - 1)
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


class TestWeightedAverage:
    def test_unweighted_mean(self):
        out = weighted_average(np.array([[2.0, 0.0], [0.0, 2.0]]), [1, 1])
        assert np.array_equal(out, [1.0, 1.0])

    def test_weighted_mean(self):
        out = weighted_average(np.array([[4.0, 0.0], [0.0, 4.0]]), [1, 3])
        assert np.array_equal(out, [1.0, 3.0])

    def test_single_client_identity(self):
        out = weighted_average(np.array([[1.0, 1.0]]), [7])
        assert np.array_equal(out, [1.0, 1.0])

    def test_bad_shapes_raise(self):
        for bad, sizes in ((np.empty((0, 2)), []), (np.ones(2), [1, 1]),
                           (np.ones((2, 0)), [1, 1]), (np.ones((2, 2, 2)), [1, 1])):
            with pytest.raises(InvalidInput, match="must be an"):
                weighted_average(bad, sizes)

    def test_row_and_size_counts_must_agree(self):
        with pytest.raises(InvalidInput, match="^3 decoders but 2 train sizes$"):
            weighted_average(np.ones((3, 2)), [1, 1])
        with pytest.raises(InvalidInput, match="^2 decoders but 3 train sizes$"):
            weighted_average(np.ones((2, 2)), [1, 1, 1])

    def test_sizes_must_be_positive(self):
        for sizes, low in (([5, 0], 0), ([-1, 3], -1), ([2, -4, 0], -4)):
            with pytest.raises(InvalidInput,
                               match=f"^train sizes must be positive, got {low}$"):
                weighted_average(np.ones((len(sizes), 2)), sizes)

    def test_non_finite_result_raises(self):
        for bad in (np.inf, np.nan):
            with pytest.raises(InvalidInput,
                               match="^aggregated decoder entries must be finite$"):
                weighted_average(np.array([[1.0, bad], [1.0, 2.0]]), [1, 1])

    @pytest.mark.parametrize("dim", [1, 2, 33])
    def test_sums_rows_left_to_right_in_client_order(self, dim):
        # the round's aggregation must equal w_0 g_0 + w_1 g_1 + ... with
        # w_i = n_i / sum(n), summed in client order, bit for bit;
        # np.add.reduce over the rows pairs the terms in another order when
        # D = 1, as the last assertion pins
        rng = np.random.default_rng(40 + dim)
        reduce_differs = 0
        for _ in range(200):
            n = int(rng.integers(2, 65))
            decoders = rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
            sizes = rng.integers(1, 2000, size=n).tolist()
            weights = np.array([s / sum(sizes) for s in sizes])
            expected = 0.0
            for weight, row in zip(weights, decoders):
                expected = expected + weight * row
            out = weighted_average(decoders, sizes)
            assert out.tobytes() == expected.tobytes()
            assert not out.flags.writeable
            reduced = np.add.reduce(weights[:, None] * decoders, axis=0)
            reduce_differs += reduced.tobytes() != expected.tobytes()
        assert (reduce_differs > 0) == (dim == 1)
        # a column of -0.0 rows sums to +0.0, as the loop's 0 + row does
        for n in (1, 5):
            decoders = rng.normal(size=(n, dim))
            decoders[:, 0] = -0.0
            expected = 0.0
            for size, row in zip(range(1, n + 1), decoders):
                expected = expected + size / (n * (n + 1) // 2) * row
            out = weighted_average(decoders, range(1, n + 1))
            assert out.tobytes() == expected.tobytes()
            assert not np.signbit(out[0])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_output_is_coordinatewise_convex_combination(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 5))
        dim = int(rng.integers(1, 6))
        decoders = rng.normal(size=(k, dim))
        out = weighted_average(decoders, rng.integers(1, 2000, size=k).tolist())
        assert np.all(out >= decoders.min(axis=0) - 1e-12)
        assert np.all(out <= decoders.max(axis=0) + 1e-12)


class TestRunRound:
    def cfg(self, strategy="clustered", T=2):
        return ServerConfig(
            rounds=4, aggregation_frequency=T, strategy=strategy, master_seed=7
        )

    @staticmethod
    def rng(r):
        # a generator as run_simulation hands round r: default_rng of its exchange seed
        return np.random.default_rng(derive_seed(7, PURPOSES["exchange"], r))

    @pytest.mark.parametrize("r, decision", [(2, AGGREGATE), (0, WARMUP), (-4, WARMUP)])
    def test_aggregate_round_delivers_identical_average(self, r, decision):
        # warm-up rounds aggregate through run_round too, with no exchange generator
        uploads = uploads_of(3)
        sizes = [10, 10, 20]
        rng = self.rng(r) if r >= 1 else None
        outcome = run_round(r, uploads, sizes, self.cfg(), (1, 2, 0), rng)
        expected = weighted_average(uploads, sizes)
        deliveries = outcome.deliveries
        assert deliveries.shape == (3, 5) and not deliveries.flags.writeable
        assert deliveries.strides[0] == 0  # one row, broadcast
        for d in deliveries:
            assert np.array_equal(d, expected)
        assert outcome.decision == decision and outcome.plan is None

    @pytest.mark.parametrize("strategy", ["clustered", "round_robin", "random"])
    def test_exchange_round_permutes_uploads(self, strategy):
        uploads = uploads_of(4)
        outcome = run_round(1, uploads, [1, 1, 1, 1], self.cfg(strategy), None, self.rng(1))
        deliveries, plan = outcome.deliveries, outcome.plan.assignment
        assert outcome.decision == EXCHANGE and sorted(plan) == [0, 1, 2, 3]
        assert deliveries.shape == (4, 5) and not deliveries.flags.writeable
        assert all(np.array_equal(d, uploads[j]) for d, j in zip(deliveries, plan))
        # only the clustered plan is built from a split
        assert (outcome.plan.clusters is None) == (strategy != "clustered")

    @pytest.mark.parametrize("n, seed", [(2, 0), (3, 1), (4, 2), (9, 3), (16, 4)])
    def test_clustered_exchange_keeps_its_split(self, n, seed):
        uploads = uploads_of(n, seed)
        plan = run_round(1, uploads, [1] * n, self.cfg(), None, self.rng(1)).plan
        dm = build_distance_matrix(uploads)
        assert plan.clusters == cluster_to_two(dm)
        members_0, merges = oracle_full_recompute(dm.entries)
        assert plan.clusters.members_0 == members_0 and len(merges) == n - 2
        assert list(plan.clusters.merges) == merges
        # the split rides along and takes no part in the plan's equality
        bare = ExchangePlan(plan.assignment)
        assert bare.clusters is None and bare == plan and hash(bare) == hash(plan)
        other = ExchangePlan(plan.assignment, ClusterAssignment((1,) + (0,) * (n - 1)))
        assert other == plan


class TestRunSimulation:
    def test_round_context_attached_to_errors(self, monkeypatch):
        # the last client's uploads are all zeros, which aggregate in warm-up
        # but have no cosine distance in round 1, the first exchange:
        # run_round's error names the round once
        train = server.local_train

        def train_last_to_zero(decoders, work, words):
            uploads = np.array(train(decoders, work, words))
            uploads[-1] = 0.0
            return uploads

        monkeypatch.setattr(server, "local_train", train_last_to_zero)
        cfg = ServerConfig(rounds=4, aggregation_frequency=2, warmup_rounds=2)
        with pytest.raises(InvalidInput, match="^clustered T=2 seed 0, round 1: ") as info:
            run_simulation(cfg, make_clients())
        assert str(info.value).count("round ") == 1

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

    @given(st.sampled_from([2, 3, 4, 17, 129]).flatmap(
        lambda n: st.lists(st.floats(0.0, 1e6), min_size=n, max_size=n)))
    @settings(max_examples=200, deadline=None)
    def test_round_statistics_equal_np_mean_and_std(self, losses):
        # run_simulation restates np.mean's and np.std's arithmetic without
        # their wrappers; the recorded bits must be theirs
        cfg = ServerConfig(rounds=1, aggregation_frequency=1, warmup_rounds=0,
                           strategy="fedavg_only")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(server, "evaluate", lambda decoders, clients: (tuple(losses), None))
            (row,) = run_simulation(cfg, clients_of(len(losses)))
        assert row.avg_loss == float(np.mean(losses))
        assert row.std_loss == float(np.std(losses))

    def test_exchange_rounds_record_plan_and_cluster(self, monkeypatch):
        # each exchange's plan builder gets the plan of the exchange before it,
        # across the aggregate round in between, and a two-cluster split
        history, splits = [], []

        def recording(assignment, last, rng):
            history.append(last)
            splits.append(assignment.index_list)
            return build_clustered_plan(assignment, last, rng)

        monkeypatch.setattr(server, "build_clustered_plan", recording)
        cfg = ServerConfig(
            rounds=4, aggregation_frequency=2, warmup_rounds=0, master_seed=5
        )
        trace = run_simulation(cfg, make_clients(n=4, counts=(80, 80, 80, 80)))
        exchange_rows = [r for r in trace if r.decision == EXCHANGE]
        assert len(exchange_rows) == 2
        assert history == [None, exchange_rows[0].plan]
        for row, split in zip(exchange_rows, splits, strict=True):
            assert sorted(row.plan) == [0, 1, 2, 3]
            assert set(split) == {0, 1}
        aggregate_rows = [r for r in trace if r.decision == AGGREGATE]
        for row in aggregate_rows:
            assert row.plan is None

    def test_determinism_bitwise(self):
        cfg = ServerConfig(
            rounds=4, aggregation_frequency=2, warmup_rounds=2, master_seed=11
        )
        t1 = run_simulation(cfg, make_clients(master_seed=11))
        t2 = run_simulation(cfg, make_clients(master_seed=11))
        for a, b in zip(t1, t2):
            assert a.domain_losses == b.domain_losses
            assert a.plan == b.plan

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

    def test_manual_replay_of_seed_scheme(self):
        """Re-derives the whole loop from the documented seed paths, training
        each client alone through the per-client oracle, and compares against
        run_simulation bitwise."""
        master = 21
        cfg = ServerConfig(
            rounds=2, aggregation_frequency=2, warmup_rounds=1, master_seed=master
        )
        trace = run_simulation(cfg, make_clients(master_seed=master))

        replay = make_clients(master_seed=master)
        dim = FEATURE_DIM + 1
        rng = np.random.default_rng(derive_seed(master, PURPOSES["init"]))
        decoders = [rng.normal(0.0, 0.1, size=dim)] * 3

        # warm-up round
        ups = np.stack([
            oracle_local_train(decoders[i], replay, i,
                               derive_seed(master, PURPOSES["warmup"], 1, i))
            for i in range(3)
        ])
        global_decoder = weighted_average(ups, replay.train_sizes)
        decoders = [global_decoder] * 3

        # round 1: exchange
        ups = np.stack([
            oracle_local_train(decoders[i], replay, i,
                               derive_seed(master, PURPOSES["train"], 1, i))
            for i in range(3)
        ])
        ca = cluster_to_two(build_distance_matrix(ups))
        plan = build_clustered_plan(
            ca, None, np.random.default_rng(derive_seed(master, PURPOSES["exchange"], 1))
        )
        decoders = [ups[plan.assignment[i]] for i in range(3)]
        losses_r1 = tuple(oracle_evaluate(decoders[i], replay, i)[0] for i in range(3))
        assert trace[1].plan == plan.assignment
        assert trace[1].domain_losses == losses_r1

        # round 2: aggregate
        ups = np.stack([
            oracle_local_train(decoders[i], replay, i,
                               derive_seed(master, PURPOSES["train"], 2, i))
            for i in range(3)
        ])
        global_decoder = weighted_average(ups, replay.train_sizes)
        losses_r2 = tuple(
            oracle_evaluate(global_decoder, replay, i)[0] for i in range(3)
        )
        assert trace[2].domain_losses == losses_r2


class TestEvaluationOracle:
    """The round's one stacked evaluate call against the per-client loop it
    replaced, on every round of a run: warm-up and aggregation rounds deliver
    one broadcast row, exchange rounds a permutation of the uploads."""

    @pytest.mark.parametrize("fraction", [1.0, 0.5])
    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_every_round_equals_the_per_client_oracle(self, task, fraction, monkeypatch):
        calls = []

        def recording(deliveries, clients):
            result = server_evaluate(deliveries, clients)
            calls.append((deliveries, clients, result))
            return result

        server_evaluate = server.evaluate
        monkeypatch.setattr(server, "evaluate", recording)
        domains = tuple(DomainSpec(f"r{i}", count, 4, (0.2 * i,) * 4, 0.3 + 0.2 * i, 0.1)
                        for i, count in enumerate((9, 40, 23, 300, 17, 64)))
        cfg = harness.ExperimentConfig(
            rounds=6, aggregation_frequency=3, warmup_rounds=2, seeds=(5,), task=task,
            input_dim=4, feature_dim=6, test_count=30, data_fraction=fraction,
            local=LocalConfig(steps=3, batch_size=16), domains=domains,
        )
        trace = run_simulation(cfg.server_config("clustered", 5), harness.build_clients(cfg, 5))
        assert len(calls) == len(trace) == 8
        broadcast = 0
        for (deliveries, clients, (losses, accuracies)), row in zip(calls, trace):
            want = oracle_evaluate_round(deliveries, clients)
            assert losses == row.domain_losses == tuple(loss for loss, _ in want)
            if task == "classification":
                assert accuracies == row.domain_accuracies == tuple(acc for _, acc in want)
            else:
                assert accuracies is None
            broadcast += deliveries.strides[0] == 0
        assert broadcast == 4  # two warm-up rounds, two aggregations


class TestStrategyDispatch:
    LAYERS = (
        "local_train", "local_train_fedprox", "build_distance_matrix",
        "cluster_to_two", "build_clustered_plan", "build_round_robin_plan",
        "build_random_plan",
    )
    TRAINS = 5  # 1 warm-up + 4 protocol rounds, one training call per round
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
