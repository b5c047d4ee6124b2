import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from fedswap import exchange
from fedswap.clustering import ClusterAssignment
from fedswap.errors import InvalidInput
from fedswap.exchange import (
    ExchangePlan,
    build_clustered_plan,
    build_random_plan,
    build_round_robin_plan,
)
from exchange_oracle import oracle_clustered_plan


def rng(seed):
    return np.random.default_rng(seed)


def assignment_of(n, members_0):
    return ClusterAssignment.from_members(n, members_0)


def random_members_0(meta, n):
    """A random non-empty proper subset of range(n), drawn from meta."""
    members_0 = np.flatnonzero(meta.integers(0, 2, size=n))
    return members_0 if 0 < len(members_0) < n else [int(meta.integers(n))]


def cross_count(ca, plan):
    return sum(
        1 for i in range(len(ca.index_list))
        if ca.index_list[i] != ca.index_list[plan.assignment[i]]
    )


class CountingGenerator:
    """A Generator whose method calls are recorded: name, first argument's
    shape and keyword arguments."""

    def __init__(self, generator):
        self.generator = generator
        self.calls = []

    def __getattr__(self, name):
        method = getattr(self.generator, name)

        def counted(*args, **kwargs):
            self.calls.append((name, np.shape(args[0]) if args else (), kwargs))
            return method(*args, **kwargs)
        return counted


split_strategy = st.integers(0, 2**32 - 1).flatmap(
    lambda seed: st.integers(3, 128).map(lambda n: (n, seed))
)


class TestExchangePlanType:
    def test_rejects_non_permutation(self):
        with pytest.raises(InvalidInput):
            ExchangePlan((0, 0, 1))

    def test_history_length_check(self):
        with pytest.raises(InvalidInput):
            build_clustered_plan(assignment_of(4, [0, 1]), (1, 0), rng(0))

    def test_rejects_a_non_assignment(self):
        with pytest.raises(InvalidInput, match="^ca must be a ClusterAssignment$"):
            build_clustered_plan((0, 0, 1, 1), None, rng(0))


class TestClusteredPlan:
    def test_two_clients_forced_swap(self):
        plan = build_clustered_plan(assignment_of(2, [0]), None, rng(0))
        assert plan.assignment == (1, 0)

    def test_equal_clusters_all_cross(self):
        ca = assignment_of(4, [0, 1])
        for seed in range(40):
            plan = build_clustered_plan(ca, None, rng(seed))
            assert sorted(plan.assignment) == [0, 1, 2, 3]
            assert cross_count(ca, plan) == 4
            assert all(plan.assignment[i] != i for i in range(4))

    def test_three_one_split_exactly_two_cross(self):
        ca = assignment_of(4, [0, 1, 2])
        for seed in range(40):
            plan = build_clustered_plan(ca, None, rng(seed))
            # the larger cluster's first client receives the lone cluster-1
            # decoder; every other client, client 3 included, cluster 0's
            assert plan.assignment[0] == 3
            assert plan.assignment[3] in (0, 1, 2)
            assert plan.assignment[1] in (0, 1, 2)
            assert plan.assignment[2] in (0, 1, 2)
            assert cross_count(ca, plan) == 2

    def test_deterministic_given_seed(self):
        ca = assignment_of(7, [0, 2, 4])
        assert build_clustered_plan(ca, None, rng(123)).assignment == build_clustered_plan(
            ca, None, rng(123)
        ).assignment

    def test_history_positionwise_avoidance(self):
        ca = assignment_of(4, [0, 1])
        prev = build_clustered_plan(ca, None, rng(9))
        for seed in range(30):
            nxt = build_clustered_plan(ca, prev.assignment, rng(seed))
            assert all(
                nxt.assignment[i] != prev.assignment[i] for i in range(4)
            )

    def test_history_relaxed_when_infeasible(self):
        # two singleton clusters admit only one derangement, so the history
        # constraint cannot be honored and must be dropped
        ca = assignment_of(2, [0])
        plan = build_clustered_plan(ca, (1, 0), rng(5))
        assert plan.assignment == (1, 0)

    @given(split_strategy)
    @settings(max_examples=200, deadline=None)
    def test_invariants_random_assignments(self, case):
        n, seed = case
        rng = np.random.default_rng(seed)
        size_0 = int(rng.integers(1, n))
        members_0 = sorted(rng.choice(n, size=size_0, replace=False).tolist())
        ca = assignment_of(n, members_0)
        plan = build_clustered_plan(ca, None, np.random.default_rng(int(rng.integers(2**32))))
        assert sorted(plan.assignment) == list(range(n))
        small = min(len(ca.members_0), len(ca.members_1))
        assert cross_count(ca, plan) == 2 * small
        # self-derangement is feasible for every split, singletons included
        assert all(plan.assignment[i] != i for i in range(n))

    def test_matches_the_cursor_walk_oracle(self):
        # the delivery rule gives the plans of the per-attempt cursor walk it
        # replaced, from the same draws; n from 2 to 128, with random,
        # singleton and equal splits, and no history, the plan of an earlier
        # round on the same split, or the plan of another split
        meta = np.random.default_rng(2024)
        seen = set()
        for case in range(2016):
            n = int(meta.integers(2, 9 if case % 2 else 129))
            kind = ("random", "singleton", "equal")[case % 3]
            if kind == "random":
                members_0 = random_members_0(meta, n)
            elif kind == "singleton":
                lone = [int(meta.integers(n))]
                members_0 = lone if meta.integers(2) else np.delete(np.arange(n), lone)
            else:
                n -= n % 2
                members_0 = meta.permutation(n)[: n // 2]
            ca = assignment_of(n, members_0)
            history = ("none", "same split", "other split")[case // 3 % 3]
            last = None
            if history != "none":
                source = ca if history == "same split" else assignment_of(
                    n, random_members_0(meta, n))
                last = oracle_clustered_plan(source, None, rng(int(meta.integers(2**32))))
                last = last.assignment
            seed = int(meta.integers(2**32))
            mine, theirs = rng(seed), rng(seed)
            plan = build_clustered_plan(ca, last, mine)
            assert plan == oracle_clustered_plan(ca, last, theirs)
            # the same random draws, not only the same plan
            assert mine.bit_generator.state == theirs.bit_generator.state
            small = min(len(ca.members_0), len(ca.members_1))
            seen.add((n == 2, small == 1, 2 * small == n, history))
            if small == 1 and last is not None:
                # did last already give the lone decoder to its one receiver?
                lone = min(ca.members_0, ca.members_1, key=len)
                repeats = last[plan.assignment.index(lone[0])] == lone[0]
                seen.add(("lone decoder repeats", repeats, history))
        for history in ("none", "same split", "other split"):
            assert {(True, True, True, history), (False, True, False, history),
                    (False, False, True, history), (False, False, False, history)} <= seen
        assert {("lone decoder repeats", True, "same split"),
                ("lone decoder repeats", True, "other split"),
                ("lone decoder repeats", False, "other split")} <= seen

    @pytest.mark.parametrize("n, members_0", [(5, [3]), (4, [0, 1, 2]), (2, [0])],
                             ids=["lone_cluster_0", "lone_cluster_1", "two_clients"])
    def test_repeated_lone_decoder_skips_the_history_attempts(self, n, members_0):
        # last gave the lone client's decoder to the receiver it must get
        # again, so no history attempt can pass: phase 1's shuffles come from
        # one bulk call, then only the attempts without history draw
        ca = assignment_of(n, members_0)
        attempts = exchange._ATTEMPTS_PER_PHASE
        bulk = ("permuted", (attempts, max(len(ca.members_0), len(ca.members_1))), {"axis": 1})
        per_attempt = [("permuted", (len(members),), {})
                       for members in (ca.members_0, ca.members_1)]
        for seed in range(40):
            last = oracle_clustered_plan(ca, None, rng(seed)).assignment
            mine, theirs = CountingGenerator(rng(seed + 1)), CountingGenerator(rng(seed + 1))
            assert build_clustered_plan(ca, last, mine) == oracle_clustered_plan(ca, last, theirs)
            assert mine.generator.bit_generator.state == theirs.generator.bit_generator.state
            # the oracle draws two shuffles per attempt, phase 1's first
            phase_2 = len(theirs.calls) // 2 - attempts
            assert phase_2 >= 1
            assert mine.calls == [bulk] + per_attempt * phase_2

    def test_no_self_delivery_once_history_attempts_run_out(self, monkeypatch):
        # on this split half of all draws hand client 2 its own upload; the
        # sampler must keep drawing instead of giving up after a bound
        monkeypatch.setattr(exchange, "_ATTEMPTS_PER_PHASE", 1)
        ca = assignment_of(3, [0])
        for seed in range(200):
            plan = build_clustered_plan(ca, None, rng(seed))
            assert all(plan.assignment[i] != i for i in range(3))

    def test_self_delivery_never_happens_even_with_singletons(self):
        # a singleton's decoder always crosses, and same-cluster leftovers
        # are deranged by rejection sampling
        for seed in range(200):
            ca = assignment_of(5, [0, 1, 2, 3])
            plan = build_clustered_plan(ca, None, rng(seed))
            assert all(plan.assignment[i] != i for i in range(5))


class TestNumpyBulkDraws:
    """The numpy behaviour the clustered plan relies on: its bulk draws take
    the same words, in the same order, as one permutation call each."""

    @pytest.mark.parametrize("pending", [False, True], ids=["aligned", "half_buffered"])
    @pytest.mark.parametrize("k", [1, 2, 3, 17, 64])
    def test_permuted_draws_as_permutation(self, k, pending):
        changed = f"numpy {np.__version__} changed Generator.permuted's draws"
        for seed in range(50):
            bulk, single = rng(seed), rng(seed)
            if pending:
                # leave half of a 64-bit word buffered for the next uint32
                for g in (bulk, single):
                    g.integers(2**32, dtype=np.uint32)
                assert bulk.bit_generator.state["has_uint32"] == 1
            rows = bulk.permuted(np.tile(np.arange(k), (32, 1)), axis=1)
            assert np.array_equal(rows, [single.permutation(k) for _ in range(32)]), changed
            x = np.arange(k) * 3 + 5
            assert np.array_equal(bulk.permuted(x), x[single.permutation(k)]), changed
            assert bulk.bit_generator.state == single.bit_generator.state, changed


class TestRoundRobinPlan:
    def test_shift_examples(self):
        assert build_round_robin_plan(4, 0).assignment == (1, 2, 3, 0)
        assert build_round_robin_plan(4, 1).assignment == (2, 3, 0, 1)
        assert build_round_robin_plan(4, 3).assignment == (1, 2, 3, 0)

    def test_cycles_cover_every_other_decoder(self):
        n = 5
        seen = {i: set() for i in range(n)}
        for rnd in range(n - 1):
            plan = build_round_robin_plan(n, rnd)
            for i in range(n):
                seen[i].add(plan.assignment[i])
        for i in range(n):
            assert seen[i] == set(range(n)) - {i}

    def test_never_self(self):
        for n in range(2, 8):
            for rnd in range(12):
                plan = build_round_robin_plan(n, rnd)
                assert all(plan.assignment[i] != i for i in range(n))

    def test_too_few_clients(self):
        with pytest.raises(InvalidInput):
            build_round_robin_plan(1, 0)


class TestRandomPlan:
    def test_two_clients_outcome_set(self):
        for seed in range(20):
            plan = build_random_plan(2, rng(seed))
            assert plan.assignment in ((0, 1), (1, 0))

    def test_seeded_determinism(self):
        assert (build_random_plan(6, rng(42)).assignment
                == build_random_plan(6, rng(42)).assignment)

    def test_positionwise_uniformity(self):
        n = 5
        trials = 10_000
        counts = np.zeros((n, n), dtype=np.int64)
        for seed in range(trials):
            plan = build_random_plan(n, rng(seed))
            for i, d in enumerate(plan.assignment):
                counts[i, d] += 1
        for i in range(n):
            result = stats.chisquare(counts[i])
            assert result.pvalue > 0.001

    def test_bijection(self):
        for seed in range(50):
            plan = build_random_plan(7, rng(seed))
            assert sorted(plan.assignment) == list(range(7))

    def test_too_few_clients(self):
        with pytest.raises(InvalidInput,
                           match="^random exchange needs at least two clients, got 1$"):
            build_random_plan(1, rng(0))
