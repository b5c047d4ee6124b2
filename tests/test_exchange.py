import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from fedswap.clustering import ClusterAssignment
from fedswap.errors import InvalidAssignment
from fedswap.exchange import (
    ExchangePlan,
    build_clustered_plan,
    build_random_plan,
    build_round_robin_plan,
)


def assignment_of(n, members_0):
    return ClusterAssignment.from_members(n, members_0)


def cross_count(ca, plan):
    return sum(
        1 for i in range(ca.n) if ca.index_list[i] != ca.index_list[plan.assignment[i]]
    )


split_strategy = st.integers(0, 2**32 - 1).flatmap(
    lambda seed: st.integers(3, 128).map(lambda n: (n, seed))
)


class TestExchangePlanType:
    def test_rejects_non_permutation(self):
        with pytest.raises(InvalidAssignment):
            ExchangePlan((0, 0, 1))

    def test_history_length_check(self):
        with pytest.raises(InvalidAssignment):
            build_clustered_plan(assignment_of(4, [0, 1]), (1, 0), 0)


class TestClusteredPlan:
    def test_two_clients_forced_swap(self):
        plan = build_clustered_plan(assignment_of(2, [0]), None, 0)
        assert plan.assignment == (1, 0)

    def test_equal_clusters_all_cross(self):
        ca = assignment_of(4, [0, 1])
        for seed in range(40):
            plan = build_clustered_plan(ca, None, seed)
            assert sorted(plan.assignment) == [0, 1, 2, 3]
            assert cross_count(ca, plan) == 4
            assert all(plan.assignment[i] != i for i in range(4))

    def test_three_one_split_exactly_two_cross(self):
        ca = assignment_of(4, [0, 1, 2])
        for seed in range(40):
            plan = build_clustered_plan(ca, None, seed)
            # the walk reaches client 0 first, so it consumes the lone
            # cluster-1 decoder; client 3 draws from cluster 0
            assert plan.assignment[0] == 3
            assert plan.assignment[3] in (0, 1, 2)
            assert plan.assignment[1] in (0, 1, 2)
            assert plan.assignment[2] in (0, 1, 2)
            assert cross_count(ca, plan) == 2

    def test_deterministic_given_seed(self):
        ca = assignment_of(7, [0, 2, 4])
        assert build_clustered_plan(ca, None, 123).assignment == build_clustered_plan(
            ca, None, 123
        ).assignment

    def test_history_positionwise_avoidance(self):
        ca = assignment_of(4, [0, 1])
        prev = build_clustered_plan(ca, None, 9)
        for seed in range(30):
            nxt = build_clustered_plan(ca, prev.assignment, seed)
            assert all(
                nxt.assignment[i] != prev.assignment[i] for i in range(4)
            )

    def test_history_relaxed_when_infeasible(self):
        # two singleton clusters admit only one derangement, so the history
        # constraint cannot be honored and must be dropped
        ca = assignment_of(2, [0])
        plan = build_clustered_plan(ca, (1, 0), 5)
        assert plan.assignment == (1, 0)

    @given(split_strategy)
    @settings(max_examples=200, deadline=None)
    def test_invariants_random_assignments(self, case):
        n, seed = case
        rng = np.random.default_rng(seed)
        size_0 = int(rng.integers(1, n))
        members_0 = sorted(rng.choice(n, size=size_0, replace=False).tolist())
        ca = assignment_of(n, members_0)
        plan = build_clustered_plan(ca, None, int(rng.integers(2**32)))
        assert sorted(plan.assignment) == list(range(n))
        small = min(len(ca.members_0), len(ca.members_1))
        assert cross_count(ca, plan) == 2 * small
        # self-derangement is feasible for every split, singletons included
        assert all(plan.assignment[i] != i for i in range(n))

    def test_self_delivery_never_happens_even_with_singletons(self):
        # a singleton's decoder always crosses, and same-cluster leftovers
        # are deranged by rejection sampling
        for seed in range(200):
            ca = assignment_of(5, [0, 1, 2, 3])
            plan = build_clustered_plan(ca, None, seed)
            assert all(plan.assignment[i] != i for i in range(5))


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
        with pytest.raises(InvalidAssignment):
            build_round_robin_plan(1, 0)


class TestRandomPlan:
    def test_two_clients_outcome_set(self):
        for seed in range(20):
            plan = build_random_plan(2, seed)
            assert plan.assignment in ((0, 1), (1, 0))

    def test_seeded_determinism(self):
        assert build_random_plan(6, 42).assignment == build_random_plan(6, 42).assignment

    def test_positionwise_uniformity(self):
        n = 5
        trials = 10_000
        counts = np.zeros((n, n), dtype=np.int64)
        for seed in range(trials):
            plan = build_random_plan(n, seed)
            for i, d in enumerate(plan.assignment):
                counts[i, d] += 1
        for i in range(n):
            result = stats.chisquare(counts[i])
            assert result.pvalue > 0.001

    def test_bijection(self):
        for seed in range(50):
            plan = build_random_plan(7, seed)
            assert sorted(plan.assignment) == list(range(7))
