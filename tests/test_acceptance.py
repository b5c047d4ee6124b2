"""Acceptance gate: ten checks covering the math oracles, the protocol
invariants, and the directional experiment claims on the default setup.

Each test prints one PASS/FAIL line to the real terminal so the gate is
readable straight from the pytest run.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from fedswap.clustering import (
    ClusterAssignment,
    DistanceMatrix,
    build_distance_matrix,
    cluster_to_two,
)
from fedswap.exchange import build_clustered_plan
from fedswap.harness import (
    _cell_config,
    _summarize,
    build_clients,
    compare_strategies,
    default_experiment_config,
    render_comparison_text,
    run_experiment,
)
from fedswap.server import AGGREGATE, run_simulation, schedule_decision
from linkage_oracle import oracle_linkage, oracle_merge_to_two
from loss_oracle import decoder_loss
from step_gradient import proximal_step_gradient, step_gradient

SEEDS = tuple(range(10))


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def cells():
    """Final summaries for every experiment cell the empirical criteria share.
    A seed's fraction-1.0 cells run on one build of its clients, as a run's
    cells do; elapsed_direct times the clustered and fedavg_only cells, their
    clients' builds included."""
    full = default_experiment_config(seeds=SEEDS)
    half = replace(full, data_fraction=0.5)
    out, elapsed_direct = {}, 0.0

    def run(cfg, strategy, seed, clients):
        server_cfg = cfg.server_config(strategy, seed)
        trace = run_simulation(server_cfg, clients)
        key = (strategy, server_cfg.aggregation_frequency, cfg.data_fraction)
        out.setdefault(key, []).append(
            _summarize(_cell_config(cfg, strategy, seed), clients, trace))

    for seed in SEEDS:
        t0 = time.perf_counter()
        clients = build_clients(full, seed)
        for strategy in ("clustered", "fedavg_only"):
            run(full, strategy, seed, clients)
        elapsed_direct += time.perf_counter() - t0
        run(full, "random", seed, clients)
        for t in (5, 10):
            run(replace(full, aggregation_frequency=t), "clustered", seed, clients)
        run(half, "clustered", seed, build_clients(half, seed))
    return {"summaries": out, "elapsed_direct": elapsed_direct}


def finals(cells, key, field="avg_loss"):
    return np.array([s["final"][field] for s in cells["summaries"][key]])


def pair_distance(a, b):
    return build_distance_matrix(np.stack((a, b))).entries[0, 1]


def test_criterion_01_clustering_matches_exhaustive_oracle(capsys):
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 8))
        m = np.zeros((n, n))
        iu = np.triu_indices(n, k=1)
        m[iu] = rng.uniform(0.01, 2.0, size=len(iu[0]))
        dm = DistanceMatrix(m + m.T)
        ca = cluster_to_two(dm)
        oracle_clusters, oracle_steps = oracle_merge_to_two(dm.entries, n)
        assert len(ca.merges) == len(oracle_steps)
        for (first, second, linkage), (a, b, link) in zip(ca.merges, oracle_steps):
            assert {frozenset(first), frozenset(second)} == {a, b}
            assert abs(linkage - link) <= 1e-12
        assert {frozenset(ca.members_0), frozenset(ca.members_1)} == set(
            oracle_clusters
        )
        checked += 1
    elapsed = time.perf_counter() - t0
    report(
        capsys, 1, checked == 200 and elapsed < 5.0,
        f"merge sequences equal exhaustive oracle on {checked}/200 instances "
        f"(n in 2..7) in {elapsed:.2f}s (budget 5s)",
    )


def test_criterion_02_distance_and_linkage_numerics(capsys):
    assert pair_distance(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 0.0
    assert pair_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
    assert pair_distance(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == 2.0

    rng = np.random.default_rng(1002)
    worst_sym = worst_scale = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 16))
        a, b = rng.normal(size=dim), rng.normal(size=dim)
        c = float(rng.uniform(1e-3, 1e3))
        worst_sym = max(
            worst_sym, abs(pair_distance(a, b) - pair_distance(b, a))
        )
        worst_scale = max(
            worst_scale,
            abs(pair_distance(c * a, b) - pair_distance(a, b)),
        )

    worst_link, links = 0.0, 0
    for _ in range(200):
        n = int(rng.integers(3, 9))
        m = np.zeros((n, n))
        iu = np.triu_indices(n, k=1)
        m[iu] = rng.uniform(0.0, 2.0, size=len(iu[0]))
        dm = DistanceMatrix(m + m.T)
        # each merge's incrementally kept linkage against the direct double sum
        for first, second, linkage in cluster_to_two(dm).merges:
            direct = oracle_linkage(dm.entries, first, second)
            worst_link = max(worst_link, abs(linkage - direct))
            links += 1

    ok = worst_sym <= 1e-9 and worst_scale <= 1e-9 and worst_link <= 1e-12
    report(
        capsys, 2, ok,
        f"distance identities exact; symmetry dev {worst_sym:.1e}, scale dev "
        f"{worst_scale:.1e} (tol 1e-9); linkage vs double sum {worst_link:.1e} "
        f"(tol 1e-12) over 1000 pairs and {links} merges of 200 matrices",
    )


def test_criterion_03_exchange_plan_invariants(capsys):
    rng = np.random.default_rng(1003)
    equal_checked = 0
    for trial in range(1000):
        n = int(rng.integers(2, 11))
        if trial % 4 == 0 and n % 2 == 0:
            size_0 = n // 2
        else:
            size_0 = int(rng.integers(1, n))
        members_0 = sorted(rng.choice(n, size=size_0, replace=False).tolist())
        ca = ClusterAssignment.from_members(n, members_0)
        plan = build_clustered_plan(
            ca, None, np.random.default_rng(int(rng.integers(2**32))))
        assert sorted(plan.assignment) == list(range(n))
        cross = sum(
            1 for i in range(n)
            if ca.index_list[i] != ca.index_list[plan.assignment[i]]
        )
        small = min(len(ca.members_0), len(ca.members_1))
        assert cross == 2 * small
        if len(ca.members_0) >= 2 and len(ca.members_1) >= 2:
            assert all(plan.assignment[i] != i for i in range(n))
        if len(ca.members_0) == len(ca.members_1):
            assert cross == n
            equal_checked += 1
    report(
        capsys, 3, equal_checked > 50,
        f"1000 random plans: bijection, cross-count 2*min(|C0|,|C1|), "
        f"derangement when both clusters >= 2, all-cross on {equal_checked} "
        f"equal-size splits",
    )


def test_criterion_04_schedule_correctness(capsys):
    R = 100
    for T in (2, 5, 10, 50):
        decisions = [schedule_decision(r, T) for r in range(1, R + 1)]
        fired = [r for r, d in enumerate(decisions, 1) if d == AGGREGATE]
        assert fired == list(range(T, R + 1, T))
        assert len(fired) == R // T
        assert decisions[-1] == AGGREGATE
    report(
        capsys, 4, True,
        "aggregation fires exactly at multiples of T (R/T times, final round "
        "included) for T in {2, 5, 10, 50} over 100 rounds",
    )


def test_criterion_05_gradients_match_finite_differences(capsys):
    cfg = default_experiment_config()
    clients = build_clients(cfg, master_seed=0)
    first = slice(clients.starts[0], clients.starts[1])
    rng = np.random.default_rng(1005)
    dim = cfg.feature_dim + 1
    worst = 0.0
    for trial in range(50):
        theta = rng.normal(size=dim)
        idx = rng.integers(0, clients.train_sizes[0], size=24)
        fb = clients.features_train[first][idx]
        yb = clients.train_y[first][idx]
        task = "regression" if trial % 2 == 0 else "classification"
        labels = yb if task == "regression" else np.sign(yb - np.median(yb) + 1e-9)
        if trial % 3 == 0:
            # the gradient one step from the anchor, where the pull is not zero
            anchor, mu = rng.normal(size=dim), float(rng.uniform(0.1, 2.0))
            theta, grad = proximal_step_gradient(anchor, fb, labels, task, mu)
        else:
            anchor, mu = None, 0.0
            grad = step_gradient(theta, fb, labels, task)
        h = 1e-6
        approx = np.zeros(dim)
        for k in range(dim):
            up, down = theta.copy(), theta.copy()
            up[k] += h
            down[k] -= h
            approx[k] = (
                decoder_loss(up, fb, labels, task, anchor, mu)
                - decoder_loss(down, fb, labels, task, anchor, mu)
            ) / (2 * h)
        rel = np.linalg.norm(grad - approx) / max(np.linalg.norm(approx), 1e-8)
        worst = max(worst, rel)
    report(
        capsys, 5, worst < 1e-5,
        f"50 (decoder, batch) pairs incl. proximal variants: worst relative "
        f"error vs central differences {worst:.2e} (tol 1e-5)",
    )


def test_criterion_06_worst_domain_improvement(capsys, cells):
    clustered = finals(cells, ("clustered", 2, 1.0), "worst_domain_loss")
    fedavg = finals(cells, ("fedavg_only", 1, 1.0), "worst_domain_loss")
    wins = int(np.sum(clustered <= fedavg))
    avg_c = finals(cells, ("clustered", 2, 1.0)).mean()
    avg_f = finals(cells, ("fedavg_only", 1, 1.0)).mean()
    rel = (avg_c - avg_f) / avg_f
    elapsed = cells["elapsed_direct"]
    ok = wins >= 8 and rel <= 0.05 and elapsed < 180.0
    report(
        capsys, 6, ok,
        f"clustered(T=2) worst-domain <= fedavg_only in {wins}/10 seeds "
        f"(need 8); avg loss {avg_c:.4f} vs {avg_f:.4f} ({rel:+.1%} rel, "
        f"limit +5%); runtime {elapsed:.1f}s (budget 180s)",
    )


def test_criterion_07_clustered_beats_random_exchange(capsys, cells):
    mean_c = finals(cells, ("clustered", 2, 1.0)).mean()
    mean_r = finals(cells, ("random", 2, 1.0)).mean()
    report(
        capsys, 7, mean_c <= mean_r,
        f"mean final avg loss over 10 seeds: clustered {mean_c:.4f} <= "
        f"random {mean_r:.4f}",
    )


def test_criterion_08_scarce_data_support(capsys, cells):
    # flag-level support: the documented fraction levels produce the right
    # train split sizes
    sizes = {}
    for fraction in (1.0, 0.5, 0.1):
        cfg = default_experiment_config(
            seeds=(0,), strategies=("clustered",), data_fraction=fraction
        )
        sizes[fraction] = list(build_clients(cfg, 0).train_sizes)
    assert sizes[1.0] == [2000, 2000, 2000, 500]
    assert sizes[0.5] == [1000, 1000, 1000, 250]
    assert sizes[0.1] == [200, 200, 200, 50]

    half = cells["summaries"][("clustered", 2, 0.5)]
    full = cells["summaries"][("fedavg_only", 1, 1.0)]
    table = compare_strategies(half + full)
    text = render_comparison_text(table)
    assert "clustered" in text and "fedavg_only" in text
    by_group = {
        (e["strategy"], e["data_fraction"]): e["train_sizes"]
        for e in table["entries"]
    }
    assert by_group[("clustered", 0.5)] == [1000, 1000, 1000, 250]
    assert by_group[("fedavg_only", 1.0)] == [2000, 2000, 2000, 500]

    wins = int(
        np.sum(
            finals(cells, ("clustered", 2, 0.5))
            <= finals(cells, ("fedavg_only", 1, 1.0))
        )
    )
    report(
        capsys, 8, wins >= 6,
        f"fractions {{1.0, 0.5, 0.1}} supported with correct train sizes; "
        f"clustered at 0.5 beats fedavg_only at 1.0 in {wins}/10 seeds "
        f"(need 6)",
    )


def test_criterion_09_byte_identical_reruns(capsys, tmp_path):
    cfg = default_experiment_config(seeds=(0,), strategies=("clustered",))
    run_experiment(cfg, tmp_path / "a")
    run_experiment(cfg, tmp_path / "b")
    rel = "clustered_T2_f1/seed_0/metrics.csv"
    a = (tmp_path / "a" / rel).read_bytes()
    b = (tmp_path / "b" / rel).read_bytes()
    report(
        capsys, 9, a == b,
        f"rerun of the same cell reproduced metrics.csv byte for byte "
        f"({len(a)} bytes)",
    )


def test_criterion_10_aggregation_frequency_insensitivity(capsys, cells):
    means = {
        t: finals(cells, ("clustered", t, 1.0)).mean() for t in (2, 5, 10)
    }
    best = min(means.values())
    spread = (max(means.values()) - best) / best
    detail = (
        f"mean final avg loss by T: "
        + ", ".join(f"T={t}: {v:.4f}" for t, v in means.items())
        + f"; relative spread {spread:.1%} (limit 15%)"
    )
    report(capsys, 10, spread <= 0.15, detail)
