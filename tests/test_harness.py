import csv
import functools
import json
import math
import os
import re
import shlex
import stat
import subprocess
import sys
import time
import typing
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedswap import cli, harness, server
from fedswap.cli import main
from fedswap.clients import MAX_STEP_ROWS, MAX_STEPS, DomainSpec, LocalConfig
from fedswap.errors import ConfigInvalid, FedswapError
from fedswap.harness import (
    MAX_CLIENTS,
    MAX_DIM,
    MAX_ENTRIES,
    MAX_ROWS,
    ExperimentConfig,
    ablation_T,
    build_clients,
    collect_summaries,
    compare_strategies,
    config_from_dict,
    config_to_dict,
    default_experiment_config,
    load_config,
    render_comparison_text,
    run_experiment,
    save_config,
)

INPUT_DIM = 5


def tiny_domains(counts=(100, 100, 40)):
    return tuple(
        DomainSpec(
            domain_id=f"d{i}",
            sample_count=c,
            input_dim=INPUT_DIM,
            shift=(0.3 * i,) * INPUT_DIM,
            concept_shift=0.2 + 0.5 * i,
            label_noise=0.05,
        )
        for i, c in enumerate(counts)
    )


def tiny_config(**overrides):
    defaults = dict(
        rounds=4,
        aggregation_frequency=2,
        warmup_rounds=2,
        strategies=("clustered", "fedavg_only"),
        seeds=(0, 1),
        input_dim=INPUT_DIM,
        feature_dim=6,
        test_count=40,
        local=LocalConfig(steps=2, learning_rate=0.05, batch_size=16),
        domains=tiny_domains(),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def final_set(key, value):
    """A damage for summary.json text: its final entry's key set to value."""
    return lambda text: json.dumps(dict(s := json.loads(text),
                                        final={**s["final"], key: value}))


def config_set(key, value):
    """A damage for summary.json text: its config's key set to value."""
    return lambda text: json.dumps(dict(s := json.loads(text),
                                        config={**s["config"], key: value}))


def sizes_set(change):
    """A damage for summary.json text: its train_sizes replaced by change(sizes)."""
    return lambda text: json.dumps(dict(s := json.loads(text),
                                        train_sizes=change(s["train_sizes"])))


# JSON-shaped config values: each key gets a value of its own JSON type or
# any nested value. Integers stay small, except the sizes: they are checked
# against MAX_DIM and MAX_ROWS before anything that large is built, so a huge
# one must be rejected at once.
_INTS = st.integers(-3, 64)
_DIMS = _INTS | st.integers(MAX_DIM - 1, 10**18)
_ROWS = _INTS | st.integers(MAX_ROWS - 1, 10**18)
_NUMBERS = st.floats() | _INTS
_WORDS = st.sampled_from(("clustered", "fedavg_only", "fedprox", "random",
                          "round_robin", "regression", "classification", "d0"))
_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBERS | st.text(max_size=3) | _WORDS,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=6,
)


def _json_object(types):
    """Objects over the optional keys of types, each value of its type or any
    JSON value; or any JSON value in place of the object."""
    return st.fixed_dictionaries(
        {}, optional={key: typed | _JSON for key, typed in types.items()}
    ) | _JSON


_CONFIG = _json_object({
    "rounds": _INTS, "aggregation_frequency": _INTS, "warmup_rounds": _INTS,
    "strategies": st.lists(_WORDS, max_size=3), "seeds": st.lists(_INTS, max_size=3),
    "data_fraction": _NUMBERS, "task": _WORDS,
    "input_dim": _DIMS, "feature_dim": _DIMS, "test_count": _ROWS,
    "local": _json_object({"steps": _INTS, "learning_rate": _NUMBERS,
                           "batch_size": _INTS, "prox_mu": _NUMBERS}),
    "domains": st.lists(_json_object({
        "domain_id": _WORDS | _INTS, "sample_count": _ROWS,
        "shift": _NUMBERS | st.lists(_NUMBERS, max_size=3),
        "concept_shift": _NUMBERS, "label_noise": _NUMBERS,
    }), max_size=4),
})


class TestExperimentConfig:
    @given(_CONFIG)
    @settings(max_examples=200, deadline=None)
    def test_any_json_yields_config_or_fedswap_error(self, data):
        try:
            cfg = config_from_dict(data)
        except FedswapError:
            return
        assert isinstance(cfg, ExperimentConfig)

    def test_validation(self):
        with pytest.raises(ConfigInvalid):
            tiny_config(seeds=())
        with pytest.raises(ConfigInvalid):
            tiny_config(seeds=(0, 0))
        with pytest.raises(ConfigInvalid):
            tiny_config(strategies=("mystery",))
        with pytest.raises(ConfigInvalid):
            tiny_config(data_fraction=0.0)
        with pytest.raises(ConfigInvalid):
            tiny_config(data_fraction=1.5)
        with pytest.raises(ConfigInvalid):
            tiny_config(task="ranking")
        with pytest.raises(ConfigInvalid):
            tiny_config(domains=tiny_domains()[:1])
        with pytest.raises(ConfigInvalid):
            tiny_config(rounds=5)
        with pytest.raises(ConfigInvalid, match=r"duplicate domain ids in \['d0', 'd1', 'd0'\]"):
            tiny_config(domains=tiny_domains()[:2] + tiny_domains()[:1])
        narrow = DomainSpec("d9", 50, INPUT_DIM - 1, (0.0,) * (INPUT_DIM - 1), 0.1, 0.1)
        with pytest.raises(ConfigInvalid, match=f"domain d9 input_dim {INPUT_DIM - 1} != {INPUT_DIM}"):
            tiny_config(domains=tiny_domains() + (narrow,))

    def test_pure_aggregation_strategies_run_at_t1(self):
        cfg = tiny_config()
        assert cfg.server_config("fedavg_only", 0).aggregation_frequency == 1
        assert cfg.server_config("fedprox", 0).aggregation_frequency == 1
        assert cfg.server_config("clustered", 0).aggregation_frequency == 2
        # the config keeps T as written; only the cells without a plan run at 1
        assert cfg.aggregation_frequency == 2

    def test_default_config_shape(self):
        cfg = default_experiment_config()
        assert len(cfg.domains) == 4
        counts = sorted(d.sample_count for d in cfg.domains)
        assert counts[0] * 4 == counts[-1]
        smallest = min(cfg.domains, key=lambda d: d.sample_count)
        assert smallest.concept_shift == max(d.concept_shift for d in cfg.domains)

    def test_round_trip_through_dict(self):
        cfg = tiny_config()
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_dict_is_a_copy(self):
        cfg = tiny_config()
        data = config_to_dict(cfg)
        data["rounds"] = 7
        data["local"]["steps"] = 7
        data["domains"][0]["sample_count"] = 7
        assert cfg == tiny_config()

    def test_round_trip_through_file(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "config.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_unknown_keys_rejected(self, tmp_path):
        data = config_to_dict(tiny_config())
        data["typo_key"] = 1
        with pytest.raises(ConfigInvalid, match="typo_key"):
            config_from_dict(data)
        data = config_to_dict(tiny_config())
        data["local"]["momentum"] = 0.9
        with pytest.raises(ConfigInvalid, match="momentum"):
            config_from_dict(data)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigInvalid):
            load_config(path)

    def test_scalar_shift_broadcasts(self):
        data = config_to_dict(tiny_config())
        data["domains"][0]["shift"] = 0.7
        cfg = config_from_dict(data)
        assert cfg.domains[0].shift == (0.7,) * INPUT_DIM

    def test_missing_domains_falls_back_to_default_shape(self):
        cfg = config_from_dict({"rounds": 8, "seeds": [0]})
        assert len(cfg.domains) == 4
        assert cfg.rounds == 8


CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


# an empty glob would parametrize no case and pass unseen, hence the None case
@pytest.mark.parametrize("path", CONFIGS or [None], ids=lambda path: path and path.name)
def test_checked_in_config_loads(path):
    assert path is not None, "configs/ holds no *.json"
    assert isinstance(load_config(path), ExperimentConfig)


class TestBuildClients:
    def test_shared_backbone_and_fraction(self):
        cfg = tiny_config(data_fraction=0.5)
        clients = build_clients(cfg, master_seed=0)
        assert len(clients) == 3
        assert clients.domains == cfg.domains
        assert clients.features_train.shape[1] == cfg.feature_dim
        assert clients.decoder_dim == cfg.feature_dim + 1
        assert (clients.task, clients.config) == (cfg.task, cfg.local)
        assert clients.train_sizes == (50, 50, 20)
        assert clients.starts.tolist() == [0, 50, 100, 120]

    def test_different_seeds_different_data(self):
        cfg = tiny_config()
        a = build_clients(cfg, master_seed=0)
        b = build_clients(cfg, master_seed=1)
        first = slice(a.starts[0], a.starts[1])
        assert not np.array_equal(a.features_train[first], b.features_train[first])

    @pytest.mark.parametrize("fraction", [1.0, 0.5])
    def test_clients_are_views_of_one_block_per_split(self, fraction):
        # every client's data lives in one array per split, and both splits'
        # features (and both splits' labels) in one allocation; a second copy
        # would double the resident data
        clients = build_clients(tiny_config(data_fraction=fraction), master_seed=0)
        blocks = {"features_train": clients.features_train, "train_y": clients.train_y,
                  "features_test": clients.features_test, "test_y": clients.test_y}
        assert clients.features_train.shape == (sum(clients.train_sizes), 6)
        assert clients.features_test.shape == (len(clients), 40, 6)
        for block in blocks.values():
            assert not block.flags.owndata and not block.flags.writeable
            assert not block.base.flags.writeable
        assert clients.features_train.base is clients.features_test.base
        assert clients.train_y.base is clients.test_y.base


class TestRunExperiment:
    def test_cell_files_and_comparison(self, tmp_path):
        cfg = tiny_config()
        summaries = run_experiment(cfg, tmp_path)
        assert len(summaries) == 4
        for strategy, t in (("clustered", 2), ("fedavg_only", 1)):
            for seed in (0, 1):
                cell = tmp_path / f"{strategy}_T{t}_f1" / f"seed_{seed}"
                assert (cell / "metrics.csv").exists()
                assert (cell / "summary.json").exists()
        assert (tmp_path / "comparison.json").exists()
        assert (tmp_path / "comparison.txt").exists()
        assert (tmp_path / "config.json").exists()

    def test_each_seed_builds_its_clients_once(self, tmp_path, monkeypatch):
        # a run's configs differ only in strategies and T, so every cell of a
        # seed runs on one build of its clients, and the cells go seed by seed
        built, build = [], harness.build_clients

        def counting(cfg, seed):
            built.append(seed)
            return build(cfg, seed)

        monkeypatch.setattr(harness, "build_clients", counting)
        summaries = run_experiment(tiny_config(strategies=("clustered", "fedavg_only", "random")),
                                   tmp_path / "run")
        assert built == [0, 1]
        assert [(s["config"]["seeds"][0], s["config"]["strategies"][0]) for s in summaries] == [
            (seed, strategy) for seed in (0, 1)
            for strategy in ("clustered", "fedavg_only", "random")]
        built.clear()
        ablation_T(tiny_config(), [2, 4], tmp_path / "ablation")
        assert built == [0, 1]

    def test_run_equals_its_single_cell_runs(self, tmp_path):
        # sharing a seed's clients between its cells changes no byte of a cell
        cfg = tiny_config()
        run_experiment(cfg, tmp_path / "run")
        for strategy in cfg.strategies:
            for seed in cfg.seeds:
                run_experiment(replace(cfg, strategies=(strategy,), seeds=(seed,)),
                               tmp_path / "cells")

        def cells(root):
            files = {}
            for path in root.glob("*/seed_*/*"):
                if path.name == "summary.json":
                    files[path.relative_to(root)] = {**json.loads(path.read_text()),
                                                     "metadata": None}
                else:
                    files[path.relative_to(root)] = path.read_bytes()
            return files

        run = cells(tmp_path / "run")
        assert len(run) == 8
        assert run == cells(tmp_path / "cells")

    def test_csv_schema_and_row_count(self, tmp_path):
        cfg = tiny_config(seeds=(0,), strategies=("clustered",))
        run_experiment(cfg, tmp_path)
        path = tmp_path / "clustered_T2_f1" / "seed_0" / "metrics.csv"
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "round", "decision",
            "domain_0_loss", "domain_1_loss", "domain_2_loss",
            "avg_loss", "std_loss",
        ]
        assert len(rows) == 1 + cfg.warmup_rounds + cfg.rounds
        warmup_rows = [r for r in rows[1:] if r[1] == "warmup"]
        assert len(warmup_rows) == cfg.warmup_rounds
        assert all(int(r[0]) <= 0 for r in warmup_rows)
        for r in rows[1:]:
            losses = [float(v) for v in r[2:5]]
            assert float(r[6]) == pytest.approx(float(np.std(losses)), abs=1e-9)

    def test_classification_gets_accuracy_columns(self, tmp_path):
        cfg = tiny_config(
            seeds=(0,), strategies=("clustered",), task="classification"
        )
        run_experiment(cfg, tmp_path)
        path = tmp_path / "clustered_T2_f1" / "seed_0" / "metrics.csv"
        header = path.read_text().splitlines()[0].split(",")
        assert header[-1] == "avg_accuracy"
        assert "domain_0_accuracy" in header
        summary = json.loads(
            (tmp_path / "clustered_T2_f1" / "seed_0" / "summary.json").read_text()
        )
        assert "avg_accuracy" in summary["final"]

    def test_rerun_metric_files_byte_identical(self, tmp_path):
        cfg = tiny_config(seeds=(0,), strategies=("clustered",))
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b")
        rel = "clustered_T2_f1/seed_0/metrics.csv"
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_summary_records_reduced_train_sizes(self, tmp_path):
        cfg = tiny_config(seeds=(0,), strategies=("clustered",), data_fraction=0.1)
        summaries = run_experiment(cfg, tmp_path)
        assert summaries[0]["train_sizes"] == [10, 10, 4]
        assert [d["sample_count"] for d in summaries[0]["config"]["domains"]] == [100, 100, 40]

    def test_summary_carries_its_cell_config(self, tmp_path):
        # one strategy, one seed and the effective T
        cfg = tiny_config(seeds=(0, 1))
        run_experiment(cfg, tmp_path)
        path = tmp_path / "fedavg_only_T1_f1" / "seed_1" / "summary.json"
        written = json.loads(path.read_text())["config"]
        cell = replace(cfg, strategies=("fedavg_only",), seeds=(1,), aggregation_frequency=1)
        assert written == json.loads(json.dumps(config_to_dict(cell)))
        assert config_from_dict(written) == cell

    def test_summary_final_matches_csv_last_row(self, tmp_path):
        cfg = tiny_config(seeds=(0,), strategies=("clustered",))
        summaries = run_experiment(cfg, tmp_path)
        path = tmp_path / "clustered_T2_f1" / "seed_0" / "metrics.csv"
        last = path.read_text().splitlines()[-1].split(",")
        assert float(last[5]) == summaries[0]["final"]["avg_loss"]
        assert summaries[0]["final"]["round"] == cfg.rounds

    def test_interrupted_rerun_leaves_no_stale_summary(self, tmp_path, monkeypatch):
        # the rerun's metrics.csv lands and its summary.json does not: the old
        # summary.json must not be left beside a metrics.csv it does not describe
        cfg = tiny_config(seeds=(0,), strategies=("clustered",))
        run_experiment(cfg, tmp_path)
        cell = tmp_path / "clustered_T2_f1" / "seed_0"
        real_replace = os.replace

        def replace_failing_on_summary(src, dst):
            if os.path.basename(dst) == "summary.json":
                raise OSError("interrupted")
            real_replace(src, dst)

        monkeypatch.setattr("fedswap.harness.os.replace", replace_failing_on_summary)
        with pytest.raises(OSError, match="interrupted"):
            run_experiment(tiny_config(seeds=(0,), strategies=("clustered",),
                                       rounds=2), tmp_path)
        assert len((cell / "metrics.csv").read_text().splitlines()) == 1 + 2 + 2
        assert not (cell / "summary.json").exists()

    def test_concurrent_writers_publish_whole_files(self, tmp_path):
        # two processes write one path while a third reads it: every write
        # must land and every read must see one writer's whole text
        size, writes = 200_000, 300
        target, go, stop = tmp_path / "out.json", tmp_path / "go", tmp_path / "stop"
        harness._write_text(target, "a" * size)
        wait = "import os, sys\nprint(flush=True)\nwhile not os.path.exists(sys.argv[2]): pass\n"
        writer = ("from fedswap.harness import _write_text\n" + wait +
                  "for _ in range(int(sys.argv[4])):\n"
                  "    _write_text(sys.argv[1], sys.argv[3] * int(sys.argv[5]))\n")
        reader = (wait + "size, bad, reads = int(sys.argv[4]), 0, 0\n"
                  "while not reads or not os.path.exists(sys.argv[3]):\n"
                  "    with open(sys.argv[1], encoding='utf-8') as fh:\n"
                  "        text = fh.read()\n"
                  "    reads += 1\n"
                  "    bad += len(text) != size or text.count(text[:1]) != size\n"
                  "print(reads, bad)\n")
        src = str(Path(harness.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        children = [subprocess.Popen([sys.executable, "-c", code, str(target), str(go), *args],
                                     env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                     text=True)
                    for code, args in ((reader, (str(stop), str(size))),
                                       (writer, ("b", str(writes), str(size))),
                                       (writer, ("c", str(writes), str(size))))]
        try:
            for child in children:
                assert child.stdout.readline() == "\n"  # imported and waiting
            go.touch()
            writers = [child.communicate(timeout=120) for child in children[1:]]
            stop.touch()
            out, err = children[0].communicate(timeout=120)
        finally:
            for child in children:
                child.kill()
        for (_, writer_err), child in zip(writers, children[1:]):
            assert child.returncode == 0 and not writer_err, writer_err
        assert children[0].returncode == 0 and not err, err
        reads, bad = map(int, out.split())
        assert reads > 0 and bad == 0, f"{bad} of {reads} reads saw a partial file"
        assert [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"] == []

    def test_non_finite_json_leaves_the_old_file(self, tmp_path):
        # json refuses NaN and Infinity before the temporary file exists
        target = tmp_path / "out.json"
        harness._write_json(target, {"x": 1.0})
        before = target.read_bytes()
        for value in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="not JSON compliant"):
                harness._write_json(target, {"x": value})
        assert target.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_written_files_keep_the_default_mode(self, tmp_path):
        umask = os.umask(0)
        os.umask(umask)
        harness._write_text(tmp_path / "f.txt", "x")
        assert stat.S_IMODE((tmp_path / "f.txt").stat().st_mode) == 0o666 & ~umask


class TestCompareStrategies:
    def fake_summary(self, strategy, seed, avg, worst=None, freq=1, fraction=1.0):
        config = json.loads(json.dumps(config_to_dict(tiny_config())))
        config.update(strategies=[strategy], seeds=[seed], aggregation_frequency=freq,
                      data_fraction=fraction)
        return {
            "config": config,
            "train_sizes": [100, 100, 40],
            "final": {
                "avg_loss": avg,
                "std_loss": 0.1,
                "domain_losses": [avg, avg, avg],
                "worst_domain": "d2",
                "worst_domain_loss": worst if worst is not None else avg,
            },
        }

    def test_ranks_and_ties(self):
        summaries = [
            self.fake_summary("clustered", 0, 1.0),
            self.fake_summary("fedavg_only", 0, 1.0),
            self.fake_summary("random", 0, 2.0),
        ]
        table = compare_strategies(summaries)
        ranks = {e["strategy"]: e["rank"] for e in table["entries"]}
        assert ranks == {"clustered": 1, "fedavg_only": 1, "random": 3}

    def test_mean_over_seeds(self):
        summaries = [
            self.fake_summary("clustered", 0, 1.0),
            self.fake_summary("clustered", 1, 3.0),
            self.fake_summary("fedavg_only", 0, 2.0),
            self.fake_summary("fedavg_only", 1, 2.0),
        ]
        table = compare_strategies(summaries)
        by_name = {e["strategy"]: e for e in table["entries"]}
        assert by_name["clustered"]["mean_avg_loss"] == 2.0
        assert by_name["clustered"]["seeds"] == [0, 1]

    def test_mismatched_seed_sets_rejected(self):
        summaries = [
            self.fake_summary("clustered", 0, 1.0),
            self.fake_summary("clustered", 1, 1.0),
            self.fake_summary("fedavg_only", 0, 2.0),
        ]
        with pytest.raises(ConfigInvalid, match="different seed sets"):
            compare_strategies(summaries)

    def test_repeated_seed_in_a_group_rejected(self):
        # two runs of one cell are one seed, not two to average
        summaries = [
            self.fake_summary("clustered", 0, 1.0, freq=2),
            self.fake_summary("clustered", 0, 3.0, freq=2),
            self.fake_summary("fedavg_only", 0, 2.0),
            self.fake_summary("fedavg_only", 1, 2.0),
        ]
        with pytest.raises(ConfigInvalid,
                           match="^group clustered_T2_f1 holds seed 0 twice$"):
            compare_strategies(summaries)

    def test_overflowing_mean_over_seeds_rejected(self):
        # each final loss is finite, but their sum over the seeds is not
        summaries = [self.fake_summary("clustered", seed, 1e308) for seed in (0, 1)]
        summaries += [self.fake_summary("fedavg_only", seed, 1.0) for seed in (0, 1)]
        with np.errstate(over="ignore"), pytest.raises(
                ConfigInvalid, match="^group clustered_T1_f1: a mean over seeds overflows$"):
            compare_strategies(summaries)

    @pytest.mark.parametrize("change, key", [
        (lambda c: c.update(rounds=8), "rounds"),
        (lambda c: c["domains"][1].update(domain_id="d9"), "domains"),
        (lambda c: c["local"].update(learning_rate=0.1), "local"),
        (lambda c: c.update(test_count=41), "test_count"),
        (lambda c: c["domains"][2].update(shift=[0.7] * INPUT_DIM), "domains"),
    ], ids=["rounds", "domain_id", "learning_rate", "test_count", "shift"])
    def test_differing_config_rejected(self, change, key):
        # every config key but the cell's strategy, T, fraction and seed
        a = self.fake_summary("clustered", 0, 1.0)
        b = self.fake_summary("fedavg_only", 0, 2.0)
        change(b["config"])
        with pytest.raises(ConfigInvalid, match=f"^refusing to compare runs with differing {key}$"):
            compare_strategies([a, b])

    def test_single_group_rejected(self):
        with pytest.raises(ConfigInvalid):
            compare_strategies([self.fake_summary("clustered", 0, 1.0)])
        with pytest.raises(ConfigInvalid, match="^nothing to compare$"):
            compare_strategies([])

    def test_classification_runs_report_mean_accuracy(self, tmp_path):
        run_experiment(tiny_config(task="classification"), tmp_path)
        summaries = collect_summaries(tmp_path)
        table = compare_strategies(summaries)
        assert len(table["entries"]) == 2
        for entry in table["entries"]:
            mine = [s for s in summaries if s["config"]["strategies"][0] == entry["strategy"]]
            accuracies = [s["final"]["avg_accuracy"] for s in mine]
            assert len(accuracies) == 2 and all(0.0 <= a <= 1.0 for a in accuracies)
            assert entry["mean_avg_accuracy"] == float(np.mean(accuracies))

    def test_fraction_distinguishes_groups(self):
        summaries = [
            self.fake_summary("clustered", 0, 1.0, fraction=0.5),
            self.fake_summary("clustered", 0, 2.0, fraction=1.0),
        ]
        table = compare_strategies(summaries)
        assert len(table["entries"]) == 2

    def test_text_rendering(self):
        summaries = [
            self.fake_summary("clustered", 0, 1.0),
            self.fake_summary("fedavg_only", 0, 2.0),
        ]
        text = render_comparison_text(compare_strategies(summaries))
        lines = text.splitlines()
        assert lines[0].startswith("strategy")
        assert any(line.startswith("clustered") for line in lines)
        assert any(line.startswith("fedavg_only") for line in lines)


@pytest.fixture(scope="module")
def summary_trees(tmp_path_factory) -> dict:
    """Valid trees to compare, two strategies at seeds 0..k-1 for k in 1, 2:
    by k, each one's root, its summaries by their paths under the root, and
    the bytes of its comparison files."""
    trees = {}
    for k in (1, 2):
        root = tmp_path_factory.mktemp(f"seeds_{k}")
        run_experiment(tiny_config(seeds=tuple(range(k))), root)
        summaries = {str(p.relative_to(root)): json.loads(p.read_text())
                     for p in root.rglob("summary.json")}
        trees[k] = root, summaries, {p.name: p.read_bytes() for p in root.glob("comparison.*")}
    return trees


def _locations(summary: dict) -> list[tuple]:
    """Where one value can be damaged: every key of a summary, of its config
    and of its final entry, and the first item of every list."""
    found = []
    for parent in ((), ("config",), ("final",)):
        for key, value in functools.reduce(dict.get, parent, summary).items():
            found.append((*parent, key))
            if isinstance(value, list):
                found.append((*parent, key, 0))
    return found


_DAMAGES = ("type", "nan", "inf", "-inf", "negative", "zero", "huge_int", "missing",
            "extra_key", "repeated_seed")
_OTHER_TYPES = ("x", [1.0], {"a": 1}, True, None, 0.5, 7)


def _damaged(summary: dict, group: list, where: tuple, damage: str, swap: int) -> dict:
    """A copy of summary, one of group, with one damage at where; swap picks
    among the replacement values of a damage that has several."""
    summary = json.loads(json.dumps(summary))
    *path, last = where
    holder = functools.reduce(lambda node, key: node[key], path, summary)
    value = holder[last]
    if damage == "repeated_seed":
        seeds = summary["config"]["seeds"]
        seeds[0] = next(s["config"]["seeds"][0] for s in group
                        if s["config"]["seeds"] != seeds)
    elif damage == "missing":
        del holder[last]
    elif damage == "extra_key":
        target = holder if isinstance(holder, dict) else summary
        target["extra"] = 1
    elif damage == "type":
        others = [v for v in _OTHER_TYPES if type(v) is not type(value)]
        holder[last] = others[swap % len(others)]
    else:
        holder[last] = {
            "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "zero": 0,
            "negative": -abs(value) - 1 if _is_number(value) else -1,
            "huge_int": (2**63, 10**308, 10**400)[swap % 3],
        }[damage]
    return summary


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _assert_finite_numbers(node) -> None:
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for item in node:
            _assert_finite_numbers(item)
    elif isinstance(node, float):
        assert math.isfinite(node), node


def _refuse_constant(name):
    raise AssertionError(f"comparison.json holds {name}")


@given(st.sampled_from((1, 2)), st.data(), st.sampled_from(_DAMAGES), st.integers(0, 6))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_compare_refuses_or_writes_finite_json_for_any_one_damage(summary_trees, seeds, data,
                                                                   damage, swap):
    # one value of one summary of a valid two-group tree is damaged: compare
    # either refuses the tree, leaving the old comparison, or writes one
    # that holds only finite numbers; a one-seed tree lets a summary that
    # leaves its group still match the other group's seed set
    assume(damage != "repeated_seed" or seeds > 1)
    root, summaries, written = summary_trees[seeds]
    name = data.draw(st.sampled_from(sorted(summaries)))
    group = [s for path, s in summaries.items()
             if Path(path).parent.parent == Path(name).parent.parent]
    where = data.draw(st.sampled_from(_locations(summaries[name])))
    (root / name).write_text(json.dumps(_damaged(summaries[name], group, where, damage, swap)))
    try:
        harness.write_comparison(compare_strategies(collect_summaries(root)), root)
    except FedswapError:
        assert {p.name: p.read_bytes() for p in root.glob("comparison.*")} == written
    else:
        _assert_finite_numbers(json.loads((root / "comparison.json").read_text(),
                                          parse_constant=_refuse_constant))
    finally:
        (root / name).write_text(json.dumps(summaries[name]))
        for file, content in written.items():
            (root / file).write_bytes(content)


class TestAblationT:
    def test_divisibility_enforced(self, tmp_path):
        with pytest.raises(ConfigInvalid):
            ablation_T(tiny_config(), [3], tmp_path)

    def test_no_t_values_rejected(self, tmp_path):
        with pytest.raises(ConfigInvalid, match="^need at least one T value$"):
            ablation_T(tiny_config(), [], tmp_path)
        assert not list(tmp_path.iterdir())

    def test_emits_table_and_runs(self, tmp_path):
        cfg = tiny_config(seeds=(0,), strategies=("clustered",))
        summaries = ablation_T(cfg, [2, 4], tmp_path)
        assert [s["config"]["aggregation_frequency"] for s in summaries] == [2, 4]
        assert (tmp_path / "clustered_T2_f1" / "seed_0" / "metrics.csv").exists()
        assert (tmp_path / "clustered_T4_f1" / "seed_0" / "metrics.csv").exists()
        # one ranked group per T, as compare_strategies ranks strategies
        comparison = json.loads((tmp_path / "comparison.json").read_text())
        assert comparison == compare_strategies(summaries)
        assert sorted(e["aggregation_frequency"] for e in comparison["entries"]) == [2, 4]
        assert sorted(e["rank"] for e in comparison["entries"]) == [1, 2]
        assert (tmp_path / "comparison.txt").read_text() == render_comparison_text(comparison)


class TestCli:
    def write_config(self, tmp_path):
        path = tmp_path / "config.json"
        save_config(tiny_config(), path)
        return path

    def test_run_and_compare(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "runs")]) == 0
        out = capsys.readouterr().out
        assert "wrote 4 run(s)" in out
        assert "strategy" in out
        assert main(["compare", "--in", str(tmp_path / "runs")]) == 0
        assert "clustered" in capsys.readouterr().out

    def test_run_overrides(self, tmp_path):
        cfg_path = self.write_config(tmp_path)
        out = tmp_path / "single"
        code = main([
            "run", "--config", str(cfg_path), "--seed", "5",
            "--strategy", "clustered", "--rounds", "2",
            "--agg-frequency", "2", "--data-fraction", "0.5",
            "--out", str(out),
        ])
        assert code == 0
        assert (out / "clustered_T2_f0.5" / "seed_5" / "metrics.csv").exists()

    def test_run_reports_config_errors(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path)
        code = main(["run", "--config", str(cfg_path), "--rounds", "7"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_seed_beyond_uint32_is_one_line_error(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path)
        out = tmp_path / "runs"
        assert main(["run", "--config", str(cfg_path), "--seed", "4294967296",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: master_seed must lie in") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("data", [
        {"domains": [{"domain_id": "a"}, {"domain_id": "b", "sample_count": 10}]},
        {"rounds": "40"},
        {"local": 3},
        {"domains": 5},
        {"feature_dim": 0},
        {"local": {"prox_mu": float("nan")}},
        {"local": {"learning_rate": float("inf")}},
        {"domains": [{"domain_id": "a", "sample_count": 10,
                      "concept_shift": float("nan")},
                     {"domain_id": "b", "sample_count": 10}]},
        {"rounds": True, "aggregation_frequency": 1},
        {"seeds": [True]},
        # only a later cell's config is bad: no cell may run before the error
        {"strategies": ["fedavg_only", "clustered"], "rounds": 5},
        {"seeds": [0, -1]},
        # both used to get past the config and fail while writing a run
        {"test_count": 0},
        {"input_dim": 0},
        # the output directory is --out, not a config key
        {"out_dir": "runs"},
        # used to run the clustered cell twice into one directory
        {"strategies": ["clustered", "clustered", "fedavg_only"], "rounds": 2,
         "seeds": [0]},
    ])
    def test_malformed_config_is_one_line_error(self, tmp_path, capsys, data):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(data))
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        # a bad input is reported as such, not as a training divergence
        assert "reduce the learning rate" not in err
        assert not list(tmp_path.rglob("summary.json"))
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("args, data, t", [
        (["--strategy", "fedavg_only", "--agg-frequency", "0", "--rounds", "2",
          "--seed", "0"], {}, 0),
        ([], {"strategies": ["fedprox", "fedavg_only"], "aggregation_frequency": -7}, -7),
    ], ids=["fedavg_only_flag_T0", "fedprox_config_T-7"])
    def test_period_below_1_is_refused_for_every_strategy(self, tmp_path, capsys, args,
                                                          data, t):
        # the strategies that run at T = 1 used to run at any T given, 0 included,
        # and write it into config.json
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(data))
        out = tmp_path / "runs"
        assert main(["run", "--config", str(cfg_path), *args, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: aggregation_frequency must be >= 1, got {t}\n"
        assert not out.exists()

    def test_compare_refuses_a_negative_period_of_a_planless_strategy(self, tmp_path, capsys):
        run_experiment(tiny_config(seeds=(0,)), tmp_path)
        summary = tmp_path / "fedavg_only_T1_f1" / "seed_0" / "summary.json"
        summary.write_text(config_set("aggregation_frequency", -3)(summary.read_text()))
        written = (tmp_path / "comparison.json").read_bytes()
        assert main(["compare", "--in", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {summary}: aggregation_frequency must be >= 1, got -3\n")
        assert (tmp_path / "comparison.json").read_bytes() == written

    def test_config_naming_a_directory_is_refused(self, tmp_path, capsys):
        # as a config.json written while the directory was a config key
        data = {**config_to_dict(tiny_config()), "out_dir": str(tmp_path / "runs")}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(data))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == "error: unknown config keys: ['out_dir']\n"
        assert not (tmp_path / "runs").exists()

    def test_run_writes_config_naming_no_directory(self, tmp_path):
        cfg = tiny_config(seeds=(0,), strategies=("clustered",))
        run_experiment(cfg, tmp_path / "elsewhere")
        written = json.loads((tmp_path / "elsewhere" / "config.json").read_text())
        assert written == json.loads(json.dumps(config_to_dict(cfg)))
        assert "out_dir" not in written

    def test_fractions_that_print_alike_get_two_directories(self, tmp_path, capsys):
        # 0.1 and 0.1000001 both printed as 0.1 and shared one cell directory
        out = tmp_path / "col"
        for fraction in ("0.1", "0.1000001"):
            assert main(["run", "--rounds", "2", "--agg-frequency", "2", "--seed", "0",
                         "--strategy", "clustered", "--data-fraction", fraction,
                         "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir() if p.is_dir()) == [
            "clustered_T2_f0.1", "clustered_T2_f0.1000001"]
        capsys.readouterr()
        assert main(["compare", "--in", str(out)]) == 0
        comparison = json.loads((out / "comparison.json").read_text())
        # both keep the same train sizes, so the two groups tie
        assert [(e["data_fraction"], e["rank"]) for e in comparison["entries"]] == [
            (0.1, 1), (0.1000001, 1)]
        assert "0.1000001" in capsys.readouterr().out

    @pytest.mark.filterwarnings("error")
    def test_divergence_is_one_line_error(self, tmp_path, capsys):
        # numpy's overflow warnings must not escape main or add lines; at 100
        # steps the training loss overflows in the first warm-up round, before
        # any test loss is scored (at 10 steps the test losses' std overflows
        # first, in round -2)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"local": {"learning_rate": 50, "steps": 100}}))
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "error: clustered T=2 seed 0, round -4: non-finite loss at step 68 on d0")
        assert err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    def test_overflowing_test_loss_is_one_line_error(self, tmp_path, capsys):
        # one step leaves finite decoders whose test losses overflow; no
        # summary with an Infinity or NaN in it is written
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "rounds": 1, "warmup_rounds": 0, "aggregation_frequency": 1,
            "strategies": ["fedavg_only"], "seeds": [0],
            "local": {"steps": 1, "learning_rate": 1e160}}))
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err
        assert err == ("error: fedavg_only T=1 seed 0, round 1: non-finite test loss on d0; "
                       "reduce the learning rate\n")
        assert not list(tmp_path.rglob("summary.json"))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("overrides, round_index", [
        ({"warmup_rounds": 0, "local": {"steps": 1, "learning_rate": 1e80}}, 1),
        ({"local": {"learning_rate": 50}}, -2)], ids=["one_step_at_1e80", "lr_50"])
    def test_overflowing_loss_std_is_one_line_error(self, tmp_path, capsys, overrides,
                                                    round_index):
        # the test losses are finite, near 1e162 in the one-step run, but the
        # squares in their std overflow; no Infinity reaches metrics.csv or
        # summary.json
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"rounds": 2, "aggregation_frequency": 1,
                                        "strategies": ["fedavg_only"], "seeds": [0],
                                        **overrides}))
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: fedavg_only T=1 seed 0, round {round_index}: test loss std "
                       "overflows; reduce the learning rate\n")
        assert not list(tmp_path.rglob("metrics.csv"))
        assert not list(tmp_path.rglob("summary.json"))

    def test_huge_input_dim_fails_fast(self, tmp_path, capsys):
        # each is rejected before a shift tuple, an input matrix or a feature
        # matrix of that size is built
        two = [{"domain_id": "a", "sample_count": 10**15},
               {"domain_id": "b", "sample_count": 10}]
        for data, name in (
            ({"input_dim": 10**9}, "input_dim"),
            ({"feature_dim": 10**15}, "feature_dim"),
            ({"test_count": 10**15}, "test_count"),
            ({"domains": two}, "domain a sample_count"),
            # each size within its cap: a (4006500, 4096) feature block, 122 GiB
            ({"feature_dim": 4096, "test_count": 10**6}, "data rows times width"),
        ):
            cfg_path = tmp_path / "config.json"
            cfg_path.write_text(json.dumps(data))
            t0 = time.perf_counter()
            code = main(["run", "--config", str(cfg_path),
                         "--out", str(tmp_path / "runs")])
            elapsed = time.perf_counter() - t0
            assert code == 2 and elapsed < 0.1, (name, elapsed)
            err = capsys.readouterr().err
            assert err.startswith(f"error: {name} must be") and err.count("\n") == 1

    def test_huge_round_index_block_fails_fast(self, tmp_path, capsys, monkeypatch):
        # 64 mini-batch clients of batch 32 at 100000 steps would take 16 B x
        # 2.05e8 step-rows of batch indices and labels: their clients build,
        # and the first cell's workspace refuses them before any round, file
        # or directory, counting one batch shape's views and 64 loss-table
        # columns as 160 more rows a step
        def refused(*args):
            raise AssertionError("a round trained")

        for name in ("local_train", "local_train_fedprox"):
            monkeypatch.setattr(server, name, refused)
        domains = [{"domain_id": f"d{i}", "sample_count": 100} for i in range(64)]
        data = {"domains": domains, "local": {"steps": 100000}}
        cfg = config_from_dict(data)
        clients = build_clients(cfg, 0)
        message = (f"steps times batch rows must be at most {MAX_STEP_ROWS}, "
                   "got 100000 x (2048 + 160 for the loss tables and views)")
        with pytest.raises(ConfigInvalid) as info:
            server.run_simulation(cfg.server_config("clustered", 0), clients)
        assert str(info.value) == message
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(data))
        t0 = time.perf_counter()
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "runs")])
        elapsed = time.perf_counter() - t0
        assert code == 2 and elapsed < 1.0, elapsed
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "runs").exists()
        # the default config's four clients of batch 32, one batch shape, pass
        # at the most steps; only their sizes are read, no workspace is built
        clients = build_clients(default_experiment_config(local=LocalConfig(steps=MAX_STEPS)), 0)
        assert len(clients) == 4 and min(clients.train_sizes) > 32
        assert MAX_STEPS * (4 * 32 + 4 + 32 * (1 + 2)) <= MAX_STEP_ROWS

    def test_too_many_clients_is_one_line_error(self, tmp_path, capsys, monkeypatch):
        # one-sample domains pass every data cap; the config refuses one past
        # MAX_CLIENTS before any client is built
        def refused(*args, **kwargs):
            raise AssertionError("clients built")

        monkeypatch.setattr(harness, "make_clients", refused)
        small = {"input_dim": 1, "feature_dim": 1, "test_count": 1}
        domains = [{"domain_id": f"d{i}", "sample_count": 1} for i in range(MAX_CLIENTS + 1)]
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**small, "domains": domains}))
        out = tmp_path / "runs"
        t0 = time.perf_counter()
        code = main(["run", "--config", str(cfg_path), "--out", str(out)])
        elapsed = time.perf_counter() - t0
        assert code == 2 and elapsed < 2.0, elapsed
        assert capsys.readouterr().err == (
            f"error: at most {MAX_CLIENTS} domains, got {MAX_CLIENTS + 1}\n")
        assert not out.exists()
        assert len(config_from_dict({**small, "domains": domains[:-1]}).domains) == MAX_CLIENTS

    def test_domain_count_is_refused_before_any_domain_is_built(self, monkeypatch):
        # config_from_dict counts the entries first: building every spec before
        # ExperimentConfig counted them took 1.5 s on 100000 one-sample domains
        calls = []
        monkeypatch.setattr(harness, "_domain", lambda *args, **kwargs: calls.append(args))
        domains = [{"domain_id": f"d{i}", "sample_count": 1} for i in range(MAX_CLIENTS + 1)]
        with pytest.raises(ConfigInvalid) as info:
            config_from_dict({"domains": domains})
        assert str(info.value) == f"at most {MAX_CLIENTS} domains, got {MAX_CLIENTS + 1}"
        assert calls == []
        # the config type refuses the same count with the same message
        specs = tuple(DomainSpec(f"d{i}", 1, 1, (0.0,), 0.0, 0.0) for i in range(MAX_CLIENTS + 1))
        with pytest.raises(ConfigInvalid, match=f"^{info.value}$"):
            ExperimentConfig(input_dim=1, domains=specs)

    @pytest.mark.parametrize("flags, data, name", [
        (["--rounds", str(10**15), "--agg-frequency", "1", "--strategy", "fedavg_only"], {},
         "rounds"),
        ([], {"rounds": 10**15}, "rounds"),
        ([], {"warmup_rounds": 10**15}, "warmup_rounds"),
        ([], {"local": {"steps": 10**15}}, "steps"),
        ([], {"rounds": 1001, "aggregation_frequency": 1}, "rounds"),
        ([], {"warmup_rounds": 1001}, "warmup_rounds"),
    ], ids=["rounds_flag", "rounds", "warmup_rounds", "local_steps", "rounds_1001",
            "warmup_rounds_1001"])
    def test_huge_protocol_length_is_one_line_error(self, tmp_path, capsys, flags, data, name):
        # each is rejected before the cell's seed table or a round's batch
        # indices of that length are built
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(data))
        out = tmp_path / "runs"
        assert main(["run", "--config", str(cfg_path), "--out", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must be in [") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("damage, message", [
        (lambda text: text[:200], "not valid JSON"),
        (lambda text: "{}", "not an experiment-summary-v2 file"),
        (lambda text: json.dumps({**json.loads(text), "schema": "experiment-summary-v1"}),
         "not an experiment-summary-v2 file"),
        (lambda text: json.dumps({"schema": "experiment-summary-v2"}), "missing keys"),
        (lambda text: json.dumps({**json.loads(text), "train_sizes": 5}), "'train_sizes'"),
        (final_set("avg_loss", "0.5"), "'avg_loss' has a value of the wrong type"),
        # json reads Infinity and NaN; compare used to rank them and write them
        # back into comparison.json, which no strict JSON reader accepts
        (final_set("avg_loss", float("inf")), "'avg_loss' is not finite: inf"),
        (final_set("std_loss", float("nan")), "'std_loss' is not finite: nan"),
        (final_set("worst_domain_loss", float("-inf")), "'worst_domain_loss' is not finite"),
        (final_set("avg_accuracy", float("nan")), "'avg_accuracy' is not finite"),
        (final_set("avg_loss", 10**400), "'avg_loss' is not finite"),
        # the config is refused as config_from_dict refuses a config file;
        # compare used to rank a group at any fraction, NaN included, and at
        # any T, -3 included
        (config_set("data_fraction", float("nan")), "data_fraction must be in (0, 1], got nan"),
        (config_set("data_fraction", 0), "data_fraction must be in (0, 1], got 0"),
        (config_set("data_fraction", 1.5), "data_fraction must be in (0, 1], got 1.5"),
        (config_set("data_fraction", -0.5), "data_fraction must be in (0, 1], got -0.5"),
        (config_set("aggregation_frequency", -3), "aggregation_frequency must be >= 1"),
        (config_set("seeds", [2**32]), "master_seed must lie in [0, 2**32)"),
        (config_set("warmup_rounds", -1), "warmup_rounds must be in [0, "),
        (config_set("rounds", 0), "rounds must be in [1, "),
        (config_set("seeds", [0, 1]), "one strategy and one seed"),
        (sizes_set(lambda sizes: [-5, 0, 1, 2]), "'train_sizes' must hold one positive size"),
        (sizes_set(lambda sizes: sizes[:-1]), "'train_sizes' must hold one positive size"),
    ], ids=["cut_to_200_bytes", "not_a_summary", "v1_summary", "v2_tag_only",
            "train_sizes_a_number", "final_avg_loss_a_string", "avg_loss_inf",
            "std_loss_nan", "worst_loss_neg_inf", "avg_accuracy_nan",
            "avg_loss_past_float_range", "data_fraction_nan", "data_fraction_0",
            "data_fraction_1.5", "data_fraction_neg", "agg_frequency_neg",
            "seed_2**32", "warmup_rounds_neg", "rounds_0", "two_seeds",
            "train_sizes_neg_and_0", "train_sizes_one_short"])
    def test_compare_damaged_summary_is_one_line_error(self, tmp_path, capsys, damage,
                                                       message):
        run_experiment(tiny_config(seeds=(0,), domains=tiny_domains((100, 100, 40, 40))),
                       tmp_path)
        written = (tmp_path / "comparison.json").read_bytes()
        summary = tmp_path / "clustered_T2_f1" / "seed_0" / "summary.json"
        summary.write_text(damage(summary.read_text()))
        assert main(["compare", "--in", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {summary}:") and err.count("\n") == 1
        assert message in err
        assert (tmp_path / "comparison.json").read_bytes() == written

    @pytest.mark.parametrize("second", [
        ["run", "--rounds", "4", "--agg-frequency", "2", "--strategy", "clustered"],
        ["ablate-t", "--t-values", "2"],
    ], ids=["one_strategy_run", "one_value_ablate_t"])
    def test_command_that_compares_nothing_removes_the_old_comparison(
            self, tmp_path, capsys, second):
        # the old comparison ranked 8-round cells that the second command
        # overwrites with 4-round ones
        cfg_path = self.write_config(tmp_path)
        root = tmp_path / "stale"
        common = ["--config", str(cfg_path), "--seed", "0", "--out", str(root)]
        assert main(["run", "--rounds", "8", *common]) == 0
        assert len(list(root.glob("comparison.*"))) == 2
        capsys.readouterr()
        assert main([*second, *common]) == 0
        assert not list(root.glob("comparison.*"))
        assert "mean_avg_loss" not in capsys.readouterr().out
        # the fedavg_only cell still holds 8 rounds, so compare refuses the tree
        assert main(["compare", "--in", str(root)]) == 2
        assert capsys.readouterr().err == (
            "error: refusing to compare runs with differing rounds\n")

    def test_failed_rerun_leaves_no_root_file_of_other_cells(self, tmp_path, capsys):
        # the rerun fails in its first cell's warm-up: the root's config and
        # comparison would describe it, or cells it did not replace
        root = tmp_path / "r"
        assert main(["run", "--rounds", "4", "--agg-frequency", "2", "--seed", "0",
                     "--out", str(root)]) == 0
        comparison = (root / "comparison.json").read_bytes()
        cells = {p: p.read_bytes() for p in root.glob("*/seed_*/*")}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"rounds": 2, "aggregation_frequency": 2,
                                   "strategies": ["clustered", "fedavg_only"],
                                   "local": {"learning_rate": 50}}))
        capsys.readouterr()
        assert main(["run", "--config", str(bad), "--seed", "0", "--out", str(root)]) == 2
        assert capsys.readouterr().err == (
            "error: clustered T=2 seed 0, round -2: test loss std overflows; "
            "reduce the learning rate\n")
        assert not [p for p in root.iterdir() if p.is_file()]
        assert {p: p.read_bytes() for p in root.glob("*/seed_*/*")} == cells
        assert main(["compare", "--in", str(root)]) == 0
        assert (root / "comparison.json").read_bytes() == comparison

    def test_run_prints_only_its_own_comparison(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path)
        out = str(tmp_path / "runs")
        assert main(["run", "--config", str(cfg_path), "--out", out]) == 0
        assert "mean_avg_loss" in capsys.readouterr().out
        # a single-strategy run into the same directory compares nothing, so
        # it must not print the comparison the first run left there
        assert main(["run", "--config", str(cfg_path), "--strategy", "clustered",
                     "--rounds", "4", "--out", out]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("wrote 2 run(s)")
        assert "mean_avg_loss" not in printed

    def test_oversized_blocks_are_one_line_error(self, tmp_path):
        # the largest data the caps admit: the two domains' feature block is
        # (14640, 4096) float64, 458 MiB, just under MAX_ENTRIES; the child
        # caps its address space 256 MiB above what its imports took, so
        # numpy refuses the allocation at once, whatever the host's
        # overcommit policy; never run this config without that cap
        config = {"feature_dim": 4096, "rounds": 2, "aggregation_frequency": 2,
                  "seeds": [0], "strategies": ["clustered"], "test_count": 320,
                  "domains": [{"domain_id": "a", "sample_count": 7000},
                              {"domain_id": "b", "sample_count": 7000}]}
        assert 14640 * 4096 <= MAX_ENTRIES
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        child = ("import resource, sys\n"
                 "from fedswap.cli import main\n"
                 "pages = int(open('/proc/self/statm').read().split()[0])\n"
                 "limit = pages * resource.getpagesize() + (256 << 20)\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
                 "sys.exit(main(sys.argv[1:]))\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-c", child, "run", "--config", str(cfg_path),
                               "--out", str(tmp_path / "runs")],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error: Unable to allocate 458. MiB")
        assert done.stderr.count("\n") == 1
        assert not list(tmp_path.rglob("summary.json"))

    def test_memory_error_without_a_message(self, tmp_path, capsys, monkeypatch):
        def exhausted(cfg, out_dir):
            raise MemoryError()

        monkeypatch.setattr(cli, "run_experiment", exhausted)
        assert main(["run", "--out", str(tmp_path / "runs")]) == 2
        assert capsys.readouterr().err == "error: out of memory\n"

    def test_annotations_resolve(self):
        assert typing.get_type_hints(cli._load) == {"return": ExperimentConfig}

    def test_compare_empty_dir_fails(self, tmp_path, capsys):
        assert main(["compare", "--in", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_ablate_t(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path)
        code = main([
            "ablate-t", "--config", str(cfg_path), "--t-values", "2,4",
            "--seed", "0", "--out", str(tmp_path / "abl"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out == (tmp_path / "abl" / "comparison.txt").read_text()
        header, rule, *rows = out.splitlines()
        assert header.split()[:2] == ["strategy", "T"] and set(rule) == {"-"}
        # one row per T, best first: strategy, T, fraction, seeds, ..., rank
        cells = [row.split() for row in rows]
        assert sorted((c[0], c[1], c[3]) for c in cells) == [("clustered", "2", "1"),
                                                              ("clustered", "4", "1")]
        assert [c[-1] for c in cells] == ["1", "2"]

    def test_ablate_t_one_value_compares_nothing(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path)
        out = tmp_path / "abl"
        assert main(["ablate-t", "--config", str(cfg_path), "--t-values", "2",
                     "--seed", "0", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert (out / "clustered_T2_f1" / "seed_0" / "metrics.csv").exists()
        assert (out / "clustered_T2_f1" / "seed_0" / "summary.json").exists()
        assert not list(out.glob("comparison.*"))

    @pytest.mark.parametrize("command", [
        ["ablate-t", "--t-values", "2,4", "--seed", "0"],
        ["run"],
    ], ids=["ablate_t", "two_strategy_run"])
    def test_compare_rewrites_the_comparison_byte_for_byte(self, tmp_path, capsys, command):
        # compare and the command that ran the cells take one path
        root = tmp_path / "runs"
        assert main([*command, "--config", str(self.write_config(tmp_path)),
                     "--out", str(root)]) == 0
        written = {name: (root / name).read_bytes()
                   for name in ("comparison.json", "comparison.txt")}
        for path in root.glob("comparison.*"):
            path.unlink()
        capsys.readouterr()
        assert main(["compare", "--in", str(root)]) == 0
        assert capsys.readouterr().out == written["comparison.txt"].decode()
        assert {name: (root / name).read_bytes() for name in written} == written

    def test_compare_one_cell_twice_is_one_line_error(self, tmp_path, capsys):
        # two runs of one cell under one tree used to be averaged as two seeds
        cfg_path = self.write_config(tmp_path)
        for name in ("a", "b"):
            assert main(["run", "--config", str(cfg_path), "--seed", "0",
                         "--out", str(tmp_path / "dup" / name)]) == 0
        capsys.readouterr()
        assert main(["compare", "--in", str(tmp_path / "dup")]) == 2
        assert capsys.readouterr().err == "error: group clustered_T2_f1 holds seed 0 twice\n"

    def test_readme_command_examples_parse(self):
        # the examples under README's "Command line" heading, the paper's
        # reproduction commands among them, must not drift from the parser or
        # name a config that does not exist
        root = Path(__file__).resolve().parents[1]
        readme = (root / "README.md").read_text()
        section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
        blocks = re.findall(r"```bash\n(.*?)```", section, re.DOTALL)
        lines = [line.strip() for block in blocks
                 for line in block.replace("\\\n", " ").splitlines()]
        commands = set()
        for line in lines:
            if line.startswith("fedswap "):
                argv = shlex.split(line, comments=True)[1:]
                try:
                    commands.add(cli.build_parser().parse_args(argv).command)
                except SystemExit:
                    pytest.fail(f"README example does not parse: {line}")
        assert commands == {"run", "compare", "ablate-t"}
        configs = re.findall(r"--config (configs/\S+\.json)", "\n".join(lines))
        assert configs and all((root / config).is_file() for config in configs), configs

    def test_ablate_t_repeated_value_is_one_line_error(self, tmp_path, capsys):
        # used to run the T=2 cell twice into one directory and write two rows
        cfg_path = self.write_config(tmp_path)
        out = tmp_path / "abl"
        assert main(["ablate-t", "--config", str(cfg_path), "--t-values", "2,2",
                     "--seed", "0", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: duplicate T values") and err.count("\n") == 1
        assert not out.exists()

    def test_ablate_t_bad_values(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path)
        assert main(["ablate-t", "--config", str(cfg_path),
                     "--t-values", "2,x"]) == 2
        assert "comma-separated" in capsys.readouterr().err
