import csv
import json
import os
import stat
import subprocess
import sys
import time
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedswap import cli, harness
from fedswap.cli import main
from fedswap.clients import DomainSpec, LocalConfig
from fedswap.errors import ConfigInvalid, FedswapError
from fedswap.harness import (
    MAX_DIM,
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
    run_cell,
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
    "out_dir": st.text(max_size=3),
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
        assert cfg.effective_frequency("fedavg_only") == 1
        assert cfg.effective_frequency("fedprox") == 1
        assert cfg.effective_frequency("clustered") == 2
        assert cfg.server_config("fedavg_only", 0).aggregation_frequency == 1

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


class TestBuildClients:
    def test_shared_backbone_and_fraction(self):
        cfg = tiny_config(data_fraction=0.5)
        clients = build_clients(cfg, master_seed=0)
        assert len(clients) == 3
        assert clients.domains == cfg.domains
        assert (clients.backbone.input_dim, clients.backbone.feature_dim) == (
            cfg.input_dim, cfg.feature_dim)
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
        header = open(path).readline().strip().split(",")
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
        assert summaries[0]["sample_counts"] == [100, 100, 40]

    def test_summary_final_matches_csv_last_row(self, tmp_path):
        cfg = tiny_config(seeds=(0,), strategies=("clustered",))
        summaries = run_experiment(cfg, tmp_path)
        path = tmp_path / "clustered_T2_f1" / "seed_0" / "metrics.csv"
        last = open(path).read().splitlines()[-1].split(",")
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

    def test_written_files_keep_the_default_mode(self, tmp_path):
        umask = os.umask(0)
        os.umask(umask)
        harness._write_text(tmp_path / "f.txt", "x")
        assert stat.S_IMODE((tmp_path / "f.txt").stat().st_mode) == 0o666 & ~umask


class TestCompareStrategies:
    def fake_summary(self, strategy, seed, avg, worst=None, freq=1, fraction=1.0):
        return {
            "strategy": strategy,
            "seed": seed,
            "rounds": 4,
            "aggregation_frequency": freq,
            "warmup_rounds": 2,
            "data_fraction": fraction,
            "task": "regression",
            "domain_ids": ["d0", "d1"],
            "train_sizes": [100, 100],
            "final": {
                "avg_loss": avg,
                "std_loss": 0.1,
                "domain_losses": [avg, avg],
                "worst_domain": "d1",
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

    def test_differing_rounds_rejected(self):
        a = self.fake_summary("clustered", 0, 1.0)
        b = self.fake_summary("fedavg_only", 0, 2.0)
        b["rounds"] = 8
        with pytest.raises(ConfigInvalid):
            compare_strategies([a, b])

    def test_differing_domains_rejected(self):
        a = self.fake_summary("clustered", 0, 1.0)
        b = self.fake_summary("fedavg_only", 0, 2.0)
        b["domain_ids"] = ["d0", "d2"]
        with pytest.raises(ConfigInvalid, match="differing domain_ids"):
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
            mine = [s for s in summaries if s["strategy"] == entry["strategy"]]
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
        table = ablation_T(cfg, [2, 4], tmp_path)
        assert [e["aggregation_frequency"] for e in table["entries"]] == [2, 4]
        assert (tmp_path / "ablation_t.json").exists()
        assert (tmp_path / "ablation_t.txt").exists()
        assert (tmp_path / "clustered_T2_f1" / "seed_0" / "metrics.csv").exists()
        assert (tmp_path / "clustered_T4_f1" / "seed_0" / "metrics.csv").exists()
        assert table["relative_spread"] >= 0.0


class TestCli:
    def write_config(self, tmp_path):
        path = tmp_path / "config.json"
        save_config(tiny_config(out_dir=str(tmp_path / "runs")), path)
        return path

    def test_run_and_compare(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path)
        assert main(["run", "--config", str(cfg_path)]) == 0
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
        {"out_dir": "runs\u0000x"},
        {"input_dim": 0},
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

    @pytest.mark.filterwarnings("error")
    def test_divergence_is_one_line_error(self, tmp_path, capsys):
        # numpy's overflow warnings must not escape main or add lines
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"local": {"learning_rate": 50}}))
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite loss at step 4 on d0")
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
        assert err == "error: non-finite test loss on d0; reduce the learning rate\n"
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

    @pytest.mark.parametrize("flags, data, name", [
        (["--rounds", str(10**15), "--agg-frequency", "1", "--strategy", "fedavg_only"], {},
         "rounds"),
        ([], {"rounds": 10**15}, "rounds"),
        ([], {"warmup_rounds": 10**15}, "warmup_rounds"),
        ([], {"local": {"steps": 10**15}}, "steps"),
    ], ids=["rounds_flag", "rounds", "warmup_rounds", "local_steps"])
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

    @pytest.mark.parametrize("damage", [
        lambda text: text[:200],
        lambda text: "{}",
        lambda text: json.dumps({"schema": "experiment-summary-v1"}),
        lambda text: json.dumps({**json.loads(text), "domain_ids": 5}),
        lambda text: json.dumps(dict(s := json.loads(text),
                                     final={**s["final"], "avg_loss": "0.5"})),
    ], ids=["cut_to_200_bytes", "not_a_summary", "v1_tag_only",
            "domain_ids_a_number", "final_avg_loss_a_string"])
    def test_compare_damaged_summary_is_one_line_error(self, tmp_path, capsys, damage):
        run_experiment(tiny_config(seeds=(0,)), tmp_path)
        summary = tmp_path / "clustered_T2_f1" / "seed_0" / "summary.json"
        summary.write_text(damage(summary.read_text()))
        assert main(["compare", "--in", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {summary}:") and err.count("\n") == 1

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
        # every size is within its cap, but the two domains' feature block is
        # (2001000, 4096) float64, 61 GiB; the child's address space is capped
        # so that numpy refuses the allocation at once, whatever the host's
        # overcommit policy; never run this config without that cap
        config = {"feature_dim": 4096, "rounds": 2, "aggregation_frequency": 2,
                  "seeds": [0], "strategies": ["clustered"],
                  "domains": [{"domain_id": "a", "sample_count": 10**6},
                              {"domain_id": "b", "sample_count": 10**6}]}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        child = ("import resource, sys\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
                 "from fedswap.cli import main\n"
                 "sys.exit(main(sys.argv[1:]))\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-c", child, "run", "--config", str(cfg_path),
                               "--out", str(tmp_path / "runs")],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error: Unable to allocate 61.1 GiB")
        assert done.stderr.count("\n") == 1
        assert not list(tmp_path.rglob("summary.json"))

    def test_memory_error_without_a_message(self, tmp_path, capsys, monkeypatch):
        def exhausted(cfg):
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
        assert "relative spread" in capsys.readouterr().out
        assert (tmp_path / "abl" / "ablation_t.json").exists()

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
