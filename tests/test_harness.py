import csv
import json

import numpy as np
import pytest

from fedswap.cli import main
from fedswap.clients import DomainSpec, LocalConfig
from fedswap.errors import ConfigInvalid, MismatchedSeeds
from fedswap.harness import (
    ExperimentConfig,
    ablation_T,
    build_clients,
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


class TestExperimentConfig:
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
        assert all(c.backbone is clients[0].backbone for c in clients)
        assert [c.train_size for c in clients] == [50, 50, 20]

    def test_different_seeds_different_data(self):
        cfg = tiny_config()
        a = build_clients(cfg, master_seed=0)
        b = build_clients(cfg, master_seed=1)
        assert not np.array_equal(a[0].data.train_x, b[0].data.train_x)


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
        with pytest.raises(MismatchedSeeds):
            compare_strategies(summaries)

    def test_differing_rounds_rejected(self):
        a = self.fake_summary("clustered", 0, 1.0)
        b = self.fake_summary("fedavg_only", 0, 2.0)
        b["rounds"] = 8
        with pytest.raises(ConfigInvalid):
            compare_strategies([a, b])

    def test_single_group_rejected(self):
        with pytest.raises(ConfigInvalid):
            compare_strategies([self.fake_summary("clustered", 0, 1.0)])

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

    def test_ablate_t_bad_values(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path)
        assert main(["ablate-t", "--config", str(cfg_path),
                     "--t-values", "2,x"]) == 2
        assert "comma-separated" in capsys.readouterr().err
