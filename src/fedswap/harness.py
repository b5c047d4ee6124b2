"""Experiment harness: configs, per-run metrics files, comparisons
(strategies and T sweeps).

A run cell is one (strategy, seed) simulation at a given data fraction and
aggregation frequency. A run builds each seed's clients once and runs every
cell of that seed on them, seed by seed. Each cell removes its old
summary.json, writes metrics.csv (one row per round, warm-up rows flagged)
and then summary.json, so a summary.json appears only once the metrics.csv
beside it is complete.
A comparison aggregates final metrics over seeds per (strategy, T, fraction)
group, never across mismatched configurations. Every file is written
atomically (see _write_text).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import reprlib
import sys
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

from .clients import (
    TASKS,
    DomainSpec,
    Clients,
    LocalConfig,
    make_clients,
)
from .errors import ConfigInvalid
from .server import (
    PURPOSES,
    RoundRecord,
    ServerConfig,
    derive_seed,
    run_simulation,
)

SUMMARY_NAME = "summary.json"
SUMMARY_SCHEMA = "experiment-summary-v2"
METRICS_NAME = "metrics.csv"
# Size caps, checked before any shift tuple, input matrix or feature matrix is
# built, so a runaway size is one line of error, not an allocation the host may
# grant lazily and then kill the process for. MAX_ENTRIES caps all data rows
# times max(input_dim, feature_dim), 480 MB of float64. MAX_CLIENTS bounds the
# distance matrix (8 MB) and, with server.MAX_ROUNDS on rounds and warm-up
# rounds, the cell's bulk seed table: about 200 B per client-round at peak,
# 400 MB at both caps. Workloads and tests use input_dim <= 16, feature_dim
# <= 32, 2000 samples, 64 domains and 2.05e6 entries at most.
MAX_DIM = 4096  # input_dim and feature_dim
MAX_ROWS = 10**6  # sample_count of each domain, and test_count
MAX_ENTRIES = 6 * 10**7
MAX_CLIENTS = 1024  # domains, one client each


def _check_size(name: str, value: int, cap: int) -> None:
    if not 1 <= value <= cap:
        raise ConfigInvalid(f"{name} must be in [1, {cap}], got {value}")


def _check_domain_count(count: int) -> None:
    if count > MAX_CLIENTS:
        raise ConfigInvalid(f"at most {MAX_CLIENTS} domains, got {count}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce an experiment, strategies x seeds."""

    rounds: int = 40
    aggregation_frequency: int = 2
    warmup_rounds: int = 5
    strategies: tuple[str, ...] = ("clustered", "fedavg_only")
    seeds: tuple[int, ...] = (0, 1, 2)
    data_fraction: float = 1.0
    task: str = "regression"
    input_dim: int = 16
    feature_dim: int = 32
    test_count: int = 500
    local: LocalConfig = field(default_factory=LocalConfig)
    domains: tuple[DomainSpec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "strategies", tuple(self.strategies))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "domains", tuple(self.domains))
        _check_size("input_dim", self.input_dim, MAX_DIM)
        _check_size("feature_dim", self.feature_dim, MAX_DIM)
        _check_size("test_count", self.test_count, MAX_ROWS)
        if not self.seeds:
            raise ConfigInvalid("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigInvalid("duplicate seeds")
        if not self.strategies:
            raise ConfigInvalid("need at least one strategy")
        if len(set(self.strategies)) != len(self.strategies):
            raise ConfigInvalid(f"duplicate strategies in {list(self.strategies)}")
        if not 0.0 < self.data_fraction <= 1.0:
            raise ConfigInvalid(
                f"data_fraction must be in (0, 1], got {self.data_fraction}"
            )
        if self.task not in TASKS:
            raise ConfigInvalid(f"unknown task {self.task!r}; expected one of {TASKS}")
        if len(self.domains) < 2:
            raise ConfigInvalid("need at least 2 domains")
        _check_domain_count(len(self.domains))
        ids = [d.domain_id for d in self.domains]
        if len(set(ids)) != len(ids):
            raise ConfigInvalid(f"duplicate domain ids in {ids}")
        for d in self.domains:
            _check_size(f"domain {d.domain_id} sample_count", d.sample_count, MAX_ROWS)
            if d.input_dim != self.input_dim:
                raise ConfigInvalid(
                    f"domain {d.domain_id} input_dim {d.input_dim} != {self.input_dim}"
                )
        rows = sum(d.sample_count for d in self.domains) + len(self.domains) * self.test_count
        width = max(self.input_dim, self.feature_dim)
        if rows * width > MAX_ENTRIES:
            raise ConfigInvalid(f"data rows times width must be at most {MAX_ENTRIES}, "
                                f"got {rows} x {width}")
        # surfaces a bad strategy, seed or rounds/frequency combination of any
        # cell before the first cell runs
        for strategy in self.strategies:
            for seed in self.seeds:
                self.server_config(strategy, seed)

    def server_config(self, strategy: str, seed: int) -> ServerConfig:
        return ServerConfig(
            rounds=self.rounds,
            aggregation_frequency=self.aggregation_frequency,
            strategy=strategy,
            warmup_rounds=self.warmup_rounds,
            master_seed=seed,
        )


def _domain(input_dim: int, domain_id, sample_count: int, shift=0.0,
            concept_shift=0.0, label_noise=0.0) -> DomainSpec:
    """A domain over input_dim inputs; a scalar shift moves every input's mean."""
    _check_size("input_dim", input_dim, MAX_DIM)
    if np.isscalar(shift):
        shift = (shift,) * input_dim
    return DomainSpec(str(domain_id), sample_count, input_dim, tuple(shift),
                      float(concept_shift), float(label_noise))


def default_experiment_config(**overrides) -> ExperimentConfig:
    """Four-domain setup, unless domains are given: three well-resourced
    similar domains plus one under-resourced domain with the largest input
    and concept shift."""
    input_dim = overrides.pop("input_dim", ExperimentConfig.input_dim)
    if "domains" not in overrides:
        # (domain_id, sample_count, shift, concept_shift), all at label noise 0.1
        rows = (("d0", 2000, 0.0, 0.3), ("d1", 2000, 0.4, 0.3),
                ("d2", 2000, -0.4, 0.3), ("d3", 500, 1.2, 1.8))
        overrides["domains"] = tuple(_domain(input_dim, *row, 0.1) for row in rows)
    return ExperimentConfig(input_dim=input_dim, **overrides)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """The config as JSON-ready data; each domain's input_dim is the top-level one."""
    domains = [{k: v for k, v in vars(d).items() if k != "input_dim"} for d in cfg.domains]
    return {**vars(cfg), "local": dict(vars(cfg.local)), "domains": domains}


_NUMBER, _SEQUENCE = (int, float), (list, tuple)
# expected JSON type of each key; the items of a sequence take _ITEM_TYPES[key]
_TOP_TYPES = {
    "rounds": int, "aggregation_frequency": int, "warmup_rounds": int,
    "strategies": _SEQUENCE, "seeds": _SEQUENCE, "data_fraction": _NUMBER,
    "task": str, "input_dim": int, "feature_dim": int, "test_count": int,
    "local": dict, "domains": _SEQUENCE,
}
_LOCAL_TYPES = {"steps": int, "learning_rate": _NUMBER, "batch_size": int,
                "prox_mu": _NUMBER}
_DOMAIN_TYPES = {"domain_id": (str, int), "sample_count": int,
                 "shift": _NUMBER + _SEQUENCE, "concept_shift": _NUMBER,
                 "label_noise": _NUMBER}
# what compare_strategies reads of each summary, and of its "final" entry,
# where every key but avg_accuracy is required; config_from_dict checks "config"
_SUMMARY_TYPES = {"config": dict, "train_sizes": _SEQUENCE, "final": dict}
_FINAL_METRICS = ("avg_loss", "std_loss", "worst_domain_loss")
_FINAL_TYPES = {**dict.fromkeys(_FINAL_METRICS, _NUMBER), "avg_accuracy": _NUMBER}
_ITEM_TYPES = {"strategies": str, "seeds": int, "domains": dict, "shift": _NUMBER,
               "train_sizes": int}


def _is_a(value, types) -> bool:
    # JSON true/false load as bool, a subclass of int, but are never numbers here
    return isinstance(value, types) and not isinstance(value, bool)


def _check_section(section: str, data, types: dict, required=()) -> None:
    """Raise ConfigInvalid unless data is an object holding every required
    key and only keys of types, each with a value of its listed type."""
    if not isinstance(data, dict):
        raise ConfigInvalid(f"{section} must be a JSON object")
    unknown = set(data) - set(types)
    if unknown:
        raise ConfigInvalid(f"unknown {section} keys: {sorted(unknown)}")
    missing = [key for key in required if key not in data]
    if missing:
        raise ConfigInvalid(f"{section} is missing keys: {missing}")
    for key, value in data.items():
        items = value if isinstance(value, _SEQUENCE) else ()
        if not _is_a(value, types[key]) or not all(
            _is_a(item, _ITEM_TYPES[key]) for item in items
        ):
            raise ConfigInvalid(
                f"{section} key {key!r} has a value of the wrong type: "
                f"{reprlib.repr(value)}"
            )


def config_from_dict(data: dict) -> ExperimentConfig:
    _check_section("config", data, _TOP_TYPES)
    kwargs = dict(data)
    input_dim = kwargs.get("input_dim", ExperimentConfig.input_dim)

    if "local" in kwargs:
        _check_section("local", kwargs["local"], _LOCAL_TYPES)
        kwargs["local"] = LocalConfig(**kwargs["local"])

    if "domains" in kwargs:
        _check_domain_count(len(kwargs["domains"]))  # before a single spec is built
        specs = []
        for idx, entry in enumerate(kwargs["domains"]):
            _check_section(f"domain {idx}", entry, _DOMAIN_TYPES,
                           ("domain_id", "sample_count"))
            specs.append(_domain(input_dim, **entry))
        kwargs["domains"] = tuple(specs)
    return default_experiment_config(**kwargs)


def _write_text(path, text: str) -> None:
    """Write text to a sibling temporary file of its own, <name>.<random>.tmp,
    then rename it over path: an interrupted process or a second writer of
    path leaves the old file or a whole new one, never a part. No fsync, so
    this does not guard against a power loss."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline="")  # umask mode; a failed one makes no file
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _write_json(path, data) -> None:
    _write_text(path, json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _read_json(path):
    try:
        return json.loads(Path(path).read_bytes())
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ConfigInvalid(f"{path}: not valid JSON ({exc})") from exc


def load_config(path) -> ExperimentConfig:
    return config_from_dict(_read_json(path))


def save_config(cfg: ExperimentConfig, path) -> None:
    _write_json(path, config_to_dict(cfg))


def build_clients(cfg: ExperimentConfig, master_seed: int) -> Clients:
    """Deterministic client construction: backbone, shared concept, domain data."""
    n = len(cfg.domains)
    # one bulk derivation; backbone and concept at (tag, 0), which zero padding
    # makes equal to (tag,); then one bulk pass pre-hashes their PCG64 state words
    tags = [PURPOSES["backbone"], PURPOSES["concept"]] + [PURPOSES["domain"]] * n
    seeds = derive_seed(master_seed, np.array(tags), np.array([0, 0, *range(n)]))
    words = derive_seed(seeds & 0xFFFFFFFF, seeds >> 32, words=4)
    return make_clients(cfg.domains, words, feature_dim=cfg.feature_dim, config=cfg.local,
                        task=cfg.task, test_count=cfg.test_count,
                        train_fraction=cfg.data_fraction)


def write_metrics_csv(trace: Sequence[RoundRecord], path) -> None:
    """One row per round including flagged warm-up rows, with a loss column
    per domain of the trace; floats via repr so a rerun with the same seed is
    byte-identical."""
    domains = range(len(trace[0].domain_losses))
    classification = all(r.domain_accuracies is not None for r in trace)
    header = ["round", "decision", *(f"domain_{i}_loss" for i in domains),
              "avg_loss", "std_loss"]
    if classification:
        header += [*(f"domain_{i}_accuracy" for i in domains), "avg_accuracy"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for rec in trace:
        row = [str(rec.round_index), rec.decision]
        row += [repr(v) for v in rec.domain_losses]
        row += [repr(rec.avg_loss), repr(rec.std_loss)]
        if classification:
            row += [repr(v) for v in rec.domain_accuracies]
            row += [repr(float(np.mean(rec.domain_accuracies)))]
        writer.writerow(row)
    _write_text(path, buf.getvalue())


def _cell_config(cfg: ExperimentConfig, strategy: str, seed: int) -> dict:
    """The config of one cell at the T its ServerConfig runs, as data."""
    return {**config_to_dict(cfg), "strategies": (strategy,), "seeds": (seed,),
            "aggregation_frequency": cfg.server_config(strategy, seed).aggregation_frequency}


def _summarize(config: dict, clients: Clients, trace: Sequence[RoundRecord]) -> dict:
    final = trace[-1]
    losses = list(final.domain_losses)
    worst = int(np.argmax(losses))
    summary = {
        "schema": SUMMARY_SCHEMA,
        "config": config,
        "train_sizes": list(clients.train_sizes),
        "final": {
            "round": final.round_index,
            "avg_loss": final.avg_loss,
            "std_loss": final.std_loss,
            "domain_losses": losses,
            "worst_domain": clients.domains[worst].domain_id,
            "worst_domain_loss": losses[worst],
        },
        "metadata": {"generated_at": datetime.now(timezone.utc).isoformat()},
    }
    if final.domain_accuracies is not None:
        summary["final"]["domain_accuracies"] = list(final.domain_accuracies)
        summary["final"]["avg_accuracy"] = float(np.mean(final.domain_accuracies))
    return summary


def _fraction_name(fraction: float) -> str:
    # exact, so two fractions never share a name: 1, 0.5, 0.1000001
    return np.format_float_positional(fraction, trim="-")


def _group_name(key: tuple) -> str:
    strategy, t, fraction = key
    return f"{strategy}_T{t}_f{_fraction_name(fraction)}"


def cell_dir(cfg: ExperimentConfig, strategy: str, seed: int, out_dir) -> Path:
    t = cfg.server_config(strategy, seed).aggregation_frequency
    return Path(out_dir) / _group_name((strategy, t, cfg.data_fraction)) / f"seed_{seed}"


def _run_and_compare(cfgs: Sequence[ExperimentConfig], root: Path) -> list[dict]:
    """Run every (config, strategy) cell of each seed into root, seed by seed,
    writing per-cell metrics.csv and summary.json, and a comparison when more
    than one (strategy, T, fraction) group ran. The configs differ only in
    strategies and T, so each seed's clients are built once, from cfgs[0], and
    every cell of that seed runs on them. Root's old config and comparison go
    before the first cell: they would describe cells this run may replace,
    also when it fails part way."""
    for name in ("config.json", "comparison.json", "comparison.txt"):
        (root / name).unlink(missing_ok=True)
    summaries = []
    for seed in cfgs[0].seeds:
        clients = build_clients(cfgs[0], seed)
        for cfg in cfgs:
            for strategy in cfg.strategies:
                trace = run_simulation(cfg.server_config(strategy, seed), clients)
                summary = _summarize(_cell_config(cfg, strategy, seed), clients, trace)
                cell = cell_dir(cfg, strategy, seed, root)
                cell.mkdir(parents=True, exist_ok=True)
                (cell / SUMMARY_NAME).unlink(missing_ok=True)
                write_metrics_csv(trace, cell / METRICS_NAME)
                _write_json(cell / SUMMARY_NAME, summary)
                summaries.append(summary)
    if len({_group_key(s) for s in summaries}) > 1:
        write_comparison(compare_strategies(summaries), root)
    return summaries


def run_experiment(cfg: ExperimentConfig, out_dir) -> list[dict]:
    """Run every (strategy, seed) cell into out_dir, write per-cell metrics.csv
    and summary.json, a comparison when more than one strategy ran, and,
    after the last cell, config.json."""
    summaries = _run_and_compare([cfg], Path(out_dir))
    save_config(cfg, Path(out_dir) / "config.json")
    return summaries


def _known(data: dict, types: dict) -> dict:
    return {key: value for key, value in data.items() if key in types}


def collect_summaries(root) -> list[dict]:
    """Every summary.json under root, its config as _summarize writes it;
    raises ConfigInvalid naming the first file that is not an
    experiment-summary-v2 object of the types compare_strategies reads, with
    a config that config_from_dict takes, of one strategy and one seed, one
    positive train size per domain and finite final metrics."""
    paths = sorted(Path(root).rglob(SUMMARY_NAME))
    if not paths:
        raise ConfigInvalid(f"no {SUMMARY_NAME} files under {root}")
    out = []
    for p in paths:
        summary = _read_json(p)
        if not isinstance(summary, dict) or summary.get("schema") != SUMMARY_SCHEMA:
            raise ConfigInvalid(f"{p}: not an {SUMMARY_SCHEMA} file")
        try:
            _check_section("summary", _known(summary, _SUMMARY_TYPES),
                           _SUMMARY_TYPES, tuple(_SUMMARY_TYPES))
            cfg = config_from_dict(summary["config"])
            if len(cfg.strategies) != 1 or len(cfg.seeds) != 1:
                raise ConfigInvalid("summary config must hold one strategy and one seed")
            sizes = summary["train_sizes"]
            if len(sizes) != len(cfg.domains) or min(sizes) < 1:
                raise ConfigInvalid("summary key 'train_sizes' must hold one positive "
                                    f"size per domain, got {reprlib.repr(sizes)}")
            summary["config"] = _cell_config(cfg, cfg.strategies[0], cfg.seeds[0])
            final = _known(summary["final"], _FINAL_TYPES)
            _check_section("final", final, _FINAL_TYPES, _FINAL_METRICS)
            for key, value in final.items():
                # JSON's reader takes Infinity and NaN; ints past float range fail too
                if not abs(value) <= sys.float_info.max:
                    raise ConfigInvalid(f"final key {key!r} is not finite: "
                                        f"{reprlib.repr(value)}")
        except ConfigInvalid as exc:
            raise ConfigInvalid(f"{p}: {exc}") from exc
        out.append(summary)
    return out


def _group_key(summary: dict) -> tuple:
    c = summary["config"]
    return c["strategies"][0], c["aggregation_frequency"], c["data_fraction"]


def compare_strategies(summaries: Sequence[dict]) -> dict:
    """Mean-over-seeds final metrics per (strategy, T, fraction) group,
    ranked by mean average loss; ties share the better rank. Refuses runs
    whose configs differ in a key other than the cell's strategy, T, data
    fraction and seed."""
    if not summaries:
        raise ConfigInvalid("nothing to compare")
    cell_keys = {"strategies", "seeds", "aggregation_frequency", "data_fraction"}
    for key in sorted(set().union(*(s["config"] for s in summaries)) - cell_keys):
        if len({json.dumps(s["config"].get(key), sort_keys=True) for s in summaries}) > 1:
            raise ConfigInvalid(f"refusing to compare runs with differing {key}")

    groups: dict[tuple, list[dict]] = {}
    for s in summaries:
        groups.setdefault(_group_key(s), []).append(s)
    if len(groups) < 2:
        raise ConfigInvalid("need at least two strategy groups to compare")

    seed_sets = {}
    for key, rows in groups.items():
        rows.sort(key=lambda s: s["config"]["seeds"][0])
        seeds = tuple(s["config"]["seeds"][0] for s in rows)
        for seed, next_seed in zip(seeds, seeds[1:]):
            if seed == next_seed:
                raise ConfigInvalid(f"group {_group_name(key)} holds seed {seed} twice")
        seed_sets[_group_name(key)] = seeds
    if len(set(seed_sets.values())) > 1:
        raise ConfigInvalid(f"strategy groups ran different seed sets: {seed_sets}")

    entries = []
    for key in sorted(groups):
        rows = groups[key]
        strategy, freq, fraction = key
        entry = {
            "strategy": strategy,
            "aggregation_frequency": freq,
            "data_fraction": fraction,
            "seeds": [s["config"]["seeds"][0] for s in rows],
            "train_sizes": rows[0]["train_sizes"],
            # mean over seeds of the final average, std and worst-domain losses
            **{f"mean_{name}": float(np.mean([s["final"][name] for s in rows]))
               for name in _FINAL_METRICS},
            "avg_loss_by_seed": [s["final"]["avg_loss"] for s in rows],
            "worst_domain_loss_by_seed": [
                s["final"]["worst_domain_loss"] for s in rows
            ],
        }
        if all("avg_accuracy" in s["final"] for s in rows):
            entry["mean_avg_accuracy"] = float(
                np.mean([s["final"]["avg_accuracy"] for s in rows])
            )
        if not np.isfinite([v for k, v in entry.items() if k.startswith("mean_")]).all():
            raise ConfigInvalid(f"group {_group_name(key)}: a mean over seeds overflows")
        entries.append(entry)

    means = [e["mean_avg_loss"] for e in entries]
    for e in entries:
        e["rank"] = 1 + sum(1 for m in means if m < e["mean_avg_loss"])
    entries.sort(key=lambda e: (e["rank"], e["strategy"]))
    return {
        "schema": "strategy-comparison-v1",
        "metric": "final_avg_loss_mean_over_seeds",
        "entries": entries,
    }


def render_comparison_text(comparison: dict) -> str:
    header = ["strategy", "T", "fraction", "seeds", "mean_avg_loss",
              "mean_worst_loss", "mean_std_loss", "rank"]
    rows = [header]
    for e in comparison["entries"]:
        rows.append([
            e["strategy"],
            str(e["aggregation_frequency"]),
            _fraction_name(e["data_fraction"]),
            str(len(e["seeds"])),
            f"{e['mean_avg_loss']:.6f}",
            f"{e['mean_worst_domain_loss']:.6f}",
            f"{e['mean_std_loss']:.6f}",
            str(e["rank"]),
        ])
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    lines.insert(1, "-" * len(lines[0]))
    return "\n".join(lines) + "\n"


def write_comparison(comparison: dict, root: Path) -> None:
    _write_json(root / "comparison.json", comparison)
    _write_text(root / "comparison.txt", render_comparison_text(comparison))


def ablation_T(cfg: ExperimentConfig, t_values: Sequence[int], out_dir) -> list[dict]:
    """Run the clustered strategy at each aggregation frequency in t_values
    into one root, and compare the T groups as run_experiment compares
    strategies; returns the summaries."""
    t_values = [int(t) for t in t_values]
    if not t_values:
        raise ConfigInvalid("need at least one T value")
    if len(set(t_values)) != len(t_values):
        raise ConfigInvalid(f"duplicate T values in {t_values}")
    # building every per-T config checks each T before any cell runs
    subs = [replace(cfg, strategies=("clustered",), aggregation_frequency=t)
            for t in t_values]
    return _run_and_compare(subs, Path(out_dir))
