"""Experiment harness: configs, per-run metrics files, comparisons, ablations.

A run cell is one (strategy, seed) simulation at a given data fraction and
aggregation frequency. Each cell writes metrics.csv (one row per round,
warm-up rows flagged) and summary.json. Comparison and ablation outputs
aggregate final metrics over seeds, never across mismatched configurations.
"""

from __future__ import annotations

import csv
import json
import reprlib
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .clients import (
    TASKS,
    ClientState,
    DomainSpec,
    FrozenBackbone,
    LocalConfig,
    generate_domain_dataset,
)
from .errors import ConfigInvalid, MismatchedSeeds
from .server import (
    PURPOSES,
    STRATEGIES,
    RoundRecord,
    ServerConfig,
    derive_seed,
    run_simulation,
)

__all__ = [
    "ExperimentConfig",
    "default_experiment_config",
    "config_to_dict",
    "config_from_dict",
    "load_config",
    "save_config",
    "build_clients",
    "run_cell",
    "run_experiment",
    "collect_summaries",
    "compare_strategies",
    "ablation_T",
    "write_metrics_csv",
    "write_comparison",
]

SUMMARY_NAME = "summary.json"
METRICS_NAME = "metrics.csv"


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
    out_dir: str = "runs"

    def __post_init__(self):
        object.__setattr__(self, "strategies", tuple(self.strategies))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "domains", tuple(self.domains))
        if not self.seeds:
            raise ConfigInvalid("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigInvalid("duplicate seeds")
        if not self.strategies:
            raise ConfigInvalid("need at least one strategy")
        if not 0.0 < self.data_fraction <= 1.0:
            raise ConfigInvalid(
                f"data_fraction must be in (0, 1], got {self.data_fraction}"
            )
        if self.task not in TASKS:
            raise ConfigInvalid(f"unknown task {self.task!r}; expected one of {TASKS}")
        if self.feature_dim < 1:
            raise ConfigInvalid(f"feature_dim must be >= 1, got {self.feature_dim}")
        if len(self.domains) < 2:
            raise ConfigInvalid("need at least 2 domains")
        ids = [d.domain_id for d in self.domains]
        if len(set(ids)) != len(ids):
            raise ConfigInvalid(f"duplicate domain ids in {ids}")
        for d in self.domains:
            if d.input_dim != self.input_dim:
                raise ConfigInvalid(
                    f"domain {d.domain_id} input_dim {d.input_dim} != {self.input_dim}"
                )
        # surfaces a bad strategy, seed or rounds/frequency combination of any
        # cell before the first cell runs
        for strategy in self.strategies:
            for seed in self.seeds:
                self.server_config(strategy, seed)

    def effective_frequency(self, strategy: str) -> int:
        # strategies without an exchange plan aggregate every round by
        # definition; an unknown name keeps T for ServerConfig to reject
        row = STRATEGIES.get(strategy)
        return 1 if row is not None and row.plan is None else self.aggregation_frequency

    def server_config(self, strategy: str, seed: int) -> ServerConfig:
        return ServerConfig(
            rounds=self.rounds,
            aggregation_frequency=self.effective_frequency(strategy),
            strategy=strategy,
            warmup_rounds=self.warmup_rounds,
            master_seed=seed,
        )


def default_experiment_config(**overrides) -> ExperimentConfig:
    """Four-domain setup: three well-resourced similar domains plus one
    under-resourced domain with the largest input and concept shift."""
    input_dim = overrides.pop("input_dim", 16)

    def spec(domain_id, count, shift, concept, noise=0.1):
        return DomainSpec(
            domain_id=domain_id,
            sample_count=count,
            input_dim=input_dim,
            shift=(shift,) * input_dim,
            concept_shift=concept,
            label_noise=noise,
        )

    domains = overrides.pop(
        "domains",
        (
            spec("d0", 2000, 0.0, 0.3),
            spec("d1", 2000, 0.4, 0.3),
            spec("d2", 2000, -0.4, 0.3),
            spec("d3", 500, 1.2, 1.8),
        ),
    )
    return ExperimentConfig(input_dim=input_dim, domains=domains, **overrides)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    d = asdict(cfg)
    d["strategies"] = list(cfg.strategies)
    d["seeds"] = list(cfg.seeds)
    d["domains"] = [
        {
            "domain_id": s.domain_id,
            "sample_count": s.sample_count,
            "shift": list(s.shift),
            "concept_shift": s.concept_shift,
            "label_noise": s.label_noise,
        }
        for s in cfg.domains
    ]
    return d


_NUMBER, _SEQUENCE = (int, float), (list, tuple)
# expected JSON type of each key; the items of a sequence take _ITEM_TYPES[key]
_TOP_TYPES = {
    "rounds": int, "aggregation_frequency": int, "warmup_rounds": int,
    "strategies": _SEQUENCE, "seeds": _SEQUENCE, "data_fraction": _NUMBER,
    "task": str, "input_dim": int, "feature_dim": int, "test_count": int,
    "local": dict, "domains": _SEQUENCE, "out_dir": str,
}
_LOCAL_TYPES = {"steps": int, "learning_rate": _NUMBER, "batch_size": int,
                "prox_mu": _NUMBER}
_DOMAIN_TYPES = {"domain_id": (str, int), "sample_count": int,
                 "shift": _NUMBER + _SEQUENCE, "concept_shift": _NUMBER,
                 "label_noise": _NUMBER}
_ITEM_TYPES = {"strategies": str, "seeds": int, "domains": dict, "shift": _NUMBER}


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
    input_dim = kwargs.setdefault("input_dim", 16)

    if "local" in kwargs:
        _check_section("local", kwargs["local"], _LOCAL_TYPES)
        kwargs["local"] = LocalConfig(**kwargs["local"])

    if "domains" in kwargs:
        specs = []
        for idx, entry in enumerate(kwargs["domains"]):
            _check_section(
                f"domain {idx}", entry, _DOMAIN_TYPES, ("domain_id", "sample_count")
            )
            shift = entry.get("shift", 0.0)
            if np.isscalar(shift):
                shift = (float(shift),) * input_dim
            specs.append(
                DomainSpec(
                    domain_id=str(entry["domain_id"]),
                    sample_count=entry["sample_count"],
                    input_dim=input_dim,
                    shift=tuple(shift),
                    concept_shift=float(entry.get("concept_shift", 0.0)),
                    label_noise=float(entry.get("label_noise", 0.0)),
                )
            )
        kwargs["domains"] = tuple(specs)
    return default_experiment_config(**kwargs)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"{path}: not valid JSON ({exc})") from exc
    return config_from_dict(data)


def save_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


def build_clients(cfg: ExperimentConfig, master_seed: int) -> list[ClientState]:
    """Deterministic client construction: backbone, shared concept, domain data."""
    backbone = FrozenBackbone.create(
        derive_seed(master_seed, PURPOSES["backbone"]),
        input_dim=cfg.input_dim,
        feature_dim=cfg.feature_dim,
    )
    concept_seed = derive_seed(master_seed, PURPOSES["concept"])
    clients = []
    for idx, spec in enumerate(cfg.domains):
        data = generate_domain_dataset(
            spec,
            backbone,
            concept_seed,
            derive_seed(master_seed, PURPOSES["domain"], idx),
            task=cfg.task,
            test_count=cfg.test_count,
            train_fraction=cfg.data_fraction,
        )
        clients.append(
            ClientState(domain=spec, data=data, backbone=backbone, config=cfg.local)
        )
    return clients


def _csv_header(domain_count: int, classification: bool) -> list[str]:
    cols = ["round", "decision"]
    cols += [f"domain_{i}_loss" for i in range(domain_count)]
    cols += ["avg_loss", "std_loss"]
    if classification:
        cols += [f"domain_{i}_accuracy" for i in range(domain_count)]
        cols += ["avg_accuracy"]
    return cols


def write_metrics_csv(trace: Sequence[RoundRecord], domain_count: int, path) -> None:
    """One row per round including flagged warm-up rows; floats via repr so a
    rerun with the same seed is byte-identical."""
    classification = all(r.domain_accuracies is not None for r in trace)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_csv_header(domain_count, classification))
        for rec in trace:
            row = [str(rec.round_index), rec.decision]
            row += [repr(v) for v in rec.domain_losses]
            row += [repr(rec.avg_loss), repr(rec.std_loss)]
            if classification:
                row += [repr(v) for v in rec.domain_accuracies]
                row += [repr(float(np.mean(rec.domain_accuracies)))]
            writer.writerow(row)


def _summarize(
    cfg: ExperimentConfig,
    strategy: str,
    seed: int,
    clients: Sequence[ClientState],
    trace: Sequence[RoundRecord],
) -> dict:
    final = trace[-1]
    losses = list(final.domain_losses)
    worst = int(np.argmax(losses))
    summary = {
        "schema": "experiment-summary-v1",
        "strategy": strategy,
        "seed": seed,
        "rounds": cfg.rounds,
        "aggregation_frequency": cfg.effective_frequency(strategy),
        "warmup_rounds": cfg.warmup_rounds,
        "data_fraction": cfg.data_fraction,
        "task": cfg.task,
        "domain_ids": [c.domain.domain_id for c in clients],
        "sample_counts": [c.domain.sample_count for c in clients],
        "train_sizes": [c.train_size for c in clients],
        "final": {
            "round": final.round_index,
            "avg_loss": final.avg_loss,
            "std_loss": final.std_loss,
            "domain_losses": losses,
            "worst_domain": clients[worst].domain.domain_id,
            "worst_domain_loss": losses[worst],
        },
        "metadata": {"generated_at": datetime.now(timezone.utc).isoformat()},
    }
    if final.domain_accuracies is not None:
        summary["final"]["domain_accuracies"] = list(final.domain_accuracies)
        summary["final"]["avg_accuracy"] = float(np.mean(final.domain_accuracies))
    return summary


def run_cell(
    cfg: ExperimentConfig, strategy: str, seed: int
) -> tuple[tuple[RoundRecord, ...], dict]:
    """One simulation: build clients, run, summarize. No file I/O."""
    clients = build_clients(cfg, seed)
    trace = run_simulation(cfg.server_config(strategy, seed), clients)
    return trace, _summarize(cfg, strategy, seed, clients, trace)


def cell_dir(cfg: ExperimentConfig, strategy: str, seed: int, out_dir=None) -> Path:
    root = Path(out_dir if out_dir is not None else cfg.out_dir)
    t = cfg.effective_frequency(strategy)
    return root / f"{strategy}_T{t}_f{cfg.data_fraction:g}" / f"seed_{seed}"


def _run_cells(cfg: ExperimentConfig, root: Path) -> list[dict]:
    summaries = []
    for strategy in cfg.strategies:
        for seed in cfg.seeds:
            trace, summary = run_cell(cfg, strategy, seed)
            cell = cell_dir(cfg, strategy, seed, root)
            cell.mkdir(parents=True, exist_ok=True)
            write_metrics_csv(trace, len(cfg.domains), cell / METRICS_NAME)
            with open(cell / SUMMARY_NAME, "w") as fh:
                json.dump(summary, fh, indent=2, sort_keys=True)
                fh.write("\n")
            summaries.append(summary)
    return summaries


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> list[dict]:
    """Run every (strategy, seed) cell, write per-cell metrics.csv and
    summary.json, and a comparison when more than one strategy ran."""
    root = Path(out_dir if out_dir is not None else cfg.out_dir)
    root.mkdir(parents=True, exist_ok=True)
    save_config(cfg, root / "config.json")
    summaries = _run_cells(cfg, root)
    if len(set(cfg.strategies)) > 1:
        comparison = compare_strategies(summaries)
        write_comparison(comparison, root)
    return summaries


def collect_summaries(root) -> list[dict]:
    paths = sorted(Path(root).rglob(SUMMARY_NAME))
    if not paths:
        raise ConfigInvalid(f"no {SUMMARY_NAME} files under {root}")
    out = []
    for p in paths:
        with open(p) as fh:
            out.append(json.load(fh))
    return out


def _group_key(summary: dict) -> tuple:
    return (
        summary["strategy"],
        summary["aggregation_frequency"],
        summary["data_fraction"],
    )


def _mean_finals(summaries: Sequence[dict]) -> dict:
    """Mean over seeds of the final average, std and worst-domain losses."""
    return {
        f"mean_{name}": float(np.mean([s["final"][name] for s in summaries]))
        for name in ("avg_loss", "std_loss", "worst_domain_loss")
    }


def compare_strategies(summaries: Sequence[dict]) -> dict:
    """Mean-over-seeds final metrics per (strategy, T, fraction) group,
    ranked by mean average loss; ties share the better rank."""
    if not summaries:
        raise ConfigInvalid("nothing to compare")
    shared = {"rounds", "task", "warmup_rounds"}
    for key in shared:
        values = {json.dumps(s[key]) for s in summaries}
        if len(values) > 1:
            raise ConfigInvalid(f"refusing to compare runs with differing {key}")
    ids = {tuple(s["domain_ids"]) for s in summaries}
    if len(ids) > 1:
        raise ConfigInvalid("refusing to compare runs with differing domains")

    groups: dict[tuple, list[dict]] = {}
    for s in summaries:
        groups.setdefault(_group_key(s), []).append(s)
    if len(groups) < 2:
        raise ConfigInvalid("need at least two strategy groups to compare")

    seed_sets = {key: tuple(sorted(s["seed"] for s in rows))
                 for key, rows in groups.items()}
    distinct = set(seed_sets.values())
    if len(distinct) > 1:
        raise MismatchedSeeds(
            f"strategy groups ran different seed sets: "
            f"{ {k[0]: v for k, v in seed_sets.items()} }"
        )

    entries = []
    for key in sorted(groups):
        rows = sorted(groups[key], key=lambda s: s["seed"])
        strategy, freq, fraction = key
        entry = {
            "strategy": strategy,
            "aggregation_frequency": freq,
            "data_fraction": fraction,
            "seeds": [s["seed"] for s in rows],
            "train_sizes": rows[0]["train_sizes"],
            **_mean_finals(rows),
            "avg_loss_by_seed": [s["final"]["avg_loss"] for s in rows],
            "worst_domain_loss_by_seed": [
                s["final"]["worst_domain_loss"] for s in rows
            ],
        }
        if all("avg_accuracy" in s["final"] for s in rows):
            entry["mean_avg_accuracy"] = float(
                np.mean([s["final"]["avg_accuracy"] for s in rows])
            )
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
            f"{e['data_fraction']:g}",
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
    with open(root / "comparison.json", "w") as fh:
        json.dump(comparison, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(root / "comparison.txt", "w") as fh:
        fh.write(render_comparison_text(comparison))


def ablation_T(
    cfg: ExperimentConfig, t_values: Sequence[int], out_dir=None
) -> dict:
    """Run the clustered strategy at each aggregation frequency in t_values
    and tabulate mean final metrics per T."""
    t_values = [int(t) for t in t_values]
    if not t_values:
        raise ConfigInvalid("need at least one T value")
    # building every per-T config checks each T before any cell runs
    subs = [replace(cfg, strategies=("clustered",), aggregation_frequency=t)
            for t in t_values]
    root = Path(out_dir if out_dir is not None else cfg.out_dir)
    root.mkdir(parents=True, exist_ok=True)

    entries = []
    for sub in subs:
        summaries = _run_cells(sub, root)
        entries.append({
            "aggregation_frequency": sub.aggregation_frequency,
            "seeds": [s["seed"] for s in summaries],
            **_mean_finals(summaries),
        })

    best = min(e["mean_avg_loss"] for e in entries)
    worst = max(e["mean_avg_loss"] for e in entries)
    table = {
        "schema": "aggregation-frequency-ablation-v1",
        "t_values": t_values,
        "entries": entries,
        "best_mean_avg_loss": best,
        "relative_spread": (worst - best) / best if best > 0 else float("nan"),
    }
    with open(root / "ablation_t.json", "w") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")
    lines = ["T  mean_avg_loss  mean_worst_loss  mean_std_loss"]
    for e in entries:
        lines.append(
            f"{e['aggregation_frequency']:<2} {e['mean_avg_loss']:<14.6f} "
            f"{e['mean_worst_domain_loss']:<16.6f} {e['mean_std_loss']:.6f}"
        )
    lines.append(f"relative spread of mean_avg_loss: {table['relative_spread']:.4f}")
    with open(root / "ablation_t.txt", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return table
