"""One benchmark run of one workload; run.py starts it in a fresh process.

A cell is one (strategy, seed) simulation: the call into
``harness.run_experiment`` for one strategy and one master seed, timed until
that cell's metrics.csv and summary.json are on disk. Cells run one at a
time, a closed loop with a single caller, cycling through the workload's
cell kinds until --seconds have passed and at least the workload's minimum
number of cycles is complete.

Untraced (--trace 0) runs give the end-to-end metrics. Their times are
scaled to a nominal host speed (see Yardstick); the plain wall-clock figures
are printed on the info line beside them. Traced (--trace 1)
runs time every cell twice, once plain and once with the simulator's public
functions wrapped in spans, and give the per-layer metrics; the pairing
yields the tracing overhead and checks that tracing leaves outputs
byte-identical.

Checks on every cell, each failing the cell when it does not hold:
  * the cell raised nothing and wrote metrics.csv and summary.json;
  * metrics.csv has one row per warm-up and protocol round, and its last
    row repeats the final losses of summary.json exactly;
  * every final loss is finite;
  * no client of a clustered exchange round received its own upload;
  * traced runs: every cluster_to_two result equals scipy's average-linkage
    bipartition, and metrics.csv equals that of the plain twin byte for byte.
Once per run: the untimed warm-up cell is a fixed reference cell whose final
per-domain losses must match reference.json within its stated tolerance, and
untraced runs run their first measured cell again and require a
byte-identical metrics.csv.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import ExitStack
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_PATH = Path(__file__).with_name("reference.json")
OUT_ROOT = ROOT / ".perfbench_out"

# set-up is timed at least this many times and for at least this long
SETUP_MIN_REPS = 9
SETUP_MIN_SECONDS = 1.5

# The yardstick loop, and about the time it takes on the host the baseline
# was measured on (2 vCPUs, Python 3.11, numpy 2.4, one BLAS thread)
YARDSTICK_STEPS = 200
YARDSTICK_ROWS = 500
YARDSTICK_NOMINAL_S = 0.0045

# per-layer metrics of the form <layer>_calls and <layer>_s, each per cell
COUNTED_LAYERS = (
    "clients.train", "clients.eval", "clustering.cluster", "clustering.distance",
    "exchange.plan", "params.aggregate", "server.derive_seed",
)

sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from fedswap import harness  # noqa: E402

from run import THREAD_VARS  # noqa: E402
from tracer import END, START, Tracer  # noqa: E402
from workloads import REFERENCE_SEED, make_workload  # noqa: E402


class Yardstick:
    """Scales a measured time to a nominal host speed.

    A shared host can run the same cell at speeds a third apart, in regimes
    that last longer than a run (the same 64-client cell took 2.9 s and
    4.0 s back to back), so no median within a run removes it. Each timed
    unit is therefore bracketed by a fixed loop shaped like the simulator's
    inner work (mini-batch gradient steps of a linear decoder); the unit's
    time is multiplied by YARDSTICK_NOMINAL_S over the loop's mean time
    before and after it. The loop is the benchmark's own code, so a change
    to the simulator cannot move it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._features = np.tanh(rng.normal(size=(YARDSTICK_ROWS, 32)))
        self._labels = rng.normal(size=YARDSTICK_ROWS)
        self.times: list[float] = []
        self._last = self._measure()

    def _measure(self) -> float:
        rng = np.random.default_rng(1)
        theta = np.zeros(33)
        t0 = time.perf_counter()
        for _ in range(YARDSTICK_STEPS):
            idx = rng.integers(0, YARDSTICK_ROWS, size=32)
            fb, yb = self._features[idx], self._labels[idx]
            residual = fb @ theta[:-1] + theta[-1] - yb
            grad = np.concatenate([fb.T @ residual, [residual.sum()]])
            theta -= (0.01 / 32) * grad
        self.times.append(time.perf_counter() - t0)
        return self.times[-1]

    def scale(self, seconds: float) -> float:
        """Call right after the unit ends; the previous call's loop is the
        one before it."""
        before, self._last = self._last, self._measure()
        return seconds * YARDSTICK_NOMINAL_S / (0.5 * (before + self._last))


@dataclass
class Cell:
    """One timed cell and the facts its checks established.

    Only small values are kept, so that peak memory does not grow with the
    number of cells a run completes."""

    kind: object
    cfg: object
    seconds: float = math.nan
    scaled_s: float = math.nan
    final: dict | None = None
    metrics_csv: bytes = b""
    problems: list[str] = field(default_factory=list)
    span: int = -1
    self_deliveries: int = 0
    history_rounds: int = 0
    history_kept: int = 0
    oracle_mismatches: int = 0

    @property
    def label(self) -> str:
        k = self.kind
        return f"{k.strategy}_T{k.frequency}_f{k.fraction:g}/seed_{self.cfg.seeds[0]}"


class Runner:
    """Runs cells through harness.run_experiment and checks each one."""

    def __init__(self, tracer: Tracer | None = None, yardstick: Yardstick | None = None):
        self.tracer = tracer
        self.yardstick = yardstick or Yardstick()
        self._records: list = []

    def __enter__(self):
        # keeps the RoundRecords run_simulation returns, so the checks can
        # read each plan; costs one call frame per cell
        self._original = original = harness.run_simulation
        records = self._records

        def run_simulation(*args, **kwargs):
            result = original(*args, **kwargs)
            records.append(result)
            return result

        harness.run_simulation = run_simulation
        return self

    def __exit__(self, *exc):
        harness.run_simulation = self._original

    def run(self, kind, cfg, root: Path, traced: bool = False) -> Cell:
        cell = Cell(kind, cfg)
        clusterings = []
        self._records.clear()
        try:
            with ExitStack() as stack:
                if traced:
                    stack.enter_context(self.tracer.patched({
                        "clustering.cluster": lambda args, result:
                            clusterings.append((args[0].entries, result.index_list))}))
                    cell.span = stack.enter_context(self.tracer.span("cell"))
                t0 = time.perf_counter()
                harness.run_experiment(cfg, out_dir=root)
                cell.seconds = time.perf_counter() - t0
            cell.scaled_s = self.yardstick.scale(cell.seconds)
        except Exception:
            cell.problems.append("raised:\n" + traceback.format_exc())
            return cell
        check_outputs(cell, harness.cell_dir(cfg, kind.strategy, cfg.seeds[0], root))
        check_plans(cell, self._records[-1] if self._records else ())
        check_clusterings(cell, clusterings)
        return cell


def check_outputs(cell: Cell, directory: Path) -> None:
    cfg = cell.cfg
    try:
        cell.metrics_csv = (directory / harness.METRICS_NAME).read_bytes()
        summary = json.loads((directory / harness.SUMMARY_NAME).read_text())
    except (OSError, ValueError) as exc:
        cell.problems.append(f"output missing or unreadable: {exc}")
        return
    cell.final = summary["final"]
    lines = cell.metrics_csv.decode().splitlines()
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    if len(rows) != cfg.warmup_rounds + cfg.rounds:
        cell.problems.append(f"metrics.csv has {len(rows)} rows")
        return
    final = cell.final["domain_losses"]
    last = [float(rows[-1][header.index(f"domain_{i}_loss")]) for i in range(len(final))]
    if last != final:
        cell.problems.append("last metrics.csv row differs from summary.json")
    if not all(math.isfinite(v) for v in final):
        cell.problems.append(f"non-finite final loss: {final}")


def check_plans(cell: Cell, records) -> None:
    """Counts self-deliveries (a failure) and, for the sampler's history
    constraint, how many exchange rounds after the first repeat no entry of
    the previous plan."""
    plans = [r.plan for r in records if r.strategy_tag == "clustered" and r.plan is not None]
    cell.self_deliveries = sum(1 for plan in plans for i, j in enumerate(plan) if i == j)
    if cell.self_deliveries:
        cell.problems.append(f"{cell.self_deliveries} client(s) received their own upload")
    cell.history_rounds = max(0, len(plans) - 1)
    cell.history_kept = sum(1 for prev, cur in zip(plans, plans[1:])
                            if all(a != b for a, b in zip(prev, cur)))


def scipy_bipartition(entries) -> tuple[int, ...]:
    from scipy.cluster.hierarchy import fcluster, linkage
    from scipy.spatial.distance import squareform

    labels = fcluster(linkage(squareform(entries, checks=False), method="average"),
                      t=2, criterion="maxclust")
    return tuple(0 if v == labels[0] else 1 for v in labels)


def check_clusterings(cell: Cell, clusterings) -> None:
    cell.oracle_mismatches = sum(
        1 for entries, ours in clusterings if scipy_bipartition(entries) != ours)
    if cell.oracle_mismatches:
        cell.problems.append(
            f"{cell.oracle_mismatches} cluster_to_two result(s) differ from scipy")


def reference_key(name: str, tiny: bool) -> str:
    return f"{name}-tiny" if tiny else name


def load_reference(path: Path, key: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    return dict(data["cells"][key], rtol=data["rtol"])


def reference_cell(runner: Runner, name: str, tiny: bool, root: Path) -> Cell:
    kind, cfg = make_workload(name, REFERENCE_SEED, tiny).cycle(0)[0]
    return runner.run(kind, cfg, root)


def check_reference(cell: Cell, ref: dict) -> bool:
    """Fails the cell unless its final losses match; returns whether the
    metrics.csv digest also matches, which is information only."""
    if cell.final is not None:
        got, want = cell.final["domain_losses"], ref["domain_losses"]
        if len(got) != len(want) or not all(
                math.isclose(g, w, rel_tol=ref["rtol"], abs_tol=0.0) for g, w in zip(got, want)):
            cell.problems.append(f"final losses {got} differ from reference {want}")
    return hashlib.sha256(cell.metrics_csv).hexdigest() == ref["metrics_sha256"]


def time_setup(workload, yardstick: Yardstick) -> tuple[list[float], list[float]]:
    """Wall and scaled times of repeated build_clients calls."""
    wall, scaled = [], []
    start = time.perf_counter()
    while len(wall) < SETUP_MIN_REPS or time.perf_counter() - start < SETUP_MIN_SECONDS:
        seed = workload.master_seed(len(wall))
        t0 = time.perf_counter()
        harness.build_clients(workload.base, seed)
        wall.append(time.perf_counter() - t0)
        scaled.append(yardstick.scale(wall[-1]))
    return wall, scaled


def measured_cycles(workload, seconds: float):
    """Yields cycle indices until time is up and the minimum cycles are done."""
    start = time.perf_counter()
    cycle = 0
    while cycle < workload.min_cycles or time.perf_counter() - start < seconds:
        yield cycle
        cycle += 1


def final_losses(workload, cells: list[Cell]) -> tuple[float, float]:
    """Mean final average and worst-domain loss over the clustered cells of
    the first min_cycles cycles, a fixed set for a given workload seed."""
    first = {workload.master_seed(c) for c in range(workload.min_cycles)}
    finals = [c.final for c in cells if c.kind.clustered and c.cfg.seeds[0] in first and c.final]
    if not finals:
        return math.nan, math.nan
    return (statistics.fmean(f["avg_loss"] for f in finals),
            statistics.fmean(f["worst_domain_loss"] for f in finals))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, cells: list[Cell], setup: list[float], attr: str) -> dict:
    """The end-to-end metrics, from each cell's wall ('seconds') or scaled
    ('scaled_s') time."""
    ok = [getattr(c, attr) for c in cells if not c.problems]
    client_rounds = len(ok) * workload.clients * workload.rounds_per_cell
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "cell_s": metric(statistics.median(ok) if ok else math.nan, "s"),
        "client_rounds_per_s": metric(client_rounds / sum(ok) if ok else math.nan, "1/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(workload, plain: list[Cell], traced: list[Cell], tracer: Tracer,
              compare_s: float) -> dict:
    totals, coverage = tracer.layer_totals({c.span for c in traced})
    n = len(traced)

    def layer(name: str) -> dict[str, float]:
        return totals.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    def per_cell(value: float) -> float:
        return value / n if n else math.nan

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {}
    for name in COUNTED_LAYERS:
        out[f"{name}_calls"] = metric(per_cell(layer(name)["calls"]), "count")
        out[f"{name}_s"] = metric(per_cell(layer(name)["s"]), "s")
    train, cluster = layer("clients.train"), layer("clustering.cluster")
    avg_loss, worst_loss = final_losses(workload, traced)
    traced_s = statistics.median(c.seconds for c in traced) if traced else math.nan
    plain_s = statistics.median(c.seconds for c in plain) if plain else math.nan
    out.update({
        "clients.train_us_per_call": metric(1e6 * ratio(train["s"], train["calls"]), "us"),
        "clients.steps_per_s": metric(
            ratio(train["calls"] * workload.base.local.steps, train["s"]), "1/s"),
        "clustering.cluster_ms_per_call": metric(
            1e3 * ratio(cluster["s"], cluster["calls"]), "ms"),
        "clustering.oracle_mismatches": metric(
            sum(c.oracle_mismatches for c in traced), "count"),
        "exchange.self_deliveries": metric(sum(c.self_deliveries for c in traced), "count"),
        "exchange.history_kept_ratio": metric(
            ratio(sum(c.history_kept for c in traced), sum(c.history_rounds for c in traced)),
            "ratio"),
        "server.round_self_s": metric(per_cell(layer("server.round")["self_s"]), "s"),
        "server.sim_self_s": metric(per_cell(layer("server.sim")["self_s"]), "s"),
        "server.final_avg_loss": metric(avg_loss, "loss"),
        "server.final_worst_loss": metric(worst_loss, "loss"),
        "harness.build_clients_s": metric(per_cell(layer("harness.build_clients")["s"]), "s"),
        "harness.write_s": metric(per_cell(layer("harness.write")["s"]), "s"),
        "harness.compare_s": metric(compare_s, "s"),
        "trace.overhead_ratio": metric(traced_s / plain_s - 1.0, "ratio"),
        "trace.coverage": metric(coverage, "ratio"),
        "trace.cell_s": metric(traced_s, "s"),
        "trace.cells": metric(n, "count"),
    })
    return out


def compare_tree(tracer: Tracer, root: Path, kinds: int, cycles: int) -> tuple[float, list[str]]:
    """Times collect_summaries plus compare_strategies over the traced tree.

    A tree with a single strategy group has nothing to compare, so only the
    collection is timed there."""
    with tracer.span("harness.compare") as index:
        summaries = harness.collect_summaries(root)
        comparison = harness.compare_strategies(summaries) if kinds > 1 else None
    problems = []
    if len(summaries) != kinds * cycles:
        problems.append(f"collected {len(summaries)} summaries, expected {kinds * cycles}")
    if comparison is not None and len(comparison["entries"]) != kinds:
        problems.append(f"comparison has {len(comparison['entries'])} groups, expected {kinds}")
    span = tracer.spans[index]
    return span[END] - span[START], problems


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown'
    outside a repository."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp() -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every cell, for the self-test")
    parser.add_argument("--reference", type=Path, default=REFERENCE_PATH,
                        help="reference losses to check the warm-up cell against")
    args = parser.parse_args(argv)

    workload = make_workload(args.workload, args.seed, args.tiny)
    reference = load_reference(args.reference, reference_key(args.workload, args.tiny))
    run_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    plain: list[Cell] = []
    traced: list[Cell] = []
    info: dict = {}
    try:
        yardstick = Yardstick()
        with Runner(tracer, yardstick) as runner:
            ref_cell = reference_cell(runner, args.workload, args.tiny, run_dir / "reference")
            info["reference_digest_matches"] = check_reference(ref_cell, reference)
            extra = [ref_cell]
            setup_wall, setup = ([], []) if args.trace else time_setup(workload, yardstick)

            cycles = 0
            for cycle in measured_cycles(workload, args.seconds):
                for kind, cfg in workload.cycle(cycle):
                    if not args.trace:
                        cell = runner.run(kind, cfg, run_dir / "plain")
                        if plain:  # only the first cell's bytes are compared again
                            cell.metrics_csv = b""
                        plain.append(cell)
                        continue
                    # the twins alternate which runs first, so that warm
                    # caches favour neither side of the overhead ratio
                    if len(traced) % 2 == 0:
                        cell = runner.run(kind, cfg, run_dir / "plain")
                        twin = runner.run(kind, cfg, run_dir / "traced", traced=True)
                    else:
                        twin = runner.run(kind, cfg, run_dir / "traced", traced=True)
                        cell = runner.run(kind, cfg, run_dir / "plain")
                    if twin.metrics_csv != cell.metrics_csv:
                        twin.problems.append("metrics.csv differs from the untraced run")
                    cell.metrics_csv = twin.metrics_csv = b""
                    plain.append(cell)
                    traced.append(twin)
                cycles += 1

            if args.trace:
                compare_s, problems = compare_tree(
                    tracer, run_dir / "traced", len(workload.kinds), cycles)
                # a tree that does not compare fails the cell that completed it
                traced[-1].problems += problems
                metrics = per_layer(workload, plain, traced, tracer, compare_s)
                OUT_ROOT.mkdir(exist_ok=True)
                tracer.write_jsonl(OUT_ROOT / f"spans-{args.workload}.jsonl")
            else:
                first = plain[0]
                again = runner.run(first.kind, first.cfg, run_dir / "rerun")
                if again.metrics_csv != first.metrics_csv:
                    again.problems.append("rerun metrics.csv is not byte-identical")
                extra.append(again)
                metrics = end_to_end(workload, plain, setup, "scaled_s")
                info["wall_clock"] = {k: v["value"] for k, v in end_to_end(
                    workload, plain, setup_wall, "seconds").items() if k != "peak_rss_mb"}
                info["yardstick_s"] = statistics.median(yardstick.times)
                info["final_avg_loss"], info["final_worst_loss"] = final_losses(workload, plain)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    cells = extra + plain + traced
    failed = [c for c in cells if c.problems]
    for c in failed:
        print(f"cell {c.label} failed: " + "; ".join(c.problems), file=sys.stderr)
    info.update(cycles=cycles, measured_cells=len(plain))
    print(json.dumps({"stamp": stamp()}))
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not failed, "attempted": len(cells),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
