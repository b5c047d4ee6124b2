#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, written to BENCH_<pr>.json.

Usage, from the root of a checkout:

    python3 scripts/bench_pairs.py --pr N --parent HEAD~1 --workload wide64 \\
        --seeds 101 102 103 --seconds 25 --trace 0 --scratch /tmp/fedswap-pairs

The parent commit's files are exported with ``git archive`` into
<scratch>/parent, a plain directory of committed files, as the benchmark
itself checks a commit out; a worktree would register itself in the
repository's metadata and outlive an interrupted run. The change is this
checkout's working tree. For every workload and seed the two sides run
``python3 perfbench/run.py`` back to back, and the side that runs first
alternates from pair to pair, so that a drift in host speed favours neither.

The file holds every pair's metrics with perfbench's stamp line, and per
metric each side's median and quartiles, the change's wins (pairs in which it
was strictly better, in the direction BENCHMARK.json gives) and the median of
its per-pair relative change. Per workload it counts each side's failed and
attempted operations, and failed_share_rose says the change's failed share
is above the parent's; reference_mismatches counts each side's runs whose
info.reference_digest_matches is not true, and the printout flags any.
Each end-to-end metric is also checked against its bound in
BENCHMARK.json: within_bound says the change's median is worse
than the parent's by at most the bound, relative to the parent's; unresolved
says the parent's relative interquartile range exceeds the bound and not
every change run beats every parent run, so the pairs cannot tell. perfbench
stamps the HEAD it finds in .git, which is neither side here (the export has
no .git, and the working tree may differ from its HEAD), so each stamp's
git_sha is replaced by that side's revision: the parent's SHA, or the working
tree's HEAD plus a hash of its changes (``git diff HEAD`` and every
untracked, non-ignored file) when it has any.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def export(rev: str, dest: Path) -> str:
    """Write the files of commit rev into dest; returns its full SHA."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    dest.mkdir(parents=True, exist_ok=False)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return sha


def working_tree_rev() -> str:
    """HEAD's SHA, plus "+diff:" and a hash of `git diff HEAD` and of the path
    and contents of every untracked, non-ignored file, if there are any."""
    def git(*args) -> bytes:
        return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout

    head = git("rev-parse", "HEAD").decode().strip()
    diff = git("diff", "HEAD", "--binary")
    untracked = sorted(filter(None, git("ls-files", "--others", "--exclude-standard",
                                        "-z").split(b"\0")))
    if not diff and not untracked:
        return head
    digest = hashlib.sha256(diff)
    for path in untracked:
        contents = (ROOT / path.decode()).read_bytes()
        digest.update(b"\0%s\0%d\0%s" % (path, len(contents), contents))
    return f"{head}+diff:{digest.hexdigest()[:12]}"


def parse_output(stdout: str) -> dict:
    """perfbench's last three lines: the stamp, the info and the result."""
    found = {}
    for line in stdout.splitlines():
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        for key in ("stamp", "info"):
            if key in obj:
                found[key] = obj[key]
        if "correct" in obj:
            found["result"] = obj
    if not {"stamp", "info", "result"} <= set(found):
        raise RuntimeError(f"perfbench printed no result:\n{stdout[-2000:]}")
    return found


def perfbench_runner(dirs: dict, seconds: float, trace: int):
    """run(side, workload, seed): one perfbench run in that side's directory."""
    def run(side: str, workload: str, seed: int) -> dict:
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        done = subprocess.run(cmd, cwd=dirs[side], capture_output=True, text=True)
        if done.returncode != 0:
            raise RuntimeError(f"{side} {workload} seed {seed} exited {done.returncode}:\n"
                               f"{done.stderr[-2000:]}")
        return parse_output(done.stdout)

    return run


def run_pairs(run, workloads, seeds, revs: dict) -> list[dict]:
    """One pair per workload and seed; even pairs run the parent first.
    Each side's stamp names its revision, revs[side]."""
    pairs = []
    for workload in workloads:
        for seed in seeds:
            order = SIDES if len(pairs) % 2 == 0 else SIDES[::-1]
            pair = {"workload": workload, "seed": seed, "first": order[0]}
            for side in order:
                out = run(side, workload, seed)
                result = out["result"]
                pair[side] = {
                    "stamp": {**out["stamp"], "git_sha": revs[side]}, "info": out["info"],
                    "correct": result["correct"], "attempted": result["attempted"],
                    "failed": result["failed"],
                    "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                }
            pairs.append(pair)
    return pairs


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def bound_check(parent: list[float], change: list[float], sign: float, bound: float) -> dict:
    """The bound flags of one metric, sign -1.0 if lower is better, else 1.0."""
    p, c = _quartiles(parent), _quartiles(change)
    scale = abs(p["median"]) or 1.0
    relative_iqr = (p["q3"] - p["q1"]) / scale
    all_beat = min(sign * v for v in change) > max(sign * v for v in parent)
    return {
        "bound": bound,
        "parent_relative_iqr": relative_iqr,
        "within_bound": sign * (p["median"] - c["median"]) / scale <= bound,
        "unresolved": relative_iqr > bound and not all_beat,
    }


def summarize(pairs: list[dict], better: dict, bounds: dict) -> dict:
    """Per workload: each side's failed and attempted operations, whether the
    change's failed share is above the parent's, and each side's count of
    runs whose reference cell did not match perfbench's reference
    (info.reference_digest_matches not true); per metric, each side's
    quartiles, wins and median change, and the bound flags of every metric
    that bounds holds."""
    summary: dict = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        mine = [p for p in pairs if p["workload"] == workload]
        rows = {}
        for name in mine[0]["parent"]["metrics"]:
            values = {side: [p[side]["metrics"][name] for p in mine] for side in SIDES}
            sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
            wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
            changes = [(c - p) / p for p, c in zip(values["parent"], values["change"]) if p]
            rows[name] = {
                "better": better.get(name),
                "parent": _quartiles(values["parent"]),
                "change": _quartiles(values["change"]),
                "change_wins": wins,
                "pairs": len(mine),
                "median_relative_change": statistics.median(changes) if changes else None,
            }
            if name in bounds:
                rows[name].update(bound_check(values["parent"], values["change"], sign,
                                              bounds[name]))
        counts = {key: {side: sum(p[side][key] for p in mine) for side in SIDES}
                  for key in ("failed", "attempted")}
        counts["reference_mismatches"] = {
            side: sum(p[side]["info"].get("reference_digest_matches") is not True for p in mine)
            for side in SIDES}
        share = {side: counts["failed"][side] / counts["attempted"][side]
                 if counts["attempted"][side] else 0.0 for side in SIDES}
        summary[workload] = {
            **counts,
            "failed_share_rose": share["change"] > share["parent"],
            "metrics": rows,
        }
    return summary


def summary_lines(summary: dict) -> list[str]:
    """The printout: per workload, each side's failures, the
    failed_share_rose flag and any reference mismatches, then each metric's
    medians, wins and bound flags."""
    lines = []
    for workload, entry in summary.items():
        failed, attempted = entry["failed"], entry["attempted"]
        mismatches = entry["reference_mismatches"]
        lines.append(f"{workload} failed: parent {failed['parent']}/{attempted['parent']} "
                     f"change {failed['change']}/{attempted['change']}"
                     + (" failed_share_rose" if entry["failed_share_rose"] else "")
                     + (f" reference_mismatches: parent {mismatches['parent']} "
                        f"change {mismatches['change']}" if any(mismatches.values()) else ""))
        for name, row in entry["metrics"].items():
            flags = ""
            if "bound" in row:
                flags = " within_bound" if row["within_bound"] else " out_of_bound"
                flags += " unresolved" if row["unresolved"] else ""
            lines.append(f"{workload} {name}: parent {row['parent']['median']:.6g} "
                         f"change {row['change']['median']:.6g} "
                         f"wins {row['change_wins']}/{row['pairs']}{flags}")
    return lines


def directions(benchmark: Path) -> dict:
    """Metric name -> "lower" or "higher", from BENCHMARK.json."""
    spec = json.loads(benchmark.read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def bounds(benchmark: Path) -> dict:
    """End-to-end metric name -> its relative bound, from BENCHMARK.json."""
    return {m["name"]: m["bound"] for m in json.loads(benchmark.read_text())["end_to_end"]}


def write_bench(path: Path, pr: int, revs: dict, args: dict, pairs: list[dict],
                better: dict, bounds: dict) -> dict:
    data = {
        "pr": pr,
        "revs": revs,
        "args": args,
        "stamp": pairs[0]["change"]["stamp"],
        "summary": summarize(pairs, better, bounds),
        "pairs": pairs,
    }
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return data


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", required=True, help="the parent commit")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", type=Path, required=True,
                        help="a new directory for the exported commits")
    args = parser.parse_args(argv)

    dirs = {"parent": args.scratch / "parent", "change": ROOT}
    revs = {"parent": export(args.parent, dirs["parent"]), "change": working_tree_rev()}
    run = perfbench_runner(dirs, args.seconds, args.trace)
    pairs = run_pairs(run, args.workload, args.seeds, revs)
    out = ROOT / f"BENCH_{args.pr}.json"
    settings = {"workloads": args.workload, "seeds": args.seeds,
                "seconds": args.seconds, "trace": args.trace}
    benchmark = ROOT / "BENCHMARK.json"
    data = write_bench(out, args.pr, revs, settings, pairs, directions(benchmark),
                       bounds(benchmark))
    print("\n".join(summary_lines(data["summary"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
