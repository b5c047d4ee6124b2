#!/usr/bin/env python3
"""Smoke self-test of the benchmark, at a tiny size (about a minute).

    python3 perfbench/selftest.py

Checks that
  * every workload, traced and untraced, prints every metric BENCHMARK.json
    names for that mode, with its unit, and no other, and passes its checks;
  * a deliberately wrong reference loss is counted as a failed cell;
  * the benchmark refuses to run without the simulator's sources, exiting
    non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_out" / "selftest"


def run(args, cwd=ROOT) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


def result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def expect(ok: bool, what: str, failures: list) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {what}", flush=True)
    if not ok:
        failures.append(what)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures: list[str] = []
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1):
                code, out = run(["--workload", workload, "--seed", "1", "--seconds", "1",
                                 "--trace", str(trace), "--tiny"])
                res = result(out) if code == 0 else {}
                units = {k: v.get("unit") for k, v in res.get("metrics", {}).items()}
                expect(code == 0 and res["correct"] and res["failed"] == 0
                       and res["attempted"] >= 1,
                       f"{workload} trace={trace}: runs and passes its checks", failures)
                expect(units == wanted[trace],
                       f"{workload} trace={trace}: emits exactly the named metrics with units",
                       failures)

        reference = json.loads((HERE / "reference.json").read_text())
        reference["cells"]["paper4-tiny"]["domain_losses"][0] *= 1.001
        bad = SCRATCH / "wrong-reference.json"
        bad.write_text(json.dumps(reference))
        code, out = run(["--workload", "paper4", "--seed", "1", "--seconds", "1",
                         "--trace", "0", "--tiny", "--reference", str(bad)])
        res = result(out) if code == 0 else {}
        expect(code == 0 and res["failed"] >= 1 and not res["correct"],
               "a wrong reference loss is counted in failed", failures)

        bare = SCRATCH / "bare"
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, out = run(["--workload", "paper4", "--seed", "1", "--seconds", "1",
                         "--trace", "0"], cwd=bare)
        expect(code != 0 and '"correct"' not in out,
               "without the sources: non-zero exit and no result", failures)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
