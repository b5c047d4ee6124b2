"""Golden digests: the output files of a fixed experiment matrix must stay
byte-identical (summary.json minus its wall-clock metadata).

scripts/regen_golden.py runs the matrix in a subprocess with one BLAS thread,
and its largest cell once more with two.
A mismatch means a change altered what the simulator writes; on another host
it is a finding about the determinism contract. Never regenerate
tests/golden/digests.json to make this test pass.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "regen_golden.py"
GOLDEN = ROOT / "tests" / "golden" / "digests.json"


def run_script(out, *args, threads="1"):
    env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    subprocess.run([sys.executable, str(SCRIPT), *args, str(out)], env=env, check=True,
                   capture_output=True, timeout=120)
    return json.loads(out.read_text())


def test_outputs_match_golden_digests(tmp_path):
    got = run_script(tmp_path / "digests.json")
    expected = json.loads(GOLDEN.read_text())
    assert sorted(got) == sorted(expected)
    changed = sorted(name for name in expected if got[name] != expected[name])
    assert not changed, f"{len(changed)} of {len(expected)} files changed: {changed}"


def test_largest_cell_matches_with_two_blas_threads(tmp_path):
    # the 32-domain cell, with the script and its environment at 2 threads
    got = run_script(tmp_path / "digests.json", "--threads", "2", "--only", "wide32",
                     threads="2")
    expected = {name: digest for name, digest in json.loads(GOLDEN.read_text()).items()
                if name.startswith("wide32/")}
    assert len(expected) == 3 and got == expected
