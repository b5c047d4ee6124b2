"""Golden digests: the output files of a fixed experiment matrix must stay
byte-identical (summary.json minus its wall-clock metadata).

scripts/regen_golden.py runs the matrix in a subprocess with one BLAS thread.
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


def test_outputs_match_golden_digests(tmp_path):
    out = tmp_path / "digests.json"
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    subprocess.run([sys.executable, str(SCRIPT), str(out)], env=env, check=True,
                   capture_output=True, timeout=120)
    expected = json.loads(GOLDEN.read_text())
    got = json.loads(out.read_text())
    assert sorted(got) == sorted(expected)
    changed = sorted(name for name in expected if got[name] != expected[name])
    assert not changed, f"{len(changed)} of {len(expected)} files changed: {changed}"
