"""Golden digests: the output files of a fixed experiment matrix must stay
byte-identical (summary.json minus its wall-clock metadata).

scripts/regen_golden.py runs the matrix in a subprocess with one BLAS thread,
and its largest cell once more with two.
A mismatch means a change altered what the simulator writes; on another host
it is a finding about the determinism contract. Never regenerate
tests/golden/digests.json to make this test pass. The digests hold for the
numpy and scipy versions in tests/golden/versions.json, which CI installs; a
failure names them beside the script's own line, which names the running
versions and numpy's enabled SIMD dispatch targets.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "regen_golden.py"
GOLDEN = ROOT / "tests" / "golden" / "digests.json"
VERSIONS = GOLDEN.with_name("versions.json")
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def run_script(out, *args, threads="1"):
    env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run([sys.executable, str(SCRIPT), *args, str(out)], env=env,
                          check=True, capture_output=True, text=True, timeout=120)
    return json.loads(out.read_text()), done.stdout.strip()


def versions_note(line):
    """The versions the digests were recorded under and the script's line,
    as a failure names them."""
    return f"digests recorded under {json.loads(VERSIONS.read_text())}; script: {line}"


def test_outputs_match_golden_digests(tmp_path):
    got, line = run_script(tmp_path / "digests.json")
    expected = json.loads(GOLDEN.read_text())
    note = versions_note(line)
    assert sorted(got) == sorted(expected), note
    changed = sorted(name for name in expected if got[name] != expected[name])
    assert not changed, f"{len(changed)} of {len(expected)} files changed ({note}): {changed}"


def test_largest_cell_matches_with_two_blas_threads(tmp_path):
    # the 32-domain cell, with the script and its environment at 2 threads
    got, line = run_script(tmp_path / "digests.json", "--threads", "2", "--only", "wide32",
                           threads="2")
    expected = {name: digest for name, digest in json.loads(GOLDEN.read_text()).items()
                if name.startswith("wide32/")}
    assert len(expected) == 3 and got == expected, versions_note(line)


def test_ci_installs_the_recorded_versions():
    [install] = [line for line in WORKFLOW.read_text().splitlines() if "pip install" in line]
    pins = dict(re.findall(r"\b([a-z]+)==(\S+)", install))
    assert pins == json.loads(VERSIONS.read_text()), install
