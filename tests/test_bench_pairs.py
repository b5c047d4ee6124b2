"""scripts/bench_pairs.py, run with a fake perfbench: the pairs it alternates
and the shape of the BENCH file it writes."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

STAMP = {"git_sha": None, "nproc": 2, "python": "3.11", "numpy": "2.4"}


def fake_output(side, workload, seed, failed=0, reference=True):
    # the change is 10% faster, except on seed 3; it takes 10% more memory;
    # setup_s swings threefold from seed to seed, and on paper4 the change's
    # is a tenth of the parent's
    cell_s = 0.5 + 0.01 * seed
    if side == "change" and seed != 3:
        cell_s *= 0.9
    setup_s = 0.1 if seed % 2 else 0.3
    if side == "change" and workload == "paper4":
        setup_s *= 0.1
    metrics = {"cell_s": {"value": cell_s, "unit": "s"},
               "client_rounds_per_s": {"value": 1.0 / cell_s, "unit": "1/s"},
               "peak_rss_mb": {"value": 44.0 if side == "change" else 40.0, "unit": "MB"},
               "setup_s": {"value": setup_s, "unit": "s"}}
    return "\n".join([
        "some progress line",
        json.dumps({"stamp": STAMP}),
        json.dumps({"info": {"reference_digest_matches": reference, "side": side}}),
        json.dumps({"correct": True, "attempted": 4 + seed, "failed": failed,
                    "metrics": metrics}),
    ])


def test_parse_output_keeps_stamp_info_and_result():
    out = bench_pairs.parse_output(fake_output("parent", "wide64", 1))
    assert out["stamp"] == STAMP
    assert out["info"]["side"] == "parent"
    assert out["result"]["metrics"]["cell_s"]["value"] == pytest.approx(0.51)
    with pytest.raises(RuntimeError):
        bench_pairs.parse_output("benchmark run exceeded 170 s")


def test_bench_file_shape(tmp_path):
    calls = []

    def run(side, workload, seed):
        calls.append((side, workload, seed))
        return bench_pairs.parse_output(fake_output(side, workload, seed))

    seeds = [1, 2, 3, 4]
    revs = {"parent": "abc", "change": "def+diff:0123"}
    pairs = bench_pairs.run_pairs(run, ["wide64", "paper4"], seeds, revs)
    better = {"cell_s": "lower", "client_rounds_per_s": "higher"}
    path = tmp_path / "BENCH_3.json"
    data = bench_pairs.write_bench(path, 3, revs, {"seeds": seeds}, pairs, better, {})
    assert json.loads(path.read_text()) == data
    assert set(data) == {"pr", "revs", "args", "stamp", "summary", "pairs"}
    # perfbench's stamp, with the git_sha of the side that ran
    assert data["stamp"] == {**STAMP, "git_sha": "def+diff:0123"}

    # every pair runs both sides back to back, the first side alternating
    assert len(pairs) == 8 and len(calls) == 16
    assert [p["first"] for p in pairs] == ["parent", "change"] * 4
    assert [c[0] for c in calls[:4]] == ["parent", "change", "change", "parent"]
    for pair in pairs:
        for side in ("parent", "change"):
            entry = pair[side]
            assert set(entry) == {"stamp", "info", "correct", "attempted", "failed", "metrics"}
            assert entry["info"]["side"] == side and entry["failed"] == 0
            assert entry["stamp"] == {**STAMP, "git_sha": revs[side]}

    for workload in ("wide64", "paper4"):
        summary = data["summary"][workload]
        # seeds 1-4 attempt 5, 6, 7 and 8 operations on each side
        assert summary["failed"] == {"parent": 0, "change": 0}
        assert summary["attempted"] == {"parent": 26, "change": 26}
        assert summary["failed_share_rose"] is False
        assert summary["reference_mismatches"] == {"parent": 0, "change": 0}
        for name in ("cell_s", "client_rounds_per_s"):
            row = summary["metrics"][name]
            assert row["better"] == better[name]
            assert row["pairs"] == 4
            assert row["change_wins"] == 3  # seed 3 is a tie
            for side in ("parent", "change"):
                q = row[side]
                assert q["q1"] <= q["median"] <= q["q3"]
        cell = summary["metrics"]["cell_s"]
        assert cell["parent"]["median"] == pytest.approx(0.525)
        assert cell["median_relative_change"] == pytest.approx(-0.1)


def test_directions_come_from_the_benchmark():
    better = bench_pairs.directions(SCRIPT.parents[1] / "BENCHMARK.json")
    assert better["cell_s"] == "lower"
    assert better["client_rounds_per_s"] == "higher"
    assert better["server.derive_seed_s"] == "lower"


def test_working_tree_stamp_covers_untracked_files(tmp_path, monkeypatch):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    git("init", "-q")
    (tmp_path / ".gitignore").write_text("ignored.txt\n")
    (tmp_path / "kept.py").write_text("x = 1\n")
    git("add", "-A")
    git("commit", "-q", "-m", "first")
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    head = bench_pairs.working_tree_rev()
    assert len(head) == 40 and "+" not in head

    # an ignored file is not part of the change
    (tmp_path / "ignored.txt").write_text("build output\n")
    assert bench_pairs.working_tree_rev() == head

    # a new, untracked file is, and so are its contents and its name
    (tmp_path / "new_oracle.py").write_text("y = 2\n")
    first = bench_pairs.working_tree_rev()
    assert first.startswith(head + "+diff:")
    (tmp_path / "new_oracle.py").write_text("y = 3\n")
    second = bench_pairs.working_tree_rev()
    (tmp_path / "new_oracle.py").rename(tmp_path / "renamed_oracle.py")
    third = bench_pairs.working_tree_rev()
    assert len({first, second, third}) == 3

    # a tracked edit changes the stamp as before, with or without the new file
    (tmp_path / "renamed_oracle.py").unlink()
    assert bench_pairs.working_tree_rev() == head
    (tmp_path / "kept.py").write_text("x = 2\n")
    edited = bench_pairs.working_tree_rev()
    assert edited.startswith(head + "+diff:") and edited not in (first, second, third)


def test_bound_flags():
    def run(side, workload, seed):
        return bench_pairs.parse_output(fake_output(side, workload, seed))

    pairs = bench_pairs.run_pairs(run, ["wide64", "paper4"], [1, 2, 3, 4],
                                  {"parent": "abc", "change": "def"})
    better = bench_pairs.directions(SCRIPT.parents[1] / "BENCHMARK.json")
    bounds = {"cell_s": 0.2, "client_rounds_per_s": 0.2, "peak_rss_mb": 0.05,
              "setup_s": 0.25}
    summary = bench_pairs.summarize(pairs, better, bounds)

    def flags(workload, name):
        row = summary[workload]["metrics"][name]
        assert row["bound"] == bounds[name]
        return row["within_bound"], row["unresolved"]

    for workload in ("wide64", "paper4"):
        # faster and quieter than the bound: in bound, resolved, in either direction
        assert flags(workload, "cell_s") == (True, False)
        assert flags(workload, "client_rounds_per_s") == (True, False)
        # 10% more memory against a 5% bound, with no spread to blame
        assert flags(workload, "peak_rss_mb") == (False, False)
        assert summary[workload]["metrics"]["peak_rss_mb"]["parent_relative_iqr"] == 0.0
    # the parent's setup_s spreads 0.1 to 0.3 (relative IQR 1.0 > 0.25): level
    # runs cannot tell, but a change whose every run beats every parent run can
    assert summary["wide64"]["metrics"]["setup_s"]["parent_relative_iqr"] == pytest.approx(1.0)
    assert flags("wide64", "setup_s") == (True, True)
    assert flags("paper4", "setup_s") == (True, False)
    # a metric without a bound gets no flags
    lone = bench_pairs.summarize(pairs, better, {})["wide64"]["metrics"]["cell_s"]
    assert "within_bound" not in lone and "unresolved" not in lone


def test_failures_are_counted_per_side():
    # on wide64 the parent fails 1 of 26 operations and the change 2; on
    # paper4 the change fails 1 and the parent 2
    worse = {"wide64": "change", "paper4": "parent"}

    def run(side, workload, seed):
        failed = (2 if side == worse[workload] else 1) if seed == 2 else 0
        return bench_pairs.parse_output(fake_output(side, workload, seed, failed))

    pairs = bench_pairs.run_pairs(run, ["wide64", "paper4"], [1, 2, 3, 4],
                                  {"parent": "abc", "change": "def"})
    summary = bench_pairs.summarize(pairs, {}, {})
    assert summary["wide64"]["failed"] == {"parent": 1, "change": 2}
    assert summary["paper4"]["failed"] == {"parent": 2, "change": 1}
    assert summary["wide64"]["attempted"] == {"parent": 26, "change": 26}
    assert summary["wide64"]["failed_share_rose"] is True
    assert summary["paper4"]["failed_share_rose"] is False
    lines = bench_pairs.summary_lines(summary)
    assert "wide64 failed: parent 1/26 change 2/26 failed_share_rose" in lines
    assert "paper4 failed: parent 2/26 change 1/26" in lines


def test_bounds_come_from_the_benchmark():
    bounds = bench_pairs.bounds(SCRIPT.parents[1] / "BENCHMARK.json")
    assert bounds == {"cell_s": 0.2, "client_rounds_per_s": 0.2, "peak_rss_mb": 0.05,
                      "setup_s": 0.25}


def test_reference_mismatches_are_counted_and_flagged():
    # on wide64 the change's seed 2 run and the parent's seed 4 run miss the
    # reference digest, and the change's seed 3 run does on paper4
    missed = {("wide64", "change", 2), ("wide64", "parent", 4), ("paper4", "change", 3)}

    def run(side, workload, seed):
        reference = (workload, side, seed) not in missed
        return bench_pairs.parse_output(fake_output(side, workload, seed, reference=reference))

    pairs = bench_pairs.run_pairs(run, ["wide64", "paper4", "ragged16_cls"], [1, 2, 3, 4],
                                  {"parent": "abc", "change": "def"})
    summary = bench_pairs.summarize(pairs, {}, {})
    assert summary["wide64"]["reference_mismatches"] == {"parent": 1, "change": 1}
    assert summary["paper4"]["reference_mismatches"] == {"parent": 0, "change": 1}
    assert summary["ragged16_cls"]["reference_mismatches"] == {"parent": 0, "change": 0}
    lines = bench_pairs.summary_lines(summary)
    assert ("wide64 failed: parent 0/26 change 0/26 reference_mismatches: parent 1 change 1"
            in lines)
    assert ("paper4 failed: parent 0/26 change 0/26 reference_mismatches: parent 0 change 1"
            in lines)
    assert "ragged16_cls failed: parent 0/26 change 0/26" in lines
