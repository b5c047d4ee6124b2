"""The experiment drivers under scripts/, imported by path and run with
run_experiment and ablation_T stubbed in their namespace: every fedswap name
they import must resolve, every config they build must be valid, and each
run must go to the directory the driver then reads its comparison from."""

import importlib.util
import sys
from pathlib import Path

import pytest

from fedswap.harness import ExperimentConfig

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("name, expected", [
    ("run_default_experiment", ["."]),
    ("run_ablations", ["ablation_t", "fractions/f1", "fractions/f0.5", "fractions/f0.1"]),
], ids=["run_default_experiment", "run_ablations"])
def test_driver_runs_into_its_directories(name, expected, tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out_dirs = []

    def record(cfg, out_dir):
        assert isinstance(cfg, ExperimentConfig)
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        (Path(out_dir) / "comparison.txt").write_text("")
        out_dirs.append(Path(out_dir).relative_to(tmp_path).as_posix())
        return []

    monkeypatch.setattr(module, "run_experiment", record, raising=False)
    monkeypatch.setattr(module, "ablation_T", lambda cfg, t_values, out_dir:
                        record(cfg, out_dir), raising=False)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", str(tmp_path)])
    assert module.main() == 0
    assert out_dirs == expected
