"""The experiment drivers under scripts/, imported by path: every fedswap name
they import must resolve. Their main runs only as __main__, so nothing runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("name", ["run_default_experiment", "run_ablations"])
def test_driver_imports_resolve(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
