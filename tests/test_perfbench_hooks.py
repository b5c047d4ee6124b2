"""The benchmark's traced runs patch the functions named in
perfbench/tracer.TARGETS; each must exist and be callable, or every
``--trace 1`` run crashes."""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_tracer().TARGETS


@pytest.mark.parametrize(
    "module, attr", [(m, a) for m, a, _ in TARGETS],
    ids=[f"{m.__name__}.{a}" for m, a, _ in TARGETS],
)
def test_traced_target_is_callable(module, attr):
    assert callable(getattr(module, attr, None))
