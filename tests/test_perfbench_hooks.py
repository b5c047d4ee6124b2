"""The benchmark's traced runs patch the functions named in
perfbench/tracer.TARGETS and read a few attributes of what they return; each
must exist, or every benchmark cell fails."""

import importlib.util
from pathlib import Path

import pytest

from fedswap import harness
from fedswap.clients import DomainSpec, LocalConfig

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()
TARGETS = tracer.TARGETS


@pytest.mark.parametrize(
    "module, attr", [(m, a) for m, a, _ in TARGETS],
    ids=[f"{m.__name__}.{a}" for m, a, _ in TARGETS],
)
def test_traced_target_is_callable(module, attr):
    assert callable(getattr(module, attr, None))


def test_traced_run_exposes_what_the_benchmark_reads(tmp_path):
    # the same clustering.cluster observer perfbench/bench.py installs, plus
    # the records of run_simulation, whose plans bench.py checks
    clusterings, records = [], []
    domains = tuple(
        DomainSpec(f"d{i}", 60, 3, (0.4 * i,) * 3, 0.3 * i, 0.05) for i in range(4)
    )
    cfg = harness.ExperimentConfig(
        rounds=4, aggregation_frequency=2, warmup_rounds=1,
        strategies=("clustered",), seeds=(0,), input_dim=3, feature_dim=4,
        test_count=20, local=LocalConfig(steps=2, batch_size=16), domains=domains,
    )
    with tracer.Tracer().patched({
        "clustering.cluster": lambda args, result:
            clusterings.append((args[0].entries, result.index_list)),
        "server.sim": lambda args, result: records.extend(result),
    }):
        harness.run_experiment(cfg, out_dir=tmp_path)
    assert len(clusterings) == 2
    for entries, index_list in clusterings:
        assert entries.shape == (4, 4) and len(index_list) == 4
    plans = [r.plan for r in records if r.strategy_tag == "clustered" and r.plan is not None]
    assert len(plans) == 2 and all(sorted(p) == [0, 1, 2, 3] for p in plans)
