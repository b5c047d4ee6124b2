"""Deterministic federated-learning simulator with clustered decoder exchange."""

from .clients import (
    ClientState,
    DomainSpec,
    EvalResult,
    FrozenBackbone,
    LocalConfig,
    evaluate,
    generate_domain_dataset,
    local_train,
    local_train_fedprox,
)
from .clustering import (
    ClusterAssignment,
    DistanceMatrix,
    MergeStep,
    average_linkage,
    build_distance_matrix,
    cluster_to_two,
    cluster_to_two_traced,
)
from .errors import FedswapError
from .exchange import (
    ExchangePlan,
    build_clustered_plan,
    build_random_plan,
    build_round_robin_plan,
)
from .harness import (
    ExperimentConfig,
    ablation_T,
    compare_strategies,
    default_experiment_config,
    load_config,
    run_cell,
    run_experiment,
    save_config,
)
from .params import (
    AggregationWeights,
    ParamVector,
    cosine_distance,
    weighted_average,
)
from .server import (
    RoundRecord,
    ServerConfig,
    ServerState,
    derive_seed,
    run_round,
    run_simulation,
    schedule_decision,
)

__version__ = "0.1.0"

__all__ = [
    "AggregationWeights",
    "ClientState",
    "ClusterAssignment",
    "DistanceMatrix",
    "DomainSpec",
    "EvalResult",
    "ExchangePlan",
    "ExperimentConfig",
    "FedswapError",
    "FrozenBackbone",
    "LocalConfig",
    "MergeStep",
    "ParamVector",
    "RoundRecord",
    "ServerConfig",
    "ServerState",
    "ablation_T",
    "average_linkage",
    "build_clustered_plan",
    "build_distance_matrix",
    "build_random_plan",
    "build_round_robin_plan",
    "cluster_to_two",
    "cluster_to_two_traced",
    "compare_strategies",
    "cosine_distance",
    "default_experiment_config",
    "derive_seed",
    "evaluate",
    "generate_domain_dataset",
    "load_config",
    "local_train",
    "local_train_fedprox",
    "run_cell",
    "run_experiment",
    "run_round",
    "run_simulation",
    "save_config",
    "schedule_decision",
    "weighted_average",
    "__version__",
]
