"""Kalman filtering for systems with random transition and measurement matrices."""

from .random_matrix import (
    BlockDropout,
    MatrixDist,
    RandomMatrixSpec,
    deterministic,
    moments_from_dist,
    quad_form,
    sample_matrix,
)
from .filter_core import (
    FilterState,
    InitialCondition,
    StepModel,
    constant_provider,
    filter_sequence,
    stack_models,
)
from .adapters import (
    MultiModelDynamics,
    NahiModel,
    PartitionedObsModel,
    UncertainObsModel,
    build_multimodel,
    build_nahi,
    build_partitioned,
    build_uncertain_obs,
)
from .sim_harness import (
    RunMetrics,
    TruthTrajectory,
    gamma_sweep,
    monte_carlo,
    run_filter_on,
    simulate_truth,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
