"""Budget-aware block-wise optimizer configuration.

Assigns per-block optimizer configurations under optimizer-state memory and
update-time budgets: gradient-stream diagnostics are normalized into
mismatch-risk signals, and an exact solver picks one configuration per block
minimizing total risk within the budgets.
"""

__version__ = "0.1.0"

from .allocator import (
    AllocationBuildError,
    AllocationProblem,
    AllocationSolution,
    Candidate,
    ProblemBlock,
    VerificationReport,
    build_problem,
    plan_to_json_dict,
    problem_from_json_dict,
    problem_to_json_dict,
    solution_from_plan_dict,
    solve_bruteforce,
    solve_exact,
    verify,
)
from .config_space import (
    ADAMW16,
    ADAMW32,
    BlockShape,
    Configuration,
    CostModel,
    InvalidConfigurationError,
    aggressiveness,
    enumerate_candidates,
    measure_update_ratio,
    quantize,
    state_bytes,
)
from .diagnostics import (
    DiagnosticsState,
    RawMetrics,
    anisotropy,
    distortion,
    precision_similarity,
    snr,
    structure_residual,
)
from .partitioner import PartitionParams, StructuralUnit, pairwise_difference, partition
from .pipeline import AllocationInfeasibleError, RunConfig, RunResult, collect_metrics, run_allocation
from .risk import (
    Anchors,
    RiskSignals,
    RiskWeights,
    distortion_signal,
    geometry_signal,
    momentum_need,
    phi,
    precision_risk,
    risk,
    signals_from_metrics,
    structure_signal,
)
from .simulator import StreamProfile, generate_stream
from .trace import (
    TRACE_VERSION,
    BlockSpec,
    StepRecord,
    TraceParseError,
    derive_seed,
    read_trace,
    sample_coordinates,
    write_trace,
)
