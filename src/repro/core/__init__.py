"""TENDS core: infection MI, threshold selection, scoring, parent search."""

from repro.core.config import TendsConfig
from repro.core.drift import (
    DriftConfig,
    DriftReport,
    PairDrift,
    detect_drift,
)
from repro.core.edge_probabilities import (
    attributable_risk,
    estimate_edge_probabilities,
)
from repro.core.executor import (
    ExecutionPlan,
    ParallelExecutor,
    WorkerStats,
    execution_env,
    split_chunks,
)
from repro.core.imi import (
    infection_mi_matrix,
    pointwise_mi_terms,
    traditional_mi_matrix,
)
from repro.core.kernels import (
    PackedStatuses,
    pack_bits,
    packed_family_counts,
    packed_joint_counts,
    packed_pairwise_complete_counts,
    popcount_words,
    unpack_bits,
)
from repro.core.kmeans import fixed_zero_two_means
from repro.core.scoring import (
    FamilyCounts,
    delta_i,
    family_counts,
    global_score,
    local_score,
    log_likelihood,
    penalty,
    size_bound,
)
from repro.core.search import ParentSearch, SearchDiagnostics, prune_candidates
from repro.core.selection import (
    ThresholdSelection,
    predictive_log_likelihood,
    select_threshold_scale,
)
from repro.core.stats import SufficientStats, WindowedStats
from repro.core.tends import (
    Tends,
    TendsModel,
    TendsResult,
    UpdateInfo,
    merge_results,
)
from repro.core.tiles import (
    DEFAULT_MAX_RESIDENT_TILES,
    TiledSufficientStats,
    TileFanout,
    TileGrid,
    TileStore,
    tiled_batch_counts,
)

__all__ = [
    "TendsConfig",
    "DriftConfig",
    "DriftReport",
    "PairDrift",
    "detect_drift",
    "attributable_risk",
    "estimate_edge_probabilities",
    "ExecutionPlan",
    "ParallelExecutor",
    "WorkerStats",
    "execution_env",
    "split_chunks",
    "pointwise_mi_terms",
    "infection_mi_matrix",
    "traditional_mi_matrix",
    "PackedStatuses",
    "pack_bits",
    "unpack_bits",
    "popcount_words",
    "packed_joint_counts",
    "packed_pairwise_complete_counts",
    "packed_family_counts",
    "fixed_zero_two_means",
    "FamilyCounts",
    "family_counts",
    "log_likelihood",
    "penalty",
    "local_score",
    "global_score",
    "delta_i",
    "size_bound",
    "ParentSearch",
    "SearchDiagnostics",
    "prune_candidates",
    "ThresholdSelection",
    "predictive_log_likelihood",
    "select_threshold_scale",
    "SufficientStats",
    "WindowedStats",
    "Tends",
    "TendsModel",
    "TendsResult",
    "UpdateInfo",
    "merge_results",
    "DEFAULT_MAX_RESIDENT_TILES",
    "TiledSufficientStats",
    "TileFanout",
    "TileGrid",
    "TileStore",
    "tiled_batch_counts",
]
