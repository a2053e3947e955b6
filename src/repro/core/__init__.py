"""The paper's two workflows plus the model registry and reporting."""

from repro.core.chronological import (
    ChronologicalResult,
    chronological_datasets,
    run_chronological,
    run_rolling_chronological,
)
from repro.core.models import (
    ALL_MODELS,
    NINE_MODELS,
    SAMPLED_DSE_MODELS,
    build_model,
    model_builders,
)
from repro.core.reporting import (
    figure_chronological_table,
    figure_sampled_series,
    table2,
    table3,
)
from repro.core.search import (
    SearchQuality,
    evaluate_search_quality,
    rank_correlation,
    regret,
    top_k_recall,
)
from repro.core.sampled import (
    ModelOutcome,
    SampledDseResult,
    run_rate_sweep,
    run_sampled_dse,
    sampling_counts,
)

__all__ = [
    "ChronologicalResult",
    "chronological_datasets",
    "run_chronological",
    "run_rolling_chronological",
    "ALL_MODELS",
    "NINE_MODELS",
    "SAMPLED_DSE_MODELS",
    "build_model",
    "model_builders",
    "figure_chronological_table",
    "figure_sampled_series",
    "table2",
    "table3",
    "SearchQuality",
    "evaluate_search_quality",
    "rank_correlation",
    "regret",
    "top_k_recall",
    "ModelOutcome",
    "SampledDseResult",
    "run_rate_sweep",
    "run_sampled_dse",
    "sampling_counts",
]
