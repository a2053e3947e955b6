"""Shared utilities: RNG streams, summary statistics, table rendering."""

from repro.util.rng import child_rng, stream_seed
from repro.util.stats import (
    DataProfile,
    geometric_mean,
    mean_absolute_percentage_error,
    percentage_errors,
    profile_responses,
    response_range,
    response_variation,
)
from repro.util.tables import format_kv, format_series, format_table

__all__ = [
    "child_rng",
    "stream_seed",
    "DataProfile",
    "geometric_mean",
    "mean_absolute_percentage_error",
    "percentage_errors",
    "profile_responses",
    "response_range",
    "response_variation",
    "format_kv",
    "format_series",
    "format_table",
]
