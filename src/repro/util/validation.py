"""Data-validation helpers shared across packages.

This module is the single home for the library's value-integrity checks:
the NaN/Inf fail-fast checks that protect the modeling layer
(:func:`require_finite`, :func:`nonfinite_count`). :class:`repro.ml.dataset`
and the ingest guards in :mod:`repro.robust.guards` both call these, so a
bad value produces the same error text whether it is caught at dataset
construction or at row ingest.
"""

from __future__ import annotations

import numpy as np

__all__ = ["require_finite", "nonfinite_count"]


def nonfinite_count(values: np.ndarray) -> int:
    """Number of NaN/Inf entries in ``values`` (0 for empty arrays)."""
    values = np.asarray(values, dtype=np.float64)
    return int((~np.isfinite(values)).sum())


def require_finite(values: np.ndarray, what: str) -> None:
    """Reject NaN/Inf with a message naming the field and first bad record.

    Non-finite training values would not crash the fitters — they would
    silently poison every downstream coefficient — so they are rejected
    wherever numeric data enters the pipeline (dataset construction, row
    ingest, model-output gates).
    """
    values = np.asarray(values)
    bad = ~np.isfinite(values)
    if bad.any():
        raise ValueError(
            f"{what} contains {int(bad.sum())} non-finite value(s) (NaN/Inf), "
            f"first at record {int(np.argmax(bad))}"
        )

