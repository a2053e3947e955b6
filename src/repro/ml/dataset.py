"""Column-typed datasets for predictive modeling.

SPSS Clementine (the paper's modeling tool) distinguishes *numeric*, *flag*
(yes/no), and *set* (categorical) fields and treats them differently per
model family (§3.4 of the paper): linear regression only consumes fields
that can be mapped to numbers, while neural networks accept everything via
automatic encoding. :class:`Dataset` carries that role information so the
encoders in :mod:`repro.ml.preprocess` can replicate the behaviour.

Records are stored column-major: numeric columns as ``float64`` arrays,
flag columns as ``bool`` arrays, and categorical columns as arrays of
strings. The response (target) is always numeric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from repro.util.validation import require_finite as _check_finite

__all__ = ["ColumnRole", "Column", "Dataset"]


class ColumnRole(Enum):
    """Field role, mirroring Clementine's numeric / flag / set typing."""

    NUMERIC = "numeric"
    FLAG = "flag"
    CATEGORICAL = "categorical"


@dataclass(frozen=True)
class Column:
    """A named predictor column with a role and its values."""

    name: str
    role: ColumnRole
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        values = np.asarray(self.values)
        if values.ndim != 1:
            raise ValueError(f"column {self.name!r} values must be 1-D, got {values.ndim}-D")
        if self.role is ColumnRole.NUMERIC:
            values = values.astype(np.float64)
            _check_finite(values, f"numeric column {self.name!r}")
        elif self.role is ColumnRole.FLAG:
            # astype(bool) would silently map NaN/Inf to True; reject instead.
            if np.issubdtype(values.dtype, np.floating):
                _check_finite(values, f"flag column {self.name!r}")
            values = values.astype(bool)
        else:
            values = np.asarray([str(v) for v in values], dtype=object)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.values.shape[0])

    @classmethod
    def _from_validated(cls, name: str, role: ColumnRole, values: np.ndarray) -> "Column":
        """Wrap values that already went through ``__post_init__`` once.

        Selecting records from a validated column cannot invalidate it: a
        subset of finite float64 values is finite float64, a subset of bools
        is bool, and a subset of canonical strings is canonical strings. So
        derived columns skip the conversion/validation pass instead of
        re-running it per :meth:`take` — same arrays, bit for bit.
        """
        col = object.__new__(cls)
        object.__setattr__(col, "name", name)
        object.__setattr__(col, "role", role)
        object.__setattr__(col, "values", values)
        return col

    def take(self, indices: np.ndarray) -> "Column":
        """Return a new column restricted to ``indices``."""
        return Column._from_validated(self.name, self.role, self.values[indices])

    @property
    def is_constant(self) -> bool:
        """True when the column shows no variation (Clementine drops these)."""
        if len(self) == 0:
            return True
        first = self.values[0]
        return bool(np.all(self.values == first))


class Dataset:
    """An immutable table of typed predictor columns plus a numeric target.

    Parameters
    ----------
    columns:
        Predictor columns; all must share one length.
    target:
        Response values, one per record (e.g. simulated cycles, SPEC rate).
    target_name:
        Name used in reports.
    """

    def __init__(
        self,
        columns: Sequence[Column],
        target: np.ndarray,
        target_name: str = "y",
    ) -> None:
        target = np.asarray(target, dtype=np.float64).ravel()
        _check_finite(target, f"target {target_name!r}")
        columns = list(columns)
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate column names: {dupes}")
        for col in columns:
            if len(col) != target.shape[0]:
                raise ValueError(
                    f"column {col.name!r} has {len(col)} records but target has {target.shape[0]}"
                )
        self._columns = columns
        self._by_name = {c.name: c for c in columns}
        self.target = target
        self.target_name = target_name
        self._fingerprint: str | None = None

    @classmethod
    def _from_validated(
        cls, columns: list[Column], target: np.ndarray, target_name: str
    ) -> "Dataset":
        """Assemble a dataset from parts a validated dataset already owns.

        Record selection preserves every invariant ``__init__`` checks
        (finite target, unique names, aligned lengths), so derived datasets
        skip the re-validation pass.
        """
        ds = object.__new__(cls)
        ds._columns = columns
        ds._by_name = {c.name: c for c in columns}
        ds.target = target
        ds.target_name = target_name
        ds._fingerprint = None
        return ds

    # -- introspection ----------------------------------------------------

    @property
    def n_records(self) -> int:
        return int(self.target.shape[0])

    @property
    def columns(self) -> list[Column]:
        return list(self._columns)

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self._columns]

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"no column {name!r}; available: {self.column_names}"
            ) from None

    def __len__(self) -> int:
        return self.n_records

    def fingerprint(self) -> str:
        """Stable content digest of columns + target (computed once, cached).

        Two datasets with equal names, roles, values, and targets share a
        fingerprint in any process on any platform, so it can address cache
        entries derived from this dataset (e.g. encoded design matrices).
        """
        if self._fingerprint is None:
            from repro.cache.fingerprint import stable_fingerprint

            parts: list = [self.target_name, self.target]
            for col in self._columns:
                values = col.values
                if values.dtype == object:  # canonical strings; hash as such
                    values = list(values.tolist())
                parts.append((col.name, col.role.value, values))
            self._fingerprint = stable_fingerprint(parts)
        return self._fingerprint

    def __repr__(self) -> str:  # pragma: no cover - formatting
        return (
            f"Dataset(n_records={self.n_records}, n_columns={len(self._columns)}, "
            f"target={self.target_name!r})"
        )

    # -- record selection --------------------------------------------------

    def take(self, indices: Iterable[int] | np.ndarray) -> "Dataset":
        """Return a new dataset with the records at ``indices`` (in order)."""
        idx = np.asarray(list(indices) if not isinstance(indices, np.ndarray) else indices)
        if idx.size and (idx.min() < -self.n_records or idx.max() >= self.n_records):
            raise IndexError(f"indices out of range for {self.n_records} records")
        return Dataset._from_validated(
            [c.take(idx) for c in self._columns],
            self.target[idx],
            self.target_name,
        )

    def random_split_indices(
        self, fraction: float, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Randomly split into (selected, rest) index arrays, ``fraction`` of
        the records selected; each side gets at least one record.

        Consumes exactly one permutation draw from ``rng``; ``take`` turns
        either half into a dataset.
        """
        if not (0.0 < fraction < 1.0):
            raise ValueError(f"fraction must be in (0, 1), got {fraction}")
        if self.n_records < 2:
            raise ValueError("need at least 2 records to split")
        n_sel = int(round(fraction * self.n_records))
        n_sel = min(max(n_sel, 1), self.n_records - 1)
        perm = rng.permutation(self.n_records)
        return np.sort(perm[:n_sel]), np.sort(perm[n_sel:])

    def sample(self, n: int, rng: np.random.Generator) -> tuple["Dataset", np.ndarray]:
        """Sample ``n`` records without replacement; returns (subset, indices)."""
        if not (1 <= n <= self.n_records):
            raise ValueError(f"n must be in [1, {self.n_records}], got {n}")
        idx = np.sort(rng.choice(self.n_records, size=n, replace=False))
        return self.take(idx), idx
