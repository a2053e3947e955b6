"""Data-layer fault injection: prove the guards and the ladder end to end.

PR 1's :class:`~repro.parallel.FaultInjector` attacks the *execution* layer
(exceptions, delays, worker crashes). :class:`DataFaultInjector` extends the
same seeded-chaos discipline to the *data* layer, injecting exactly the
failure classes the ingest guards and degradation ladder exist to absorb:

* **byte corruption** — flip bytes inside a CSV's data region, producing
  unparseable or schema-violating rows (→ row quarantine);
* **NaN columns** — overwrite numeric parameters with NaN, which sails
  straight through :class:`~repro.specdata.schema.SystemRecord`'s
  ``__post_init__`` comparisons (``NaN <= 0`` is ``False``) and would
  otherwise poison every downstream matrix (→ value quarantine);
* **non-finite ratings** — Inf targets that likewise survive positivity
  checks (→ value quarantine);
* **adversarial duplicates** — re-announcements of an identical
  configuration with a different rating, the classic hand-entry error
  (→ conflict quarantine).

Every decision is a pure function of the injector seed, so a chaos test
run is exactly reproducible.

Process-level chaos for the service layer reuses the execution-level
:class:`~repro.parallel.FaultInjector` (re-exported here for discovery):
``sigkill_indices`` kills a live worker mid-task at the signal level —
no cleanup, no atexit, exactly what lease expiry and heartbeat supervision
must absorb. The same :func:`sigkill_process` (re-exported) serves
supervision drills that kill a worker *from outside* (the CI
kill-a-worker drill reads the victim's pid from its heartbeat file).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.parallel.resilient import FaultInjector, sigkill_process
from repro.specdata.schema import PARAMETER_FIELDS, SystemRecord
from repro.util.rng import child_rng

__all__ = ["DataFaultInjector", "FaultInjector", "sigkill_process"]


#: Numeric parameter fields eligible for NaN injection.
_NUMERIC_PARAMS: tuple[str, ...] = tuple(
    name for name, role in PARAMETER_FIELDS if role.name == "NUMERIC"
)


@dataclass(frozen=True)
class DataFaultInjector:
    """Seeded generator of corrupted SPEC records and design responses."""

    seed: int = 0

    # ------------------------------------------------------------------ CSV
    def corrupt_csv_bytes(self, data: bytes, n_flips: int = 8) -> bytes:
        """Flip ``n_flips`` bytes inside the data region of a CSV blob.

        The header line is left intact so the failure lands at row level
        (parse errors → quarantine), not as a file-level schema error.
        """
        body_start = data.find(b"\n") + 1
        if body_start <= 0 or body_start >= len(data):
            raise ValueError("CSV blob has no data region to corrupt")
        rng = child_rng(self.seed, "data-fault", "bytes")
        buf = bytearray(data)
        positions = rng.integers(body_start, len(buf), size=n_flips)
        for pos in positions:
            # Steer away from newlines so corruption stays within one row.
            if buf[pos] == ord("\n"):
                pos = pos - 1 if pos > body_start else pos + 1
            buf[pos] = int(rng.integers(ord("A"), ord("z") + 1))
        return bytes(buf)

    def corrupt_csv_file(
        self, path: str | Path, out_path: str | Path | None = None, n_flips: int = 8
    ) -> Path:
        """Corrupt a CSV on disk; returns the (possibly new) file path."""
        path = Path(path)
        out = Path(out_path) if out_path is not None else path
        out.write_bytes(self.corrupt_csv_bytes(path.read_bytes(), n_flips=n_flips))
        return out

    # -------------------------------------------------------------- records
    def nan_columns(
        self,
        records: Sequence[SystemRecord],
        fraction: float = 0.2,
        fields: Sequence[str] = ("processor_speed", "l2_size", "memory_size"),
    ) -> list[SystemRecord]:
        """Overwrite numeric parameters of a random subset of rows with NaN."""
        bad = set(fields) - set(_NUMERIC_PARAMS)
        if bad:
            raise ValueError(f"not numeric parameter fields: {sorted(bad)}")
        rng = child_rng(self.seed, "data-fault", "nan-columns")
        hit = self._pick(rng, len(records), fraction)
        return [
            dataclasses.replace(r, **{f: float("nan") for f in fields})
            if i in hit else r
            for i, r in enumerate(records)
        ]

    def inf_ratings(
        self, records: Sequence[SystemRecord], fraction: float = 0.2
    ) -> list[SystemRecord]:
        """Blow a random subset of SPECint ratings up to +Inf."""
        rng = child_rng(self.seed, "data-fault", "inf-ratings")
        hit = self._pick(rng, len(records), fraction)
        return [
            dataclasses.replace(r, specint_rate=float("inf")) if i in hit else r
            for i, r in enumerate(records)
        ]

    def conflicting_duplicates(
        self, records: Sequence[SystemRecord], n_duplicates: int = 2
    ) -> list[SystemRecord]:
        """Append re-announcements of existing configs with altered ratings.

        The duplicate shares every parameter with its original but reports
        a rating scaled by a random factor in [1.5, 3) — an irreconcilable
        conflict the guards must quarantine (exact duplicates are legal).
        """
        if not records:
            raise ValueError("no records to duplicate")
        rng = child_rng(self.seed, "data-fault", "dup")
        out = list(records)
        victims = rng.choice(len(records), size=min(n_duplicates, len(records)),
                             replace=False)
        for i in victims:
            r = records[int(i)]
            factor = 1.5 + 1.5 * float(rng.random())
            out.append(dataclasses.replace(
                r,
                specint_rate=r.specint_rate * factor,
                specfp_rate=r.specfp_rate * factor,
            ))
        return out

    # ------------------------------------------------------- design responses
    def corrupt_responses(
        self, responses: np.ndarray, fraction: float = 0.1
    ) -> np.ndarray:
        """Return a copy with a random subset of simulator responses NaN'd."""
        rng = child_rng(self.seed, "data-fault", "responses")
        out = np.array(responses, dtype=np.float64, copy=True)
        hit = self._pick(rng, out.size, fraction)
        flat = out.reshape(-1)
        for i in hit:
            flat[i] = np.nan
        return out

    # --------------------------------------------------------------- helpers
    @staticmethod
    def _pick(rng: np.random.Generator, n: int, fraction: float) -> set[int]:
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        if n == 0:
            return set()
        k = max(1, int(round(n * fraction)))
        return {int(i) for i in rng.choice(n, size=min(k, n), replace=False)}
