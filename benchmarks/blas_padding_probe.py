"""Do zero-padded or joined matmuls keep the forward pass bit-identical?

Stacking networks of different topologies in one training stack would mean
padding them to a common shape with zero weights (and masks). That is only
a speed-up if every result keeps its bits, so this probe asks the BLAS
directly, for the shapes the NN builders train: ``A (n, k) @ W (k, h)``
against three altered forms:

* **output padding** — ``W`` gets ``p`` zero columns; compare the first
  ``h`` columns of the product;
* **inner padding** — ``A`` gets ``p`` zero columns and ``W`` ``p`` zero
  rows; compare the whole product;
* **joined rows** — ``A`` gets ``p`` more rows of data, as joining a
  training set and a validation set in one matmul would; compare the
  first ``n`` rows.

A case counts as changed when any byte differs. Run from the repository
root::

    PYTHONPATH=src python benchmarks/blas_padding_probe.py

It prints the numpy version and BLAS, then the changed/probed counts per
kind.
"""

from __future__ import annotations

import itertools

import numpy as np

#: Rows (the training-set sizes of the chronological and sampled fits),
#: fan-ins (input widths and hidden sizes), fan-outs and pad widths.
ROWS = (1, 6, 13, 27, 40, 54)
FAN_IN = (2, 5, 7, 11, 16, 22, 24, 31, 40)
FAN_OUT = (1, 2, 5, 7, 11, 16, 24, 31, 40)
PADS = (1, 3, 8)


def blas_name() -> str:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def probe(seed: int = 0) -> dict[str, tuple[int, int]]:
    """``kind -> (changed, probed)`` over every shape and pad width."""
    rng = np.random.default_rng(seed)
    changed = {"output padding": 0, "inner padding": 0, "joined rows": 0}
    probed = 0
    for n, k, h, p in itertools.product(ROWS, FAN_IN, FAN_OUT, PADS):
        A = rng.uniform(-1.0, 1.0, (n, k))
        W = rng.uniform(-1.0, 1.0, (k, h))
        ref = (A @ W).tobytes()
        out = A @ np.hstack([W, np.zeros((k, p))])
        changed["output padding"] += np.ascontiguousarray(out[:, :h]).tobytes() != ref
        inner = np.hstack([A, np.zeros((n, p))]) @ np.vstack([W, np.zeros((p, h))])
        changed["inner padding"] += inner.tobytes() != ref
        joined = np.vstack([A, rng.uniform(-1.0, 1.0, (p, k))]) @ W
        changed["joined rows"] += joined[:n].tobytes() != ref
        probed += 1
    return {kind: (count, probed) for kind, count in changed.items()}


def main() -> int:
    print(f"numpy {np.__version__}, BLAS {blas_name()}")
    for kind, (count, probed) in probe().items():
        print(f"{kind}: {count} of {probed} forward matmuls changed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
