"""Census of ``src/repro``: every public function, class and method has a
caller outside ``tests/``.

The census parses ``src/repro`` with :mod:`ast` and collects each public
definition: a module-level function or class, or a method of a
module-level class, whose name does not start with ``_``. It then looks
for a use of that name in ``src/``, ``benchmarks/``, ``perfbench/``,
``examples/`` and ``.github/workflows/``. In Python files a use is a
``Name``, an ``Attribute`` or the imported name of an ``import … as``
alias; in workflow files it is the name as a word. What does not count:
the definition itself (a use inside the definition's own body), its
``__all__`` entry (a string) and a plain re-export line
(``from m import name`` with no ``as``). Names are matched without their
owner, so a method counts as used when any attribute of that name is read.

A name that tests alone reach is a path to delete, or to keep on purpose
in :data:`ALLOWED` with the reason it stays.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
SCANNED = ("src", "benchmarks", "perfbench", "examples")
WORKFLOWS = ROOT / ".github" / "workflows"

_RUN_RECORD = "run-record diagnostic (ROADMAP item 8): "
_CHAOS = "chaos tool: seeded data faults for the ingest-guard tests"

#: Public names that only tests reach, kept on purpose: ``name`` (or
#: ``Class.method``) -> the reason it stays.
ALLOWED: dict[str, str] = {
    "Cache.access":
        "reference implementation: the scalar LRU that access_stream and the "
        "batch kernels are tested against",
    "Tlb.access":
        "reference implementation: the scalar TLB that access_stream is tested against",
    "MLP.loss_and_grad":
        "reference implementation: two-dimensional backprop that the stacked "
        "training kernel is tested against",
    "MicroarchConfig.fu_count":
        "reference implementation: the scalar pipeline reference builds its FU pools from it",
    "ChronologicalResult.degraded_labels": _RUN_RECORD + "ladder walks of a chronological run",
    "ModelOutcome.estimated_error_mean": _RUN_RECORD + "the mean statistic next to select's max",
    "SampledDseResult.estimated_errors": _RUN_RECORD + "every model's estimated error",
    "SampledDseResult.true_errors": _RUN_RECORD + "every model's true error",
    "LinearRegressionModel.selected_features": _RUN_RECORD + "the predictors an LR fit kept",
    "LinearRegressionModel.selection_history": _RUN_RECORD + "the stepwise trail of an LR fit",
    "OlsFit.ill_conditioned": _RUN_RECORD + "whether the least-squares rescue path ran",
    "NeuralNetworkModel.build_notes": _RUN_RECORD + "how an NN build trained and pruned",
    "NeuralNetworkModel.topology": _RUN_RECORD + "the layer sizes an NN build ended with",
    "Timeline.for_trace": _RUN_RECORD + "one job's records in a merged service timeline",
    "DataFaultInjector.conflicting_duplicates": _CHAOS,
    "DataFaultInjector.corrupt_responses": _CHAOS,
    "DataFaultInjector.inf_ratings": _CHAOS,
    "drain_queue": "test harness: runs an in-process worker until the queue is empty",
    "validate_records": "documented API: README's ingest guards",
}


def _definitions() -> dict[str, tuple[str, Path, int, int]]:
    """Public definitions: qualified name -> (bare name, file, first line, last line)."""
    found: dict[str, tuple[str, Path, int, int]] = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            found[node.name] = (node.name, path, node.lineno, node.end_lineno)
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    found[f"{node.name}.{item.name}"] = (
                        item.name, path, item.lineno, item.end_lineno)
    return found


def _uses() -> dict[str, list[tuple[Path, int]]]:
    """Every use of a name in the scanned trees: name -> [(file, line)]."""
    uses: dict[str, list[tuple[Path, int]]] = defaultdict(list)
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    uses[node.id].append((path, node.lineno))
                elif isinstance(node, ast.Attribute):
                    uses[node.attr].append((path, node.lineno))
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        if alias.asname is not None and alias.asname != alias.name:
                            uses[alias.name.rpartition(".")[2]].append((path, node.lineno))
    for path in sorted(WORKFLOWS.glob("*.y*ml")):
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            for word in re.findall(r"[A-Za-z_]\w*", line):
                uses[word].append((path, lineno))
    return uses


@lru_cache(maxsize=1)
def unused_names() -> tuple[str, ...]:
    """Qualified public names with no use outside their own definition."""
    uses = _uses()
    unused = []
    for qualified, (name, path, first, last) in _definitions().items():
        outside = [(p, line) for p, line in uses.get(name, ())
                   if not (p == path and first <= line <= last)]
        if not outside:
            unused.append(qualified)
    return tuple(sorted(unused))


def test_every_public_name_has_a_caller_outside_tests():
    unreached = [name for name in unused_names() if name not in ALLOWED]
    assert not unreached, (
        "public names in src/repro that only tests reach (delete them, or add "
        "each to ALLOWED with its reason): " + ", ".join(unreached))


def test_allowlist_entries_are_current_and_explained():
    stale = sorted(set(ALLOWED) - set(unused_names()))
    assert not stale, f"ALLOWED names that are used or gone: {', '.join(stale)}"
    assert all(reason.strip() for reason in ALLOWED.values())
