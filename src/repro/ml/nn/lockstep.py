"""Lockstep network builds: many builds' training requests, one stack each.

A build — one of the six training methods of :mod:`repro.ml.nn.methods`,
or :func:`~repro.ml.nn.pruning.prune_steps` — is written as a generator
that yields lists of :class:`TrainRequest` and is sent, for each list, the
outcomes in the same order. :func:`run_lockstep` advances any number of
builds side by side: it gathers every build's pending requests, trains
them grouped — requests with the same layer sizes, activations,
:class:`~repro.ml.nn.training.TrainingConfig` and data shapes train as one
:func:`~repro.ml.nn.training.train_replicas` stack, with per-replica data
when the group holds more than one request — and sends each build its
outcomes. The five holdout reps of an error estimate advance as five
builds, so their same-step requests train together.

Training draws nothing from any rng and the stack trains each replica
exactly as alone, so every network ends bit for bit where a build run on
its own would leave it. Failures stay with their request: a request fails
with the error of its first replica to diverge, the other requests of the
stack train on, and the build that asked sees the failure raised at its
``yield``. :func:`run_lockstep` counts a divergence once per failed build,
as a build run on its own counts its one failed ``train`` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Sequence

import numpy as np

from repro.errors import NumericalError
from repro.ml.nn.network import MLP
from repro.ml.nn.training import (
    TrainingConfig,
    TrainingResult,
    count_divergence,
    train_replicas,
)

__all__ = ["TrainRequest", "Steps", "train_requests", "run_lockstep", "drive", "train_step",
           "unwrap", "side_by_side"]

#: A build: yields request lists, is sent their outcomes, returns its value.
Steps = Generator[list["TrainRequest"], list[Any], Any]


@dataclass
class TrainRequest:
    """Same-topology ``nets`` to train in place on one dataset.

    They train together and fail together: one diverging replica fails the
    whole request with its error.
    """

    nets: Sequence[MLP]
    X: np.ndarray
    y: np.ndarray
    config: TrainingConfig
    X_val: np.ndarray | None = None
    y_val: np.ndarray | None = None

    def group_key(self) -> tuple:
        """Requests with equal keys train as one stack."""
        head = self.nets[0]
        val = None if self.X_val is None or self.y_val is None \
            else (np.shape(self.X_val), np.shape(self.y_val))
        return (tuple(head.layer_sizes), head.hidden_act.name, head.output_act.name,
                self.config, np.shape(self.X), np.shape(self.y), val)


def train_requests(requests: Sequence[TrainRequest]) -> list[Any]:
    """Train every request, one stack per group; returns per request its
    networks' results or the (uncounted) error of its first replica to
    diverge."""
    groups: dict[tuple, list[int]] = {}
    for j, request in enumerate(requests):
        groups.setdefault(request.group_key(), []).append(j)
    outcomes: list[Any] = [None] * len(requests)
    for key, members in groups.items():
        group = [requests[j] for j in members]
        nets = [net for request in group for net in request.nets]
        if len(group) == 1:
            X, y, X_val, y_val = group[0].X, group[0].y, group[0].X_val, group[0].y_val
        else:
            def stacked(name: str) -> np.ndarray:
                return np.stack([getattr(request, name) for request in group
                                 for _ in request.nets])

            X, y = stacked("X"), stacked("y")
            X_val, y_val = (None, None) if key[-1] is None else (stacked("X_val"),
                                                                  stacked("y_val"))
        results, failures = train_replicas(nets, X, y, group[0].config, X_val, y_val)
        owner = [m for m, request in enumerate(group) for _ in request.nets]
        failed: dict[int, NumericalError] = {}
        for i, error in failures:
            failed.setdefault(owner[i], error)
        start = 0
        for m, (j, request) in enumerate(zip(members, group)):
            end = start + len(request.nets)
            outcomes[j] = failed.get(m, results[start:end])
            start = end
    return outcomes


def run_lockstep(builds: Sequence[Steps]) -> list[Any]:
    """Run ``builds`` side by side; returns each one's value, or the
    :class:`~repro.errors.NumericalError` it raised."""
    combined = side_by_side([_isolated(build) for build in builds])
    outcomes = None
    while True:
        try:
            requests = combined.send(outcomes)
        except StopIteration as stop:
            return stop.value
        outcomes = train_requests(requests)


def _isolated(build: Steps) -> Steps:
    """``build``, with its failure returned as its value (and a divergence
    counted) instead of raised."""
    try:
        return (yield from build)
    except NumericalError as exc:
        if exc.cause == "nn-divergence":
            count_divergence(exc)
        return exc


def drive(build: Steps) -> Any:
    """Run one build on its own; returns its value or raises its error."""
    (value,) = run_lockstep([build])
    if isinstance(value, NumericalError):
        raise value
    return value


def train_step(
    nets: Sequence[MLP],
    X: np.ndarray,
    y: np.ndarray,
    config: TrainingConfig,
    X_val: np.ndarray | None = None,
    y_val: np.ndarray | None = None,
) -> Generator[list[TrainRequest], list[Any], list[TrainingResult]]:
    """Inside a build, ``yield from`` this to train ``nets`` as one request:
    returns their results, or raises the request's failure."""
    (outcome,) = yield [TrainRequest(nets, X, y, config, X_val, y_val)]
    return unwrap(outcome)


def unwrap(outcome: Any) -> list[TrainingResult]:
    """A request's results, or raise its failure."""
    if isinstance(outcome, NumericalError):
        raise outcome
    return outcome


def side_by_side(builds: Sequence[Steps]) -> Generator[list[TrainRequest], list[Any], list[Any]]:
    """Inside a build, ``yield from`` this to run sub-builds in lockstep;
    returns their values in order.

    It fails as running them one after another would: with the error of
    the lowest-index sub-build that fails, raised once every lower one has
    finished. Sub-builds above a failed one are dropped, as they would
    never have started.
    """
    values: list[Any] = [None] * len(builds)
    asks: dict[int, list[TrainRequest]] = {}
    failed: tuple[int, NumericalError] | None = None

    def resume(i: int, sent: list[Any] | None) -> None:
        nonlocal failed
        try:
            asks[i] = builds[i].send(sent)
        except StopIteration as stop:
            values[i] = stop.value
        except NumericalError as exc:
            failed = (i, exc)
            for j in [j for j in asks if j > i]:
                del asks[j]

    for i in range(len(builds)):
        if failed is None:
            resume(i, None)
    while asks:
        batch = [(i, asks.pop(i)) for i in sorted(asks)]
        outcomes = yield [request for _, requests in batch for request in requests]
        start = 0
        for i, requests in batch:
            if failed is not None and i > failed[0]:
                break
            end = start + len(requests)
            resume(i, outcomes[start:end])
            start = end
    if failed is not None:
        raise failed[1]
    return values
