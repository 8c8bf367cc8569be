"""Shard execution: the function every worker (or the serial loop) runs.

:func:`run_shard` is the single code path for executing a block of
trials, no matter where it runs — in-process under
:class:`~repro.engine.pool.SerialExecutor` or in a worker process under
:class:`~repro.engine.pool.ProcessPool`.  One code path is what makes
the executor choice invisible in the results: a shard always sees the
same seeds, runs the same trial function, and records the same
telemetry shape.

Telemetry is one ``sim.trial`` span, one ``sim.trials`` count and one
``sim.trial`` event per trial, recorded into a worker-local
:class:`~repro.telemetry.Recorder`, captured as a
:class:`~repro.telemetry.TelemetrySnapshot` so the campaign can merge
shard traces back into one byte-stable export.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..telemetry import Recorder, TelemetrySnapshot
from .plan import ShardSpec

__all__ = ["ShardResult", "TrialFn", "TrialResult", "run_shard"]

TrialFn = Callable[[np.random.Generator, int], dict[str, Any]]
"""The campaign work unit: ``trial_fn(rng, index) -> dict``.  Under a
:class:`~repro.engine.pool.ProcessPool` it must be picklable (a
module-level function or a ``functools.partial`` over one)."""


@dataclass(frozen=True)
class TrialResult:
    """One trial's outputs, tagged with its index and seed."""

    index: int
    seed: int
    values: dict[str, Any]

    def __getitem__(self, key: str) -> Any:
        return self.values[key]


class ShardResult:
    """One executed shard: per-trial values plus its telemetry snapshot.

    Deliberately a plain (picklable, JSON-friendly) container: ``trials``
    is a tuple of ``(index, seed, values)`` triples in index order and
    ``telemetry`` is a :class:`~repro.telemetry.TelemetrySnapshot` (or
    ``None`` when the campaign runs untraced).
    """

    __slots__ = ("shard_id", "trials", "telemetry")

    def __init__(self, shard_id: int,
                 trials: tuple[tuple[int, int, dict[str, Any]], ...],
                 telemetry: TelemetrySnapshot | None = None) -> None:
        self.shard_id = shard_id
        self.trials = trials
        self.telemetry = telemetry

    def __repr__(self) -> str:
        return (f"ShardResult(shard_id={self.shard_id}, "
                f"trials={len(self.trials)}, "
                f"traced={self.telemetry is not None})")


def run_shard(trial_fn: TrialFn, shard: ShardSpec, of_total: int,
              record_telemetry: bool = False) -> ShardResult:
    """Execute every trial in ``shard`` against its planned seed.

    ``of_total`` is the campaign's full trial count — it only feeds the
    ``of=`` field of each ``sim.trial`` telemetry event, so every
    shard's events are identical however the campaign is partitioned.
    """
    recorder = Recorder() if record_telemetry else None
    executed: list[tuple[int, int, dict[str, Any]]] = []
    for trial in shard.trials:
        rng = np.random.default_rng(trial.seed)
        if recorder is not None:
            with recorder.span("sim.trial", index=trial.index):
                values = trial_fn(rng, trial.index)
        else:
            values = trial_fn(rng, trial.index)
        if not isinstance(values, dict):
            raise TypeError("trial function must return a dict of values")
        if recorder is not None:
            recorder.count("sim.trials")
            recorder.event("sim.trial", index=trial.index,
                           seed=trial.seed, of=of_total)
        executed.append((trial.index, trial.seed, values))
    snapshot = (TelemetrySnapshot.capture(recorder)
                if recorder is not None else None)
    return ShardResult(shard_id=shard.shard_id, trials=tuple(executed),
                       telemetry=snapshot)
