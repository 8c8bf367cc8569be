"""The supervision data model: policy knobs, failures, and the report.

A long-running campaign service has to assume its workers misbehave the
same way the simulated radio link does — they crash, hang, run slow, or
hand back garbage.  This module is the *vocabulary* of that failure
model, deliberately free of any execution machinery (the supervisor in
:mod:`repro.engine.supervisor` implements it; the
:class:`~repro.engine.store.ResultStore` journals it):

* :class:`SupervisionPolicy` — how many attempts a shard gets, how the
  deterministic exponential backoff between attempts is derived, and
  what deadline an attempt runs under (absolute, adaptive from
  completed-shard runtime percentiles, or both);
* :class:`ShardFailure` — one failed attempt, classified as
  ``"error"`` (the worker raised), ``"timeout"`` (the attempt outlived
  its deadline) or ``"invalid"`` (the payload failed validation);
* :class:`SupervisionReport` — what one supervised run did: attempts
  launched, retries, quarantined shard ids, shards recovered by the
  in-process degrade fallback, and the full failure log.

Nothing here consults a clock or an RNG: backoff is a pure function of
the attempt number, so a retried campaign replays identically.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Literal

__all__ = [
    "FAILURE_KINDS",
    "ON_FAILURE_MODES",
    "EngineError",
    "FailureKind",
    "OnFailure",
    "ShardFailure",
    "SupervisionPolicy",
    "SupervisionReport",
]

class EngineError(Exception):
    """Raised when a campaign cannot run or resume coherently."""


OnFailure = Literal["fail", "quarantine", "degrade"]
"""What to do with a shard that exhausts its attempts: ``"fail"`` kills
the campaign (the pre-supervision behaviour), ``"quarantine"`` sets the
shard aside and completes the campaign as an explicit partial result,
``"degrade"`` quarantines and then re-runs quarantined shards on the
in-process serial path as a last resort."""

ON_FAILURE_MODES: tuple[OnFailure, ...] = ("fail", "quarantine", "degrade")

FailureKind = Literal["error", "timeout", "invalid"]
"""How an attempt failed: the worker raised, outlived its deadline, or
returned a payload that failed validation."""

FAILURE_KINDS: tuple[FailureKind, ...] = ("error", "timeout", "invalid")


@dataclass(frozen=True)
class ShardFailure:
    """One failed shard attempt, as the supervisor classified it."""

    shard_id: int
    attempt: int
    """1-based attempt number (attempt 1 is the first try)."""

    kind: FailureKind
    detail: str
    """Human-readable cause — an exception repr or a validation message."""


@dataclass(frozen=True)
class SupervisionReport:
    """What one supervised execution did, beyond the results it yielded."""

    attempts: int
    """Total shard attempts launched (successes included)."""

    retries: int
    """Attempts beyond each shard's first."""

    quarantined: tuple[int, ...]
    """Shard ids set aside after exhausting their attempts."""

    degraded: tuple[int, ...]
    """Quarantined shard ids recovered by the in-process fallback."""

    failures: tuple[ShardFailure, ...]
    """Every failed attempt, in the order the supervisor observed them."""

    @property
    def abandoned(self) -> tuple[int, ...]:
        """Quarantined shards the degrade fallback did *not* recover."""
        return tuple(s for s in self.quarantined if s not in self.degraded)


@dataclass(frozen=True)
class SupervisionPolicy:
    """Retry, backoff, deadline, and failure-handling knobs.

    The defaults are conservative: three attempts per shard, a short
    deterministic exponential backoff, no absolute deadline (set
    ``shard_timeout_s`` to arm one), adaptive deadlines armed once
    ``adaptive_min_samples`` shards have completed, and quarantine —
    not campaign death — when a shard exhausts its attempts.
    """

    max_attempts: int = 3
    """Attempts per shard before it is quarantined (or the campaign
    fails, under ``on_failure="fail"``)."""

    backoff_base_s: float = 0.05
    """Backoff after the first failed attempt."""

    backoff_factor: float = 2.0
    """Multiplier applied per subsequent failed attempt."""

    backoff_max_s: float = 5.0
    """Hard cap on any single backoff."""

    shard_timeout_s: float | None = None
    """Absolute per-attempt deadline in wall seconds; ``None`` disables
    the absolute deadline (adaptive deadlines may still apply)."""

    adaptive_timeout_factor: float | None = 8.0
    """An attempt may take at most this multiple of the
    ``adaptive_timeout_percentile`` of completed-shard runtimes;
    ``None`` disables adaptive deadlines."""

    adaptive_timeout_percentile: float = 95.0
    """Percentile of completed-shard runtimes the adaptive deadline
    scales from."""

    adaptive_min_samples: int = 3
    """Completed shards required before the adaptive deadline arms
    (too few samples would make the estimate wild)."""

    adaptive_floor_s: float = 0.05
    """Lower bound on the adaptive deadline, so a burst of near-instant
    shards cannot set a deadline that kills every normal attempt."""

    on_failure: OnFailure = "quarantine"
    """Campaign behaviour when a shard exhausts its attempts."""

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("a shard needs at least one attempt")
        if self.backoff_base_s < 0.0:
            raise ValueError("backoff_base_s cannot be negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1 (backoff "
                             "never shrinks)")
        if self.backoff_max_s < 0.0:
            raise ValueError("backoff_max_s cannot be negative")
        if self.shard_timeout_s is not None and self.shard_timeout_s <= 0.0:
            raise ValueError("shard_timeout_s must be positive (or None "
                             "to disable)")
        if self.adaptive_timeout_factor is not None \
                and self.adaptive_timeout_factor < 1.0:
            raise ValueError("adaptive_timeout_factor must be >= 1: a "
                             "deadline below the observed runtime "
                             "percentile would kill healthy shards")
        if not 0.0 < self.adaptive_timeout_percentile <= 100.0:
            raise ValueError("adaptive_timeout_percentile must be in "
                             "(0, 100]")
        if self.adaptive_min_samples < 1:
            raise ValueError("adaptive_min_samples must be at least 1")
        if self.adaptive_floor_s < 0.0:
            raise ValueError("adaptive_floor_s cannot be negative")
        if self.on_failure not in ON_FAILURE_MODES:
            raise ValueError(
                f"on_failure must be one of {ON_FAILURE_MODES}, "
                f"not {self.on_failure!r}")

    def backoff_s(self, attempt: int) -> float:
        """Delay before retrying after failed attempt ``attempt`` (1-based).

        Deterministic exponential backoff: ``base * factor**(attempt-1)``
        capped at ``backoff_max_s``.  No jitter — two runs of the same
        campaign retry on the same schedule, which is what keeps a
        supervised campaign replayable.
        """
        if attempt < 1:
            raise ValueError("attempt numbers are 1-based")
        delay = self.backoff_base_s * self.backoff_factor ** (attempt - 1)
        return min(delay, self.backoff_max_s)

    def deadline_s(self, completed_runtimes: Sequence[float]
                   ) -> float | None:
        """Effective per-attempt deadline given completed-shard runtimes.

        The tighter of the absolute ``shard_timeout_s`` and the adaptive
        deadline (``adaptive_timeout_factor`` times the configured
        percentile of ``completed_runtimes``, once at least
        ``adaptive_min_samples`` shards have finished, floored at
        ``adaptive_floor_s``).  ``None`` when neither is armed.
        """
        candidates: list[float] = []
        if self.shard_timeout_s is not None:
            candidates.append(self.shard_timeout_s)
        if self.adaptive_timeout_factor is not None \
                and len(completed_runtimes) >= self.adaptive_min_samples:
            candidates.append(max(
                self.adaptive_floor_s,
                self.adaptive_timeout_factor
                * _percentile(completed_runtimes,
                              self.adaptive_timeout_percentile)))
        return min(candidates) if candidates else None


def _percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile over ``values`` (no numpy dependency so
    the policy stays a pure-stdlib data model)."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      round(pct / 100.0 * len(ordered)) - 1))
    return ordered[rank]


@dataclass
class _ReportBuilder:
    """Mutable accumulator the supervisor fills while it runs.

    Lives here (rather than in the supervisor) so everything that
    defines the shape of a report is in one module; ``build()`` freezes
    it into the public :class:`SupervisionReport`.
    """

    attempts: int = 0
    retries: int = 0
    quarantined: list[int] = field(default_factory=list)
    degraded: list[int] = field(default_factory=list)
    failures: list[ShardFailure] = field(default_factory=list)

    def build(self) -> SupervisionReport:
        """Freeze the accumulated state into a report."""
        return SupervisionReport(
            attempts=self.attempts, retries=self.retries,
            quarantined=tuple(sorted(self.quarantined)),
            degraded=tuple(sorted(self.degraded)),
            failures=tuple(self.failures))
