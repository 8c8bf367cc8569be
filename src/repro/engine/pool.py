"""Executors: where shards actually run.

Two implementations of one tiny protocol (:class:`ShardExecutor`):

* :class:`SerialExecutor` — runs shards in-process, in shard order.
  The fallback and the reference: campaign results and telemetry under
  any other executor are pinned byte-identical to this one.
* :class:`ProcessPool` — fans shards out over ``jobs`` worker processes
  via :class:`concurrent.futures.ProcessPoolExecutor`, driven by the
  :class:`~repro.engine.supervisor.ShardSupervisor` loop, and yields
  results in *completion* order, so the campaign can journal each shard
  the moment it lands (crash-safety) while the final merge re-sorts by
  shard id (determinism).  Its ``policy`` decides what a worker failure
  costs: by default the first one kills the campaign; a
  :class:`~repro.engine.policy.SupervisionPolicy` adds deadlines,
  retries, quarantine and an in-process degrade fallback.

Workers receive everything they need — the trial function, the shard's
planned seeds, the campaign trial count — as pickled arguments; they
consult no global state, no wall clock and no process-local RNG, so a
shard computes the same result on any worker, any host, any run.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from typing import Protocol

from ..telemetry import TelemetryRecorder
from .faults import WorkerFaultSchedule
from .plan import ShardSpec
from .policy import (
    ShardFailure,
    SupervisionPolicy,
    SupervisionReport,
    _ReportBuilder,
)
from .shard import ShardResult, TrialFn, run_shard
from .supervisor import AttemptCompletion, ShardSupervisor

__all__ = ["ProcessPool", "SerialExecutor", "ShardExecutor",
           "default_job_count"]

_FAIL_FAST = SupervisionPolicy(max_attempts=1, on_failure="fail",
                               adaptive_timeout_factor=None)
"""``ProcessPool``'s default policy: one attempt, no deadline, and the
first worker failure kills the campaign."""


def default_job_count() -> int:
    """A sensible worker count: the CPUs this process may schedule on."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # platforms without sched_getaffinity
        return max(1, os.cpu_count() or 1)


class ShardExecutor(Protocol):
    """The executor contract :class:`~repro.engine.Campaign` drives."""

    def run_shards(self, trial_fn: TrialFn,
                   shards: Sequence[ShardSpec], of_total: int,
                   record_telemetry: bool = False
                   ) -> Iterator[ShardResult]:
        """Execute ``shards``, yielding each result as it completes."""
        ...


class SerialExecutor:
    """In-process execution, one shard after another, in shard order.

    No pickling constraints: closures and lambdas are fine as trial
    functions.  This is the default backend — and the behavioural
    reference every parallel executor is tested against.
    """

    def run_shards(self, trial_fn: TrialFn,
                   shards: Sequence[ShardSpec], of_total: int,
                   record_telemetry: bool = False
                   ) -> Iterator[ShardResult]:
        """Yield each shard's result immediately after running it."""
        for shard in shards:
            yield run_shard(trial_fn, shard, of_total,
                            record_telemetry=record_telemetry)

    def __repr__(self) -> str:
        return "SerialExecutor()"


def _execute_shard(trial_fn: TrialFn, shard: ShardSpec, of_total: int,
                   record_telemetry: bool, attempt: int,
                   faults: WorkerFaultSchedule | None) -> ShardResult:
    """Worker-process entry point (module-level so it pickles).

    Applies any scripted worker fault for this attempt around
    :func:`~repro.engine.shard.run_shard`; with ``faults=None`` it is
    exactly ``run_shard``.
    """
    if faults is not None:
        faults.apply_before(shard.shard_id, attempt)
    result = run_shard(trial_fn, shard, of_total,
                       record_telemetry=record_telemetry)
    if faults is not None:
        result = faults.apply_after(result, attempt)
    return result


class _ProcessBackend:
    """The supervisor's production backend: worker processes on the
    wall clock.

    A timed-out attempt cannot be preempted mid-task (a
    ``ProcessPoolExecutor`` future stops being cancellable once it
    starts), so ``abandon`` cancels when possible and otherwise just
    stops listening: the stuck task keeps its worker busy until it
    returns, and its eventual (late) result is dropped.  The supervisor
    keeps submitting regardless — the pool queues excess attempts — so
    a hung worker costs throughput, never correctness.
    """

    def __init__(self, jobs: int, trial_fn: TrialFn, of_total: int,
                 record_telemetry: bool,
                 faults: WorkerFaultSchedule | None) -> None:
        self.jobs = jobs
        self.trial_fn = trial_fn
        self.of_total = of_total
        self.record_telemetry = record_telemetry
        self.faults = faults
        self._executor = ProcessPoolExecutor(max_workers=jobs)
        self._live: set[Future[ShardResult]] = set()

    @property
    def slots(self) -> int:
        return self.jobs

    def now_s(self) -> float:
        # The one sanctioned wall-clock read in the engine: deadlines
        # supervise real worker processes, not simulated time.
        return time.monotonic()  # reprolint: disable=DET001

    def submit(self, shard: ShardSpec, attempt: int) -> object:
        future = self._executor.submit(
            _execute_shard, self.trial_fn, shard, self.of_total,
            self.record_telemetry, attempt, self.faults)
        self._live.add(future)
        return future

    def wait(self, timeout_s: float | None) -> list[AttemptCompletion]:
        done, _ = wait(self._live, timeout=timeout_s,
                       return_when=FIRST_COMPLETED)
        completions: list[AttemptCompletion] = []
        for future in done:
            self._live.discard(future)
            # A worker failure arrives as the future's exception; keep
            # it as data for the retry ledger instead of letting it
            # propagate (narrowing here would silently re-kill the
            # campaign on any fault kind we did not anticipate).
            try:
                completions.append(AttemptCompletion(
                    token=future, result=future.result()))
            except Exception as exc:  # reprolint: disable=EXC001
                completions.append(AttemptCompletion(
                    token=future, error=exc))
        return completions

    def sleep(self, duration_s: float) -> None:
        time.sleep(duration_s)

    def abandon(self, token: object) -> None:
        if isinstance(token, Future):
            token.cancel()
            self._live.discard(token)

    def run_inline(self, shard: ShardSpec) -> ShardResult:
        return run_shard(self.trial_fn, shard, self.of_total,
                         record_telemetry=self.record_telemetry)

    def close(self) -> None:
        self._executor.shutdown(wait=False, cancel_futures=True)


class ProcessPool:
    """Shard fan-out over a pool of worker processes, supervised.

    ``jobs`` workers execute shards concurrently; results stream back
    in completion order.  The trial function (and its partial-bound
    arguments) must be picklable.  Determinism is unaffected by worker
    count, completion order or retries: every trial's seed is fixed by
    the :class:`~repro.engine.plan.CampaignPlan`, and the campaign merge
    re-sorts shards by id.

    ``policy`` (default: fail fast — one attempt, no deadline) decides
    how worker crashes, hangs and corrupt payloads are handled; see
    :class:`~repro.engine.policy.SupervisionPolicy`.  ``faults``
    attaches a :class:`~repro.engine.faults.WorkerFaultSchedule` for
    chaos-testing the supervisor, and ``telemetry`` receives the
    supervisor's own wall-clock counters.  After each ``run_shards``
    drive, :attr:`last_report` holds the run's
    :class:`~repro.engine.policy.SupervisionReport`;
    :class:`~repro.engine.Campaign` reads it to decide between a full
    and a :class:`~repro.engine.campaign.PartialCampaignResult`.
    """

    def __init__(self, jobs: int | None = None,
                 policy: SupervisionPolicy | None = None,
                 faults: WorkerFaultSchedule | None = None,
                 telemetry: TelemetryRecorder | None = None) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError("a process pool needs at least one worker")
        self.jobs = jobs if jobs is not None else default_job_count()
        self.policy = policy if policy is not None else _FAIL_FAST
        self.faults = faults
        self.telemetry = telemetry
        self.last_report: SupervisionReport | None = None
        self._failure_sink: Callable[[ShardFailure], None] | None = None

    def attach_failure_sink(
            self, sink: Callable[[ShardFailure], None] | None) -> None:
        """Route every :class:`~repro.engine.policy.ShardFailure` to
        ``sink`` as it happens — the hook
        :class:`~repro.engine.Campaign` uses to journal failed attempts
        into the :class:`~repro.engine.store.ResultStore`."""
        self._failure_sink = sink

    def run_shards(self, trial_fn: TrialFn,
                   shards: Sequence[ShardSpec], of_total: int,
                   record_telemetry: bool = False
                   ) -> Iterator[ShardResult]:
        """Yield shard results as workers complete them.

        Uses at most ``jobs`` workers (fewer when there are fewer
        shards).  A shard that exhausts its attempts under
        ``on_failure="fail"`` raises
        :class:`~repro.engine.campaign.EngineError` from the worker's
        exception; shards already yielded remain journaled by the
        caller, which is what makes a crashed campaign resumable.  On
        the way out — error or the caller abandoning the iterator —
        every not-yet-started shard is cancelled.
        """
        self.last_report = None
        if not shards:
            self.last_report = _ReportBuilder().build()
            return
        backend = _ProcessBackend(min(self.jobs, len(shards)), trial_fn,
                                  of_total, record_telemetry, self.faults)
        supervisor = ShardSupervisor(self.policy, telemetry=self.telemetry,
                                     failure_sink=self._failure_sink)
        try:
            yield from supervisor.run(backend, shards)
        finally:
            self.last_report = supervisor.report

    def __repr__(self) -> str:
        return (f"ProcessPool(jobs={self.jobs}, "
                f"on_failure={self.policy.on_failure!r}, "
                f"faulted={self.faults is not None})")
