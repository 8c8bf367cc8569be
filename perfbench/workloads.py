"""The four benchmark workloads, their inputs and their output checks.

Every workload is closed-loop: the benchmark issues the next call into
``repro`` only after the previous one returned, from one driver
process.  Its inputs come from the run's ``--seed`` alone.  Work is cut
into *rounds* of a fixed size (the sizes below); round 0 of a default
seed is checked against the references committed in
``references.json``, every round against the workload's invariants.

``run_round`` returns a :class:`Tally` and records one latency per op
(nanoseconds) in the :class:`OpLog` it is given; a round may stop early
only at the deadline.  An op is one campaign shard (fig11-sweep), one
``run_all`` sweep (chaos-sweep) or one ``AdmissionController`` call.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

SIZES: dict[str, dict[str, Any]] = {
    "fig11-sweep": {"placements": 300, "carriers": 3, "shards": 4},
    "chaos-sweep": {"sweeps_per_round": 8, "jobs": 2, "duration_s": 30.0},
    "admission-churn": {"nodes": 100_000, "overflow": 2_000,
                        "pairs": 10_000},
    "admission-interference": {"nodes": 20_000, "episodes": 40,
                               "slice_hz": 20.0, "burst_pairs": 10},
}
"""Round sizes of the measured benchmark."""

SMALL_SIZES: dict[str, dict[str, Any]] = {
    "fig11-sweep": {"placements": 24, "carriers": 3, "shards": 4},
    "chaos-sweep": {"sweeps_per_round": 2, "jobs": 2, "duration_s": 5.0},
    "admission-churn": {"nodes": 2_000, "overflow": 200, "pairs": 500},
    "admission-interference": {"nodes": 2_000, "episodes": 4,
                               "slice_hz": 20.0, "burst_pairs": 10},
}
"""Round sizes of the smoke run in ``test_perfbench.py``."""

REFERENCES = Path(__file__).with_name("references.json")
DEFAULT_SEEDS = range(10)
"""Seeds whose round 0 has a committed reference."""

FIG11_LOG10_TOLERANCE = 1e-6
"""Largest accepted |log10 BER - log10 reference| per placement.  A
wrong channel moves SNR, and so log10 BER, by orders of magnitude more;
a vectorised channel meeting a few-ulp bound moves it by ~1e-12."""

DIGEST_CHUNK = 1000
"""Admission decisions per committed digest."""

BAND_SLACK_HZ = 100.0
BEARING_SPAN_RAD = math.pi / 2

CALIBRATION_LOOPS = 130_000
REFERENCE_LOOP_S = 0.0125
"""Median time of ``calibration_loop`` on the host the benchmark was
defined on (2-CPU Intel Xeon, Python 3.11): the speed that one
*reference second* stands for."""

SEGMENT_S = 0.25
"""Work between two calibration loops in a timed round, in seconds."""


def calibration_loop(loops: int = CALIBRATION_LOOPS) -> int:
    """Fixed pure-Python work whose duration measures the host's speed."""
    total = 0
    for i in range(loops):
        total += i * i % 7
    return total


class OpLog:
    """One round's op latencies, timed against the host's speed.

    On a shared host the speed of the same code swings by tens of
    percent, in bursts and in states that last minutes.  With
    ``calibrate`` set, ``calibration_loop`` runs at ``start``, after the
    op that ends each ``SEGMENT_S`` of work, and at ``finish``; the
    host's speed over the round is ``REFERENCE_LOOP_S`` over the median
    loop time.  ``ref_s`` and ``ref_ns`` are the round's time and op
    latencies scaled by that speed, in *reference seconds*: what they
    would have been on the defining host at its usual speed.  ``wall_s``
    and ``raw_ns`` are the unscaled figures.  The loops' own time is in
    neither.  Without ``calibrate`` both are the raw figures.
    """

    def __init__(self, calibrate: bool = False) -> None:
        self.calibrate = calibrate
        self.raw_ns: list[int] = []
        self.ref_ns: list[float] = []
        self.wall_s = 0.0
        self.ref_s = 0.0
        self.loops_s: list[float] = []
        self._segment_start = time.perf_counter()

    def __len__(self) -> int:
        return len(self.raw_ns)

    def _pause(self) -> None:
        """End the current segment of work and time one loop."""
        start = time.perf_counter()
        self.wall_s += start - self._segment_start
        if self.calibrate:
            calibration_loop()
            self.loops_s.append(time.perf_counter() - start)
        self._segment_start = time.perf_counter()

    def start(self) -> None:
        """Time the first loop; the round's work starts after it."""
        self._pause()
        self.wall_s = 0.0

    def record(self, ns: int) -> None:
        self.raw_ns.append(ns)
        if self.calibrate and \
                time.perf_counter() - self._segment_start >= SEGMENT_S:
            self._pause()

    def finish(self) -> None:
        self._pause()
        scale = (REFERENCE_LOOP_S / statistics.median(self.loops_s)
                 if self.loops_s else 1.0)
        self.ref_s = self.wall_s * scale
        self.ref_ns = [ns * scale for ns in self.raw_ns]


@dataclass
class Tally:
    """What one round did: ops attempted and failed, work units done."""

    attempted: int = 0
    failed: int = 0
    units: int = 0
    problems: list[str] = field(default_factory=list)
    corrupt: bool = False
    """An invariant on the final state broke: every op counts as failed."""
    complete: bool = True
    """False when the deadline cut the round short."""

    def add(self, other: Tally) -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.units += other.units
        self.problems.extend(other.problems)
        self.corrupt = self.corrupt or other.corrupt


def load_reference(workload: str, seed: int,
                   sizes: dict[str, Any]) -> Any:
    """Round 0's committed reference, or ``None`` when there is none
    for this seed and these sizes."""
    if not REFERENCES.is_file():
        return None
    refs = json.loads(REFERENCES.read_text()).get(workload)
    if refs is None or refs["sizes"] != sizes:
        return None
    return refs["seeds"].get(str(seed))


class Workload:
    """Shared plumbing; subclasses define ``setup`` and ``run_round``."""

    name = ""
    unit = ""

    def __init__(self, seed: int, sizes: dict[str, Any],
                 workdir: Path) -> None:
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.tracer: Any = None
        self.reference = load_reference(self.name, seed, sizes)
        self.round0: Any = None
        """What round 0 produced, in the reference's form."""

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, index: int, deadline: float,
                  latencies: OpLog) -> Tally:
        raise NotImplementedError

    def trace(self, tracer: Any) -> None:
        """Start tracing with ``tracer`` (already installed)."""
        self.tracer = tracer

    def finish(self) -> Tally:
        """End-of-run checks: invariants and round 0's reference."""
        return Tally()

    def gap_count(self) -> int:
        return 0


# --- fig11-sweep -------------------------------------------------------------


class Fig11Sweep(Workload):
    """``fig11_ber_cdf.run`` on a ``SerialExecutor`` with a journal.

    One round is one sweep of ``placements`` x ``carriers``, journaled
    over ``shards`` shards: the ``repro campaign fig11 --out`` path.
    """

    name = "fig11-sweep"
    unit = "placements"

    def setup(self) -> None:
        from repro.engine import ResultStore, SerialExecutor
        from repro.experiments import fig11_ber_cdf

        self.fig11 = fig11_ber_cdf
        self.ResultStore = ResultStore
        self.journal = self.workdir / "fig11-journal.jsonl"
        self.latencies = OpLog()
        workload = self

        class TimedSerialExecutor(SerialExecutor):
            """Times each shard, from asking for it to receiving it."""

            def run_shards(self, *args: Any, **kwargs: Any) -> Any:
                shards = super().run_shards(*args, **kwargs)
                while True:
                    start = time.perf_counter_ns()
                    result = next(shards, None)
                    if result is None:
                        return
                    workload.latencies.record(time.perf_counter_ns()
                                              - start)
                    yield result

        self.executor = TimedSerialExecutor()

    def trace(self, tracer: Any) -> None:
        super().trace(tracer)
        tracer.patch_function(
            "sim.trial", self.fig11.__name__, "placement_trial",
            make=lambda fn: tracer.with_op(
                tracer.wrap("sim.trial", fn),
                lambda rng, index, **kw: index))

    def run_round(self, index: int, deadline: float,
                  latencies: OpLog) -> Tally:
        sweep_seed = self.seed * 1_000_000 + index
        placements = self.sizes["placements"]
        self.journal.unlink(missing_ok=True)
        self.latencies = latencies
        tally = Tally(attempted=placements, units=placements)
        try:
            result = self.fig11.run(
                seed=sweep_seed, num_placements=placements,
                num_carriers=self.sizes["carriers"],
                executor=self.executor, num_shards=self.sizes["shards"],
                store=self.ResultStore(self.journal))
        except Exception as exc:  # a crash fails the whole sweep
            tally.failed = placements
            tally.problems.append(f"sweep {sweep_seed} raised {exc!r}")
            return tally
        if self.tracer is not None:
            lines = self.journal.read_bytes().splitlines(keepends=True)
            self.tracer.count("engine.store.bytes",
                              sum(len(line) for line in lines[1:]))
        with_otam = [float(b) for b in result.ber_with_otam]
        without = [float(b) for b in result.ber_without_otam]
        if len(with_otam) != placements or len(without) != placements:
            tally.failed = placements
            tally.problems.append(
                f"sweep {sweep_seed}: wrong placement count")
            return tally
        bad = {i for i, pair in enumerate(zip(with_otam, without))
               if not all(math.isfinite(b) and 1e-15 <= b <= 0.5
                          for b in pair)}
        if index == 0:
            self.round0 = {
                "log10_ber_with": [round(math.log10(b), 9)
                                   for b in with_otam],
                "log10_ber_without": [round(math.log10(b), 9)
                                      for b in without]}
            if self.reference is not None:
                for key in ("log10_ber_with", "log10_ber_without"):
                    for i, (got, want) in enumerate(
                            zip(self.round0[key], self.reference[key])):
                        if abs(got - want) > FIG11_LOG10_TOLERANCE:
                            bad.add(i)
                if bad:
                    tally.problems.append(
                        f"sweep {sweep_seed}: {len(bad)} placements off "
                        "the reference BERs")
        tally.failed = len(bad)
        return tally


# --- chaos-sweep -------------------------------------------------------------


class ChaosSweep(Workload):
    """``chaos.run_all`` on ``ProcessPool(jobs)`` with a live recorder.

    One round is ``sweeps_per_round`` sweeps over consecutive seeds; a
    unit is one scenario run, an op one whole sweep.
    """

    name = "chaos-sweep"
    unit = "scenario runs"

    def setup(self) -> None:
        from repro.engine import ProcessPool
        from repro.experiments import chaos
        from repro.faults import SCENARIOS
        from repro.telemetry import Recorder, TelemetrySnapshot

        self.chaos = chaos
        self.ProcessPool = ProcessPool
        self.Recorder = Recorder
        self.TelemetrySnapshot = TelemetrySnapshot
        self.names = sorted(SCENARIOS)
        self.round0 = []

    def trace(self, tracer: Any) -> None:
        super().trace(tracer)
        tracer.patch_function(
            "sim.trial", self.chaos.__name__, "scenario_trial",
            make=lambda fn: tracer.with_op(
                tracer.wrap("sim.trial", fn),
                lambda rng, index, **kw: (kw.get("seed"), index)))

    def _summary(self, outcome: Any) -> list[Any]:
        result = outcome.result
        return [outcome.scenario, result.adaptive_delivery_ratio,
                result.static_delivery_ratio, outcome.recovered,
                sorted(outcome.action_counts().items())]

    def run_round(self, index: int, deadline: float,
                  latencies: OpLog) -> Tally:
        tally = Tally()
        per_sweep = self.sizes["sweeps_per_round"]
        for sweep in range(per_sweep):
            if time.perf_counter() > deadline:
                tally.complete = False
                break
            sweep_seed = self.seed * 1_000_000 + index * per_sweep + sweep
            tally.attempted += len(self.names)
            tally.units += len(self.names)
            recorder = self.Recorder()
            start = time.perf_counter_ns()
            try:
                outcomes = self.chaos.run_all(
                    seed=sweep_seed, duration_s=self.sizes["duration_s"],
                    telemetry=recorder,
                    executor=self.ProcessPool(jobs=self.sizes["jobs"]))
            except Exception as exc:  # a crash fails the whole sweep
                tally.failed += len(self.names)
                tally.problems.append(f"sweep {sweep_seed} raised {exc!r}")
                continue
            latencies.record(time.perf_counter_ns() - start)
            tally.failed += self._check(sweep_seed, index, sweep, outcomes,
                                        recorder, tally)
        return tally

    def _check(self, sweep_seed: int, index: int, sweep: int,
               outcomes: list[Any], recorder: Any, tally: Tally) -> int:
        """Failed scenario runs of one sweep."""
        summaries = [self._summary(o) for o in outcomes]
        spans = [s for s in self.TelemetrySnapshot.capture(recorder)
                 .span_records() if s.name == "chaos.scenario"]
        if [s[0] for s in summaries] != self.names \
                or len(spans) != len(self.names):
            tally.problems.append(
                f"sweep {sweep_seed}: scenarios or telemetry spans do not "
                "match the registry")
            return len(self.names)
        failed = 0
        for summary in summaries:
            if not all(math.isfinite(r) and 0.0 <= r <= 1.0
                       for r in summary[1:3]):
                failed += 1
                tally.problems.append(
                    f"sweep {sweep_seed}: {summary[0]} delivery ratio out "
                    "of [0, 1]")
        if index == 0:
            # JSON form, so a reference read back compares equal.
            summaries = json.loads(json.dumps(summaries))
            self.round0.append(summaries)
            if self.reference is not None and sweep < len(self.reference):
                for got, want in zip(summaries, self.reference[sweep]):
                    if got != want:
                        failed += 1
                        tally.problems.append(
                            f"sweep {sweep_seed}: {got[0]} differs from "
                            "the reference")
        return failed


# --- admission ---------------------------------------------------------------


class _LiveSet:
    """Admitted node ids with O(1) add, remove and seeded random pick."""

    def __init__(self) -> None:
        self.ids: list[int] = []
        self.pos: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.ids)

    def add(self, node: int) -> None:
        self.pos[node] = len(self.ids)
        self.ids.append(node)

    def remove(self, node: int) -> None:
        i = self.pos.pop(node)
        last = self.ids.pop()
        if last != node:
            self.ids[i] = last
            self.pos[last] = i

    def pop_random(self, rng: random.Random) -> int:
        node = self.ids[rng.randrange(len(self.ids))]
        self.remove(node)
        return node


def _record(decision_or_op: Any) -> str:
    """One line of the decision log that round 0's digests cover."""
    if isinstance(decision_or_op, str):
        return decision_or_op
    d = decision_or_op
    plan = ("" if d.plan is None
            else f"{d.plan.center_hz!r}/{d.plan.bandwidth_hz!r}")
    sdm = ("" if d.sdm is None
           else f"{d.sdm.channel_index}/{d.sdm.harmonic_index}")
    return f"a{d.node_id}:{d.state}:{plan}:{sdm}"


class _Admission(Workload):
    """An ``AdmissionController`` over a dense band of unit channels.

    The band is ``1.25 * nodes + 100`` Hz of 1 Hz channels with a 25 %
    guard, the construction of ``benchmarks/test_admission_scaling.py``;
    set-up fills it with ``nodes`` FDM nodes.  Every node has a seeded
    bearing, so a full band escalates to the SDM rung before blocking.
    """

    unit = "controller calls"

    def setup(self) -> None:
        from repro.admission import AdmissionController
        from repro.network.fdm import FdmAllocator

        nodes = self.sizes["nodes"]
        self.rng = random.Random(self.seed)
        self.band_high = nodes * 1.25 + BAND_SLACK_HZ
        self.allocator = FdmAllocator(
            band_low_hz=0.0, band_high_hz=self.band_high,
            bandwidth_per_bps=1.0, guard_fraction=0.25, min_channel_hz=1e-9)
        self.ctl = AdmissionController(allocator=self.allocator)
        self.live = _LiveSet()
        self.state: dict[int, str] = {}
        self.bearing: dict[int, float] = {}
        """Bearings of admitted nodes and of victims awaiting re-admission."""
        self.next_id = 0
        self.log: list[Any] | None = None
        for _ in range(nodes):
            self._admit(self._new_node(), self.ctl.admit, OpLog(),
                        float("inf"))

    def _new_node(self) -> int:
        node = self.next_id
        self.next_id += 1
        self.bearing[node] = self.rng.uniform(-BEARING_SPAN_RAD,
                                              BEARING_SPAN_RAD)
        return node

    def _admit(self, node: int, admit: Any, latencies: OpLog,
               deadline: float) -> bool:
        """Admit ``node``; True once the deadline has passed."""
        start = time.perf_counter_ns()
        decision = admit(node, 1.0, bearing_rad=self.bearing[node])
        end = time.perf_counter_ns()
        latencies.record(end - start)
        if decision.state == "blocked":
            del self.bearing[node]
        else:
            self.live.add(node)
            self.state[node] = decision.state
        if self.log is not None:
            self.log.append(decision)
        return end * 1e-9 > deadline

    def _release(self, release: Any, latencies: OpLog,
                 deadline: float) -> bool:
        node = self.live.pop_random(self.rng)
        del self.state[node]
        del self.bearing[node]
        start = time.perf_counter_ns()
        release(node)
        end = time.perf_counter_ns()
        latencies.record(end - start)
        if self.log is not None:
            self.log.append(f"r{node}")
        return end * 1e-9 > deadline

    def _churn_pair(self, latencies: OpLog, deadline: float) -> bool:
        ctl = self.ctl
        return (self._release(ctl.release, latencies, deadline)
                or self._admit(self._new_node(), ctl.admit, latencies,
                               deadline))

    def trace(self, tracer: Any) -> None:
        """Tag the spans under each controller call with its op number."""
        super().trace(tracer)
        ops = iter(range(1 << 62))
        for name in ("admit", "release", "mark_interference",
                     "clear_interference"):
            tracer.replace(self.ctl, name, tracer.with_op(
                getattr(self.ctl, name), lambda *a, **k: next(ops)))

    def gap_count(self) -> int:
        book = getattr(self.allocator, "_book", None)
        return 0 if book is None else book.gap_count

    def _ops(self, index: int, deadline: float,
             latencies: OpLog) -> bool:
        """Run round ``index``; False when the deadline cut it short."""
        raise NotImplementedError

    def run_round(self, index: int, deadline: float,
                  latencies: OpLog) -> Tally:
        if index == 0:
            self.log = []
        before = len(latencies)
        tally = Tally()
        try:
            complete = self._ops(index, deadline, latencies)
        except Exception as exc:  # the controller's state is now suspect
            complete = False
            tally.problems.append(f"round {index} raised {exc!r}")
            tally.failed += 1
            tally.attempted += 1
        done = len(latencies) - before
        tally.attempted += done
        tally.units += done
        tally.complete = complete
        if index == 0:
            self.round0 = self._digests(self.log, complete)
            self.log = None
        return tally

    @staticmethod
    def _digests(log: list[Any], complete: bool) -> list[str]:
        """One digest per full chunk of the decision log, plus the
        trailing partial chunk when the round ran to completion."""
        out = []
        end = len(log) if complete else len(log) - DIGEST_CHUNK + 1
        for start in range(0, max(end, 0), DIGEST_CHUNK):
            text = "\n".join(_record(r) for r in
                             log[start:start + DIGEST_CHUNK])
            out.append(hashlib.blake2b(text.encode(),
                                       digest_size=8).hexdigest())
        return out

    def finish(self) -> Tally:
        """Invariants on the final state, and round 0's digests."""
        tally = Tally()
        plans = sorted(self.allocator.plans, key=lambda p: p.low_hz)
        if any(a.high_hz > b.low_hz for a, b in zip(plans, plans[1:])):
            tally.problems.append("FDM plans overlap")
        committed = sum(p.bandwidth_hz for p in plans)
        free = self.allocator.free_bandwidth_hz
        total = self.allocator.total_bandwidth_hz
        if not self.allocator.blocked_ranges and \
                abs(free + committed - total) > 1e-9 * total:
            tally.problems.append(
                f"free {free!r} + committed {committed!r} != total {total!r}")
        census = {"fdm": 0, "sdm": 0}
        for node, state in self.state.items():
            census[state] += 1
            if self.ctl.decision_for(node).state != state:
                tally.problems.append(f"node {node} is not {state}")
                break
        census["total"] = len(self.state)
        if self.ctl.counts() != census or len(plans) != census["fdm"]:
            tally.problems.append(
                f"census {self.ctl.counts()} != decisions {census}")
        tally.corrupt = bool(tally.problems)
        if self.reference is not None and self.round0:
            wrong = sum(got != want for got, want
                        in zip(self.round0, self.reference))
            if wrong:
                tally.failed = wrong * DIGEST_CHUNK
                tally.problems.append(
                    f"{wrong} decision digests differ from the reference")
        return tally


class AdmissionChurn(_Admission):
    """Overflow arrivals walk SDM then ``blocked``; then churn pairs."""

    name = "admission-churn"

    def _ops(self, index: int, deadline: float,
             latencies: OpLog) -> bool:
        admit = self.ctl.admit
        for _ in range(self.sizes["overflow"]):
            if self._admit(self._new_node(), admit, latencies, deadline):
                return False
        for _ in range(self.sizes["pairs"]):
            if self._churn_pair(latencies, deadline):
                return False
        return True


class AdmissionInterference(_Admission):
    """Interferer episodes over a full band.

    An episode blocks a random ``slice_hz`` slice (one batched
    re-admission pass), runs ``burst_pairs`` churn pairs while the slice
    stays blocked, clears the interference and re-admits the evicted
    victims, so the population stays stationary across rounds.
    """

    name = "admission-interference"

    def _ops(self, index: int, deadline: float,
             latencies: OpLog) -> bool:
        ctl = self.ctl
        width = self.sizes["slice_hz"]
        clock = time.perf_counter_ns
        for _ in range(self.sizes["episodes"]):
            if clock() * 1e-9 > deadline:
                return False
            low = self.rng.uniform(0.0, self.band_high - width)
            start = clock()
            report = ctl.mark_interference(low, low + width)
            latencies.record(clock() - start)
            self._check_mark(report, low, low + width)
            for node in report.spilled_to_sdm:
                self.state[node] = "sdm"
            for node in report.evicted:
                self.live.remove(node)
                del self.state[node]
            if self.log is not None:
                self.log.append(
                    f"m{low!r}:{report.victims}:{report.moved}:"
                    f"{report.spilled_to_sdm}:{report.evicted}")
            for _ in range(self.sizes["burst_pairs"]):
                self._churn_pair(latencies, float("inf"))
            start = clock()
            ctl.clear_interference()
            latencies.record(clock() - start)
            if self.log is not None:
                self.log.append("c")
            for node in report.evicted:
                self._admit(node, ctl.admit, latencies, float("inf"))
        return True

    def _check_mark(self, report: Any, low: float, high: float) -> None:
        outcome = set(report.moved) | set(report.spilled_to_sdm) \
            | set(report.evicted)
        if outcome != set(report.victims) \
                or self.allocator.plans_overlapping(low, high):
            raise AssertionError(
                f"interference pass on [{low!r}, {high!r}] left a node on "
                "blocked spectrum or lost a victim")


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Fig11Sweep, ChaosSweep, AdmissionChurn,
                              AdmissionInterference)}
