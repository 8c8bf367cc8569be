"""Telemetry overhead gate: recording must be cheap, null must be free.

The instrumentation contract (docs/observability.md) is that the
default :class:`~repro.telemetry.NullRecorder` costs essentially
nothing — hot loops guard whole blocks behind ``telemetry.enabled`` —
and that a live :class:`~repro.telemetry.Recorder` stays under 5%
end-to-end on a realistic chaos workload.  Wall-clock timing is
inherently noisy, and a slow spell of the host can last longer than a
whole block of runs.  So the three configurations are interleaved
inside each repeat, in an order that rotates from repeat to repeat,
and the gates judge the median of the per-repeat time ratios: drift
hits both sides of each ratio alike, and a single disturbed run moves
the median little.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.core.link import OtamLink
from repro.faults import scenario_injector
from repro.resilience import ChaosSimulation
from repro.sim.environment import default_lab_room
from repro.sim.geometry import Point, angle_of
from repro.sim.placement import Placement
from repro.telemetry import NullRecorder, Recorder

from conftest import record

REPEATS = 101
DURATION_S = 20.0
TIME_STEP_S = 0.05
NULL_OVERHEAD_LIMIT = 0.03
"""NullRecorder must be within timing noise of the uninstrumented path."""

RECORDING_OVERHEAD_LIMIT = 0.05
"""The ISSUE gate: a live Recorder costs < 5% on the chaos workload."""


def _chaos_sim(telemetry) -> ChaosSimulation:
    """The benchmark workload: the kitchen-sink scenario, mid-room."""
    room = default_lab_room()
    ap = Point(room.width_m / 2.0, 0.15)
    node = Point(room.width_m / 2.0, 4.15)
    placement = Placement(node, angle_of(node, ap), ap, math.pi / 2)
    link = OtamLink(placement=placement, room=room)
    injector = scenario_injector("kitchen-sink", master_seed=0)
    return ChaosSimulation(link, injector, time_step_s=TIME_STEP_S,
                           telemetry=telemetry)


def _overhead_ratios(sims) -> np.ndarray:
    """Per-repeat wall-time ratios of each sim to ``sims[0]``.

    Returns a ``(REPEATS, len(sims))`` array; column 0 is all ones.
    """
    for sim in sims:
        sim.run(DURATION_S)  # warm-up: JIT nothing, but fill caches
    seconds = np.empty((REPEATS, len(sims)))
    for repeat in range(REPEATS):
        for k in range(len(sims)):
            index = (repeat + k) % len(sims)
            start = time.perf_counter()
            sims[index].run(DURATION_S)
            seconds[repeat, index] = time.perf_counter() - start
    return seconds / seconds[:, :1]


def _summary(label: str, ratios: np.ndarray, limit: float) -> str:
    """One report line: median overhead, its quartiles, and the gate."""
    q1, median, q3 = np.percentile(ratios - 1.0, [25, 50, 75])
    return (f"  {label} : median {median:+.1%}, IQR [{q1:+.1%}, {q3:+.1%}]"
            f"  (gate < {limit:.0%})")


def test_telemetry_overhead_gates():
    recorder = Recorder()
    sims = [_chaos_sim(None), _chaos_sim(NullRecorder()),
            _chaos_sim(recorder)]
    ratios = _overhead_ratios(sims)
    null_overhead = float(np.median(ratios[:, 1])) - 1.0
    recording_overhead = float(np.median(ratios[:, 2])) - 1.0

    steps = int(round(DURATION_S / TIME_STEP_S))
    text = "\n".join([
        f"chaos workload: kitchen-sink, {DURATION_S:.0f} s simulated, "
        f"{steps} steps, {REPEATS} repeats",
        "  each repeat runs all three configurations in rotating order;",
        "  overhead = time / baseline (telemetry=None) time, per repeat",
        _summary("NullRecorder             ", ratios[:, 1],
                 NULL_OVERHEAD_LIMIT),
        _summary("Recorder (full recording)", ratios[:, 2],
                 RECORDING_OVERHEAD_LIMIT),
    ])
    record("telemetry_overhead", text)

    assert null_overhead < NULL_OVERHEAD_LIMIT, (
        f"NullRecorder median overhead {null_overhead:.1%} exceeds "
        f"{NULL_OVERHEAD_LIMIT:.0%} — the enabled-guard contract broke")
    assert recording_overhead < RECORDING_OVERHEAD_LIMIT, (
        f"Recorder median overhead {recording_overhead:.1%} exceeds "
        f"{RECORDING_OVERHEAD_LIMIT:.0%}")

    # The recording run must actually have recorded — an accidentally
    # disabled recorder would pass the gates vacuously.
    assert recorder.metrics.counter("chaos.steps").value \
        == float(steps * (1 + REPEATS))


def test_recording_throughput_sane():
    """Raw verb cost: a Recorder sustains >1e5 counter bumps/second.

    Not a comparative gate — a floor so a pathological regression (say,
    re-validating the metric name on every increment) fails loudly.
    """
    recorder = Recorder()
    n = 100_000
    rng = np.random.default_rng(0)
    values = rng.random(n)
    start = time.perf_counter()
    for value in values:
        recorder.count("bench.counter", 1.0)
        recorder.observe("bench.latency_s", float(value))
    elapsed = time.perf_counter() - start
    rate = 2 * n / elapsed
    assert rate > 1e5, f"telemetry verbs at {rate:.0f}/s are too slow"
