"""Wall-clock spans around the public functions of each ``repro`` layer.

The benchmark measures the program from outside: :func:`install` swaps
each traced function for a wrapper, under every name a caller can look
it up by (``repro.channel.multipath.trace_paths`` as well as
``repro.channel.raytrace.trace_paths``), and :func:`uninstall` puts the
originals back.  No file under ``src/`` knows it is being traced.

Each span records its name, start, end, parent span and the id of the
trial or operation it belongs to; spans are kept in memory and written
out once, when the traced round ends.  A span's self time is its
duration minus the time its child spans cover.

Pool workers are forked, so they inherit the wrappers.  The worker entry
point (``repro.engine.pool._execute_shard``) is wrapped to drop the
spans inherited from the parent and to dump the worker's own spans to a
per-shard file under the run's span directory, which :func:`collect`
merges back into the driver's record.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import pickle
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

# (span name, module, class or None, attribute).  The span name is the
# layer metric prefix reported by :func:`layer_metrics`.
TARGETS: tuple[tuple[str, str, str | None, str], ...] = (
    ("channel.trace_paths", "repro.channel.raytrace", None, "trace_paths"),
    ("channel.two_beam_gains", "repro.channel.multipath", None,
     "two_beam_gains"),
    ("antenna.measured_mmx_beams", "repro.antenna.orthogonal", None,
     "measured_mmx_beams"),
    ("antenna.field", "repro.antenna.orthogonal", "OrthogonalBeamPair",
     "field"),
    ("antenna.field", "repro.antenna.element", "DipoleElement", "field"),
    ("core.snr_breakdown", "repro.core.link", "OtamLink", "snr_breakdown"),
    ("core.perturb_breakdown", "repro.core.link", None, "perturb_breakdown"),
    ("core.frame_success_probability", "repro.core.throughput", None,
     "frame_success_probability"),
    ("phy.ber_table", "repro.phy.ber", None, "ber_ask_table"),
    ("phy.default_preamble_bits", "repro.phy.preamble", None,
     "default_preamble_bits"),
    ("sim.placement_sample", "repro.sim.placement", "PlacementSampler",
     "sample"),
    ("sim.default_lab_room", "repro.sim.environment", None,
     "default_lab_room"),
    ("faults.disturbance_at", "repro.faults.injector", "FaultSchedule",
     "disturbance_at"),
    ("resilience.supervisor_step", "repro.resilience.supervisor",
     "LinkSupervisor", "step"),
    ("resilience.health_observe", "repro.resilience.health",
     "LinkHealthMonitor", "observe"),
    ("telemetry.record", "repro.telemetry.recorder", "Recorder", "count"),
    ("telemetry.record", "repro.telemetry.recorder", "Recorder", "gauge"),
    ("telemetry.record", "repro.telemetry.recorder", "Recorder", "observe"),
    ("telemetry.record", "repro.telemetry.recorder", "Recorder", "event"),
    ("telemetry.record", "repro.telemetry.recorder", "Recorder", "begin"),
    ("telemetry.record", "repro.telemetry.recorder", "Recorder", "span"),
    ("telemetry.absorb", "repro.telemetry.recorder", "Recorder", "absorb"),
    ("engine.shard", "repro.engine.shard", None, "run_shard"),
    ("engine.pool.wait", "repro.engine.pool", None, "wait"),
    ("engine.merge", "repro.engine.campaign", "Campaign", "_merge"),
    ("engine.store.record_shard", "repro.engine.store", "ResultStore",
     "record_shard"),
    ("admission.admit", "repro.admission.controller",
     "AdmissionController", "admit"),
    ("admission.release", "repro.admission.controller",
     "AdmissionController", "release"),
    ("admission.mark_interference", "repro.admission.controller",
     "AdmissionController", "mark_interference"),
    ("admission.clear_interference", "repro.admission.controller",
     "AdmissionController", "clear_interference"),
    ("admission.sdm.admit", "repro.admission.sdm", "SdmPacker", "admit"),
    ("admission.book.place", "repro.admission.book", "SpectrumBook",
     "place"),
    ("admission.book.commit", "repro.admission.book", "SpectrumBook",
     "commit"),
    ("admission.book.release", "repro.admission.book", "SpectrumBook",
     "release"),
    ("admission.book.block", "repro.admission.book", "SpectrumBook",
     "block"),
    ("admission.book.clear_blocks", "repro.admission.book", "SpectrumBook",
     "clear_blocks"),
    ("network.fdm.allocate", "repro.network.fdm", "FdmAllocator",
     "allocate"),
    ("network.fdm.release", "repro.network.fdm", "FdmAllocator", "release"),
)


def _point_key(point: Any) -> tuple[float, float]:
    return (float(point.x), float(point.y))


def _on_trace_paths(tracer: Tracer, args: tuple, kwargs: dict,
                    result: Any) -> None:
    tracer.count("channel.paths", len(result))
    bounces = kwargs.get("max_bounces", args[3] if len(args) > 3 else 1)
    tracer.sets["channel.placements"].add(
        (_point_key(args[0]), _point_key(args[1]), bounces))


def _on_beams(tracer: Tracer, args: tuple, kwargs: dict,
              result: Any) -> None:
    tracer.sets["antenna.beam_pairs"].add(
        (args, tuple(sorted(kwargs.items()))))


def _on_admit(tracer: Tracer, args: tuple, kwargs: dict,
              result: Any) -> None:
    tracer.count(f"admission.outcome.{result.state}")


def _on_mark(tracer: Tracer, args: tuple, kwargs: dict,
             result: Any) -> None:
    tracer.count("admission.mark_interference.victims", len(result.victims))
    tracer.count("admission.outcome.evicted", len(result.evicted))


def _on_shard(tracer: Tracer, args: tuple, kwargs: dict,
              result: Any) -> None:
    tracer.count("engine.shard_result_bytes", len(pickle.dumps(result)))


HOOKS: dict[str, Callable[[Tracer, tuple, dict, Any], None]] = {
    "channel.trace_paths": _on_trace_paths,
    "antenna.measured_mmx_beams": _on_beams,
    "admission.admit": _on_admit,
    "admission.mark_interference": _on_mark,
    "engine.shard": _on_shard,
}
"""Per-span result hooks: counts and distinct keys measured where the
work happens.  A hook runs after its span has closed, so its own cost
is tracing overhead, not layer time."""


_MISSING = object()


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, span_dir: Path) -> None:
        self.span_dir = span_dir
        self.spans: list[tuple] = []
        """``(id, parent id, name, start ns, end ns, self ns, op id, pid)``."""
        self.counters: dict[str, float] = defaultdict(float)
        self.sets: dict[str, set] = defaultdict(set)
        self.op: Any = None
        """Id of the trial or operation the next spans belong to."""
        self._stack: list[list[int]] = []
        self._next_id = 0
        self._saved: list[tuple[Any, str, Any]] = []

    # --- recording --------------------------------------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] += amount

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` inside a span called ``name``."""
        hook = HOOKS.get(name)
        clock = time.perf_counter_ns
        spans = self.spans
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                if parent is not None:
                    parent[1] += took
                spans.append((span_id, parent[0] if parent else None, name,
                              start, end, took - frame[1], tracer.op,
                              os.getpid()))
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def with_op(self, fn: Callable, op_of: Callable[..., Any]) -> Callable:
        """``fn``, tagging every span under it with the op id
        ``op_of(*args, **kwargs)``."""
        tracer = self

        @functools.wraps(fn)
        def tagged(*args: Any, **kwargs: Any) -> Any:
            tracer.op = op_of(*args, **kwargs)
            return fn(*args, **kwargs)

        return tagged

    # --- installing the wrappers ------------------------------------------

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` until :meth:`uninstall`, which restores
        the old value or, if ``owner`` had none of its own, deletes it."""
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def patch_function(self, name: str, module: str, attr: str,
                       make: Callable[[Callable], Callable] | None = None
                       ) -> None:
        """Wrap a module-level function under every ``repro`` name
        bound to it, so callers that imported it by name see the
        wrapper too."""
        original = getattr(sys.modules[module], attr)
        wrapper = (make or functools.partial(self.wrap, name))(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.replace(mod, key, wrapper)

    def install(self) -> None:
        """Wrap every target, the pool's executor and its worker entry."""
        import concurrent.futures

        import repro.engine.pool as pool

        for name, module, cls, attr in TARGETS:
            if cls is None:
                self.patch_function(name, module, attr)
            else:
                klass = getattr(sys.modules[module], cls)
                self.replace(klass, attr,
                              self.wrap(name, vars(klass)[attr]))
        tracer = self

        class TracedProcessPoolExecutor(
                concurrent.futures.ProcessPoolExecutor):
            """Times ``submit``, where a fork-context pool starts its
            workers."""

            submit = tracer.wrap(
                "engine.pool.start",
                concurrent.futures.ProcessPoolExecutor.submit)

        self.replace(pool, "ProcessPoolExecutor", TracedProcessPoolExecutor)
        self.patch_function("engine.worker", "repro.engine.pool",
                            "_execute_shard", make=self._worker_entry)

    def uninstall(self) -> None:
        """Restore every name :meth:`install` replaced."""
        while self._saved:
            owner, attr, value = self._saved.pop()
            if value is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)

    def _worker_entry(self, original: Callable) -> Callable:
        """Wrap the pool worker entry point to ship spans home."""
        traced = self.wrap("engine.worker", original)
        tracer = self

        @functools.wraps(original)
        def entry(trial_fn: Any, shard: Any, *args: Any, **kwargs: Any
                  ) -> Any:
            tracer.reset()
            try:
                return traced(trial_fn, shard, *args, **kwargs)
            finally:
                tracer.dump(tracer.span_dir / (
                    f"worker-{os.getpid()}-{shard.shard_id}"
                    f"-{time.perf_counter_ns()}.pkl"))
                tracer.reset()

        return entry

    # --- moving spans between processes -----------------------------------

    def reset(self) -> None:
        """Forget every span and count (a forked worker's inheritance)."""
        self.spans.clear()
        self.counters.clear()
        self.sets.clear()
        self._stack.clear()
        self.op = None

    def dump(self, path: Path) -> None:
        with open(path, "wb") as handle:
            pickle.dump({"spans": self.spans, "counters": dict(self.counters),
                         "sets": dict(self.sets)}, handle)

    def collect(self) -> int:
        """Merge the worker span files into this tracer; returns how
        many were read."""
        files = sorted(self.span_dir.glob("worker-*.pkl"))
        for path in files:
            with open(path, "rb") as handle:
                state = pickle.load(handle)
            self.spans.extend(state["spans"])
            for key, value in state["counters"].items():
                self.counters[key] += value
            for key, values in state["sets"].items():
                self.sets[key].update(values)
            path.unlink()
        return len(files)

    def write(self, path: Path) -> None:
        """All spans as gzipped JSON lines (one span per line)."""
        fields = ("id", "parent", "name", "start_ns", "end_ns", "self_ns",
                  "op", "pid")
        with gzip.open(path, "wt", compresslevel=1) as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(fields, span)),
                                        default=str) + "\n")


def layer_metrics(tracer: Tracer, gap_count: int) -> dict[str, float]:
    """The per-layer metrics (see ``BENCHMARK.json``) from a traced
    round's spans and counts."""
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    for span in tracer.spans:
        calls[span[2]] += 1
        self_ns[span[2]] += span[5]

    def s(name: str) -> float:
        return self_ns[name] / 1e9

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for name in ("channel.trace_paths", "channel.two_beam_gains",
                 "antenna.measured_mmx_beams", "antenna.field",
                 "core.snr_breakdown", "core.perturb_breakdown",
                 "core.frame_success_probability", "phy.ber_table",
                 "sim.placement_sample", "sim.default_lab_room",
                 "faults.disturbance_at", "resilience.supervisor_step",
                 "engine.store.record_shard", "admission.admit",
                 "admission.release", "admission.sdm.admit",
                 "admission.book.place", "admission.book.commit",
                 "admission.book.release",
                 "admission.mark_interference",
                 "admission.clear_interference", "admission.book.block",
                 "admission.book.clear_blocks"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = s(name)
    counters = tracer.counters
    out["channel.trace_paths.paths_per_call"] = ratio(
        counters["channel.paths"], calls["channel.trace_paths"])
    out["channel.trace_reuse_ratio"] = ratio(
        len(tracer.sets["channel.placements"]), calls["channel.trace_paths"])
    out["antenna.beam_reuse_ratio"] = ratio(
        len(tracer.sets["antenna.beam_pairs"]),
        calls["antenna.measured_mmx_beams"])
    out["phy.default_preamble_bits.calls"] = calls["phy.default_preamble_bits"]
    out["resilience.health_observe.calls"] = calls["resilience.health_observe"]
    out["telemetry.records"] = calls["telemetry.record"]
    out["telemetry.self_s"] = s("telemetry.record")
    out["telemetry.absorb_s"] = s("telemetry.absorb")
    out["engine.pool.start_s"] = s("engine.pool.start")
    out["engine.pool.wait_s"] = s("engine.pool.wait")
    out["engine.shard_result_bytes"] = counters["engine.shard_result_bytes"]
    out["engine.merge_s"] = s("engine.merge")
    out["engine.store.record_shard.bytes"] = counters["engine.store.bytes"]
    for state in ("fdm", "sdm", "blocked", "evicted"):
        out[f"admission.outcome.{state}"] = counters[
            f"admission.outcome.{state}"]
    out["admission.admitted_ratio"] = ratio(
        counters["admission.outcome.fdm"] + counters["admission.outcome.sdm"],
        calls["admission.admit"])
    out["admission.book.gap_count"] = gap_count
    out["admission.mark_interference.victims"] = counters[
        "admission.mark_interference.victims"]
    out["network.fdm.allocate.self_s"] = s("network.fdm.allocate")
    out["network.fdm.release.self_s"] = s("network.fdm.release")
    out["trace.spans"] = len(tracer.spans)
    return out
