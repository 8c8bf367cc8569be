"""One benchmark process: set up a workload, then run its timed phase.

``run.py`` starts this file in a fresh interpreter under
``-X importtime`` and times it from launch to the ``READY`` line it
prints once set-up is done (``import repro`` plus building the
workload's inputs).  With ``--setup-only`` it exits there; otherwise it
runs the timed phase and writes its result, with per-round throughput
and op-latency percentiles, as JSON to ``--out``.

Untraced, the timed phase runs rounds until ``--seconds`` have passed,
each timed against the host's speed by a ``workloads.OpLog``.
Traced, round 0 runs under the span tracer first, then untraced rounds
fill ``--seconds`` and give the baseline for the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))


def _percentile_us(sorted_ns: list[float], q: float) -> float:
    """Nearest-rank percentile of sorted nanosecond samples, in µs."""
    if not sorted_ns:
        return 0.0
    rank = max(1, min(len(sorted_ns), -(-len(sorted_ns) * q // 100)))
    return sorted_ns[int(rank) - 1] / 1e3


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of a git checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.is_file():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def provenance(seed: int, sizes: dict) -> dict:
    """What a later run needs to be compared like-for-like."""
    import numpy
    import scipy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count() or 1
    return {"nproc": affinity, "cpu_count": os.cpu_count(),
            "cpu_model": _cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_commit": _git_commit(), "seed": seed, "sizes": sizes}


def _peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest reaped child, MB."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    import repro  # noqa: F401  (set-up covers importing the package)

    from workloads import SIZES, SMALL_SIZES, WORKLOADS, OpLog, Tally

    sizes = (SMALL_SIZES if args.small else SIZES)[args.workload]
    workload = WORKLOADS[args.workload](args.seed, sizes, args.workdir)
    workload.setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tally = Tally()
    layers: dict[str, float] = {}
    if args.trace:
        from tracer import Tracer, layer_metrics

        span_dir = args.workdir / "spans"
        span_dir.mkdir(exist_ok=True)
        tracer = Tracer(span_dir)
        tracer.install()
        workload.trace(tracer)
        start = time.perf_counter()
        traced = workload.run_round(0, float("inf"), OpLog())
        traced_s = time.perf_counter() - start
        tracer.uninstall()
        workload.tracer = None
        workers = tracer.collect()
        tally.add(traced)
        layers = layer_metrics(tracer, workload.gap_count())
        layers["trace.units"] = traced.units
        layers["trace.worker_span_files"] = workers
        tracer.write(args.workdir / f"spans-{args.workload}"
                     f"-seed{args.seed}.jsonl.gz")
        first_round = 1
    else:
        first_round = 0

    deadline = time.perf_counter() + args.seconds
    index = first_round
    timed = Tally()
    rounds = []
    peak_rss_mb = None
    while time.perf_counter() < deadline:
        latencies = OpLog(calibrate=True)
        latencies.start()
        done = workload.run_round(index, deadline, latencies)
        latencies.finish()
        raw = sorted(latencies.raw_ns)
        ref = sorted(latencies.ref_ns)
        rounds.append({"units": done.units, "wall_s": latencies.wall_s,
                       "ref_s": latencies.ref_s,
                       "complete": done.complete, "ops": len(ref),
                       "p50_us": _percentile_us(ref, 50),
                       "p99_us": _percentile_us(ref, 99),
                       "raw_p50_us": _percentile_us(raw, 50),
                       "raw_p99_us": _percentile_us(raw, 99)})
        timed.add(done)
        index += 1
        if peak_rss_mb is None:
            # After a fixed amount of work: how many rounds fit in the
            # timed phase depends on the host's speed, and the program's
            # memory can grow with the work done.
            peak_rss_mb = _peak_rss_mb()
    elapsed = sum(r["wall_s"] for r in rounds)
    tally.add(timed)
    tally.add(workload.finish())
    failed = tally.attempted if tally.corrupt else min(tally.failed,
                                                       tally.attempted)
    result = {
        "workload": args.workload, "unit": workload.unit,
        "provenance": provenance(args.seed, sizes),
        "attempted": tally.attempted, "failed": failed,
        "problems": tally.problems[:20],
        "timed_s": elapsed, "timed_units": timed.units,
        "rounds": rounds,
        "peak_rss_mb": peak_rss_mb or _peak_rss_mb(),
    }
    if args.trace:
        untraced_s = traced.units * elapsed / timed.units
        layers["trace.overhead_s"] = traced_s - untraced_s
        layers["trace.overhead_share"] = traced_s / untraced_s - 1.0
        result["layers"] = layers
    args.out.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
