"""The repository benchmark: one workload, one seed, one JSON result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig11-sweep --seed 0 \
        --seconds 18 --trace 0

Workloads, metrics and the layer-to-metric predictions are described
in ``BENCHMARK.json``.  The run:

* starts ``worker.py`` in ``PROCESSES`` fresh interpreters, one after
  another, under ``-X importtime``; each is timed from launch to its
  ``READY`` line (``import repro`` plus building the workload's
  inputs), and ``setup_s`` is the median;
* with ``--trace 0`` gives each process an equal share of ``--seconds``
  for the timed phase and reports the end-to-end metrics over all of
  them, so one process's luck with the host does not set the result;
* with ``--trace 1`` runs the timed phase in the last process only,
  after a separate traced round (see ``tracer.py``), and reports the
  per-layer metrics, including the ``setup.*`` import-time breakdown;
* prints a summary, then as its last line one JSON object with keys
  ``correct``, ``attempted``, ``failed`` and ``metrics``.

Everything it writes goes under ``.perfbench/`` in the checkout.  It
exits with status 2, printing no result, outside a checkout that holds
``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402  (stdlib only; no repro)

PROCESSES = 3
CHILD_TIMEOUT_S = 150.0
"""Wall-clock cap for one worker; the whole run must end within 180 s."""

WORKER_ENV = {**os.environ, "PYTHONHASHSEED": "0"}
"""Fixed string hashing, so set and dict layouts repeat across runs."""

IMPORTS = {
    "setup.import_repro_s": "repro",
    "setup.import_repro_phy_s": "repro.phy",
    "setup.import_scipy_signal_s": "scipy.signal",
    "setup.import_scipy_special_s": "scipy.special",
}
"""Per-layer set-up metrics and the module whose first import each
times."""

END_TO_END_UNITS = {"setup_s": "s", "throughput_per_ref_s": "1/ref_s",
                    "peak_rss_mb": "MB", "ok_share": "share",
                    "op_p50_ref_us": "ref_us", "op_p99_ref_us": "ref_us"}


def import_seconds(log: str, module: str) -> float:
    """Seconds spent importing ``module`` and its submodules, from an
    ``-X importtime`` log.

    The log is a post-order tree, two spaces of indent per level.  The
    cost of ``module`` is the cumulative time of every maximal subtree
    rooted at ``module`` or one of its submodules, so a package whose own
    line is missing (scipy's lazily loaded subpackages) still counts.
    """
    entries = []
    for line in log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, int(cumulative), name.strip()))
    total_us = 0
    # Walk backwards: each line's parent is the nearest later line of
    # smaller depth, which a reversed walk has already seen.
    stack: list[tuple[int, bool]] = []
    for depth, cumulative, name in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        matches = name == module or name.startswith(module + ".")
        if matches and not inside:
            total_us += cumulative
        stack.append((depth, matches or inside))
    return total_us / 1e6


def _read_until_exit(proc: subprocess.Popen, deadline: float
                     ) -> tuple[float | None, bytes]:
    """Drain the worker's stdout; returns when READY arrived and the
    output.  Kills the worker at ``deadline``."""
    ready_at = None
    out = b""
    fd = proc.stdout.fileno()
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            proc.kill()
            proc.wait()
            raise TimeoutError("benchmark worker overran its time cap")
        readable, _, _ = select.select([fd], [], [], remaining)
        if not readable:
            continue
        chunk = os.read(fd, 65536)
        if ready_at is None and b"READY\n" in out + chunk:
            ready_at = time.perf_counter()
        if not chunk:
            proc.wait()
            return ready_at, out
        out += chunk


def run_worker(args: argparse.Namespace, workdir: Path, sample: int,
               seconds: float | None, trace: int, deadline: float
               ) -> tuple[float, str]:
    """One fresh worker process; returns its set-up seconds and its
    ``-X importtime`` log.  ``seconds=None`` stops it after set-up."""
    log_path = workdir / f"stderr-{sample}.log"
    cmd = [sys.executable, "-X", "importtime", str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds or 0.0), "--trace", str(trace),
           "--workdir", str(workdir),
           "--out", str(workdir / f"result-{sample}.json")]
    if args.small:
        cmd.append("--small")
    if seconds is None:
        cmd.append("--setup-only")
    with open(log_path, "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=stderr, stdin=subprocess.DEVNULL,
                                env=WORKER_ENV)
        try:
            ready_at, _ = _read_until_exit(proc, deadline)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    log = log_path.read_text(errors="replace")
    if proc.returncode != 0 or ready_at is None:
        tail = "\n".join(line for line in log.splitlines()
                         if not line.startswith("import time:"))[-2000:]
        raise RuntimeError(f"benchmark worker failed "
                           f"(exit {proc.returncode}):\n{tail}")
    return ready_at - start, log


def merge(paths: list[Path]) -> dict:
    """Pool the timed phases of several worker processes.

    Throughput and the op-latency percentiles are medians over the
    rounds that ran to completion, so a burst of host noise during a
    few rounds, or in one process, does not move them.  They are
    reported in reference seconds (see ``workloads.OpLog``) and, for
    the summary, in wall seconds.
    """
    parts = [json.loads(path.read_text()) for path in paths]
    result = dict(parts[-1])
    for key in ("attempted", "failed", "timed_s", "timed_units"):
        result[key] = sum(part[key] for part in parts)
    rounds = [r for part in parts for r in part["rounds"]]
    whole = [r for r in rounds if r["complete"]] or rounds
    result["rounds"] = len(rounds)
    result["complete_rounds"] = len(whole)
    result["problems"] = [p for part in parts for p in part["problems"]]
    result["peak_rss_mb"] = max(part["peak_rss_mb"] for part in parts)
    result["op_samples"] = sum(r["ops"] for r in rounds)
    result["processes"] = len(parts)
    result["throughput_per_ref_s"] = statistics.median(
        r["units"] / r["ref_s"] for r in whole)
    result["op_p50_ref_us"] = statistics.median(r["p50_us"] for r in whole)
    result["op_p99_ref_us"] = statistics.median(r["p99_us"] for r in whole)
    result["wall"] = {
        "throughput_per_s": statistics.median(
            r["units"] / r["wall_s"] for r in whole),
        "op_p50_us": statistics.median(r["raw_p50_us"] for r in whole),
        "op_p99_us": statistics.median(r["raw_p99_us"] for r in whole),
        "host_speed": statistics.median(
            r["ref_s"] / r["wall_s"] for r in whole)}
    return result


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--small", action="store_true",
                        help="tiny round sizes, for the smoke test")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from the root "
              "of a repro checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    workdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        samples = []
        for i in range(PROCESSES):
            last = i == PROCESSES - 1
            if args.trace:
                seconds = args.seconds if last else None
            else:
                seconds = args.seconds / PROCESSES
            samples.append(run_worker(args, workdir, i, seconds,
                                      args.trace if last else 0, deadline))
        timed = [PROCESSES - 1] if args.trace else range(PROCESSES)
        result = merge([workdir / f"result-{i}.json" for i in timed])
        spans = workdir / (f"spans-{args.workload}-seed{args.seed}"
                           ".jsonl.gz")
        if spans.exists():
            spans.replace(ROOT / ".perfbench" / spans.name)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup_s = statistics.median(s for s, _ in samples)
    if args.trace:
        layers = result["layers"]
        for name, module in IMPORTS.items():
            layers[name] = statistics.median(
                import_seconds(log, module) for _, log in samples)
        metrics = {name: metric(value, _layer_unit(name))
                   for name, value in sorted(layers.items())}
    else:
        values = {
            "setup_s": setup_s,
            "throughput_per_ref_s": result["throughput_per_ref_s"],
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_share": 1.0 - result["failed"] / result["attempted"],
            "op_p50_ref_us": result["op_p50_ref_us"],
            "op_p99_ref_us": result["op_p99_ref_us"],
        }
        metrics = {name: metric(value, END_TO_END_UNITS[name])
                   for name, value in values.items()}
    result["setup_samples_s"] = [s for s, _ in samples]
    result["metrics"] = metrics
    (ROOT / ".perfbench" / f"result-{args.workload}-seed{args.seed}"
     f"-trace{args.trace}.json").write_text(json.dumps(result, indent=1))

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{result['timed_units']} {result['unit']} in "
          f"{result['timed_s']:.2f} s over {result['rounds']} rounds "
          f"({result['complete_rounds']} complete) in "
          f"{result['processes']} processes; "
          f"{result['op_samples']} op samples; "
          f"failed {result['failed']}/{result['attempted']}")
    for problem in result["problems"]:
        print(f"# problem: {problem}")
    print("# provenance: " + json.dumps(result["provenance"]))
    print("# wall-clock medians (host speed = reference s per wall s): "
          + json.dumps(result["wall"]))
    for name, entry in metrics.items():
        print(f"#   {name} = {entry['value']:.6g} {entry['unit']}")
    correct = result["failed"] == 0 and not result["problems"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_share"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("paths_per_call"):
        return "paths/call"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
