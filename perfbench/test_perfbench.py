"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
Every workload runs untraced and traced; each run must pass its output
checks and emit exactly the metrics ``BENCHMARK.json`` names, with
their units.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from workloads import SMALL_SIZES, WORKLOADS, OpLog  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT
         ) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_emits_every_metric_and_passes_checks(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        value = result["metrics"][m["name"]]["value"]
        assert isinstance(value, (int, float))
        if not trace:
            assert value > 0, m["name"]
    if trace and workload == "chaos-sweep":
        # Pool workers are traced too: their spans reach the output.
        metrics = result["metrics"]
        assert metrics["trace.worker_span_files"]["value"] > 0
        assert metrics["core.perturb_breakdown.calls"]["value"] > 0


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("fig11-sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_admission_invariants_catch_a_corrupt_census(tmp_path):
    workload = WORKLOADS["admission-churn"](
        3, SMALL_SIZES["admission-churn"], tmp_path)
    workload.setup()
    tally = workload.run_round(0, float("inf"), OpLog())
    assert tally.failed == 0 and not workload.finish().problems
    node = next(iter(workload.state))
    workload.state[node] = "sdm"
    assert workload.finish().corrupt


def test_fig11_reference_mismatch_fails_placements(tmp_path):
    workload = WORKLOADS["fig11-sweep"](3, SMALL_SIZES["fig11-sweep"],
                                        tmp_path)
    workload.setup()
    honest = workload.run_round(0, float("inf"), OpLog())
    assert honest.failed == 0
    shifted = {key: [v + 1e-3 for v in values]
               for key, values in workload.round0.items()}
    workload.reference = shifted
    tally = workload.run_round(0, float("inf"), OpLog())
    assert tally.failed == SMALL_SIZES["fig11-sweep"]["placements"]


def test_op_log_scales_time_and_latencies_by_the_host_speed():
    log = OpLog(calibrate=True)
    log.start()
    for ns in (1000, 3000, 2000):
        log.record(ns)
    log.finish()
    assert len(log.loops_s) >= 2 and log.wall_s > 0
    scale = workloads.REFERENCE_LOOP_S / statistics.median(log.loops_s)
    assert log.ref_s == pytest.approx(log.wall_s * scale)
    assert log.ref_ns == pytest.approx([1000 * scale, 3000 * scale,
                                        2000 * scale])
    raw = OpLog()
    raw.start()
    raw.record(1000)
    raw.finish()
    assert raw.loops_s == [] and raw.ref_ns == [1000]
    assert raw.ref_s == raw.wall_s


def test_import_seconds_counts_lazily_loaded_subpackages():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy.signal._a",
        "import time:       200 |        250 |     scipy.signal._b",
        "import time:        10 |        400 |   repro.phy",
        "import time:        20 |        500 | repro",
    ])
    assert bench_run.import_seconds(log, "scipy.signal") == 350e-6
    assert bench_run.import_seconds(log, "repro.phy") == 400e-6
    assert bench_run.import_seconds(log, "repro") == 500e-6
