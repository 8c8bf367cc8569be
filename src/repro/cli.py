"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``reproduce [names...]``   regenerate paper tables/figures (all by default)
``link``                   analytic link report for one placement
``network --nodes N``      one multi-node snapshot
``characterize``           channel statistics for the default lab
``chaos --scenario NAME``  fault-injection run: recovery ladder vs static
``chaos --ap-crash``       multi-AP failover vs a frozen single AP
``chaos ... --json``       same run, but emit the telemetry export (JSONL)
``chaos all --jobs N``     the scenario sweep across N worker processes
``campaign EXPERIMENT``    a figure sweep (fig10, fig11, fig13, chaos) as
                           a campaign; supervised with ``--max-retries``,
                           ``--shard-timeout``, ``--on-failure``
``admission saturate``     blocking probability vs offered load (a campaign)
``energy compare|outage``  node-class comparison / energy-outage drill
                           (campaigns).  Campaign commands share ``--seed``,
                           ``--jobs``, ``--shards``, ``--out``/``--resume``;
                           saturate and energy add ``--json``.
``telemetry summarize F``  per-subsystem tables from a JSONL export
``telemetry flame F``      collapsed flamegraph stacks from a JSONL export
``fsck PATHS...``          scan campaign journals / AP checkpoints /
                           telemetry exports for corruption; ``--repair``
                           salvages the valid records and quarantines
                           the damaged ones; nonzero exit on damage
``lint [paths...]``        run the reprolint static analyser (repo
                           checkouts; ``--json`` / ``--sarif`` /
                           ``--changed-only``; exit codes match fsck)
``list``                   available experiment names
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:
    from collections.abc import Callable

    from .engine import ProcessPool, SupervisionPolicy

__all__ = ["main", "build_parser"]


def _add_campaign_flags(parser: argparse.ArgumentParser, jobs_help: str,
                        sharded: bool = True) -> None:
    """Declare ``--jobs`` and, for a ``sharded`` campaign command, the
    ``--seed``/``--shards``/``--out``/``--resume`` flags that go with
    it."""
    if sharded:
        parser.add_argument("--seed", type=int, default=0,
                            help="campaign master seed")
    parser.add_argument("--jobs", type=int, default=1, help=jobs_help)
    if not sharded:
        return
    parser.add_argument("--shards", type=int, default=None,
                        help="shard count (default: --jobs); results "
                             "never depend on it")
    parser.add_argument("--out", default=None,
                        help="JSONL result-store path: completed shards "
                             "are journaled here, crash-safely")
    parser.add_argument("--resume", action="store_true",
                        help="allow --out to already exist and resume "
                             "the campaign it holds")


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="mmX (SIGCOMM 2019) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("reproduce",
                         help="regenerate paper tables and figures")
    rep.add_argument("names", nargs="*",
                     help="experiment names (default: all)")

    link = sub.add_parser("link", help="analytic link report")
    link.add_argument("--distance", type=float, default=3.0,
                      help="node-AP distance [m]")
    link.add_argument("--offset-deg", type=float, default=0.0,
                      help="node orientation offset from the AP [deg]")
    link.add_argument("--blocked", action="store_true",
                      help="put a person in the line of sight")

    net = sub.add_parser("network", help="multi-node snapshot")
    net.add_argument("--nodes", type=int, default=10)
    net.add_argument("--seed", type=int, default=0)

    sub.add_parser("characterize", help="channel statistics")

    chaos = sub.add_parser(
        "chaos", help="run a named fault-injection scenario")
    chaos.add_argument("--scenario", default="kitchen-sink",
                       help="fault scenario name, or 'all' for the sweep")
    chaos.add_argument("--seed", type=int, default=0,
                       help="master seed (faults + recovery jitter)")
    chaos.add_argument("--duration", type=float, default=30.0,
                       help="simulated seconds")
    chaos.add_argument("--ap-crash", action="store_true",
                       help="run the multi-AP failover comparison "
                            "(cluster vs frozen single AP) instead of "
                            "a link-fault scenario")
    chaos.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the run's telemetry export as JSONL "
                            "on stdout instead of the text report")
    _add_campaign_flags(chaos, "worker processes for the '--scenario "
                               "all' sweep (routed through repro.engine; "
                               "other runs are single scenarios and stay "
                               "serial)", sharded=False)

    adm = sub.add_parser(
        "admission",
        help="spectrum/SDM admission-control studies")
    adm_sub = adm.add_subparsers(dest="admission_command", required=True)
    sat = adm_sub.add_parser(
        "saturate",
        help="blocking probability vs offered load through the "
             "admission ladder (a repro.engine campaign)")
    sat.add_argument("--nodes", type=int, default=600,
                     help="Poisson arrivals simulated per trial")
    sat.add_argument("--load", type=float, action="append", default=None,
                     metavar="L",
                     help="offered-load point (repeatable; default: "
                          "the stock sweep)")
    sat.add_argument("--replicates", type=int, default=4,
                     help="independent trials per load point")
    _add_campaign_flags(sat, "worker processes (1 = in-process serial; "
                             ">1 runs supervised)")
    sat.add_argument("--json", action="store_true", dest="as_json",
                     help="emit the saturation curve as JSON rows")

    energy = sub.add_parser(
        "energy",
        help="node-class and energy-constrained-operation studies")
    energy_sub = energy.add_subparsers(dest="energy_command",
                                       required=True)
    comp = energy_sub.add_parser(
        "compare",
        help="Table-1-style node-class comparison: active vs "
             "backscatter vs harvesting (a repro.engine campaign)")
    comp.add_argument("--bits", type=int, default=400,
                      help="payload bits measured per link trial")
    surv = energy_sub.add_parser(
        "outage",
        help="energy-outage survival drill: a duty-cycled fleet "
             "rides a harvesting blackout without tripping cluster "
             "failover (a repro.engine campaign)")
    surv.add_argument("--nodes", type=int, default=6,
                      help="duty-cycled nodes per fleet trial")
    for preset in (comp, surv):
        preset.add_argument("--replicates", type=int, default=4,
                            help="independent trials per node class "
                                 "(compare) or fleets (outage)")
        _add_campaign_flags(preset, "worker processes (1 = in-process "
                                    "serial; >1 runs supervised)")
        preset.add_argument("--json", action="store_true",
                            dest="as_json",
                            help="emit the aggregate as JSON instead "
                                 "of the text table")

    camp = sub.add_parser(
        "campaign",
        help="run a figure sweep as a sharded, resumable campaign")
    camp.add_argument("experiment",
                      choices=list(_PRESETS["campaign"]),
                      help="which sweep to run")
    camp.add_argument("--trials", type=int, default=None,
                      help="trial count (fig11: placements, fig13: "
                           "trials per node count; fig10's count is "
                           "its grid, chaos runs every scenario)")
    _add_campaign_flags(camp, "worker processes (1 = in-process serial)")
    camp.add_argument("--duration", type=float, default=30.0,
                      help="simulated seconds per scenario "
                           "(chaos campaigns only)")
    camp.add_argument("--max-retries", type=int, default=None,
                      help="supervise the campaign: retry each failed "
                           "shard up to N times (deterministic "
                           "exponential backoff) before quarantining")
    camp.add_argument("--shard-timeout", type=float, default=None,
                      metavar="SECONDS",
                      help="supervise the campaign: absolute per-shard "
                           "attempt deadline; hung workers are timed "
                           "out and retried")
    camp.add_argument("--on-failure", default=None,
                      choices=["fail", "quarantine", "degrade"],
                      help="supervised shard that exhausts its retries: "
                           "kill the campaign (fail), complete without "
                           "it (quarantine), or re-run it in-process "
                           "as a last resort (degrade)")

    tele = sub.add_parser(
        "telemetry", help="inspect sim-time telemetry JSONL exports")
    tele_sub = tele.add_subparsers(dest="telemetry_command", required=True)
    summ = tele_sub.add_parser(
        "summarize", help="render per-subsystem metric/span tables")
    summ.add_argument("path", help="telemetry JSONL export file")
    flame = tele_sub.add_parser(
        "flame", help="emit collapsed flamegraph stacks (sim-time µs)")
    flame.add_argument("path", help="telemetry JSONL export file")

    fsck = sub.add_parser(
        "fsck",
        help="verify (and repair) durable artifacts: campaign "
             "journals, AP checkpoints, telemetry exports")
    fsck.add_argument("paths", nargs="+",
                      help="artifact files to check")
    fsck.add_argument("--repair", action="store_true",
                      help="salvage valid records in place: damaged "
                           "lines move to a .quarantine sidecar and "
                           "the artifact is rewritten atomically")
    fsck.add_argument("--json", action="store_true", dest="as_json",
                      help="emit one JSON report object per path")

    lint = sub.add_parser(
        "lint", help="run the reprolint static analyser over the repo")
    lint.add_argument("paths", nargs="*",
                      help="files or directories to lint (default: src/)")
    lint.add_argument("--json", action="store_true", dest="as_json",
                      help="emit findings as JSON")
    lint.add_argument("--sarif", action="store_true", dest="as_sarif",
                      help="emit findings as SARIF 2.1.0")
    lint.add_argument("--changed-only", action="store_true",
                      help="report findings only for files changed vs "
                           "git HEAD")

    sub.add_parser("list", help="list experiment names")
    return parser


def _reproduce_registry() -> dict[str, Callable[[], str]]:
    """Experiment name -> thunk rendering it, in ``repro list`` order."""
    from .experiments import (ablations, chaos, extensions, fig06_tma,
                              fig07_vco, fig08_patterns, fig09_waveforms,
                              fig10_snr_map, fig11_ber_cdf, fig12_range,
                              fig13_multinode, table1)

    return {
        "fig06": lambda: fig06_tma.render(fig06_tma.run()),
        "fig07": lambda: fig07_vco.render(fig07_vco.run()),
        "fig08": lambda: fig08_patterns.render(fig08_patterns.run()),
        "fig09": lambda: fig09_waveforms.render(fig09_waveforms.run()),
        "fig10": lambda: fig10_snr_map.render(fig10_snr_map.run()),
        "fig11": lambda: fig11_ber_cdf.render(fig11_ber_cdf.run()),
        "fig12": lambda: fig12_range.render(fig12_range.run()),
        "fig13": lambda: fig13_multinode.render(fig13_multinode.run()),
        "table1": lambda: table1.render(table1.run()),
        "ablations": lambda: "\n\n".join([
            ablations.render(ablations.run_orthogonality(),
                             ablations.run_modulation(),
                             ablations.run_beam_search()),
            ablations.render_oracle(ablations.run_oracle_comparison()),
        ]),
        "extensions": lambda: "\n\n".join([
            extensions.render_mobility(extensions.run_mobility(
                duration_s=30.0)),
            extensions.render_scheduler(extensions.run_scheduler(trials=10)),
            extensions.render_60ghz(extensions.run_60ghz()),
            extensions.render_channel_stats(extensions.run_channel_stats()),
            extensions.render_streaming(extensions.run_streaming()),
        ]),
        "chaos": lambda: chaos.render_all(chaos.run_all()),
    }


def _cmd_reproduce(names: list[str]) -> int:
    registry = _reproduce_registry()
    chosen = names or list(registry)
    unknown = [n for n in chosen if n not in registry]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    for name in chosen:
        print(f"===== {name} =====")
        print(registry[name]())
        print()
    return 0


def _cmd_link(distance: float, offset_deg: float, blocked: bool) -> int:
    from .core.link import OtamLink
    from .sim.environment import default_lab_room
    from .sim.geometry import Point, angle_of, normalize_angle
    from .sim.mobility import los_blocker_between
    from .sim.placement import Placement

    room = default_lab_room()
    ap = Point(room.width_m / 2.0, 0.15)
    node = Point(room.width_m / 2.0, 0.15 + distance)
    if not room.contains(node, margin=0.1):
        print("distance does not fit in the 6 m lab room", file=sys.stderr)
        return 2
    toward = angle_of(node, ap)
    placement = Placement(node,
                          normalize_angle(toward + np.radians(offset_deg)),
                          ap, np.pi / 2)
    if blocked:
        room.add_blocker(los_blocker_between(node, ap))
    breakdown = OtamLink(placement=placement, room=room).snr_breakdown()
    print(f"distance {distance:.1f} m, offset {offset_deg:+.0f} deg, "
          f"blocked={blocked}")
    print(f"  Beam 1 level   : {breakdown.beam1_level_dbm:7.1f} dBm")
    print(f"  Beam 0 level   : {breakdown.beam0_level_dbm:7.1f} dBm")
    print(f"  SNR with OTAM  : {breakdown.otam_snr_db:7.1f} dB")
    print(f"  SNR without    : {breakdown.no_otam_snr_db:7.1f} dB")
    print(f"  predicted BER  : {breakdown.ber_with_otam():.2e} (OTAM) / "
          f"{breakdown.ber_without_otam():.2e} (baseline)")
    print(f"  inverted       : {breakdown.inverted}")
    return 0


def _cmd_network(nodes: int, seed: int) -> int:
    from .network.network import MultiNodeNetwork
    from .sim.environment import default_lab_room

    network = MultiNodeNetwork(default_lab_room(),
                               np.random.default_rng(seed))
    snapshot = network.evaluate(nodes)
    print(f"{nodes} simultaneous node(s), seed {seed}:")
    for stats in snapshot.nodes:
        print(f"  node {stats.node_id:2d}: ch {stats.channel_index:2d}  "
              f"SINR {stats.sinr_db:5.1f} dB")
    print(f"mean {snapshot.mean_sinr_db:.1f} dB, "
          f"min {snapshot.min_sinr_db:.1f} dB")
    return 0


def _cmd_characterize() -> int:
    from .channel.statistics import characterize
    from .sim.environment import default_lab_room
    from .sim.placement import PlacementSampler

    room = default_lab_room()
    sampler = PlacementSampler(room, np.random.default_rng(0))
    stats = characterize(room, sampler.sample_many(60))
    print("channel statistics over 60 placements in the 6x4 m lab:")
    print(f"  paths: mean {stats.mean_path_count:.1f}, "
          f"median {stats.median_path_count:.0f}, "
          f"max {stats.max_path_count} (sparse: {stats.is_sparse})")
    print(f"  median K-factor      : {stats.median_k_factor_db:.1f} dB")
    print(f"  median delay spread  : {stats.median_delay_spread_ns:.2f} ns")
    print(f"  median angular spread: "
          f"{stats.median_angular_spread_deg:.0f} deg")
    return 0


def _cmd_chaos(scenario: str, seed: int, duration: float,
               ap_crash: bool = False, as_json: bool = False,
               jobs: int = 1) -> int:
    from .experiments import chaos
    from .faults import SCENARIOS
    from .telemetry import Recorder, to_jsonl

    if _invalid_flags("chaos", jobs):
        return 2
    # With --json every run records into one Recorder and the export —
    # the same deterministic JSONL the library writes — goes to stdout.
    recorder = Recorder() if as_json else None

    if ap_crash:
        text = chaos.render_failover(chaos.run_failover(
            seed=seed, duration_s=duration, telemetry=recorder))
    elif scenario == "all":
        text = chaos.render_all(chaos.run_all(
            seed=seed, duration_s=duration, telemetry=recorder,
            executor=_build_executor(jobs)))
    elif scenario in SCENARIOS:
        text = chaos.render(chaos.run(scenario, seed=seed,
                                      duration_s=duration,
                                      telemetry=recorder))
    else:
        print(f"unknown scenario {scenario!r}; choose from "
              f"{', '.join(sorted(SCENARIOS))} or 'all'",
              file=sys.stderr)
        return 2
    if recorder is not None:
        print(to_jsonl(recorder), end="")
    else:
        print(text)
    return 0


@dataclass(frozen=True)
class _Preset:
    """What one campaign command declares; :func:`_run_preset` does the
    rest.  ``run`` gets ``module`` (imported when the command runs), the
    parsed args and the engine keywords; ``supervised`` picks
    ``SupervisionPolicy()`` over the pool's fail-fast default."""

    module: str
    run: Callable[..., Any]
    render: Callable[[Any, Any], str] = lambda m, result: m.render(result)
    payload: Callable[[Any], object] | None = None
    checks: Callable[[Any], list[tuple[bool, str]]] = lambda a: []
    supervised: bool = False


_PRESETS: dict[str, dict[str, _Preset]] = {
    "campaign": {
        "fig10": _Preset(
            "experiments.fig10_snr_map",
            lambda m, a, **engine: m.run(seed=a.seed, **engine),
            checks=lambda a: [(a.trials is not None,
                               "fig10's trial count is its placement "
                               "grid; --trials does not apply")]),
        "fig11": _Preset(
            "experiments.fig11_ber_cdf",
            lambda m, a, **engine: m.run(
                seed=a.seed, **engine, **({} if a.trials is None else
                                          {"num_placements": a.trials}))),
        "fig13": _Preset(
            "experiments.fig13_multinode",
            lambda m, a, **engine: m.run(
                seed=a.seed, **engine, **({} if a.trials is None else
                                          {"trials_per_count": a.trials}))),
        "chaos": _Preset(
            "experiments.chaos",
            lambda m, a, store, **engine: m.run_all(
                seed=a.seed, duration_s=a.duration, **engine),
            render=lambda m, result: m.render_all(result),
            checks=lambda a: [(a.out is not None, "chaos outcomes are rich "
                               "objects, not JSON rows; --out is not "
                               "supported for the chaos sweep")]),
    },
    "admission": {
        "saturate": _Preset(
            "admission.saturation",
            lambda m, a, **engine: m.run_saturation(m.default_config(
                loads=m.DEFAULT_LOADS if a.load is None else tuple(a.load),
                replicates=a.replicates, arrivals=a.nodes),
                master_seed=a.seed, **engine),
            payload=lambda result: result.curve(),
            checks=lambda a: [
                (a.nodes < 1, "--nodes must be at least 1"),
                (a.replicates < 1, "--replicates must be at least 1"),
                (a.load is not None and any(lo <= 0 for lo in a.load),
                 "--load points must be positive")],
            supervised=True),
    },
    "energy": {
        "compare": _Preset(
            "energy.compare",
            lambda m, a, **engine: m.run_compare(m.default_config(
                replicates=a.replicates, num_bits=a.bits),
                master_seed=a.seed, **engine),
            payload=lambda result: result.rows(),
            checks=lambda a: [
                (a.replicates < 1, "--replicates must be at least 1"),
                (a.bits < 1, "--bits must be at least 1")],
            supervised=True),
        "outage": _Preset(
            "energy.outage",
            lambda m, a, **engine: m.run_outage(m.default_config(
                nodes=a.nodes, replicates=a.replicates),
                master_seed=a.seed, **engine),
            payload=lambda result: result.summary(),
            checks=lambda a: [
                (a.replicates < 1, "--replicates must be at least 1"),
                (a.nodes < 1, "--nodes must be at least 1")],
            supervised=True),
    },
}
"""Command -> subcommand (``campaign``: experiment) -> its preset."""


def _run_preset(args: argparse.Namespace) -> int:
    """The one path every campaign command runs through.

    Flag checks, the executor, the one-line failure diagnostic, text or
    ``--json`` output, the ``campaign store:`` line and the supervision
    report; ``campaign``'s ``--max-retries``/``--shard-timeout``/
    ``--on-failure`` replace the preset's default policy.
    """
    from .engine import EngineError, StoreError, SupervisionPolicy

    if args.command == "campaign":
        command, name = "campaign", args.experiment
    else:
        name = getattr(args, f"{args.command}_command")
        command = f"{args.command} {name}"
    preset = _PRESETS[args.command][name]
    retries = getattr(args, "max_retries", None)
    timeout = getattr(args, "shard_timeout", None)
    on_failure = getattr(args, "on_failure", None)
    if _invalid_flags(command, args.jobs, args.shards, args.out,
                      args.resume, checks=[
                          (retries is not None and retries < 0,
                           "--max-retries cannot be negative"),
                          (timeout is not None and timeout <= 0,
                           "--shard-timeout must be positive"),
                          *preset.checks(args)]):
        return 2
    overridden = (retries, timeout, on_failure) != (None, None, None)
    if overridden:
        policy: SupervisionPolicy | None = SupervisionPolicy(
            max_attempts=3 if retries is None else retries + 1,
            shard_timeout_s=timeout, on_failure=on_failure or "quarantine")
    else:
        policy = SupervisionPolicy() if preset.supervised else None
    # A supervised run uses worker processes even at --jobs 1: only a
    # separate process can be timed out.
    executor = _build_executor(args.jobs, policy, always_pool=overridden)
    module = importlib.import_module(f".{preset.module}", __package__)
    try:
        result = preset.run(module, args, executor=executor,
                            num_shards=args.shards, store=args.out)
        if getattr(args, "as_json", False) and preset.payload is not None:
            text = json.dumps(preset.payload(result), indent=2)
        else:
            text = preset.render(module, result)
    except (EngineError, StoreError) as exc:
        # One line, diagnosable: what died, which shards, where the
        # journal lives — never a raw traceback.
        print(_campaign_diagnostic(command, exc, executor, args.out),
              file=sys.stderr)
        return 2
    print(text)
    if args.out is not None:
        print(f"\ncampaign store: {args.out}", file=sys.stderr)
    report = getattr(executor, "last_report", None)
    if report is None or not (report.retries or report.quarantined):
        return 0
    survived = f"{report.retries} retr{'y' if report.retries == 1 else 'ies'}"
    if report.degraded:
        survived += (f", degraded shards {sorted(report.degraded)} "
                     "recovered in-process")
    print(f"repro {command}: supervised run survived {survived}",
          file=sys.stderr)
    if report.abandoned:
        where = f"; journal: {args.out}" if args.out is not None else ""
        print(f"repro {command}: partial result — quarantined shards "
              f"{sorted(report.abandoned)} never completed{where}",
              file=sys.stderr)
        return 1
    return 0


def _invalid_flags(command: str, jobs: int, shards: int | None = None,
                   out: str | None = None, resume: bool = False,
                   checks: list[tuple[bool, str]] | None = None) -> bool:
    """Print the first bad-flag message as ``repro <command>: ...``.

    The campaign flags every executor-backed command shares are checked
    first, then the command's own ``(failed, message)`` ``checks``,
    then the ``--out``/``--resume`` pairing.  Returns whether a message
    was printed (the command then exits 2).
    """
    problems = [
        (jobs < 1, "--jobs must be at least 1"),
        (shards is not None and shards < 1, "--shards must be at least 1"),
        *(checks or []),
        (resume and out is None,
         "--resume needs --out (the store to resume from)"),
        (out is not None and not resume and Path(out).exists(),
         f"{out} already exists; pass --resume to continue that "
         "campaign, or choose a fresh path"),
    ]
    for failed, message in problems:
        if failed:
            print(f"repro {command}: {message}", file=sys.stderr)
            return True
    return False


def _build_executor(jobs: int, policy: SupervisionPolicy | None = None,
                    always_pool: bool = False) -> ProcessPool | None:
    """The executor a command's campaign runs on.

    ``ProcessPool(jobs, policy)`` for more than one job (or whenever
    ``always_pool``); otherwise ``None``, the library's in-process
    serial default.  ``policy=None`` is the pool's fail-fast default.
    """
    if jobs == 1 and not always_pool:
        return None
    from .engine import ProcessPool

    return ProcessPool(jobs=jobs, policy=policy)


def _campaign_diagnostic(command: str, exc: Exception, executor: object,
                         out: str | None) -> str:
    """The one-line failure summary a campaign command prints."""
    parts = [f"repro {command}: {type(exc).__name__}: {exc}"]
    report = getattr(executor, "last_report", None)
    if report is not None and report.failures:
        failed = sorted({f.shard_id for f in report.failures})
        parts.append(f"failed shards: {failed}")
        if report.quarantined:
            parts.append(
                f"quarantined: {sorted(report.quarantined)}")
    if out is not None:
        parts.append(f"journal: {out}")
    return " | ".join(parts)


def _cmd_telemetry(command: str, path: str) -> int:
    from .telemetry import load_path, render, spans_to_collapsed, summarize

    try:
        records = load_path(path)
    except OSError as exc:
        print(f"repro telemetry: cannot read {path}: {exc}",
              file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"repro telemetry: {path} is not a telemetry JSONL "
              f"export: {exc}", file=sys.stderr)
        return 2
    if command == "summarize":
        print(render(summarize(records)))
        return 0
    if command == "flame":
        for line in spans_to_collapsed(records):
            print(line)
        return 0
    raise AssertionError("unreachable")


def _cmd_fsck(paths: list[str], repair: bool, as_json: bool) -> int:
    from .durability import fsck_paths

    reports, exit_code = fsck_paths(paths, repair=repair)
    if as_json:
        print(json.dumps([report.to_dict() for report in reports],
                         indent=1, sort_keys=True))
    else:
        for report in reports:
            print(report.summary())
    return exit_code


def _cmd_lint(paths: list[str], as_json: bool, as_sarif: bool = False,
              changed_only: bool = False) -> int:
    # The linter lives in tools/ (it is repo tooling, not part of the
    # installed package), so `repro lint` only works from a checkout:
    # walk up from this file until a tools/reprolint directory appears.
    for parent in Path(__file__).resolve().parents:
        tools_dir = parent / "tools"
        if (tools_dir / "reprolint" / "__init__.py").is_file():
            break
    else:
        print("repro lint: tools/reprolint not found; run from a repo "
              "checkout or use `python tools/reprolint` directly",
              file=sys.stderr)
        return 2
    if str(tools_dir) not in sys.path:
        sys.path.insert(0, str(tools_dir))
    from reprolint.cli import main as reprolint_main

    argv = list(paths) or [str(parent / "src")]
    if as_json:
        argv += ["--format", "json"]
    elif as_sarif:
        argv += ["--format", "sarif"]
    if changed_only:
        argv += ["--changed-only"]
    # Exit codes already share the fsck contract:
    # 0 clean / 1 findings / 2 fatal.
    return reprolint_main(argv)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    A reader that closes the pipe early (``repro reproduce | head``)
    ends the command quietly with the shell's SIGPIPE status, 141.
    """
    args = build_parser().parse_args(argv)
    try:
        code = _dispatch(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at /dev/null so the interpreter's final flush of
        # whatever is still buffered cannot raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    return code


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "reproduce":
        return _cmd_reproduce(args.names)
    if args.command == "link":
        return _cmd_link(args.distance, args.offset_deg, args.blocked)
    if args.command == "network":
        return _cmd_network(args.nodes, args.seed)
    if args.command == "characterize":
        return _cmd_characterize()
    if args.command == "chaos":
        return _cmd_chaos(args.scenario, args.seed, args.duration,
                          args.ap_crash, args.as_json, args.jobs)
    if args.command in _PRESETS:
        return _run_preset(args)
    if args.command == "telemetry":
        return _cmd_telemetry(args.telemetry_command, args.path)
    if args.command == "fsck":
        return _cmd_fsck(args.paths, args.repair, args.as_json)
    if args.command == "lint":
        return _cmd_lint(args.paths, args.as_json, args.as_sarif,
                         args.changed_only)
    if args.command == "list":
        print(" ".join(_reproduce_registry()))
        return 0
    raise AssertionError("unreachable")
