"""Command-line entry points for the experiment harnesses.

Usage::

    repro list                 # show available commands
    repro table1               # verify the failure/fix catalog
    repro figure4 --quick      # synopsis learning curves
    repro drift                # online-learning extension
    repro fleet --services 4 --episodes 8 --workers 4
    repro fleet --services 2 --episodes 2 --profile
    repro scenario list        # the workload scenario packs
    repro scenario run flash_crowd --seed 7
    repro scenario run flash_crowd --profile
    repro scenario run corpus/missed_detection-....json
    repro scenario record retry_storm --out storm.jsonl
    repro scenario replay storm.jsonl
    repro scenario fuzz --budget 200 --corpus corpus --out findings
    repro scenario shrink bad.json --out minimal.json
    repro scenario corpus run  # CI gate: exit 1 on fingerprint drift
    repro scenario run flash_crowd --events events.jsonl
    repro fleet --services 4 --workers 4 --events events.jsonl
    repro report events.jsonl --prom metrics.prom
    repro live demo --events live-events.jsonl
    repro live run --duration 20 --fault software_aging@app:2
    repro live report live-events.jsonl

(``python -m repro ...`` works identically when the console script is
not installed.)  Each experiment command runs the corresponding
harness from :mod:`repro.experiments` and prints the paper-vs-measured
report the benchmarks print; ``--quick`` shrinks the experiment sizes
for a fast look.  ``fleet`` runs the multi-service campaign from
:mod:`repro.fleet` with shared healing knowledge and optional
worker-process parallelism.  ``scenario`` runs the named workload
scenario packs from :mod:`repro.scenarios` and records/replays their
telemetry traces — a replayed trace reproduces the recorded campaign
statistics exactly.  ``--profile`` (on ``fleet`` and ``scenario run``)
wraps the command in cProfile and appends the top-20
cumulative-time functions to the report; on a sharded fleet
(``--workers`` > 1) every worker process is profiled as well and the
per-worker dumps are aggregated into one summary, since the
simulation time lives in the workers, not the coordinator.
``--events`` (on ``fleet`` and ``scenario run``) records the
deterministic flight-recorder event log, and ``report`` renders a
recorded log as a phase timeline with healing-audit and fleet-health
summaries (``--prom`` additionally writes a Prometheus text snapshot).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

__all__ = ["main"]

# Functions shown in a --profile dump.
_PROFILE_TOP_N = 20


def _profiled(runner, args: argparse.Namespace) -> str:
    """Run a command under cProfile; append the hot-path summary.

    The tail of the report is the top ``_PROFILE_TOP_N`` functions by
    cumulative time — the first place to look when a campaign is
    slower than BENCH_perf.json says it should be.
    """
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        report = runner(args)
    finally:
        profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(_PROFILE_TOP_N)
    return (
        report
        + "\n\n--- profile (top "
        + str(_PROFILE_TOP_N)
        + " by cumulative time) ---\n"
        + buffer.getvalue().rstrip()
    )


def _run_figure1(args: argparse.Namespace) -> str:
    from repro.experiments.figure1 import format_figure1, run_figure1

    episodes = 15 if args.quick else 30
    return format_figure1(run_figure1(episodes_per_service=episodes))


def _run_figure2(args: argparse.Namespace) -> str:
    from repro.experiments.figure2 import format_figure2, run_figure2

    episodes = 15 if args.quick else 30
    return format_figure2(run_figure2(episodes_per_service=episodes))


def _run_table1(args: argparse.Namespace) -> str:
    from repro.experiments.table1 import format_table1, run_table1

    return format_table1(run_table1())


def _run_table2(args: argparse.Namespace) -> str:
    from repro.experiments.table2 import format_table2, run_table2

    return format_table2(run_table2(n_episodes=12 if args.quick else 25))


def _run_figure4(args: argparse.Namespace) -> str:
    from repro.experiments.figure4 import (
        format_figure4,
        format_table3,
        run_figure4,
    )

    result = run_figure4(
        n_test=150 if args.quick else 400,
        max_correct_fixes=60 if args.quick else 120,
    )
    return format_figure4(result) + "\n\n" + format_table3(result)


def _run_drift(args: argparse.Namespace) -> str:
    from repro.experiments.online_drift import format_drift, run_online_drift

    n = 40 if args.quick else 60
    return format_drift(run_online_drift(pre_episodes=n, post_episodes=n))


def _run_ablations(args: argparse.Namespace) -> str:
    from repro.experiments.ablations import (
        run_adaboost_sweep,
        run_controller_gain_sweep,
        run_kmeans_centroid_sweep,
        run_window_sweep,
    )

    quick = args.quick
    lines = ["Ablation A — AdaBoost weak-learner count:"]
    sweep = run_adaboost_sweep(counts=(15, 60) if quick else (5, 15, 30, 60, 120))
    for n_estimators, by_size in sorted(sweep.items()):
        entries = "  ".join(
            f"acc@{size}={acc:.3f}" for size, acc in sorted(by_size.items())
        )
        lines.append(f"  T={n_estimators:<4} {entries}")

    lines.append("\nAblation B — anomaly window Nc:")
    for point in run_window_sweep(windows=(2, 8, 32) if quick else (2, 4, 8, 16, 32)):
        lines.append(
            f"  Nc={point.current_window:<3} "
            f"FP/1k={point.false_positives_per_kticks:6.1f}  "
            f"detect={point.detection_ticks:.0f} ticks"
        )

    lines.append("\nAblation — k-means centroids per fix:")
    for k, acc in sorted(run_kmeans_centroid_sweep().items()):
        lines.append(f"  k={k}: acc={acc:.3f}")

    lines.append("\nSection 5.4 — controller gain sweep:")
    for point in run_controller_gain_sweep():
        lines.append(
            f"  gain={point.gain:<4} overshoot={point.overshoot:.2f} "
            f"oscillations={point.oscillations} "
            f"final util={point.final_utilization:.2f}"
        )
    return "\n".join(lines)


def _format_worker_profiles(profile_dir: str) -> str:
    """Aggregate per-worker cProfile dumps into one hot-path summary.

    The coordinator's own profile (the ``_profiled`` wrapper) sees
    almost none of a sharded fleet's time — the simulation runs in the
    worker processes.  Each worker dumps its profile at shutdown;
    this combines the dumps with ``pstats.Stats.add`` so the summary
    covers the whole fleet's compute.
    """
    import glob
    import io
    import pstats

    paths = sorted(
        glob.glob(os.path.join(profile_dir, "fleet-worker-*.prof"))
    )
    if not paths:  # pragma: no cover - worker crash before dump
        return "--- worker profile: no dumps were produced ---"
    buffer = io.StringIO()
    stats = pstats.Stats(paths[0], stream=buffer)
    for path in paths[1:]:
        stats.add(path)
    stats.sort_stats("cumulative").print_stats(_PROFILE_TOP_N)
    return (
        f"--- worker profile ({len(paths)} workers aggregated, top "
        f"{_PROFILE_TOP_N} by cumulative time) ---\n"
        + buffer.getvalue().rstrip()
    )


def _run_fleet(args: argparse.Namespace) -> str:
    import contextlib
    import tempfile

    from repro.fleet.campaign import (
        FleetWorkerError,
        format_fleet,
        run_fleet_campaign,
    )

    # --profile on a sharded fleet must profile the *workers*: the
    # coordinator only merges rounds, so its own cProfile (the
    # _profiled wrapper) misses essentially all fleet time.  Mirrors
    # run_fleet_campaign's sharded-runner condition — a single-service
    # fleet runs in-process and produces no worker dumps.
    profile_workers = (
        getattr(args, "profile", False)
        and args.workers > 1
        and args.services > 1
    )
    scenario = args.scenario
    if scenario is not None:
        from repro.scenarios.packs import get_scenario

        scenario = _resolve(get_scenario, scenario)
    with contextlib.ExitStack() as stack:
        profile_dir = (
            stack.enter_context(tempfile.TemporaryDirectory())
            if profile_workers
            else None
        )
        try:
            result = run_fleet_campaign(
                n_services=args.services,
                episodes_per_service=args.episodes,
                seed=args.seed,
                workers=args.workers,
                share_knowledge=not args.no_share,
                p_correlated=args.p_correlated,
                p_cascade=args.p_cascade,
                spill_fraction=args.spill,
                scenario=scenario,
                record_path=args.record,
                profile_dir=profile_dir,
                events_path=args.events,
            )
        except (FleetWorkerError, TimeoutError) as exc:
            raise RunnerFailed(str(exc)) from exc
        report = format_fleet(result)
        if result.trace_path is not None:
            report += (
                f"\ntrace: {result.trace_path} "
                f"(sha256 {result.trace_sha256})"
            )
        if result.events_path is not None:
            report += (
                f"\nevents: {result.events_path} "
                f"(sha256 {result.events_sha256})"
            )
        if profile_dir is not None:
            report += "\n\n" + _format_worker_profiles(profile_dir)
    return report


def _run_report(args: argparse.Namespace) -> str:
    from repro.telemetry import load_events
    from repro.telemetry.metrics import aggregate_events, render_prometheus
    from repro.telemetry.report import format_report

    # Missing or malformed logs are input errors (exit 2), same as a
    # bad trace file; load_events raises with a line-numbered message.
    header, events = _resolve(load_events, args.events)
    report = format_report(header, events)
    if args.prom is not None:
        with open(args.prom, "w", encoding="utf-8") as handle:
            handle.write(render_prometheus(aggregate_events(events)))
        report += f"\nwrote prometheus snapshot: {args.prom}"
    return report


def _scenario_trace_kind(path: str) -> str:
    import json

    try:
        with open(path, "r", encoding="utf-8") as handle:
            first = handle.readline()
        header = json.loads(first)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: not a trace file ({exc})") from None
    if not isinstance(header, dict) or header.get("type") != "header":
        raise ValueError(f"{path}: not a trace file (no header line)")
    return str(header.get("kind", "campaign"))


class CliInputError(Exception):
    """Bad command-line input: unknown name, unreadable/malformed file.

    ``main`` prints the message as a clean ``error:`` diagnostic on
    stderr and exits 2.  Only *input resolution* raises this.  Errors
    from inside a running campaign propagate as tracebacks, so real
    engine regressions stay diagnosable in CI logs; the one exception
    is a failure of the sharded fleet runner itself
    (:class:`RunnerFailed`, exit 1).
    """


class RunnerFailed(Exception):
    """The sharded fleet runner failed: a worker died, raised or stalled.

    ``main`` prints the message as an ``error:`` line on stderr and
    exits 1.  A worker's own error keeps its traceback inside the
    message; a member that raises in the in-process runner is not
    caught and stays a traceback.
    """


def _resolve(step, *args, **kwargs):
    """Run one input-resolution step, mapping its failures to exit 2."""
    try:
        return step(*args, **kwargs)
    except FileNotFoundError as exc:
        raise CliInputError(f"{exc.filename}: {exc.strerror}") from exc
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        raise CliInputError(message) from exc


def _run_scenario(args: argparse.Namespace) -> str:
    from repro.scenarios.packs import list_scenarios
    from repro.scenarios.runner import (
        APPROACH_FACTORIES,
        format_scenario,
        replay_campaign,
        replay_fleet_campaign,
        run_scenario,
    )

    if args.scenario_command == "list":
        lines = []
        for pack in list_scenarios():
            lines.append(f"{pack.name:<14} {pack.description}")
            lines.append(
                f"{'':<14} pattern={pack.pattern}, "
                f"episodes={pack.n_episodes}, "
                f"retry={'on' if pack.retry else 'off'}"
            )
        return "\n".join(lines)

    if args.scenario_command in ("run", "record"):
        record_path = (
            args.out if args.scenario_command == "record" else args.record
        )
        # A pack name runs a built-in scenario; a .json path runs a
        # fuzzer-generated spec (which carries its own default seed).
        seed = args.seed
        if args.name.endswith(".json") or os.path.sep in args.name:
            from repro.scenarios.generator import GeneratedScenario

            spec = _resolve(GeneratedScenario.load, args.name)
            target = spec.to_pack()
            if seed is None:
                seed = spec.seed
        else:
            from repro.scenarios.packs import get_scenario

            target = _resolve(get_scenario, args.name)
            if seed is None:
                seed = 7
        if args.approach not in APPROACH_FACTORIES:
            known = ", ".join(sorted(APPROACH_FACTORIES))
            raise CliInputError(
                f"unknown approach {args.approach!r} (known: {known})"
            )
        run = run_scenario(
            target,
            seed=seed,
            n_episodes=args.episodes,
            approach=args.approach,
            record_path=record_path,
            events_path=getattr(args, "events", None),
        )
        report = format_scenario(run)
        if run.trace_path is not None:
            report += (
                f"\ntrace: {run.trace_path} (sha256 {run.trace_sha256})"
            )
        if run.events_path is not None:
            report += (
                f"\nevents: {run.events_path} (sha256 {run.events_sha256})"
            )
        return report

    if args.scenario_command == "fuzz":
        from repro.scenarios.corpus import format_fuzz, fuzz

        if args.budget < 1:
            raise CliInputError(f"--budget must be >= 1, got {args.budget}")
        report = fuzz(
            budget=args.budget,
            seed=args.seed if args.seed is not None else 0,
            corpus_dir=args.corpus,
            out_dir=args.out,
            shrink_new=not args.no_shrink,
            max_new=args.max_new,
            with_fleet=not args.no_fleet,
        )
        return format_fuzz(report)

    if args.scenario_command == "shrink":
        from repro.scenarios.corpus import shrink
        from repro.scenarios.generator import GeneratedScenario

        spec = _resolve(GeneratedScenario.load, args.spec)
        try:
            result = shrink(spec, verdict=args.verdict)
        except ValueError as exc:
            # "spec produces no verdict" — wrong input, not a crash.
            raise CliInputError(str(exc)) from exc
        result.spec.dump(args.out)
        return (
            f"shrunk {args.spec}: {result.original_slots} -> "
            f"{result.spec.n_episodes} slots preserving "
            f"{result.verdict!r} ({result.runs} campaign runs)\n"
            f"wrote {args.out}"
        )

    if args.scenario_command == "corpus":
        return _run_corpus(args)

    # replay
    kind = _resolve(_scenario_trace_kind, args.trace)
    if kind == "fleet":
        if args.approach is not None:
            raise CliInputError(
                "fleet traces replay with their recorded approaches; "
                "--approach is only supported for single-service traces"
            )
        from repro.fleet.campaign import aggregate_campaigns

        per_member = replay_fleet_campaign(args.trace)
        pooled = aggregate_campaigns(per_member)
        lines = [
            (
                f"Fleet replay of {args.trace}: "
                f"{len(per_member)} members, "
                f"{len(pooled.reports)} episodes healed, "
                f"{pooled.undetected} undetected"
            ),
            (
                f"  escalation rate {pooled.escalation_rate:.2f}, "
                f"mean attempts {pooled.mean_attempts:.2f}"
            ),
            (
                f"  detection {pooled.mean_detection_ticks():.1f} ticks, "
                f"recovery {pooled.mean_recovery_ticks():.1f} ticks"
            ),
        ]
        return "\n".join(lines)
    if args.approach is not None and args.approach not in APPROACH_FACTORIES:
        known = ", ".join(sorted(APPROACH_FACTORIES))
        raise CliInputError(
            f"unknown approach {args.approach!r} (known: {known})"
        )
    run = replay_campaign(args.trace, approach=args.approach)
    report = format_scenario(run)
    report += f"\nreplayed from: {run.trace_path} (sha256 {run.trace_sha256})"
    return report


def _run_live(args: argparse.Namespace) -> str:
    from repro.live.runner import (
        format_live,
        parse_fault_spec,
        run_demo,
        run_live,
    )

    if args.live_command == "report":
        from repro.telemetry import load_events
        from repro.telemetry.report import format_report

        header, events = _resolve(load_events, args.events)
        return format_report(header, events)

    if args.live_command == "demo":
        if args.budget <= 0:
            raise CliInputError(
                f"--budget must be > 0 seconds, got {args.budget}"
            )
        result = run_demo(
            seed=args.seed,
            budget_s=args.budget,
            events_path=args.events,
        )
        report = format_live(result)
        if not result.ok:
            raise CommandFailed(report)
        return report

    # live run
    if args.duration <= 0:
        raise CliInputError(
            f"--duration must be > 0 seconds, got {args.duration}"
        )
    if args.services < 1:
        raise CliInputError(
            f"--services must be >= 1, got {args.services}"
        )
    faults = [
        _resolve(parse_fault_spec, spec) for spec in args.fault or []
    ]
    result = run_live(
        n_services=args.services,
        duration_s=args.duration,
        faults=faults,
        seed=args.seed,
        events_path=args.events,
    )
    report = format_live(result)
    if not result.ok:
        raise CommandFailed(report)
    return report


class CommandFailed(Exception):
    """A command ran to completion but its check failed.

    Carries the report to print; ``main`` prints it and exits 1 (the
    contract CI gates rely on — e.g. corpus fingerprint drift).
    """

    def __init__(self, report: str) -> None:
        super().__init__(report)
        self.report = report


def _run_corpus(args: argparse.Namespace) -> str:
    from repro.scenarios.corpus import load_corpus, replay_corpus

    # Malformed/incompatible entry files are input errors (exit 2);
    # loading is cheap, so validate before any campaign runs.
    _resolve(load_corpus, args.dir)
    if args.corpus_action == "list":
        entries = load_corpus(args.dir)
        if not entries:
            return f"corpus {args.dir}: no entries"
        lines = [f"corpus {args.dir}: {len(entries)} entries"]
        for entry in entries:
            lines.append(
                f"  {entry.name:<60} slots={entry.summary.get('slots', '?')} "
                f"verdicts={','.join(entry.verdicts)}"
            )
        return "\n".join(lines)

    # corpus run — the replay gate.
    checks = replay_corpus(
        args.dir,
        check_fleet=not args.no_fleet,
        record_dir=args.record_dir,
        events_dir=args.events_dir,
    )
    if not checks:
        raise CommandFailed(
            f"corpus {args.dir}: no entries to replay "
            "(the gate expects a committed corpus)"
        )
    lines = []
    failed = 0
    for check in checks:
        status = "ok " if check.ok else "FAIL"
        lines.append(f"  {status} {check.entry.name}: {check.details}")
        failed += 0 if check.ok else 1
    lines.append(
        f"corpus {args.dir}: {len(checks) - failed}/{len(checks)} "
        "entries replayed bit-exactly"
    )
    report = "\n".join(lines)
    if failed:
        raise CommandFailed(report)
    return report


_EXPERIMENTS = {
    "figure1": (_run_figure1, "failure causes in three services"),
    "figure2": (_run_figure2, "time to recover by cause"),
    "table1": (_run_table1, "failure/fix catalog verification"),
    "table2": (_run_table2, "approach comparison"),
    "figure4": (_run_figure4, "synopsis learning curves (+ Table 3)"),
    "drift": (_run_drift, "online learning under system evolution"),
    "ablations": (_run_ablations, "all ablation sweeps"),
}

_COMMANDS = dict(_EXPERIMENTS)
_COMMANDS["fleet"] = (
    _run_fleet,
    "multi-service campaign with shared healing knowledge",
)
_COMMANDS["scenario"] = (
    _run_scenario,
    "workload scenario packs + trace record/replay",
)
_COMMANDS["report"] = (
    _run_report,
    "render a recorded flight-recorder event log",
)
_COMMANDS["live"] = (
    _run_live,
    "supervise, fault-inject, and heal real worker processes",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's tables/figures; run fleet campaigns.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="enumerate available commands")

    for name, (_, description) in _EXPERIMENTS.items():
        sub = subparsers.add_parser(name, help=description)
        sub.add_argument(
            "--quick",
            action="store_true",
            help="smaller experiment sizes for a fast look",
        )

    fleet = subparsers.add_parser(
        "fleet", help=_COMMANDS["fleet"][1]
    )
    fleet.add_argument(
        "--services", type=int, default=4, help="replicas in the fleet"
    )
    fleet.add_argument(
        "--episodes", type=int, default=8, help="fault slots per replica"
    )
    fleet.add_argument(
        "--workers", type=int, default=1, help="worker processes (shards)"
    )
    fleet.add_argument("--seed", type=int, default=0, help="fleet root seed")
    fleet.add_argument(
        "--no-share",
        action="store_true",
        help="disable knowledge sharing (isolation ablation)",
    )
    fleet.add_argument(
        "--p-correlated",
        type=float,
        default=None,
        help="probability a slot strikes all replicas with one kind "
        "(default 0.4, or the scenario pack's value)",
    )
    fleet.add_argument(
        "--p-cascade",
        type=float,
        default=None,
        help="probability a slot is a failover cascade "
        "(default 0.15, or the scenario pack's value)",
    )
    fleet.add_argument(
        "--spill",
        type=float,
        default=0.5,
        help="load-balancer failover spill fraction",
    )
    fleet.add_argument(
        "--scenario",
        default=None,
        help="shape the fleet with a workload scenario pack",
    )
    fleet.add_argument(
        "--record",
        default=None,
        metavar="PATH",
        help="record the fleet telemetry trace (requires --workers 1)",
    )
    fleet.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile; print the top-20 cumulative "
        "functions (with --workers > 1, worker processes are "
        "profiled and aggregated too)",
    )
    fleet.add_argument(
        "--events",
        default=None,
        metavar="PATH",
        help="record the flight-recorder event log (JSONL) here",
    )

    report = subparsers.add_parser("report", help=_COMMANDS["report"][1])
    report.add_argument("events", help="recorded event log (JSONL)")
    report.add_argument(
        "--prom",
        default=None,
        metavar="PATH",
        help="also write a Prometheus text snapshot here",
    )

    live = subparsers.add_parser("live", help=_COMMANDS["live"][1])
    live_sub = live.add_subparsers(dest="live_command", required=True)
    live_run = live_sub.add_parser(
        "run", help="start a real fleet, inject faults, heal, tear down"
    )
    live_run.add_argument(
        "--services", type=int, default=3, help="tiers to run (3 = web/app/db)"
    )
    live_run.add_argument(
        "--duration",
        type=float,
        default=20.0,
        help="sampling budget in seconds (after baseline warm-up)",
    )
    live_run.add_argument(
        "--fault",
        action="append",
        metavar="KIND[@SERVICE][:AT_S]",
        help="schedule a Table 1 fault for real injection (repeatable), "
        "e.g. tier_capacity_loss@db:2",
    )
    live_run.add_argument(
        "--seed", type=int, default=0, help="policy backoff-jitter seed"
    )
    live_run.add_argument(
        "--events",
        default=None,
        metavar="PATH",
        help="record the live event log (JSONL) here",
    )
    live_demo = live_sub.add_parser(
        "demo",
        help="CI smoke: kill the db tier, require a verified restart",
    )
    live_demo.add_argument(
        "--budget",
        type=float,
        default=45.0,
        help="seconds allowed for detection + recovery",
    )
    live_demo.add_argument(
        "--seed", type=int, default=0, help="policy backoff-jitter seed"
    )
    live_demo.add_argument(
        "--events",
        default=None,
        metavar="PATH",
        help="record the live event log (JSONL) here",
    )
    live_report = live_sub.add_parser(
        "report", help="render a recorded live event log"
    )
    live_report.add_argument("events", help="recorded event log (JSONL)")

    scenario = subparsers.add_parser(
        "scenario", help=_COMMANDS["scenario"][1]
    )
    scenario_sub = scenario.add_subparsers(
        dest="scenario_command", required=True
    )
    scenario_sub.add_parser("list", help="enumerate the scenario packs")
    for verb, blurb in (
        ("run", "run one scenario pack as a healing campaign"),
        ("record", "run a pack and record its telemetry trace"),
    ):
        sub = scenario_sub.add_parser(verb, help=blurb)
        sub.add_argument(
            "name",
            help="scenario pack name, or a path to a generated-"
            "scenario .json spec",
        )
        sub.add_argument(
            "--seed",
            type=int,
            default=None,
            help="campaign seed (default: 7, or the spec file's seed)",
        )
        sub.add_argument(
            "--episodes",
            type=int,
            default=None,
            help="fault episodes (default: the pack's size)",
        )
        sub.add_argument(
            "--approach",
            default="signature",
            help="fix-identification approach (signature, manual)",
        )
        if verb == "run":
            sub.add_argument(
                "--record",
                default=None,
                metavar="PATH",
                help="also record the telemetry trace here",
            )
            sub.add_argument(
                "--events",
                default=None,
                metavar="PATH",
                help="record the flight-recorder event log (JSONL) here",
            )
            sub.add_argument(
                "--profile",
                action="store_true",
                help="run under cProfile; print the top-20 cumulative "
                "functions",
            )
        else:
            sub.add_argument(
                "--out", required=True, metavar="PATH", help="trace path"
            )
    replay = scenario_sub.add_parser(
        "replay", help="replay a recorded trace (single-service or fleet)"
    )
    replay.add_argument("trace", help="trace file to replay")
    replay.add_argument(
        "--approach",
        default=None,
        help="compare a different approach on the recorded telemetry "
        "(default: the recorded approach; single-service traces only)",
    )

    fuzz = scenario_sub.add_parser(
        "fuzz",
        help="generate random scenarios, grade them with the "
        "campaign oracle, minimize and save new hard cases",
    )
    fuzz.add_argument(
        "--budget",
        type=int,
        default=50,
        help="generated scenarios to run (default 50)",
    )
    fuzz.add_argument(
        "--seed",
        type=int,
        default=None,
        help="fuzzer root seed (default 0); fully determines the "
        "generated scenarios",
    )
    fuzz.add_argument(
        "--corpus",
        default="corpus",
        metavar="DIR",
        help="existing corpus directory (known failure buckets are "
        "not re-minimized)",
    )
    fuzz.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="where new minimized reproducers are written "
        "(default: the corpus directory)",
    )
    fuzz.add_argument(
        "--max-new",
        type=int,
        default=10,
        help="stop saving after this many new reproducers",
    )
    fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="save hard cases unminimized (faster, bigger repros)",
    )
    fuzz.add_argument(
        "--no-fleet",
        action="store_true",
        help="skip pinning fleet fingerprints on new entries",
    )

    shrink = scenario_sub.add_parser(
        "shrink", help="delta-debug a failing generated scenario"
    )
    shrink.add_argument(
        "spec", help="generated-scenario spec or corpus-entry .json"
    )
    shrink.add_argument(
        "--verdict",
        default=None,
        help="oracle verdict to preserve (default: the spec's primary)",
    )
    shrink.add_argument(
        "--out", required=True, metavar="PATH", help="minimized spec path"
    )

    corpus = scenario_sub.add_parser(
        "corpus", help="replay or list the hard-case corpus"
    )
    corpus.add_argument(
        "corpus_action",
        choices=("run", "list"),
        help="run = replay every entry and fail on fingerprint drift",
    )
    corpus.add_argument(
        "--dir", default="corpus", help="corpus directory (default corpus/)"
    )
    corpus.add_argument(
        "--no-fleet",
        action="store_true",
        help="skip the fleet-fingerprint checks (faster gate)",
    )
    corpus.add_argument(
        "--record-dir",
        default=None,
        metavar="DIR",
        help="also record each entry's telemetry trace here",
    )
    corpus.add_argument(
        "--events-dir",
        default=None,
        metavar="DIR",
        help="also record each entry's flight-recorder event log here",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse arguments, run the chosen command, print its report."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        for name, (_, description) in sorted(_COMMANDS.items()):
            print(f"{name:<10} {description}")
        return 0

    runner, _ = _COMMANDS[args.command]
    started = time.perf_counter()
    try:
        if getattr(args, "profile", False):
            print(_profiled(runner, args))
        else:
            print(runner(args))
    except CommandFailed as failure:
        # The command's own check failed (corpus drift, ...): print
        # its report and exit 1 — the hard-failure contract CI gates
        # depend on.
        print(failure.report)
        return 1
    except CliInputError as exc:
        # Bad user input (unknown pack/approach, malformed spec or
        # trace): a clean diagnostic on stderr and a non-zero exit,
        # not a traceback that scripts can't distinguish from a crash.
        # Engine errors are deliberately NOT caught here — a failure
        # deep inside a campaign must surface as a full traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RunnerFailed as exc:
        # The campaign itself could not finish (a dead or stalled
        # fleet worker): the runner's message, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"\n[{args.command} finished in "
          f"{time.perf_counter() - started:.0f}s]")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
