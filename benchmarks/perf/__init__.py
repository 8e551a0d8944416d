"""Tick-engine performance harness.

Times the three campaign shapes the repo cares about — single-service
healing campaigns, fleet campaigns, and scenario trace replay — in
ticks per second, and writes the numbers to ``BENCH_perf.json`` so
every PR leaves a perf trajectory behind::

    PYTHONPATH=src python -m benchmarks.perf            # full profile
    PYTHONPATH=src python -m benchmarks.perf --quick    # CI smoke
    PYTHONPATH=src python -m benchmarks.perf --services 1,4,16
    PYTHONPATH=src python -m benchmarks.perf --check-equivalence

The fleet benchmark sweeps a ``--services`` dimension (1/4/8/16 by
default): each multi-service point is timed with the serial runner and
the sharded shared-memory runner, recording ``parallel_speedup`` and
``scaling_efficiency`` (speedup / workers) per point.
``--check-equivalence`` runs no timings at all — it verifies that the
sharded runner reproduces the serial runner's statistics exactly, the
fast-fail guard CI runs against transport regressions.

Since schema ``repro-perf/3`` every fleet sweep point also embeds the
campaign's transport instrumentation (``FleetResult.transport``):
per-round barrier-wait per worker, per-worker dispatch wait,
coordinator merge time, knowledge entries/bytes published and
absorbed, and the per-round knowledge watermark lag.  Wall-clock
transport timings live *only* here — the flight-recorder event log is
tick-clock-deterministic and never carries them.

Schema ``repro-perf/6`` adds the bounded-staleness exchange: a
``staleness`` section sweeps K in {0, 1, 4, inf}, timing each budget
through the free-running sharded executor (``parallel_speedup``,
observed lag ledger) and grading its healing cost on the
deterministic serial-delayed arm (detection latency, repair success,
post-heal SLO re-breaches, knowledge absorbed — plus explicit deltas
against the K=0 row, which is bit-identical to the barrier).  Fleet
sweep points also record ``effective_workers = min(workers,
cpu_count)`` and ``scaling_efficiency_effective``: the historical
``scaling_efficiency`` divides by *requested* workers, which on a box
with fewer cores necessarily floors near ``1/workers`` — the
oversubscribed flag marks those points.  ``--check-equivalence`` now
also pins the staleness executor: K=0 must be bit-identical to the
barrier (serial and sharded), and K>0 must complete within its lag
budget without regressing missed detections.

Schema ``repro-perf/7`` removes what schemas 4 and 5 added for the
columnar fleet engine and the fused monitoring plane, both deleted
(see docs/performance.md): the ``columnar_kernel`` section and the
``columnar_speedup`` / ``fused_speedup`` / ``fused_counters`` fields of
every fleet sweep point.  ``--check-equivalence`` and ``--golden``
lost their engine axis with them.

The workloads are fixed-seed campaigns (the same shapes the
golden-stats equivalence tests pin down), so successive runs measure
the same work.  Results are environment-dependent: compare trajectories
from the same machine (e.g. the CI artifact series), not across
hardware — ``cpu_count`` is recorded in the payload because the fleet
scaling numbers are meaningless without it.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile
import time

__all__ = [
    "check_fleet_equivalence",
    "check_staleness_divergence",
    "main",
    "replay_golden",
    "run_perf_suite",
    "write_golden",
]

_REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


def _git_rev() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=_REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def _bench_single_service(quick: bool, repeats: int) -> dict:
    """Ticks/sec of a standard single-service healing campaign."""
    from repro.experiments.campaign import run_campaign
    from repro.scenarios.runner import build_approach
    from repro.simulator.config import ServiceConfig
    from repro.simulator.service import MultitierService

    n_episodes = 3 if quick else 6
    seed = 5
    runs = []
    for _ in range(repeats):
        service = MultitierService(ServiceConfig(seed=seed))
        started = time.perf_counter()
        result = run_campaign(
            build_approach("signature"),
            n_episodes=n_episodes,
            seed=seed,
            service=service,
        )
        elapsed = time.perf_counter() - started
        runs.append((result.total_ticks, elapsed, len(result.reports)))
    ticks, elapsed, episodes = max(runs, key=lambda r: r[0] / r[1])
    return {
        "seed": seed,
        "episodes": episodes,
        "ticks": ticks,
        "seconds": round(elapsed, 4),
        "ticks_per_sec": round(ticks / elapsed, 1),
        "all_runs_ticks_per_sec": [round(t / s, 1) for t, s, _ in runs],
    }


def _time_fleet(
    n_services: int,
    episodes: int,
    seed: int,
    workers: int,
    repeats: int,
    staleness_rounds: int | float | None = None,
) -> dict:
    """Best-of-``repeats`` ticks/sec for one fleet configuration."""
    from repro.fleet.campaign import run_fleet_campaign

    runs = []
    for _ in range(repeats):
        result = run_fleet_campaign(
            n_services=n_services,
            episodes_per_service=episodes,
            seed=seed,
            workers=workers,
            staleness_rounds=staleness_rounds,
        )
        runs.append(
            (result.pooled.total_ticks, result.wall_clock_s, result.transport)
        )
    ticks, elapsed, transport = max(runs, key=lambda r: r[0] / r[1])
    return {
        "ticks": ticks,
        "seconds": round(elapsed, 4),
        "ticks_per_sec": round(ticks / elapsed, 1),
        "all_runs_ticks_per_sec": [round(t / s, 1) for t, s, _ in runs],
        "transport": _round_floats(transport),
    }


def _round_floats(value, digits: int = 6):
    """Round every float in a nested transport dict for the JSON dump."""
    if isinstance(value, float):
        return round(value, digits)
    if isinstance(value, dict):
        return {key: _round_floats(item, digits) for key, item in value.items()}
    if isinstance(value, list):
        return [_round_floats(item, digits) for item in value]
    return value


def _bench_fleet(
    quick: bool, repeats: int, services: tuple[int, ...] | None = None
) -> dict:
    """Fleet throughput sweep over the ``--services`` dimension.

    Every point with more than one service is timed twice — with the
    single-worker runner and with the sharded shared-memory runner
    (``workers = min(n_services, 4)``) — so the sweep records the
    parallel speedup and the derived ``scaling_efficiency``
    (speedup / workers).  Efficiency is hardware-bound: on a box with
    fewer cores than workers it necessarily sits near ``1/workers``;
    compare points against ``cpu_count`` in the payload header.
    """
    sweep_services = services or ((1, 2) if quick else (1, 4, 8, 16))
    episodes = 2 if quick else 4
    seed = 3
    points = []
    for n_services in sweep_services:
        workers = min(n_services, 4)
        serial = _time_fleet(n_services, episodes, seed, 1, repeats)
        point = {
            "n_services": n_services,
            "episodes_per_service": episodes,
            "workers": workers,
            "serial_ticks_per_sec": serial["ticks_per_sec"],
        }
        # Efficiency against the workers the hardware can actually
        # run: dividing by *requested* workers on a smaller box
        # reports a meaningless ~1/workers floor, so the honest
        # denominator is ``min(workers, cpu_count)`` and points
        # running more workers than cores are flagged.
        cpu_count = os.cpu_count() or 1
        effective_workers = min(workers, cpu_count)
        point["effective_workers"] = effective_workers
        point["oversubscribed"] = workers > cpu_count
        if workers > 1:
            point.update(
                _time_fleet(n_services, episodes, seed, workers, repeats)
            )
            speedup = (
                point["ticks_per_sec"] / serial["ticks_per_sec"]
            )
            point["parallel_speedup"] = round(speedup, 2)
            point["scaling_efficiency"] = round(speedup / workers, 3)
            point["scaling_efficiency_effective"] = round(
                speedup / effective_workers, 3
            )
        else:
            point.update(serial)
            point["parallel_speedup"] = 1.0
            point["scaling_efficiency"] = 1.0
            point["scaling_efficiency_effective"] = 1.0
        points.append(point)
        print(
            f"  fleet n_services={n_services:<3} workers={workers} "
            f"{point['ticks_per_sec']:>9.1f} ticks/s  "
            f"(serial {point['serial_ticks_per_sec']:.1f}, "
            f"speedup {point['parallel_speedup']:.2f}x, "
            f"efficiency {point['scaling_efficiency_effective']:.3f}"
            f" over {effective_workers} effective workers"
            + (" [oversubscribed]" if point["oversubscribed"] else "")
            + ")"
        )
    # Headline numbers stay on the 4-service shape for continuity
    # with the pre-sweep BENCH_perf.json trajectory.
    headline = next(
        (p for p in points if p["n_services"] == 4), points[-1]
    )
    return {
        "seed": seed,
        "episodes_per_service": episodes,
        "n_services": headline["n_services"],
        "workers": headline["workers"],
        "ticks": headline["ticks"],
        "seconds": headline["seconds"],
        "ticks_per_sec": headline["ticks_per_sec"],
        "all_runs_ticks_per_sec": headline["all_runs_ticks_per_sec"],
        "sweep": points,
    }


def _staleness_quality(
    n_services: int, episodes: int, seed: int, budget: int | float
) -> dict:
    """Healing-quality panel for one staleness budget.

    Runs the *deterministic* serial-delayed arm (workers=1) with SLO
    tracking, so every number is a pure function of the seed and the
    budget — the ablation the docs table and the CI bounded-divergence
    check both read.
    """
    import math as _math

    from repro.fleet.campaign import run_fleet_campaign

    result = run_fleet_campaign(
        n_services=n_services,
        episodes_per_service=episodes,
        seed=seed,
        workers=1,
        staleness_rounds=budget,
        track_slo=True,
    )
    reports = result.pooled.reports
    healed = sum(1 for r in reports if r.successful_fix is not None)
    detection = result.mean_detection_ticks()
    return {
        "episodes": len(reports),
        "undetected": result.undetected,
        "mean_detection_ticks": (
            round(detection, 2) if _math.isfinite(detection) else None
        ),
        "repair_success_rate": (
            round(healed / len(reports), 3) if reports else None
        ),
        "escalation_rate": round(result.escalation_rate, 3),
        "slo_breach_after_heal": result.slo_breaches_after_heal,
        "knowledge_absorbed": result.knowledge_absorbed,
    }


def _bench_staleness(quick: bool, repeats: int) -> dict:
    """Bounded-staleness sweep: K in {0, 1, 4, inf}.

    Two arms per budget:

    * a timed *sharded* run (``workers = min(n_services, 4)``) through
      the free-running staleness executor, recording ticks/sec,
      ``parallel_speedup`` against the serial barrier reference, and
      the observed lag ledger (opportunistic freshness: on a loaded or
      small box the real lag sits well under K);
    * a deterministic serial-delayed *quality* arm
      (:func:`_staleness_quality`) grading what the staleness actually
      costs the healing loop — detection latency, repair success,
      post-heal SLO re-breaches, knowledge absorbed.

    ``healing_deltas`` reports each budget's quality drift against the
    K=0 row, which is bit-identical to the classic barrier.
    """
    n_services = 4
    episodes = 2 if quick else 4
    seed = 3
    workers = min(n_services, 4)
    serial = _time_fleet(n_services, episodes, seed, 1, repeats)
    budgets: tuple[int | float, ...] = (0, 1, 4, float("inf"))
    points = []
    baseline_quality: dict | None = None
    for budget in budgets:
        label = "inf" if budget == float("inf") else int(budget)
        timed = _time_fleet(
            n_services,
            episodes,
            seed,
            workers,
            repeats,
            staleness_rounds=budget,
        )
        quality = _staleness_quality(n_services, episodes, seed, budget)
        if baseline_quality is None:
            baseline_quality = quality
        ledger = (timed["transport"] or {}).get("staleness") or {}
        deltas = {}
        for key in (
            "undetected",
            "mean_detection_ticks",
            "repair_success_rate",
            "slo_breach_after_heal",
            "knowledge_absorbed",
        ):
            ours, base = quality.get(key), baseline_quality.get(key)
            deltas[key] = (
                round(ours - base, 3)
                if ours is not None and base is not None
                else None
            )
        point = {
            "staleness_rounds": label,
            "workers": workers,
            "ticks_per_sec": timed["ticks_per_sec"],
            "parallel_speedup": round(
                timed["ticks_per_sec"] / serial["ticks_per_sec"], 2
            ),
            "ring_slots": ledger.get("ring_slots"),
            "observed_lag_max": ledger.get("lag_max"),
            "observed_lag_mean": ledger.get("lag_mean"),
            "consume_wait_s": ledger.get("consume_wait_s"),
            "quality": quality,
            "healing_deltas_vs_k0": deltas,
        }
        points.append(point)
        print(
            f"  staleness K={label:<4} workers={workers} "
            f"{point['ticks_per_sec']:>9.1f} ticks/s  "
            f"(speedup {point['parallel_speedup']:.2f}x, "
            f"lag max {point['observed_lag_max']}, "
            f"undetected {quality['undetected']}, "
            f"slo re-breaches {quality['slo_breach_after_heal']})"
        )
    return {
        "seed": seed,
        "n_services": n_services,
        "episodes_per_service": episodes,
        "workers": workers,
        "serial_ticks_per_sec": serial["ticks_per_sec"],
        "points": points,
        # Suite-level summary line convention.
        "ticks_per_sec": points[0]["ticks_per_sec"],
    }


def _bench_replay(quick: bool, repeats: int) -> dict:
    """Ticks/sec of replaying a recorded scenario telemetry trace."""
    from repro.scenarios.runner import replay_campaign, run_scenario

    n_episodes = 2 if quick else 3
    seed = 7
    with tempfile.TemporaryDirectory() as tmp:
        trace = os.path.join(tmp, "perf.jsonl")
        record_started = time.perf_counter()
        run_scenario(
            "flash_crowd",
            seed=seed,
            n_episodes=n_episodes,
            record_path=trace,
        )
        record_elapsed = time.perf_counter() - record_started
        runs = []
        for _ in range(repeats):
            started = time.perf_counter()
            replayed = replay_campaign(trace)
            elapsed = time.perf_counter() - started
            runs.append((replayed.result.total_ticks, elapsed))
    ticks, elapsed = max(runs, key=lambda r: r[0] / r[1])
    return {
        "scenario": "flash_crowd",
        "seed": seed,
        "episodes": n_episodes,
        "ticks": ticks,
        "seconds": round(elapsed, 4),
        "ticks_per_sec": round(ticks / elapsed, 1),
        "record_seconds": round(record_elapsed, 4),
        "all_runs_ticks_per_sec": [round(t / s, 1) for t, s in runs],
    }


def run_perf_suite(
    quick: bool = False,
    repeats: int = 3,
    services: tuple[int, ...] | None = None,
) -> dict:
    """Run every benchmark; return the BENCH_perf.json payload."""
    results = {}
    for name, bench in (
        ("single_service", _bench_single_service),
        ("fleet", lambda q, r: _bench_fleet(q, r, services)),
        ("staleness", _bench_staleness),
        ("scenario_replay", _bench_replay),
    ):
        started = time.perf_counter()
        results[name] = bench(quick, repeats)
        print(
            f"{name:<16} {results[name]['ticks_per_sec']:>9.1f} ticks/s  "
            f"({time.perf_counter() - started:.1f}s measured)"
        )
    return {
        "schema": "repro-perf/7",
        "quick": quick,
        "repeats": repeats,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "results": results,
    }


def check_fleet_equivalence(
    n_services: int = 4,
    episodes_per_service: int = 2,
    seed: int = 23,
    worker_counts: tuple[int, ...] = (2,),
) -> bool:
    """Verify every fleet execution path is bit-identical.

    The reference is the serial in-process runner.  Against it, the
    check runs the same campaign with each sharded worker count and
    compares every episode report field plus the knowledge-base
    counters.  Prints a verdict per configuration; returns True when
    everything matched.  This is the CI regression smoke for the
    shared-memory transport: any encoding bug that perturbs the
    aggregate statistics fails it immediately.

    Since the bounded-staleness executor landed, the gate also runs
    the K=0 staleness configurations — serial-delayed and the
    free-running sharded consumer (per worker count) — which must be
    bit-identical to the barrier reference too.
    """
    from repro.fleet.campaign import run_fleet_campaign
    from repro.scenarios.corpus import _canonical_target

    def fingerprint(result) -> tuple:
        return (
            tuple(
                (
                    campaign.injected,
                    campaign.undetected,
                    campaign.total_ticks,
                    tuple(
                        (
                            report.event_id,
                            tuple(report.fault_kinds),
                            report.fault_category,
                            report.injected_at,
                            report.detected_at,
                            report.recovered_at,
                            tuple(
                                # hung-<N> ids come from a process-wide
                                # counter, not the campaign seed — the
                                # corpus canonicalization rule.
                                (a.kind, _canonical_target(a.target))
                                for a in report.applications
                            ),
                            tuple(report.outcomes),
                            report.successful_fix,
                            report.escalated,
                            report.admin_resolved,
                        )
                        for report in campaign.reports
                    ),
                )
                for campaign in result.per_service
            ),
            result.knowledge_entries,
            result.knowledge_absorbed,
        )

    shape = dict(
        n_services=n_services,
        episodes_per_service=episodes_per_service,
        seed=seed,
    )
    serial = fingerprint(run_fleet_campaign(workers=1, **shape))
    shape_label = (
        f"({n_services} services x {episodes_per_service} episodes, "
        f"seed {seed})"
    )
    ok = True
    for workers in worker_counts:
        result = run_fleet_campaign(workers=workers, **shape)
        matched = fingerprint(result) == serial
        ok = ok and matched
        print(
            f"fleet equivalence workers={workers} vs serial "
            f"{shape_label}: {'identical' if matched else 'MISMATCH'}"
        )
    # K=0 bounded staleness must degenerate to the barrier exactly:
    # the serial-delayed arm and the free-running sharded consumer
    # both join the bit-exactness gate.
    staleness_configs = [(1, "serial-delayed")] + [
        (workers, "sharded-async") for workers in worker_counts
    ]
    for workers, mode in staleness_configs:
        result = run_fleet_campaign(
            workers=workers, staleness_rounds=0, **shape
        )
        matched = fingerprint(result) == serial
        ledger = (result.transport or {}).get("staleness") or {}
        lag_zero = ledger.get("lag_max") == 0
        ok = ok and matched and lag_zero
        print(
            f"staleness K=0 workers={workers} ({mode}) vs serial "
            f"{shape_label}: "
            f"{'identical' if matched else 'MISMATCH'}"
            + ("" if lag_zero else f" NONZERO LAG ({ledger})")
        )
    return ok


def check_staleness_divergence(
    n_services: int = 4,
    episodes_per_service: int = 2,
    seed: int = 23,
    workers: int = 2,
    budgets: tuple[int | float, ...] = (1, 4, float("inf")),
) -> bool:
    """Bounded-divergence gate for K>0 staleness budgets.

    K>0 runs are *allowed* to drift from the barrier statistics — the
    whole point of the ablation — but the drift must stay bounded and
    benign:

    * the deterministic serial-delayed arm at each budget completes
      the full campaign and never regresses missed detections against
      K=0 (detection is synopsis-independent, so staleness may slow
      *repair*, never *detection*);
    * a real free-running sharded run at each finite budget completes
      with every observed per-round lag within the budget (ring and
      dispatch gates actually bound the staleness they promise).
    """
    from repro.fleet.campaign import run_fleet_campaign

    shape = dict(
        n_services=n_services,
        episodes_per_service=episodes_per_service,
        seed=seed,
    )
    reference = run_fleet_campaign(workers=1, staleness_rounds=0, **shape)
    expected_rounds = reference.transport["rounds"]
    ok = True
    for budget in budgets:
        label = "inf" if budget == float("inf") else int(budget)
        delayed = run_fleet_campaign(
            workers=1, staleness_rounds=budget, **shape
        )
        complete = (
            delayed.transport["rounds"] == expected_rounds
            and delayed.injected == reference.injected
        )
        detection_ok = delayed.undetected <= reference.undetected
        ok = ok and complete and detection_ok
        print(
            f"staleness divergence K={label} serial-delayed: "
            f"undetected {delayed.undetected} "
            f"(K=0 {reference.undetected}), "
            f"absorbed {delayed.knowledge_absorbed} "
            f"(K=0 {reference.knowledge_absorbed}): "
            + (
                "bounded"
                if complete and detection_ok
                else "REGRESSION"
            )
        )
        sharded = run_fleet_campaign(
            workers=workers, staleness_rounds=budget, **shape
        )
        ledger = (sharded.transport or {}).get("staleness") or {}
        lag_max = ledger.get("lag_max", 0)
        within = (
            budget == float("inf") or lag_max <= budget
        ) and sharded.injected == reference.injected
        ok = ok and within
        print(
            f"staleness divergence K={label} sharded "
            f"(workers={workers}): lag max {lag_max}, "
            f"budget {label}: "
            + ("within budget" if within else "BUDGET VIOLATED")
        )
    return ok


def replay_golden(path: str) -> bool:
    """Replay the committed large-fleet golden.

    Loads the golden payload (see ``--write-golden``), re-runs the
    campaign serially, and compares the full per-service stats
    payload.  Returns True when it reproduces the golden exactly.
    """
    from repro.fleet.campaign import run_fleet_campaign
    from repro.scenarios.corpus import fleet_payload

    with open(path, "r", encoding="utf-8") as handle:
        golden = json.load(handle)
    shape = dict(
        n_services=int(golden["n_services"]),
        episodes_per_service=int(golden["episodes_per_service"]),
        seed=int(golden["seed"]),
    )
    started = time.perf_counter()
    result = run_fleet_campaign(workers=1, **shape)
    matched = fleet_payload(result) == golden["payload"]
    print(
        f"golden large fleet ({shape['n_services']} services, seed "
        f"{shape['seed']}): {'identical' if matched else 'MISMATCH'} "
        f"({time.perf_counter() - started:.1f}s)"
    )
    return matched


def write_golden(
    path: str,
    n_services: int = 256,
    episodes_per_service: int = 1,
    seed: int = 71,
) -> None:
    """Generate the large-fleet golden."""
    from repro.fleet.campaign import run_fleet_campaign
    from repro.scenarios.corpus import fingerprint_fleet, fleet_payload

    result = run_fleet_campaign(
        n_services=n_services,
        episodes_per_service=episodes_per_service,
        seed=seed,
        workers=1,
    )
    golden = {
        "schema": "repro-fleet-golden/1",
        "n_services": n_services,
        "episodes_per_service": episodes_per_service,
        "seed": seed,
        "fingerprint": fingerprint_fleet(result),
        "payload": fleet_payload(result),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path} (fingerprint {golden['fingerprint'][:12]})")


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="benchmarks.perf",
        description="Time campaign ticks/sec and write BENCH_perf.json.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller campaigns + 1 repeat (CI smoke profile)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="timing repeats per benchmark (default 3, or 1 with --quick)",
    )
    parser.add_argument(
        "--out",
        default=os.path.join(_REPO_ROOT, "BENCH_perf.json"),
        metavar="PATH",
        help="output path (default: repo-root BENCH_perf.json)",
    )
    parser.add_argument(
        "--services",
        default=None,
        metavar="N,N,...",
        help="fleet sweep sizes (default: 1,4,8,16 — or 1,2 with "
        "--quick)",
    )
    parser.add_argument(
        "--check-equivalence",
        action="store_true",
        help="skip timing; verify sharded fleet runs are bit-identical "
        "to serial ones (exit 1 on mismatch)",
    )
    parser.add_argument(
        "--workers",
        default=None,
        metavar="N,N,...",
        help="worker counts for --check-equivalence (default: 2, or "
        "2,4 without --quick); the fleet grows to max(workers) "
        "services so every worker owns at least one replica",
    )
    parser.add_argument(
        "--golden",
        default=None,
        metavar="PATH",
        help="with --check-equivalence: also replay this large-fleet "
        "golden and fail on any stats drift",
    )
    parser.add_argument(
        "--write-golden",
        default=None,
        metavar="PATH",
        help="generate the large-fleet golden (256 services, seed 71) "
        "and exit",
    )
    args = parser.parse_args(argv)
    repeats = (
        args.repeats
        if args.repeats is not None
        else (1 if args.quick else 3)
    )
    if repeats < 1:
        parser.error("--repeats must be >= 1")
    services = None
    if args.services is not None:
        try:
            services = tuple(
                int(part) for part in args.services.split(",") if part
            )
        except ValueError:
            parser.error(f"--services must be integers: {args.services!r}")
        if not services or any(s < 1 for s in services):
            parser.error(f"--services must be >= 1: {args.services!r}")

    if args.write_golden is not None:
        write_golden(args.write_golden)
        return 0

    if args.check_equivalence:
        worker_counts = (2,) if args.quick else (2, 4)
        if args.workers is not None:
            try:
                worker_counts = tuple(
                    int(part) for part in args.workers.split(",") if part
                )
            except ValueError:
                parser.error(f"--workers must be integers: {args.workers!r}")
            if not worker_counts or any(w < 2 for w in worker_counts):
                parser.error(f"--workers must be >= 2: {args.workers!r}")
        ok = check_fleet_equivalence(
            n_services=max(4, max(worker_counts)),
            worker_counts=worker_counts,
        )
        ok = (
            check_staleness_divergence(
                n_services=max(4, max(worker_counts)),
                workers=min(worker_counts),
            )
            and ok
        )
        if args.golden is not None:
            ok = replay_golden(args.golden) and ok
        return 0 if ok else 1

    payload = run_perf_suite(
        quick=args.quick, repeats=repeats, services=services
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
