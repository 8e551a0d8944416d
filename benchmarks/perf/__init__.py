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
the sharded runner, recording ``parallel_speedup`` and
``scaling_efficiency`` (speedup / workers) per point.
``--check-equivalence`` runs no timings at all — it verifies that the
sharded runner reproduces the serial runner's statistics exactly, the
fast-fail guard CI runs against transport regressions; with
``--golden`` it also replays the 256-service golden serially and at
each ``--workers`` count.

Since schema ``repro-perf/3`` every fleet sweep point also embeds the
campaign's transport instrumentation (``FleetResult.transport``):
per-round barrier-wait per worker, per-worker dispatch wait,
coordinator merge time, knowledge entries/bytes published and
absorbed, and the per-round knowledge watermark lag.  Wall-clock
transport timings live *only* here — the flight-recorder event log is
tick-clock-deterministic and never carries them.

Schema ``repro-perf/6`` makes fleet sweep points record
``effective_workers = min(workers, cpu_count)`` and
``scaling_efficiency_effective``: the historical
``scaling_efficiency`` divides by *requested* workers, which on a box
with fewer cores necessarily floors near ``1/workers`` — the
oversubscribed flag marks those points.

Schema ``repro-perf/7`` removes what schemas 4 and 5 added for the
columnar fleet engine and the fused monitoring plane, both deleted
(see docs/performance.md): the ``columnar_kernel`` section and the
``columnar_speedup`` / ``fused_speedup`` / ``fused_counters`` fields of
every fleet sweep point.  ``--check-equivalence`` and ``--golden``
lost their engine axis with them.

Schema ``repro-perf/8`` follows the fleet down to one sharded
executor.  A transport block's ``barrier_wait_s`` lists, per round,
the coordinator's blocking waits on that round.

Schema ``repro-perf/9`` drops the ``staleness`` section with the
bounded-staleness exchange it timed (see docs/performance.md).  The
sharded executor is a plain round barrier, so ``barrier_wait_s``
lists each round's wait on every worker, in worker order, and
``--check-equivalence`` compares fingerprints only.

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
    single-worker runner and with the sharded runner
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
        ("scenario_replay", _bench_replay),
    ):
        started = time.perf_counter()
        results[name] = bench(quick, repeats)
        print(
            f"{name:<16} {results[name]['ticks_per_sec']:>9.1f} ticks/s  "
            f"({time.perf_counter() - started:.1f}s measured)"
        )
    return {
        "schema": "repro-perf/9",
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
    sharded runner's round messages: any bug that perturbs the
    aggregate statistics fails it immediately.
    """
    from repro.fleet.campaign import run_fleet_campaign
    from repro.scenarios.corpus import fleet_payload

    def fingerprint(result) -> tuple:
        # The fleet fingerprint's preimage, plus the report ids it omits.
        return fleet_payload(result), [
            [report.event_id for report in campaign.reports]
            for campaign in result.per_service
        ]

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
        matched = (
            fingerprint(run_fleet_campaign(workers=workers, **shape))
            == serial
        )
        ok = ok and matched
        print(
            f"fleet equivalence workers={workers} vs serial "
            f"{shape_label}: {'identical' if matched else 'MISMATCH'}"
        )
    return ok


def replay_golden(path: str, worker_counts: tuple[int, ...] = ()) -> bool:
    """Replay the committed large-fleet golden.

    Loads the golden payload (see ``--write-golden``), re-runs the
    campaign serially and then with each of ``worker_counts``, and
    compares the full per-service stats payload of every run.  Returns
    True when every run reproduces the golden exactly.
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
    ok = True
    for workers in (1, *worker_counts):
        started = time.perf_counter()
        result = run_fleet_campaign(workers=workers, **shape)
        matched = fleet_payload(result) == golden["payload"]
        ok = ok and matched
        print(
            f"golden large fleet ({shape['n_services']} services, seed "
            f"{shape['seed']}, workers={workers}): "
            f"{'identical' if matched else 'MISMATCH'} "
            f"({time.perf_counter() - started:.1f}s)"
        )
    return ok


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
        "golden serially and at each --workers count, and fail on any "
        "stats drift",
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
        if args.golden is not None:
            ok = replay_golden(args.golden, worker_counts) and ok
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
