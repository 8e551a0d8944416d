"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

``--trace 0`` times units with no instrumentation and prints the
end-to-end metrics; ``--trace 1`` alternates each unit untraced and
traced on the same inputs, checks both give the same statistics, and
prints the per-layer metrics.  Every run also runs the default-seed
canary unit and compares its fingerprint with
``perfbench/fingerprints.json``.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

``--record-fingerprints`` rewrites ``perfbench/fingerprints.json`` from
the current program (do this only for an intended behaviour change).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FINGERPRINTS = os.path.join(ROOT, "perfbench", "fingerprints.json")
DEFAULT_SEED = 1
WORKLOAD_NAMES = ("campaign", "fleet", "wide", "replay")
# The public entry points the workloads call; set-up time includes
# importing them.
PROGRAM_MODULES = (
    "repro.experiments.campaign",
    "repro.fleet.campaign",
    "repro.scenarios.runner",
)
IMPORT_SAMPLES = 3


def _git_rev() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment(workers: int) -> dict:
    """The run's environment stamp (load average taken now)."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 1
    )
    return {
        "nproc": nproc,
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_rev": _git_rev(),
        "workers": workers,
        "oversubscribed": workers > nproc,
    }


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest finished child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def stop_children() -> None:
    """Stop every process this run started and wait for each to end.

    The program joins its fleet workers itself; this catches any left by
    an error.  Fleet units also start the multiprocessing resource
    tracker, which would otherwise outlive this process until it noticed
    the exit and cleaned up after it.
    """
    import multiprocessing

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    # ``_stop`` (private, present since Python 3.8) closes the tracker's
    # pipe, which ends it, and reaps it.
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def check_unit(unit, checks) -> list[str]:
    """Accounting and workload-specific check errors of one unit."""
    errors = list(unit.errors)
    for result, want in zip(unit.campaigns, unit.expected_injected, strict=True):
        errors.extend(checks.accounting_errors(result, want))
    return errors


def load_fingerprints() -> dict:
    with open(FINGERPRINTS, "r", encoding="utf-8") as handle:
        return json.load(handle)


def record_fingerprints(scratch: str) -> int:
    from perfbench import checks
    from perfbench.workloads import WORKLOADS

    recorded = {"default_seed": DEFAULT_SEED, "canary": {}}
    for name in WORKLOAD_NAMES:
        unit = WORKLOADS[name].canary(DEFAULT_SEED, scratch)
        errors = check_unit(unit, checks)
        if errors:
            print(f"error: {name} canary fails its checks: {errors}", file=sys.stderr)
            return 1
        recorded["canary"][name] = checks.fingerprint(unit.campaigns, unit.extra)
        print(f"{name}: {recorded['canary'][name]}")
    with open(FINGERPRINTS, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


class Tally:
    """Units attempted, units that failed a check, and why."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.problems.extend(errors)


def _timed(run_unit, spec, **kwargs):
    started = time.perf_counter()
    unit = run_unit(spec, **kwargs)
    return unit, time.perf_counter() - started


def _layer_table(workload, recorder, profile_dirs, spans) -> tuple[dict, str]:
    """Per-boundary calls/total/self seconds and where they came from."""
    if workload.workers == 1:
        return spans.summarize(recorder), "spans around public boundaries"
    table = spans.profile_layers(
        [os.path.join(d, f) for d in profile_dirs for f in sorted(os.listdir(d))]
    )
    # Worker-side rows come from the profiles, coordinator-side calls
    # of the same boundaries from spans: add them up.
    for name, row in spans.summarize(recorder).items():
        total = table.setdefault(name, dict.fromkeys(row, 0))
        for key, value in row.items():
            total[key] += value
    return table, (
        "worker cProfile dumps (cProfile overhead regime), coordinator "
        "spans, transport ledger"
    )


def import_samples(count: int = IMPORT_SAMPLES) -> list[float]:
    """Seconds a fresh interpreter takes to import the program's entry
    points, once per child interpreter (each is waited for)."""
    code = (
        "import time; started = time.perf_counter(); "
        + "; ".join(f"import {module}" for module in PROGRAM_MODULES)
        + "; print(time.perf_counter() - started)"
    )
    path = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p
    )
    samples = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(out.stdout.split()[-1]))
    return samples


def run(args, scratch: str) -> dict:
    import_started = time.perf_counter()
    for module in PROGRAM_MODULES:
        importlib.import_module(module)
    from perfbench import checks, hostspeed, metrics, spans
    from perfbench.workloads import WORKLOADS

    first_import_s = time.perf_counter() - import_started
    workload = WORKLOADS[args.workload]
    env_before = environment(workload.workers)

    # Warm imports (bytecode cached by the import above) are what every
    # later start pays; their median is the import part of set-up.
    setup_speeds = [hostspeed.gauge()]
    import_times = import_samples()
    setup_samples = []
    states = []
    for index in range(workload.setup_repeats):
        started = time.perf_counter()
        states.append(workload.setup(args.seed, scratch, index))
        setup_samples.append(time.perf_counter() - started)
    setup_speeds.append(hostspeed.gauge())

    def run_unit(spec, profile_dir=None):
        return workload.run(spec, states, scratch, profile_dir=profile_dir)

    tally = Tally()
    # Only the quality units' results are kept (for the healing
    # statistics), so memory does not grow with the number of units run.
    quality_units, plain_rates, scaled_rates = [], [], []
    traced_units, traced_rates = [], []
    # The host's speed, gauged before the first unit and after each one.
    speeds = [hostspeed.gauge()]

    def measure(spec, profile_dir=None):
        """Run a unit; return it, its throughput, and that throughput
        scaled by the host's speed around it (see hostspeed.py)."""
        unit, seconds = _timed(run_unit, spec, profile_dir=profile_dir)
        speeds.append(hostspeed.gauge())
        rate = unit.ticks / seconds
        return unit, rate, hostspeed.scaled(rate, speeds[-2], speeds[-1])

    recorder = spans.SpanRecorder()
    unit_span = recorder.name_id("bench.unit")
    profile_dirs: list[str] = []
    events_bytes: list[int] = []
    event_verify = [0, 0]
    phase_started = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - phase_started
        if args.trace:
            if traced_units and elapsed >= args.seconds:
                break
        elif index >= workload.quality_units and elapsed >= args.seconds:
            break
        spec = workload.unit_spec(args.seed, index)
        # Start every unit from a collected heap, so no unit pays for
        # the garbage of the one before.
        gc.collect()
        unit, rate, scaled = measure(spec)
        tally.record(check_unit(unit, checks))
        plain_rates.append(rate)
        scaled_rates.append(scaled)
        if index < workload.quality_units:
            quality_units.append(unit)
        if args.trace:
            profile_dir = names = None
            if workload.workers > 1:
                profile_dir = os.path.join(scratch, f"profile-{index}")
                os.makedirs(profile_dir)
                profile_dirs.append(profile_dir)
                names = spans.COORDINATOR_BOUNDARIES
            gc.collect()
            uninstall = spans.install(recorder, names)
            span = recorder.begin(unit_span)
            try:
                traced, _rate, scaled = measure(spec, profile_dir=profile_dir)
            finally:
                recorder.finish(span)
                uninstall()
            errors = check_unit(traced, checks)
            if checks.fingerprint(traced.campaigns, traced.extra) != checks.fingerprint(
                unit.campaigns, unit.extra
            ):
                errors.append(f"unit {index}: traced statistics differ from untraced")
            tally.record(errors)
            traced_units.append(traced)
            traced_rates.append(scaled)
            if traced.events_path is not None:
                # The next unit overwrites the log: read it now.
                events_bytes.append(os.path.getsize(traced.events_path))
                calls, ticks = metrics.verify_ticks_from_events(traced.events_path)
                event_verify[0] += calls
                event_verify[1] += ticks
        index += 1

    canary = workload.canary(DEFAULT_SEED, scratch)
    errors = check_unit(canary, checks)
    if checks.fingerprint(canary.campaigns, canary.extra) != (
        load_fingerprints()["canary"].get(args.workload)
    ):
        errors.append("default-seed canary fingerprint differs from the recorded one")
    tally.record(errors)

    # The median scaled unit: a spell of the host the gauges miss then
    # moves a minority of units, not the result.
    ticks_per_s = statistics.median(scaled_rates)
    if args.trace:
        table, source = _layer_table(workload, recorder, profile_dirs, spans)
        traced_ticks = sum(unit.ticks for unit in traced_units)
        values = metrics.layer_metrics(
            table,
            recorder.counts,
            traced_units,
            traced_ticks,
            statistics.median(traced_rates) / ticks_per_s,
            from_profile=workload.workers > 1,
            events_bytes=events_bytes,
            event_verify=tuple(event_verify),
        )
        definitions = metrics.PER_LAYER
        # One file per workload, so repeated runs do not pile up.
        recorder.save(
            os.path.join(os.path.dirname(scratch), f"spans-{args.workload}.json")
        )
    else:
        source = "untraced units"
        values = {
            "ticks_per_s": ticks_per_s,
            "setup_s": hostspeed.scaled_seconds(
                statistics.median(import_times) + statistics.median(setup_samples),
                setup_speeds,
            ),
            "peak_rss_mb": _peak_rss_mb(),
            **metrics.healing_quality(
                [c for unit in quality_units for c in unit.campaigns]
            ),
        }
        definitions = metrics.END_TO_END

    env = dict(env_before)
    env["loadavg_before"] = env.pop("loadavg")
    env.update({
        "loadavg_after": list(os.getloadavg()),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "units": len(plain_rates) + len(traced_rates),
        "first_import_s": first_import_s,
        "import_samples_s": import_times,
        "setup_samples_s": setup_samples,
        "unit_ticks_per_s": [round(rate, 1) for rate in plain_rates],
        "raw_ticks_per_s": statistics.median(plain_rates),
        "host_speeds": [round(speed, 1) for speed in speeds],
        "setup_host_speeds": [round(speed, 1) for speed in setup_speeds],
        "per_layer_source": source,
    })
    for name, unit, _better in definitions:
        print(f"{name:42s} {values[name]:>16.6g} {unit}")
    for problem in tally.problems:
        print(f"check failed: {problem}")
    print("env " + json.dumps(env, sort_keys=True))
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit, _better in definitions
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one benchmark workload and print its metrics.",
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-fingerprints", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_fingerprints and args.workload is None:
        parser.error("--workload is required")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no program source under {src}", file=sys.stderr)
        return 2
    # Import this directory's modules as the ``perfbench`` package only.
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != here]
    sys.path[:0] = [src, ROOT]

    scratch = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(scratch)
    try:
        if args.record_fingerprints:
            return record_fingerprints(scratch)
        result = run(args, scratch)
    finally:
        stop_children()
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
