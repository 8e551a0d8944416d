"""Campaign oracle, delta-debugging shrinker, and hard-case corpus.

The scenario fuzzer's back half.  :func:`run_generated` executes one
:class:`~repro.scenarios.generator.GeneratedScenario` through
:func:`~repro.scenarios.runner.run_scenario` (optionally recording its
telemetry trace), and :func:`classify` applies the **campaign-level
oracle** — it grades the whole run, not individual assertions, into
hard-case verdicts:

``missed_detection``
    a fault was injected but the detector never fired within the
    episode wait budget;
``failed_repair``
    an episode ended with the administrator paged or the service never
    verified healthy;
``oscillating_repair``
    the loop returned to a previously-tried fix kind after trying
    something else (an A..B..A application pattern — thrash, not
    progress);
``slo_breach_after_heal``
    the SLO was violated again within a short window of an episode
    being declared recovered ("healed" that did not stick);
``wrong_tier_root_cause``
    the fix that healed an episode lives in a different tier than
    every ground-truth fault, and is not one of the faults' catalog
    candidate fixes (the service got healthy by side effect, not by
    root-cause repair).

Any verdict makes a run a *hard case*.  :func:`shrink` then
delta-debugs the spec — deleting fault-plan slots ddmin-style and
simplifying workload/SLO knobs — to the smallest spec that still
produces the target verdict, and :func:`save_entry` serializes it into
the committed ``corpus/`` directory together with its expected
campaign-stat **fingerprint** (single-service, and fleet when the spec
describes one).  :func:`replay_corpus` is the CI regression gate: it
re-runs every entry and hard-fails on any fingerprint drift.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field

from repro.experiments.campaign import CampaignResult
from repro.faults.catalog import catalog_entry
from repro.scenarios.generator import GeneratedScenario, generate_scenario
from repro.scenarios.runner import ScenarioRunResult, run_scenario

__all__ = [
    "CorpusEntry",
    "FuzzReport",
    "GeneratedRun",
    "VERDICTS",
    "classify",
    "fingerprint_fleet",
    "fingerprint_result",
    "fleet_payload",
    "format_fuzz",
    "fuzz",
    "load_corpus",
    "replay_corpus",
    "run_generated",
    "save_entry",
    "shrink",
]

CORPUS_VERSION = 1

# Verdicts in severity order (the first one a run earns is its
# *primary* verdict — the shrinker's preservation target and the
# corpus bucket key).
VERDICTS = (
    "failed_repair",
    "oscillating_repair",
    "slo_breach_after_heal",
    "wrong_tier_root_cause",
    "missed_detection",
)

# Ticks after recovered_at in which a fresh SLO violation means the
# heal did not stick.
POST_HEAL_WINDOW = 25

# Which tier a failure kind is rooted in.  None = capacity pressure
# (any tier can legitimately be the one provisioned/fixed).
_FAULT_TIER = {
    "deadlocked_threads": "app",
    "unhandled_exception": "app",
    "software_aging": "app",
    "source_code_bug": "app",
    "hung_query": "db",
    "stale_statistics": "db",
    "table_contention": "db",
    "buffer_contention": "db",
    "transient_glitch": "db",
    "network_fault": "network",
    "operator_misconfig": "config",
    "tier_capacity_loss": None,
    "load_surge": None,
}

# Which tier a fix kind operates on.  "target" = the application's
# target names the tier; None = capacity fix (tier-ambiguous);
# "service" = whole-service sledgehammer.
_FIX_TIER = {
    "microreboot_ejb": "app",
    "reboot_tier": "target",
    "restart_service": "service",
    "kill_hung_query": "db",
    "update_statistics": "db",
    "repartition_table": "db",
    "repartition_memory": "db",
    "provision_tier": None,
    "rollback_config": "config",
    "failover_network": "network",
}


def _breach_window(spec: GeneratedScenario) -> int:
    """Ticks after a heal in which an SLO violation counts against it.

    The window must not reach past the inter-episode settle barrier, or
    the *next* episode's fault would read as a failed heal of this one.
    A violation inside the settle window is safe: the next injection
    only happens after ``settle_ticks`` compliant ticks in a row.
    """
    return min(POST_HEAL_WINDOW, spec.settle_ticks)


@dataclass
class GeneratedRun:
    """One executed generated scenario plus its oracle grading.

    ``scenario_run`` is what :func:`run_scenario` returned: the
    campaign, its per-tick SLO timeline, the approach name and the
    trace and event-log provenance.
    """

    spec: GeneratedScenario
    threshold: int
    verdicts: tuple[str, ...]
    scenario_run: ScenarioRunResult

    @property
    def primary_verdict(self) -> str | None:
        return self.verdicts[0] if self.verdicts else None

    @property
    def fingerprint(self) -> str:
        return fingerprint_result(self.scenario_run.result)


def run_generated(
    spec: GeneratedScenario,
    approach: str = "signature",
    record_path: str | None = None,
    threshold: int = 5,
    events_path: str | None = None,
) -> GeneratedRun:
    """Run one generated scenario as a healing campaign and grade it."""
    scenario_run = run_scenario(
        spec.to_pack(),
        seed=spec.seed,
        approach=approach,
        record_path=record_path,
        events_path=events_path,
        threshold=threshold,
    )
    return GeneratedRun(
        spec=spec,
        threshold=threshold,
        verdicts=classify(
            scenario_run.result,
            scenario_run.slo_flags,
            post_heal_window=_breach_window(spec),
        ),
        scenario_run=scenario_run,
    )


# ----------------------------------------------------------------------
# The oracle.
# ----------------------------------------------------------------------


def _successful_application(report):
    """The fix application that healed an episode, or None."""
    for application, outcome in zip(
        reversed(report.applications), reversed(report.outcomes)
    ):
        if outcome:
            return application
    return None


def _is_wrong_tier(report) -> bool:
    if report.successful_fix is None or report.admin_resolved:
        return False
    candidates: set[str] = set()
    fault_tiers: set[str | None] = set()
    for kind in report.fault_kinds:
        try:
            candidates.update(catalog_entry(kind).candidate_fixes)
        except KeyError:  # pragma: no cover - future kinds
            return False
        fault_tiers.add(_FAULT_TIER.get(kind))
    if report.successful_fix in candidates:
        return False
    if None in fault_tiers:
        return False  # capacity faults: any relief is legitimate
    fix_tier = _FIX_TIER.get(report.successful_fix)
    if fix_tier is None:
        return False
    if fix_tier == "target":
        application = _successful_application(report)
        fix_tier = application.target if application is not None else None
        if fix_tier is None:
            return False
    return fix_tier not in fault_tiers


def _is_oscillating(report) -> bool:
    kinds = [application.kind for application in report.applications]
    seen_since: dict[str, bool] = {}
    for kind in kinds:
        if seen_since.get(kind):
            return True  # kind re-tried after a different kind ran
        for other in seen_since:
            if other != kind:
                seen_since[other] = True
        seen_since.setdefault(kind, False)
    return False


def _report_verdicts(report, slo_flags: list[bool], window: int) -> set[str]:
    """The verdicts one episode report earns on its own."""
    found: set[str] = set()
    if report.admin_resolved or not report.recovered:
        found.add("failed_repair")
    if _is_oscillating(report):
        found.add("oscillating_repair")
    if _is_wrong_tier(report):
        found.add("wrong_tier_root_cause")
    if report.recovered_at is not None:
        lo = report.recovered_at + 1
        if any(slo_flags[lo : lo + window]):
            found.add("slo_breach_after_heal")
    return found


def classify(
    result: CampaignResult,
    slo_flags: list[bool],
    post_heal_window: int = POST_HEAL_WINDOW,
) -> tuple[str, ...]:
    """Grade one campaign into hard-case verdicts (severity order)."""
    found: set[str] = set()
    if result.undetected > 0:
        found.add("missed_detection")
    for report in result.reports:
        found |= _report_verdicts(report, slo_flags, post_heal_window)
    return tuple(v for v in VERDICTS if v in found)


# ----------------------------------------------------------------------
# Fingerprints.
# ----------------------------------------------------------------------


_HUNG_TXN = re.compile(r"^hung-\d+$")


def _canonical_target(target: str | None) -> str | None:
    """Strip process-global uniqueness tokens from fix targets.

    ``HungQueryFault`` mints ``hung-<N>`` transaction ids from a
    process-wide counter (two live hung queries must never collide in
    the lock manager), so the victim a ``kill_hung_query`` application
    reports depends on how many hung queries the *process* has ever
    built — not on the campaign.  The fingerprint must be a pure
    function of the spec, so the token is canonicalized.
    """
    if target is not None and _HUNG_TXN.match(target):
        return "hung-*"
    return target


def _report_payload(report) -> dict:
    return {
        "fault_kinds": list(report.fault_kinds),
        "fault_category": report.fault_category,
        "injected_at": report.injected_at,
        "detected_at": report.detected_at,
        "recovered_at": report.recovered_at,
        "applications": [
            [application.kind, _canonical_target(application.target)]
            for application in report.applications
        ],
        "outcomes": [bool(outcome) for outcome in report.outcomes],
        "successful_fix": report.successful_fix,
        "escalated": bool(report.escalated),
        "admin_resolved": bool(report.admin_resolved),
    }


def _result_payload(result: CampaignResult) -> dict:
    return {
        "injected": result.injected,
        "undetected": result.undetected,
        "total_ticks": result.total_ticks,
        "reports": [_report_payload(report) for report in result.reports],
    }


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def fingerprint_result(result: CampaignResult) -> str:
    """Exact campaign-stat fingerprint (order, ticks, fixes, outcomes).

    Every field is an int/str/bool, so equality is bit-exactness of
    the campaign — the property the corpus gate pins across replays,
    Python versions, and worker counts.
    """
    return _digest(_result_payload(result))


def fleet_payload(result) -> dict:
    """JSON-able stats of a fleet campaign — the fingerprint preimage.

    Every field is an int/str/bool, so payload equality is
    bit-exactness of the fleet campaign.  The large-fleet golden
    (``tests/fleet/golden_large_fleet.json``) commits this payload
    verbatim so drift diagnostics can point at the exact service and
    report that moved, not just a digest mismatch.
    """
    return {
        "per_service": [
            _result_payload(campaign) for campaign in result.per_service
        ],
        "knowledge_entries": result.knowledge_entries,
        "knowledge_absorbed": result.knowledge_absorbed,
    }


def fingerprint_fleet(result) -> str:
    """Fingerprint of a :class:`~repro.fleet.campaign.FleetResult`."""
    return _digest(fleet_payload(result))


def _run_fleet(spec: GeneratedScenario):
    from repro.fleet.campaign import run_fleet_campaign

    fleet = spec.fleet
    return run_fleet_campaign(
        n_services=int(fleet.get("n_services", 1)),
        episodes_per_service=int(fleet.get("episodes_per_service", 2)),
        seed=spec.seed,
        workers=1,
        scenario=spec.to_pack(),
    )


# ----------------------------------------------------------------------
# Shrinking (delta debugging).
# ----------------------------------------------------------------------


class _Predicate:
    """Cached "does this spec still earn the verdict?" oracle calls."""

    def __init__(self, verdict: str, approach: str = "signature") -> None:
        self.verdict = verdict
        self.approach = approach
        self.runs = 0
        self._cache: dict[str, bool] = {}

    def __call__(self, spec: GeneratedScenario) -> bool:
        if not spec.fault_plan:
            return False
        key = spec.canonical_json()
        if key not in self._cache:
            self.runs += 1
            run = run_generated(spec, approach=self.approach)
            self._cache[key] = self.verdict in run.verdicts
        return self._cache[key]


def _ddmin_slots(spec: GeneratedScenario, holds: _Predicate) -> GeneratedScenario:
    """ddmin (complement reduction) over the fault-plan slots."""
    plan = list(spec.fault_plan)
    granularity = 2
    while len(plan) >= 2:
        chunk = max(1, (len(plan) + granularity - 1) // granularity)
        removed_any = False
        start = 0
        while start < len(plan):
            candidate = plan[:start] + plan[start + chunk :]
            if candidate and holds(
                spec.simplified(fault_plan=tuple(candidate))
            ):
                plan = candidate
                granularity = max(2, granularity - 1)
                removed_any = True
                break  # chunk size recomputed for the shorter plan
            start += chunk
        if removed_any:
            continue
        if granularity >= len(plan):
            break
        granularity = min(len(plan), granularity * 2)
    return spec.simplified(fault_plan=tuple(plan))


# Knob simplifications, tried in order once the plan is minimal: each
# makes the reproducer smaller/cheaper and is kept only if the verdict
# survives.
def _knob_passes(spec: GeneratedScenario) -> list[GeneratedScenario]:
    candidates: list[GeneratedScenario] = []
    if spec.workload.get("retry"):
        candidates.append(
            spec.simplified(workload={**spec.workload, "retry": None})
        )
    if spec.workload.get("pattern") != "constant":
        candidates.append(
            spec.simplified(
                workload={
                    **spec.workload,
                    "pattern": "constant",
                    "options": {},
                }
            )
        )
    if spec.workload.get("arrival_scale", 1.0) != 1.0:
        candidates.append(
            spec.simplified(
                workload={**spec.workload, "arrival_scale": 1.0}
            )
        )
    if spec.max_episode_wait > 60:
        candidates.append(spec.simplified(max_episode_wait=60))
    if spec.settle_ticks > 10:
        candidates.append(spec.simplified(settle_ticks=10))
    return candidates


@dataclass
class ShrinkResult:
    """A minimized spec plus the work it took to get there."""

    spec: GeneratedScenario
    verdict: str
    original_slots: int
    runs: int


def shrink(
    spec: GeneratedScenario,
    verdict: str | None = None,
    approach: str = "signature",
) -> ShrinkResult:
    """Minimize a failing spec while preserving its verdict.

    First delta-debugs the fault plan down to a minimal slot set
    (ddmin), then greedily simplifies workload/SLO/patience knobs.
    Raises ``ValueError`` when the spec does not produce the requested
    (or any) verdict to begin with.
    """
    if verdict is None:
        initial = run_generated(spec, approach=approach)
        if not initial.verdicts:
            raise ValueError(
                f"spec {spec.name!r} produces no oracle verdict; "
                "nothing to shrink"
            )
        verdict = initial.verdicts[0]
    holds = _Predicate(verdict, approach=approach)
    if not holds(spec):
        raise ValueError(
            f"spec {spec.name!r} does not produce verdict {verdict!r}"
        )
    minimized = _ddmin_slots(spec, holds)
    progress = True
    while progress:
        progress = False
        for candidate in _knob_passes(minimized):
            if holds(candidate):
                minimized = candidate
                progress = True
                break
    return ShrinkResult(
        spec=minimized,
        verdict=verdict,
        original_slots=spec.n_episodes,
        runs=holds.runs,
    )


# ----------------------------------------------------------------------
# Corpus persistence.
# ----------------------------------------------------------------------


@dataclass
class CorpusEntry:
    """One committed hard-case reproducer.

    Attributes:
        name: file stem (``<verdict>-<kinds>-<spec hash>``).
        bucket: ``<verdict>:<kinds>`` — the fuzzer's novelty key.
        verdicts: full oracle grading of the minimized run.
        spec: the minimized generated scenario.
        fingerprint: expected single-service campaign fingerprint.
        fleet_fingerprint: expected fleet fingerprint, when the spec's
            fleet mix has more than one service (else None).
        approach / threshold: the healing-loop configuration the
            fingerprint was produced with — replay must use the same
            one or drift is guaranteed.  (The fleet fingerprint always
            uses the fleet's own knowledge-sharing approach.)
        found: provenance (fuzzer seed/case, slot counts, runs spent
            shrinking).
        summary: human-oriented stats (episodes healed, undetected,
            ticks) for ``corpus list``.
    """

    name: str
    bucket: str
    verdicts: tuple[str, ...]
    spec: GeneratedScenario
    fingerprint: str
    fleet_fingerprint: str | None = None
    approach: str = "signature"
    threshold: int = 5
    found: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "version": CORPUS_VERSION,
            "name": self.name,
            "bucket": self.bucket,
            "verdicts": list(self.verdicts),
            "spec": self.spec.to_json_dict(),
            "fingerprint": self.fingerprint,
            "fleet_fingerprint": self.fleet_fingerprint,
            "approach": self.approach,
            "threshold": self.threshold,
            "found": self.found,
            "summary": self.summary,
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "CorpusEntry":
        version = int(payload.get("version", CORPUS_VERSION))
        if version != CORPUS_VERSION:
            raise ValueError(
                f"unsupported corpus entry version {version} "
                f"(supported: {CORPUS_VERSION})"
            )
        return cls(
            name=str(payload["name"]),
            bucket=str(payload["bucket"]),
            verdicts=tuple(payload["verdicts"]),
            spec=GeneratedScenario.from_json_dict(payload["spec"]),
            fingerprint=str(payload["fingerprint"]),
            fleet_fingerprint=payload.get("fleet_fingerprint"),
            approach=str(payload.get("approach", "signature")),
            threshold=int(payload.get("threshold", 5)),
            found=dict(payload.get("found", {})),
            summary=dict(payload.get("summary", {})),
        )


def _entry_from_run(
    run: GeneratedRun,
    found: dict,
    with_fleet: bool = True,
) -> CorpusEntry:
    verdict = run.primary_verdict or "none"
    bucket = _bucket_of(run)
    kinds = bucket.split(":", 1)[1].split("+") if ":" in bucket else []
    fleet_fp = None
    if with_fleet and int(run.spec.fleet.get("n_services", 1)) > 1:
        fleet_fp = fingerprint_fleet(_run_fleet(run.spec))
    result = run.scenario_run.result
    return CorpusEntry(
        name=f"{verdict}-{'-'.join(kinds)[:60]}-{run.spec.spec_hash()[:8]}",
        bucket=bucket,
        verdicts=run.verdicts,
        spec=run.spec,
        fingerprint=run.fingerprint,
        fleet_fingerprint=fleet_fp,
        approach=run.scenario_run.approach,
        threshold=run.threshold,
        found=found,
        summary={
            "episodes_healed": len(result.reports),
            "injected": result.injected,
            "undetected": result.undetected,
            "total_ticks": result.total_ticks,
            "slots": run.spec.n_episodes,
        },
    )


def save_entry(directory: str, entry: CorpusEntry) -> str:
    """Write one corpus entry; returns the file path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{entry.name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(entry.to_json_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_corpus(directory: str) -> list[CorpusEntry]:
    """Load every ``*.json`` corpus entry (name-sorted)."""
    if not os.path.isdir(directory):
        return []
    entries = []
    for filename in sorted(os.listdir(directory)):
        if not filename.endswith(".json"):
            continue
        with open(
            os.path.join(directory, filename), "r", encoding="utf-8"
        ) as handle:
            entries.append(CorpusEntry.from_json_dict(json.load(handle)))
    return entries


@dataclass
class ReplayCheck:
    """One corpus entry's replay outcome in the CI gate."""

    entry: CorpusEntry
    ok: bool
    details: str


def replay_corpus(
    directory: str,
    check_fleet: bool = True,
    record_dir: str | None = None,
    events_dir: str | None = None,
) -> list[ReplayCheck]:
    """Re-run every corpus entry and compare fingerprints.

    The regression gate: any drift in campaign statistics — different
    detection tick, different fix, different verdicts — fails the
    entry.  With ``record_dir`` each replay also records its telemetry
    trace (every corpus entry is replayable through the standard
    record/replay layer); with ``events_dir`` each replay writes its
    flight-recorder event log (the CI failure artifact).
    """
    checks: list[ReplayCheck] = []
    for entry in load_corpus(directory):
        record_path = None
        if record_dir is not None:
            os.makedirs(record_dir, exist_ok=True)
            record_path = os.path.join(record_dir, f"{entry.name}.jsonl")
        events_path = None
        if events_dir is not None:
            os.makedirs(events_dir, exist_ok=True)
            events_path = os.path.join(
                events_dir, f"{entry.name}.events.jsonl"
            )
        run = run_generated(
            entry.spec,
            approach=entry.approach,
            threshold=entry.threshold,
            record_path=record_path,
            events_path=events_path,
        )
        problems = []
        if run.fingerprint != entry.fingerprint:
            problems.append(
                f"campaign fingerprint drift "
                f"(expected {entry.fingerprint[:12]}, "
                f"got {run.fingerprint[:12]})"
            )
        if run.verdicts != entry.verdicts:
            problems.append(
                f"verdict drift (expected {list(entry.verdicts)}, "
                f"got {list(run.verdicts)})"
            )
        if (
            check_fleet
            and entry.fleet_fingerprint is not None
        ):
            fleet_fp = fingerprint_fleet(_run_fleet(entry.spec))
            if fleet_fp != entry.fleet_fingerprint:
                problems.append(
                    f"fleet fingerprint drift "
                    f"(expected {entry.fleet_fingerprint[:12]}, "
                    f"got {fleet_fp[:12]})"
                )
        checks.append(
            ReplayCheck(
                entry=entry,
                ok=not problems,
                details="; ".join(problems) if problems else "bit-exact",
            )
        )
    return checks


# ----------------------------------------------------------------------
# The fuzz campaign.
# ----------------------------------------------------------------------


@dataclass
class FuzzReport:
    """What one fuzz campaign did."""

    seed: int
    budget: int
    verdict_counts: dict = field(default_factory=dict)
    hard_cases: int = 0
    new_entries: list = field(default_factory=list)  # (path, CorpusEntry)
    skipped_known: int = 0
    shrink_runs: int = 0


def _offending_kinds(run: GeneratedRun) -> list[str]:
    """Fault kinds of the reports that earned the primary verdict.

    The bucket key must describe the *failure mode*, not everything a
    run happened to inject — otherwise the same minimized reproducer
    is rediscovered under a different alias every night.  When no
    report can be singled out, the key falls back to the plan's kinds.
    """
    verdict = run.primary_verdict
    reports = run.scenario_run.result.reports
    plan_kinds = sorted({slot["kind"] for slot in run.spec.fault_plan})
    if verdict == "missed_detection":
        detected = {kind for report in reports for kind in report.fault_kinds}
        return sorted(set(plan_kinds) - detected) or plan_kinds
    slo_flags = run.scenario_run.slo_flags
    window = _breach_window(run.spec)
    offending = {
        kind
        for report in reports
        if verdict in _report_verdicts(report, slo_flags, window)
        for kind in report.fault_kinds
    }
    return sorted(offending) or plan_kinds


def _bucket_of(run: GeneratedRun) -> str:
    verdict = run.primary_verdict or "none"
    return f"{verdict}:{'+'.join(_offending_kinds(run))}"


def fuzz(
    budget: int,
    seed: int = 0,
    corpus_dir: str | None = None,
    out_dir: str | None = None,
    shrink_new: bool = True,
    max_new: int = 10,
    with_fleet: bool = True,
) -> FuzzReport:
    """Run a fuzz campaign: generate, run, grade, shrink, persist.

    Args:
        budget: generated scenarios to run.
        seed: fuzzer root seed; ``(seed, case)`` fully determines each
            generated scenario, so a fuzz campaign is reproducible.
        corpus_dir: existing corpus — its buckets are treated as known
            (no re-shrinking the same failure mode every night).
        out_dir: where new minimized reproducers are written (the
            nightly job uploads this directory as its artifact);
            defaults to ``corpus_dir``.
        shrink_new: minimize novel hard cases before saving.
        max_new: stop saving after this many new reproducers (keeps a
            pathological night bounded).
        with_fleet: also pin the fleet fingerprint of multi-service
            specs (slower, but makes entries fleet-replayable).
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    out_dir = out_dir if out_dir is not None else corpus_dir
    known_buckets = set()
    if corpus_dir is not None:
        known_buckets.update(e.bucket for e in load_corpus(corpus_dir))
    if out_dir is not None and out_dir != corpus_dir:
        known_buckets.update(e.bucket for e in load_corpus(out_dir))

    report = FuzzReport(seed=seed, budget=budget)
    for case in range(budget):
        spec = generate_scenario(seed, case)
        run = run_generated(spec)
        for verdict in run.verdicts:
            report.verdict_counts[verdict] = (
                report.verdict_counts.get(verdict, 0) + 1
            )
        if not run.verdicts:
            continue
        report.hard_cases += 1
        if len(report.new_entries) >= max_new:
            continue
        bucket = _bucket_of(run)
        if bucket in known_buckets:
            report.skipped_known += 1
            continue
        found = {
            "fuzzer_seed": seed,
            "case": case,
            "original_slots": spec.n_episodes,
        }
        if shrink_new:
            shrunk = shrink(spec, verdict=run.primary_verdict)
            report.shrink_runs += shrunk.runs
            found["shrink_runs"] = shrunk.runs
            found["minimized_slots"] = shrunk.spec.n_episodes
            run = run_generated(shrunk.spec)
            if run.primary_verdict is None:  # pragma: no cover - guard
                continue
        entry = _entry_from_run(run, found, with_fleet=with_fleet)
        # Shrinking can collapse two differently-bucketed originals
        # into the same minimized failure mode — re-check novelty on
        # the entry's own bucket before saving.  The original bucket
        # becomes known either way, so later cases that would collapse
        # the same way skip the expensive shrink instead of repeating
        # it.
        if entry.bucket in known_buckets:
            known_buckets.add(bucket)
            report.skipped_known += 1
            continue
        known_buckets.add(bucket)
        known_buckets.add(entry.bucket)
        if out_dir is not None:
            path = save_entry(out_dir, entry)
        else:
            path = "<unsaved>"
        report.new_entries.append((path, entry))
    return report


def format_fuzz(report: FuzzReport) -> str:
    """Human-readable fuzz campaign summary."""
    lines = [
        (
            f"Fuzzed {report.budget} generated scenarios (seed "
            f"{report.seed}): {report.hard_cases} hard cases, "
            f"{report.skipped_known} in known buckets, "
            f"{len(report.new_entries)} new minimized reproducers"
        )
    ]
    if report.verdict_counts:
        lines.append(
            "  verdicts: "
            + ", ".join(
                f"{verdict}={count}"
                for verdict, count in sorted(report.verdict_counts.items())
            )
        )
    if report.shrink_runs:
        lines.append(f"  shrinking spent {report.shrink_runs} extra runs")
    for path, entry in report.new_entries:
        lines.append(
            f"  new: {entry.bucket} "
            f"({entry.summary.get('slots', '?')} slots) -> {path}"
        )
    return "\n".join(lines)
