"""Output checks: episode accounting and campaign-statistics fingerprints.

The fingerprint is computed here, from the public result objects, so a
change to the program's own fingerprint helpers cannot move it.  Fix
targets of the form ``hung-<N>`` are canonicalized to ``hung-*``: the
program numbers hung transactions from a process-wide counter, so the
raw id depends on what ran earlier in the process, not on the inputs
(the same rule ``repro.scenarios.corpus`` applies).
"""

from __future__ import annotations

import hashlib
import json
import re

__all__ = [
    "accounting_errors",
    "campaign_payload",
    "fingerprint",
]

_HUNG_TXN = re.compile(r"^hung-\d+$")


def _canonical_target(target):
    if target is not None and _HUNG_TXN.match(target):
        return "hung-*"
    return target


def campaign_payload(result) -> dict:
    """JSON-able statistics of one ``CampaignResult``."""
    return {
        "injected": result.injected,
        "undetected": result.undetected,
        "total_ticks": result.total_ticks,
        "reports": [
            {
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
            for report in result.reports
        ],
    }


def fingerprint(campaigns, extra=None) -> str:
    """sha256 over the payloads of ``campaigns`` (plus ``extra``)."""
    payload = {
        "campaigns": [campaign_payload(result) for result in campaigns],
        "extra": extra,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def accounting_errors(result, expected_injected=None) -> list[str]:
    """Why ``result`` fails the episode accounting, or ``[]``.

    Every injected fault must end as exactly one report or one
    undetected count, and no failure is detected before its injection.
    """
    errors = []
    if len(result.reports) + result.undetected != result.injected:
        errors.append(
            f"{len(result.reports)} reports + {result.undetected} "
            f"undetected != {result.injected} injected"
        )
    if expected_injected is not None and result.injected != expected_injected:
        errors.append(
            f"{result.injected} injected, expected {expected_injected}"
        )
    for report in result.reports:
        if report.detected_at < report.injected_at:
            errors.append(
                f"episode {report.event_id} detected at "
                f"{report.detected_at} before injection at "
                f"{report.injected_at}"
            )
        if report.recovered_at is not None and (
            report.recovered_at < report.detected_at
        ):
            errors.append(
                f"episode {report.event_id} recovered at "
                f"{report.recovered_at} before detection at "
                f"{report.detected_at}"
            )
    return errors
