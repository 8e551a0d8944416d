"""The combined approach (Section 5.1).

"No single approach dominates all others under all scenarios. ...
[The signature-based approach's] disadvantage could be overcome by
combining the signature-based approach with one or more of the
diagnosis-based approaches that find the cause of a new failure to
recommend a fix. ... Note that incorporating the signature-based
approach into a diagnosis-based approach can improve the overall
efficiency of the latter by avoiding time-consuming diagnoses when
previously-diagnosed failures occur."

:class:`CombinedApproach` implements exactly that hybrid.
"""

from __future__ import annotations

import numpy as np

from repro.core.approaches.base import FixIdentifier
from repro.core.approaches.signature import SignatureApproach
from repro.core.confidence import merge_recommendations
from repro.core.types import Recommendation
from repro.monitoring.detector import FailureEvent

__all__ = ["CombinedApproach"]


class CombinedApproach(FixIdentifier):
    """Signature-first, diagnosis-backed hybrid.

    Args:
        signature: the learning component (kept for all outcomes, so
            diagnosis successes bootstrap the signature base).
        diagnosers: diagnosis-based approaches consulted when the
            signature is not confident.
        confidence_threshold: signature confidence below which the
            diagnosis approaches are brought in.
    """

    name = "combined"
    requires_invasive = False

    def __init__(
        self,
        signature: SignatureApproach,
        diagnosers: list[FixIdentifier],
        confidence_threshold: float = 0.45,
    ) -> None:
        if not diagnosers:
            raise ValueError("diagnosers must be non-empty")
        self.signature = signature
        self.diagnosers = diagnosers
        self.confidence_threshold = confidence_threshold
        self.signature_decisions = 0
        self.diagnosis_consultations = 0

    def observe_tick(self, row: np.ndarray, violated: bool) -> None:
        for diagnoser in self.diagnosers:
            diagnoser.observe_tick(row, violated)

    def recommend(
        self, event: FailureEvent, exclude: set[str] | None = None
    ) -> list[Recommendation]:
        exclude = exclude or set()
        signature_recs = self.signature.recommend(event, exclude)
        confident = (
            signature_recs
            and signature_recs[0].confidence >= self.confidence_threshold
        )
        if confident:
            # Previously-diagnosed failure: skip the costly diagnosis.
            self.signature_decisions += 1
            return signature_recs

        self.diagnosis_consultations += 1
        all_lists = [signature_recs]
        for diagnoser in self.diagnosers:
            all_lists.append(diagnoser.recommend(event, exclude))
        return merge_recommendations(all_lists, exclude=exclude)

    def observe_outcome(
        self,
        event: FailureEvent,
        recommendation: Recommendation,
        fixed: bool,
    ) -> None:
        # The signature base learns from every outcome, whoever
        # produced the recommendation — this is how diagnosis results
        # bootstrap the signature store.
        self.signature.observe_outcome(event, recommendation, fixed)
        for diagnoser in self.diagnosers:
            diagnoser.observe_outcome(event, recommendation, fixed)

    def observe_admin_fix(self, event: FailureEvent, fix_kind: str) -> None:
        self.signature.observe_admin_fix(event, fix_kind)
        for diagnoser in self.diagnosers:
            diagnoser.observe_admin_fix(event, fix_kind)
