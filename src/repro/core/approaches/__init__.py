"""The fix-identification approaches compared in Table 2.

Every approach implements the :class:`FixIdentifier` interface the
healing loop drives — ``recommend`` fixes for a failure event,
``observe_tick`` the metric stream, and learn from ``observe_outcome``
/ ``observe_admin_fix``:

* :class:`ManualRuleBased` — hand-written operator rules, the
  state-of-practice baseline;
* :class:`AnomalyDetectionApproach` — per-metric deviation scoring
  (Example 2), needs invasive instrumentation to shine;
* :class:`CorrelationAnalysisApproach` — metric-correlation /
  Bayesian-network diagnosis (Example 3);
* :class:`BottleneckAnalysisApproach` — queueing-structural
  localization of the saturated tier;
* :class:`SignatureApproach` — FixSym (Section 4.3.4) over a learned
  synopsis, no root-cause diagnosis at all;
* :class:`CombinedApproach` — the Section 5.1 strategy that consults
  the signature first and the diagnosis-based approaches when it is
  unsure.
"""
