"""Automated fix identification — the paper's contribution.

* :mod:`repro.core.synopses` — learned models mapping failure symptoms
  to fixes (nearest neighbor, k-means, AdaBoost, naive Bayes), each
  tracking its cumulative learning time for the Table 3
  accuracy-vs-time trade-off.
* :mod:`repro.core.fixsym` — the FixSym procedure of Figure 3.
* :mod:`repro.core.approaches` — the approaches compared in Table 2:
  manual rule-based, anomaly detection, correlation analysis,
  bottleneck analysis, signature-based (FixSym), plus the combined
  strategy of Section 5.1.
* :mod:`repro.core.confidence` — confidence-ranked merging of
  recommendations (Section 5.2).
* :mod:`repro.core.forecasting` — failure forecasting for proactive
  healing (Section 5.3).
* :mod:`repro.core.control` — control-theoretic analysis of healing
  loops (Section 5.4).

A confidence-weighted synopsis ensemble and an "adaptive" approach
that picked among the others by Thompson sampling were removed: no
bench demonstrated either one.
"""
