"""Monitoring and data collection.

Section 4.2: "the data collected from the service is a multidimensional
row-and-column time-series with schema X1, X2, ..., Xn.  Attributes
X1, ..., Xn are metrics of performance or failure, either measured
directly from different tiers of the service or derived from measured
metrics."  This package produces exactly that:

* :mod:`repro.monitoring.schema` — the metric registry (names, owning
  components, invasiveness, and fix hints for correlation analysis);
* :mod:`repro.monitoring.collectors` — per-tick metric extraction;
* :mod:`repro.monitoring.timeseries` — the row-and-column store;
* :mod:`repro.monitoring.baseline` — baseline/current windows (Nb, Nc)
  and z-score symptom vectors;
* :mod:`repro.monitoring.tracing` — EJB call-matrix windows, the
  invasive "path" data of Example 2;
* :mod:`repro.monitoring.detector` — the SLO-compliance failure
  detector that turns sustained violations into failure events.
"""
