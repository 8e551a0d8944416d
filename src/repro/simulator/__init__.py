"""Multitier-service simulator.

The paper's evaluation runs "on a simulator for a multitier service
that generates time-series data corresponding to different failed and
working service states" (Section 5.2).  This package is that simulator:
a RUBiS-like auction application (Example 1) on a three-tier stack —
web server, EJB application container, database — driven by a
discrete 1-second tick.  Each tick produces the per-tier metrics,
EJB call matrices, and request latencies that the monitoring layer
turns into the multidimensional time series of Section 4.2.
"""
