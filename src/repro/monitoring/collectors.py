"""Turn tick snapshots into metric rows.

The collector is the boundary between the simulator and everything
learning-based: downstream code sees only the registry-ordered float
vector, never simulator internals — matching the paper's setting where
synopses consume whatever metrics the monitoring stack exposes.

This is per-tick code: the name→column resolution, the invasive-metric
column maps, and the membership checks are all hoisted into
``__init__`` so ``collect`` does nothing but read snapshot fields and
write floats into a fresh registry-ordered row.
"""

from __future__ import annotations

import math

import numpy as np

from repro.monitoring.schema import MetricSpec, metric_registry
from repro.simulator.service import TickSnapshot

__all__ = ["MappingCollector", "MetricCollector"]


class MappingCollector:
    """Registry-ordered rows from plain ``{name: value}`` samples.

    The boundary class for metric sources that are not the simulator —
    the live adapter samples real processes into a dict, and this
    turns each sample into the same registry-ordered float row the
    rest of the monitoring stack (store, baseline, detector) consumes.
    Metrics absent from a sample read 0.0, mirroring how the snapshot
    collector zero-fills beans that made no calls this tick.

    Args:
        specs: the ordered metric declarations for this source.
    """

    def __init__(self, specs: list[MetricSpec]) -> None:
        if not specs:
            raise ValueError("specs must be non-empty")
        self.specs = list(specs)
        self.names: list[str] = [spec.name for spec in self.specs]
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate metric names in {self.names}")
        self._index = {name: i for i, name in enumerate(self.names)}

    @property
    def n_metrics(self) -> int:
        return len(self.names)

    def collect(self, sample: dict) -> np.ndarray:
        """One registry-ordered row; unknown sample keys are ignored."""
        row = np.zeros(len(self.names))
        index = self._index
        for name, value in sample.items():
            col = index.get(name)
            if col is not None:
                row[col] = float(value)
        return row


class MetricCollector:
    """Extracts the registry-ordered metric vector from a snapshot.

    Args:
        include_invasive: collect application-instrumented metrics
            (per-EJB call counts).  Legacy deployments set this False,
            which is what degrades the anomaly-detection approach in
            the Table 2 comparison.
    """

    def __init__(self, include_invasive: bool = True) -> None:
        self.include_invasive = include_invasive
        self.specs: list[MetricSpec] = [
            spec
            for spec in metric_registry()
            if include_invasive or not spec.invasive
        ]
        self.names: list[str] = [spec.name for spec in self.specs]
        self._index = {name: i for i, name in enumerate(self.names)}

        # Column positions resolved once.  Every non-invasive metric is
        # always present in the registry, so these lookups cannot miss.
        idx = self._index
        self._scalar_cols = np.array(
            [
                idx[name]
                for name in (
                    "service.throughput",
                    "service.latency_ms",
                    "service.error_rate",
                    "service.timeouts",
                    "service.recent_config_change",
                    "web.utilization",
                    "web.queue",
                    "web.response_ms",
                    "app.utilization",
                    "app.queue",
                    "app.response_ms",
                    "app.heap_used_mb",
                    "app.gc_overhead",
                    "app.threads_stuck",
                    "app.threads_active",
                    "app.errors",
                    "db.utilization",
                    "db.queue",
                    "db.mean_service_ms",
                    "db.buffer.data.hit",
                    "db.buffer.index.hit",
                    "db.buffer.log.hit",
                    "db.lock_wait_ms",
                    "db.deadlocks",
                    "db.timeouts",
                    "db.log_est_act_ratio",
                    "db.plan_regret_ms",
                    "db.full_scans",
                    "db.index_scans",
                    "db.connections",
                    "db.stats_staleness",
                    "network.latency_ms",
                    "network.drops",
                )
            ],
            dtype=np.intp,
        )
        # Invasive columns keyed by bean name; beans the registry does
        # not know (never the case for the RUBiS container) are simply
        # not collected, exactly as before.
        self._calls_col: dict[str, int] = {}
        self._outcalls_col: dict[str, int] = {}
        if include_invasive:
            for name, col in idx.items():
                if name.startswith("ejb.") and name.endswith(".calls"):
                    self._calls_col[name[4:-6]] = col
                elif name.startswith("ejb.") and name.endswith(".outcalls"):
                    self._outcalls_col[name[4:-9]] = col

    @property
    def n_metrics(self) -> int:
        return len(self.names)

    def collect(self, snapshot: TickSnapshot) -> np.ndarray:
        """One registry-ordered row of floats for this tick."""
        buffer_hit = snapshot.buffer_hit
        row = np.zeros(len(self.names))
        row[self._scalar_cols] = (
            float(snapshot.total_requests),
            snapshot.latency_ms,
            snapshot.error_rate,
            float(snapshot.timeouts),
            snapshot.recent_config_change,
            snapshot.web_utilization,
            snapshot.web_queue,
            snapshot.web_response_ms,
            snapshot.app_utilization,
            snapshot.app_queue,
            snapshot.app_response_ms,
            snapshot.heap_used_mb,
            snapshot.gc_overhead,
            snapshot.threads_stuck,
            snapshot.threads_active,
            float(sum(snapshot.ejb_errors.values())),
            snapshot.db_utilization,
            snapshot.db_queue,
            snapshot.db_mean_service_ms,
            buffer_hit.get("data", 0.0),
            buffer_hit.get("index", 0.0),
            buffer_hit.get("log", 0.0),
            snapshot.lock_wait_ms,
            float(snapshot.deadlocks),
            float(snapshot.db_timeouts),
            math.log(max(snapshot.est_act_ratio, 1.0)),
            snapshot.plan_regret_ms,
            float(snapshot.full_scans),
            float(snapshot.index_scans),
            float(snapshot.db_connections),
            snapshot.stats_staleness,
            snapshot.network_ms,
            float(snapshot.network_drops),
        )
        if self.include_invasive:
            calls_col = self._calls_col
            for bean, calls in snapshot.ejb_invocations.items():
                col = calls_col.get(bean)
                if col is not None:
                    row[col] = calls
            if snapshot.call_matrix is not None:
                outbound = snapshot.call_matrix.sum(axis=1)
                outcalls_col = self._outcalls_col
                callees = snapshot.callee_names
                for caller, total in zip(snapshot.caller_names, outbound):
                    col = outcalls_col.get(caller)
                    if col is not None and caller in callees:
                        row[col] = total
        return row
