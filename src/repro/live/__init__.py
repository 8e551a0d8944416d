"""Live-service execution mode: heal real processes, not the simulator.

The ``sim`` backend everything else in this repository uses is
tick-clocked and bit-exact.  This package is the ``live`` backend: the
same Table 1 fault catalog and the same monitoring/detection stack,
but executed against *real* subprocesses —

* :mod:`repro.live.stub_service` — a stdlib ``http.server`` worker
  with ``/health``, ``/metrics``, ``/work``, and fault-injection
  control endpoints;
* :mod:`repro.live.supervisor` — spawns, health-checks, reaps, and
  restarts N workers (pikehouse-style process model);
* :mod:`repro.live.adapter` — samples each process (HTTP probes +
  ``/proc``) into the unmodified ``MetricStore`` → ``BaselineModel``
  → ``FailureDetector`` stack;
* :mod:`repro.live.faults` — executes catalog fault kinds against
  real processes (SIGKILL/SIGSTOP, latency/error/leak/saturation via
  the control endpoints);
* :mod:`repro.live.policy` — the ShieldOps-shaped ``PolicyEngine``
  (cooldowns, max-retries, deterministic backoff, rate limit,
  escalation) and its ``HealingRecord`` audit ledger;
* :mod:`repro.live.loop` / :mod:`repro.live.runner` — the live
  self-healing loop with recovery verification, and the
  ``repro live run|demo`` harness.

Unlike the simulator, the live backend is wall-clock and best-effort:
results vary run to run, and nothing here feeds the bit-exact goldens.
See ``docs/live.md``.
"""
