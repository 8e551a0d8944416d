"""Reproduction of "Toward Self-Healing Multitier Services" (ICDE 2007).

Package map:

* :mod:`repro.learning` -- from-scratch ML substrate (numpy only).
* :mod:`repro.simulator` -- the RUBiS-like multitier service.
* :mod:`repro.database` -- database-tier substrate (optimizer,
  statistics, buffers, locks).
* :mod:`repro.monitoring` -- metrics, baselines, tracing, detection.
* :mod:`repro.faults` / :mod:`repro.fixes` -- Table 1, executable.
* :mod:`repro.core` -- FixSym and the fix-identification approaches.
* :mod:`repro.healing` -- reactive and proactive healing loops.
* :mod:`repro.experiments` -- one harness per paper table/figure.
* :mod:`repro.fleet` -- N replicas healing behind a load balancer
  with shared learned knowledge.
* :mod:`repro.scenarios` -- named workload scenario packs and
  telemetry trace record/replay.

Import each module itself (``repro.fleet.campaign``, ...): apart from
:mod:`repro.fleet`, :mod:`repro.telemetry` and
:mod:`repro.core.synopses`, no package re-exports anything, so a
process loads only the modules it uses.

Runtime dependencies are numpy and orjson; scipy is imported only
inside :func:`repro.learning.chi2.chi2_sf`, so the entry points
(``repro.experiments.campaign``, ``repro.fleet.campaign``,
``repro.scenarios.runner``) load no other third-party package.
``setup.py`` reads ``__version__`` from this file.

See README.md and docs/ for the full tour and ``python -m repro
list`` for the experiment CLI.
"""

__version__ = "1.1.0"

__all__ = ["__version__"]
