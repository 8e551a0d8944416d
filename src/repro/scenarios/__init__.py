"""Workload scenario packs and telemetry trace record/replay.

The paper's evaluation — and the roadmap's "open a new workload"
charge — hinges on how healing behaves under *diverse* multitier
conditions, not one steady-state profile.  This package supplies that
diversity as first-class, named objects:

* :mod:`repro.scenarios.packs` — :class:`ScenarioPack` compositions of
  workload shape + fault schedule + SLO profile (``flash_crowd``,
  ``diurnal``, ``retry_storm``, ``slow_burn``, ``black_friday``), all
  pure functions of their seed;
* :mod:`repro.scenarios.trace` — JSONL telemetry trace recording and
  the open-loop replay stand-ins (:class:`ReplayService`,
  :class:`ReplayInjector`);
* :mod:`repro.scenarios.runner` — ``run_scenario`` /
  ``replay_campaign`` / ``replay_fleet_campaign`` campaign drivers,
  so two approaches can be compared on byte-identical telemetry;
* :mod:`repro.scenarios.generator` — the property-based scenario
  fuzzer: seed-deterministic :class:`GeneratedScenario` compositions
  drawn from the full fault catalog;
* :mod:`repro.scenarios.corpus` — campaign-level oracle (missed
  detection, wrong-tier root cause, failed/oscillating repair, SLO
  breach after "healed"), delta-debugging shrinker, and the committed
  ``corpus/`` of minimized hard cases CI replays as goldens.

CLI: ``repro scenario list | run | record | replay | fuzz | shrink |
corpus``.  Import the module itself (``repro.scenarios.runner``, ...):
this package re-exports nothing, so a process that replays or runs a
scenario does not load the fuzzer with it.
"""
