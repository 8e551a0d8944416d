"""End-to-end self-healing loops on a live simulated service.

:mod:`repro.healing.loop` wires detector -> approach -> fix -> verify
into the reactive loop of Figure 3 (including the restart+notify
escalation); :mod:`repro.healing.proactive` adds the forecast-driven
variant of Section 5.3.
"""
