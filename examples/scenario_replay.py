"""Record a scenario campaign, replay it, compare approaches.

Walkthrough of the scenario/trace subsystem:

1. run the ``retry_storm`` pack and record its full telemetry trace;
2. replay the trace with the same approach — the campaign statistics
   reproduce exactly;
3. replay it again with the manual rule-based approach — an open-loop
   comparison on byte-identical telemetry.

Run with::

    PYTHONPATH=src python examples/scenario_replay.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.scenarios.packs import get_scenario
from repro.scenarios.runner import (
    format_scenario,
    replay_campaign,
    run_scenario,
)


def main() -> None:
    pack = get_scenario("retry_storm")
    print(f"Scenario pack: {pack.name} — {pack.description}")
    print(f"Expected behavior: {pack.expected_behavior}\n")

    with tempfile.TemporaryDirectory() as scratch:
        trace = str(Path(scratch) / "retry_storm.jsonl")
        recorded = run_scenario(
            "retry_storm", seed=11, n_episodes=3, record_path=trace
        )
        print("=== recorded run ===")
        print(format_scenario(recorded))
        print(f"trace: {trace} (sha256 {recorded.trace_sha256[:16]}...)\n")

        replayed = replay_campaign(trace)
        print("=== replay, same approach ===")
        print(format_scenario(replayed))
        match = format_scenario(replayed) == format_scenario(recorded)
        print(f"statistics identical to the recorded run: {match}\n")

        manual = replay_campaign(trace, approach="manual")
    print("=== replay, manual rules (open-loop comparison) ===")
    print(format_scenario(manual))
    print(
        "\nSame telemetry, different policy: detection is identical "
        "by construction; recommendation quality is what differs."
    )


if __name__ == "__main__":
    main()
