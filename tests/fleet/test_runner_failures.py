"""The sharded fleet runner survives a failing member.

A member that raises, in its constructor or in any round, must end the
campaign promptly with the worker's error, for both sharded executors:
no surviving worker left running, no shared-memory segment left behind.

The failures are injected by monkeypatching module globals of
:mod:`repro.fleet.campaign`, which reaches the workers only when they
are forked from this process.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.fleet import campaign as fleet_campaign
from repro.fleet.campaign import run_fleet_campaign

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="monkeypatched failures reach the workers only under fork",
)

INJECTED = "injected member failure"
SHM_DIR = "/dev/shm"


def _shm_entries() -> set[str]:
    return set(os.listdir(SHM_DIR)) if os.path.isdir(SHM_DIR) else set()


def _fail_member_round(monkeypatch, fail_at: int) -> None:
    """Member 1 raises in its ``fail_at``-th round."""
    original = fleet_campaign._member_round
    rounds = {"seen": 0}

    def member_round(member, *args):
        if member.index == 1:
            if rounds["seen"] == fail_at:
                raise ValueError(INJECTED)
            rounds["seen"] += 1
        return original(member, *args)

    monkeypatch.setattr(fleet_campaign, "_member_round", member_round)


def _fail_member_construction(monkeypatch) -> None:
    """Building member 1 raises."""
    original = fleet_campaign.FleetMember

    def build_member(index, **kwargs):
        if index == 1:
            raise ValueError(INJECTED)
        return original(index=index, **kwargs)

    monkeypatch.setattr(fleet_campaign, "FleetMember", build_member)


@pytest.mark.parametrize(
    "staleness_rounds", [None, 0], ids=["barrier", "staleness0"]
)
@pytest.mark.parametrize("failure", ["construct", "first_round", "last_round"])
def test_failing_member_tears_down_promptly(
    monkeypatch, failure, staleness_rounds
):
    episodes = 2  # one round per episode slot
    if failure == "construct":
        _fail_member_construction(monkeypatch)
    else:
        _fail_member_round(
            monkeypatch, 0 if failure == "first_round" else episodes - 1
        )
    shm_before = _shm_entries()
    started = time.perf_counter()
    with pytest.raises(RuntimeError, match="fleet worker failed") as excinfo:
        run_fleet_campaign(
            n_services=2,
            episodes_per_service=episodes,
            seed=3,
            workers=2,
            staleness_rounds=staleness_rounds,
        )
    elapsed = time.perf_counter() - started
    assert INJECTED in str(excinfo.value)
    assert elapsed < 10.0, f"teardown took {elapsed:.1f}s"
    assert _shm_entries() - shm_before == set()
    assert multiprocessing.active_children() == []
