"""The sharded fleet runner survives its own faults.

A member that raises (in its constructor or in any round), a worker
that is SIGKILLed, and a worker that stalls past ``barrier_timeout``
must each end the campaign promptly with an error that names the
cause: no surviving worker left running, no shared-memory segment
left behind.  ``repro fleet`` reports a dead or failing worker as one
``error:`` line and exit code 1.

The faults are injected by monkeypatching module globals of
:mod:`repro.fleet.campaign`, which reaches the workers only when they
are forked from this process.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
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
EPISODES = 2  # one round per episode slot


def _shm_entries() -> set[str]:
    return set(os.listdir(SHM_DIR)) if os.path.isdir(SHM_DIR) else set()


def _raise() -> None:
    raise ValueError(INJECTED)


def _sigkill() -> None:
    os.kill(os.getpid(), signal.SIGKILL)


def _stall() -> None:
    time.sleep(60)


def _inject(monkeypatch, failure: str, fault) -> None:
    """Member 1 (owned by worker 1) runs ``fault`` at ``failure``.

    ``failure`` is ``"construct"`` (building the member), or
    ``"first_round"`` / ``"last_round"`` (before that round runs).
    """
    if failure == "construct":
        original_member = fleet_campaign.FleetMember

        def build_member(index, **kwargs):
            if index == 1:
                fault()
            return original_member(index=index, **kwargs)

        monkeypatch.setattr(fleet_campaign, "FleetMember", build_member)
        return
    fail_at = 0 if failure == "first_round" else EPISODES - 1
    original_round = fleet_campaign._member_round
    rounds = {"seen": 0}

    def member_round(member, *args):
        if member.index == 1:
            if rounds["seen"] == fail_at:
                fault()
            rounds["seen"] += 1
        return original_round(member, *args)

    monkeypatch.setattr(fleet_campaign, "_member_round", member_round)


def _expect_prompt_teardown(exception, match: str, **kwargs):
    """Run a failing 2-worker campaign; return the error it raised."""
    shm_before = _shm_entries()
    started = time.perf_counter()
    with pytest.raises(exception, match=match) as excinfo:
        run_fleet_campaign(
            n_services=2,
            episodes_per_service=EPISODES,
            seed=3,
            workers=2,
            **kwargs,
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"teardown took {elapsed:.1f}s"
    assert _shm_entries() - shm_before == set()
    assert multiprocessing.active_children() == []
    return excinfo.value


# Each failure point leaves the surviving worker blocked somewhere
# else: ``construct`` in the attach handshake, ``first_round`` on its
# next dispatch, ``last_round`` in the finish handshake.  No EOF wakes
# a worker blocked in a handshake, so only ``_terminate`` ends those
# two promptly; without it each holds teardown for the 30 s join
# timeout.
@pytest.mark.parametrize("failure", ["construct", "first_round", "last_round"])
def test_failing_member_tears_down_promptly(monkeypatch, failure):
    _inject(monkeypatch, failure, _raise)
    error = _expect_prompt_teardown(RuntimeError, "fleet worker failed")
    assert INJECTED in str(error)


@pytest.mark.parametrize("failure", ["construct", "first_round", "last_round"])
def test_killed_worker_tears_down_promptly(monkeypatch, failure):
    _inject(monkeypatch, failure, _sigkill)
    error = _expect_prompt_teardown(RuntimeError, "died")
    assert "fleet worker 1 " in str(error)
    assert "-9" in str(error)


def test_stalled_worker_times_out_promptly(monkeypatch):
    _inject(monkeypatch, "first_round", _stall)
    error = _expect_prompt_teardown(
        TimeoutError, "round 0", barrier_timeout=2.0
    )
    assert "worker 1" in str(error)


def _fleet_cli(capsys) -> tuple[int, str]:
    """Run ``repro fleet`` on the failing 2-worker shape."""
    from repro.cli import main

    code = main(
        [
            "fleet",
            "--services", "2",
            "--episodes", str(EPISODES),
            "--seed", "3",
            "--workers", "2",
        ]
    )
    assert multiprocessing.active_children() == []
    return code, capsys.readouterr().err


def test_cli_reports_killed_worker_as_error_line(monkeypatch, capsys):
    _inject(monkeypatch, "first_round", _sigkill)
    code, err = _fleet_cli(capsys)
    assert code == 1
    assert err.startswith("error: fleet worker 1")
    assert "Traceback" not in err


def test_cli_reports_failing_member_as_error_line(monkeypatch, capsys):
    _inject(monkeypatch, "first_round", _raise)
    code, err = _fleet_cli(capsys)
    assert code == 1
    assert err.startswith("error: fleet worker failed")
    assert INJECTED in err
