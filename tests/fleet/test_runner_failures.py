"""The sharded fleet runner survives its own faults.

A member that raises (in its constructor or in any round), a worker
that is SIGKILLed, and a worker that stalls past ``barrier_timeout``
must each end the campaign promptly with an error that names the
cause: no surviving worker left running, no shared-memory segment
left behind.  ``repro fleet`` reports a dead or failing worker as one
``error:`` line and exit code 1.  Workers whose coordinator is killed
exit on their own.

The faults are injected by monkeypatching module globals of
:mod:`repro.fleet.campaign`, which reaches the workers only when they
are forked from this process.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

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


# A 2-worker campaign long enough to outlive the kill.  Each worker
# leaves a file named after its pid once it runs its first round, so
# the coordinator is killed while both workers are alive and past
# their start.
_ORPHANING_CAMPAIGN = r"""
import os
import sys

from repro.fleet import campaign

pid_dir = sys.argv[1]
original_round = campaign._member_round
announced = []


def member_round(member, *args):
    if not announced:
        announced.append(True)
        open(os.path.join(pid_dir, str(os.getpid())), "w").close()
    return original_round(member, *args)


campaign._member_round = member_round
campaign.run_fleet_campaign(
    n_services=2, episodes_per_service=50, seed=3, workers=2
)
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` is a process that has not exited.

    An exited worker whose new parent does not reap it stays a zombie
    (state ``Z``) in the process table.
    """
    try:
        stat = Path(f"/proc/{pid}/stat").read_text(encoding="ascii")
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(
    not os.path.isdir("/proc/self"), reason="reads process states in /proc"
)
def test_workers_exit_when_their_coordinator_dies(tmp_path):
    pid_dir = tmp_path / "pids"
    pid_dir.mkdir()
    env = dict(
        os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[2] / "src")
    )
    with open(tmp_path / "stderr", "w") as stderr:
        coordinator = subprocess.Popen(
            [sys.executable, "-c", _ORPHANING_CAMPAIGN, str(pid_dir)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=stderr,
        )
    workers: list[int] = []
    try:
        deadline = time.monotonic() + 60.0
        while len(workers) < 2:
            if coordinator.poll() is not None:
                pytest.fail((tmp_path / "stderr").read_text())
            assert time.monotonic() < deadline, "workers never ran a round"
            time.sleep(0.05)
            workers = [int(name) for name in os.listdir(pid_dir)]
        coordinator.kill()
        coordinator.wait()
        deadline = time.monotonic() + 5.0
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid in workers if _running(pid)] == []
    finally:
        coordinator.kill()
        coordinator.wait()
        for pid in workers:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
