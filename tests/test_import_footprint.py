"""The entry points load no third-party package beyond numpy and orjson.

Every ``repro`` process (the CLI, fleet coordinators and workers, test
workers) imports one of ``repro.experiments.campaign``,
``repro.fleet.campaign`` or ``repro.scenarios.runner``, so whatever
they load is paid at every start.  A fresh interpreter imports all
three and drives the FixSym paths that once pulled in heavier
libraries: ranking beans for a microreboot (the χ² statistic) and
counting deadlocks (the wait-for graph).  A library that only a rarely
taken path needs is imported inside that function instead, and no
package ``__init__`` on the way loads the paper's figure and table
harnesses.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]

ALLOWED = {"numpy", "orjson"}

_PROBE = r"""
import json, sys

bare = {name.split(".")[0] for name in sys.modules}

import repro.experiments.campaign
import repro.fleet.campaign
import repro.scenarios.runner

experiments = sorted(
    name for name in sys.modules if name.startswith("repro.experiments.")
)

import numpy as np

from repro.database.locks import HungTransaction, LockManager
from repro.database.schema import rubis_schema
from repro.experiments.campaign import run_campaign
from repro.faults.catalog import sample_fault
from repro.faults.scenarios import FIG4_FAULT_KINDS
from repro.monitoring.tracing import CallMatrixTracer
from repro.scenarios.runner import build_approach

tracer = CallMatrixTracer(["servlet", "A", "B"], ["A", "B"], 40, 4)
for tick in range(44):
    tracer.observe([[5, 5], [3, 3], [4, 1]] if tick < 40 else
                   [[5, 5], [6, 0], [4, 1]])
suspect, score = tracer.most_anomalous_caller()

locks = LockManager(rubis_schema())
locks.register_hung_transaction(HungTransaction("T1", "items", 0))
locks.register_hung_transaction(HungTransaction("T2", "items", 1))
locks.block_waiters(now=2)
cycles = locks.detect_deadlocks()

rng = np.random.default_rng(3)
faults = [sample_fault(kind, rng) for kind in FIG4_FAULT_KINDS]
result = run_campaign(
    build_approach("signature"), n_episodes=len(faults), seed=3,
    faults=faults,
)
fixes = [a.kind for r in result.reports for a in r.applications]

new = {name.split(".")[0] for name in sys.modules} - bare
print(json.dumps({
    "third_party": sorted(
        name for name in new
        if name not in sys.stdlib_module_names
        and not name.startswith("_")
        and name not in ("cython_runtime", "repro")
    ),
    "experiments": experiments,
    "suspect": suspect,
    "score": score,
    "cycles": len(cycles),
    "microreboots": fixes.count("microreboot_ejb"),
    "kills": fixes.count("kill_hung_query"),
}))
"""


@pytest.fixture(scope="module")
def probe() -> dict:
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_entry_points_load_only_numpy_and_orjson(probe):
    # The paths ran and found what they look for, so the check is not
    # vacuous.
    assert probe["suspect"] == "A" and probe["score"] > 0.0
    assert probe["cycles"] == 1
    assert probe["microreboots"] >= 1 and probe["kills"] >= 1
    assert "numpy" in probe["third_party"]
    extra = set(probe["third_party"]) - ALLOWED
    assert not extra, f"entry points load {sorted(extra)}"


def test_entry_points_load_no_experiment_harness(probe):
    assert probe["experiments"] == ["repro.experiments.campaign"]
