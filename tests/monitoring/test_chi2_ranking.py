"""Caller ranking reads the χ² statistic and never the p-value.

``chi2_statistic`` stands apart from ``chi2_sf`` so that
``CallMatrixTracer.most_anomalous_caller``, which ranks beans for a
microreboot, never calls ``chi2_sf``.  The ``reference_*`` functions
are the implementations from before the split, kept here verbatim as
the oracle: every value must match them bit for bit.
``chi2_goodness_of_fit`` below joins the statistic and its p-value
again, and scipy cross-checks it.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from repro.learning import chi2
from repro.learning.chi2 import chi2_sf, chi2_statistic
from repro.monitoring import tracing
from repro.monitoring.tracing import CallMatrixTracer


def chi2_goodness_of_fit(observed, expected_proportions):
    """Test whether observed counts follow baseline proportions.

    Takes :func:`chi2_statistic`'s arguments and returns ``(statistic,
    p_value)``; its degenerate case is "no deviation" ``(0.0, 1.0)``.
    """
    statistic, dof = chi2_statistic(observed, expected_proportions)
    if dof == 0:
        return 0.0, 1.0
    return statistic, chi2_sf(statistic, dof)


def reference_goodness_of_fit(observed, expected_proportions):
    observed = np.asarray(observed, dtype=float)
    expected_proportions = np.asarray(expected_proportions, dtype=float)
    if observed.shape != expected_proportions.shape:
        raise ValueError(
            f"shape mismatch: {observed.shape} vs {expected_proportions.shape}"
        )
    if np.any(observed < 0) or np.any(expected_proportions < 0):
        raise ValueError("counts and proportions must be non-negative")

    total = observed.sum()
    prop_total = expected_proportions.sum()
    if total == 0 or prop_total == 0:
        return 0.0, 1.0
    expected = expected_proportions / prop_total * total

    keep = expected > 0
    observed = observed[keep]
    expected = expected[keep]
    if observed.size < 2:
        return 0.0, 1.0

    statistic = float(np.sum((observed - expected) ** 2 / expected))
    dof = observed.size - 1
    return statistic, chi2_sf(statistic, dof)


def reference_caller_anomaly(tracer, caller):
    i = tracer.caller_names.index(caller)
    baseline_row = tracer._baseline_sum()[i]
    current_row = tracer._current_sum()[i]
    statistic, p_value = reference_goodness_of_fit(current_row, baseline_row)

    baseline_ticks = max(1, len(tracer._history) - tracer.current_window)
    expected_per_tick = baseline_row.sum() / baseline_ticks
    current_per_tick = current_row.sum() / max(1, tracer.current_window)
    volume_log_ratio = math.log(
        (current_per_tick + 1.0) / (expected_per_tick + 1.0)
    )
    return statistic, p_value, volume_log_ratio


def reference_most_anomalous_caller(tracer):
    best_name, best_score = None, 0.0
    for caller in tracer.callers_with_traffic():
        if caller not in tracer.callee_names:
            continue  # skip the servlet pseudo-caller
        statistic, _, volume = reference_caller_anomaly(tracer, caller)
        score = max(statistic, 40.0 * abs(volume))
        if score > best_score:
            best_name, best_score = caller, score
    return best_name, best_score


def _bits(*values):
    return [struct.pack("<d", value) for value in values]


def _forbid_p_values(monkeypatch):
    def refuse(statistic, dof):
        raise AssertionError("ranking asked for a p-value")

    monkeypatch.setattr(tracing, "chi2_sf", refuse)
    monkeypatch.setattr(chi2, "chi2_sf", refuse)


_value = st.one_of(
    st.just(0.0),
    st.integers(0, 50).map(float),
    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def count_pairs(draw):
    size = draw(st.integers(1, 6))
    vector = st.lists(_value, min_size=size, max_size=size)
    return np.array(draw(vector)), np.array(draw(vector))


@given(count_pairs())
def test_statistic_is_the_goodness_of_fit_statistic(pair):
    observed, proportions = pair
    statistic, dof = chi2_statistic(observed, proportions)
    ref_statistic, ref_p = reference_goodness_of_fit(observed, proportions)
    assert _bits(*chi2_goodness_of_fit(observed, proportions)) == _bits(
        ref_statistic, ref_p
    )
    assert _bits(statistic) == _bits(ref_statistic)
    if dof == 0:
        assert (statistic, ref_p) == (0.0, 1.0)
    else:
        assert _bits(chi2_sf(statistic, dof)) == _bits(ref_p)


@pytest.mark.parametrize(
    "observed, proportions",
    [
        ([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]),  # no current calls
        ([1.0, 1.0, 1.0], [0.0, 0.0, 0.0]),  # no baseline calls
        ([5.0, 3.0], [1.0, 0.0]),  # one category left
        ([7.0], [1.0]),
    ],
)
def test_degenerate_cases_have_no_degrees_of_freedom(observed, proportions):
    assert chi2_statistic(observed, proportions) == (0.0, 0)
    assert chi2_goodness_of_fit(observed, proportions) == (0.0, 1.0)


def test_goodness_of_fit_matches_scipy():
    observed = np.array([18.0, 30.0, 52.0])
    expected_props = np.array([0.2, 0.3, 0.5])
    statistic, p = chi2_goodness_of_fit(observed, expected_props)
    ref = stats.chisquare(observed, expected_props * observed.sum())
    assert statistic == pytest.approx(ref.statistic)
    assert p == pytest.approx(ref.pvalue)


def test_goodness_of_fit_detects_shift():
    baseline = np.array([0.5, 0.5])
    _, p_same = chi2_goodness_of_fit(np.array([50.0, 50.0]), baseline)
    _, p_diff = chi2_goodness_of_fit(np.array([90.0, 10.0]), baseline)
    assert p_same > 0.9
    assert p_diff < 1e-6


CALLERS = ["__servlet__", "A", "B", "C"]
BEANS = ["A", "B", "C"]


@st.composite
def tracers(draw):
    tracer = CallMatrixTracer(CALLERS, BEANS, baseline_window=12,
                              current_window=3)
    cell = st.one_of(st.just(0), st.integers(0, 9))
    ticks = draw(st.integers(1, 20))
    freeze_at = draw(st.one_of(st.none(), st.integers(0, ticks - 1)))
    for tick in range(ticks):
        if tick == freeze_at:
            tracer.freeze_baseline()
        cells = draw(st.lists(cell, min_size=12, max_size=12))
        tracer.observe(np.array(cells, dtype=float).reshape(4, 3))
    return tracer


@given(tracers())
def test_caller_anomaly_is_unchanged(tracer):
    for caller in CALLERS:
        assert _bits(*tracer.caller_anomaly(caller)) == _bits(
            *reference_caller_anomaly(tracer, caller)
        )


@given(tracers())
def test_ranking_never_asks_for_a_p_value(tracer):
    expected_name, expected_score = reference_most_anomalous_caller(tracer)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _forbid_p_values(monkeypatch)
        name, score = tracer.most_anomalous_caller()
    assert name == expected_name
    assert _bits(score) == _bits(expected_score)


def test_wedged_bean_ranked_without_p_values(warm_service, monkeypatch):
    first = warm_service.step()
    tracer = CallMatrixTracer(first.caller_names, first.callee_names)
    tracer.observe(first.call_matrix)
    for _ in range(139):
        tracer.observe(warm_service.step().call_matrix)
    tracer.freeze_baseline()
    warm_service.app.container.set_deadlocked("ItemBean")
    for _ in range(10):
        tracer.observe(warm_service.step().call_matrix)
    expected_name, expected_score = reference_most_anomalous_caller(tracer)
    assert expected_name == "ItemBean"

    _forbid_p_values(monkeypatch)
    name, score = tracer.most_anomalous_caller()
    assert name == expected_name
    assert _bits(score) == _bits(expected_score)
