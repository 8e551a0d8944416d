"""Chi-squared tests for anomaly detection.

Example 2 detects EJB misbehavior by comparing current-window call
distributions against a baseline window: "Deviation can be detected,
e.g., using the chi-squared statistical test; see [4]."  The tests here
implement goodness-of-fit (current counts vs. baseline proportions) and
independence (contingency tables).

Ranking callers needs only the statistic, so :func:`chi2_statistic`
stands alone and numpy is this module's only import.  The survival
function is delegated to scipy's regularized incomplete gamma, which
:func:`chi2_sf` imports when first called: a process that never asks
for a p-value never loads scipy.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "chi2_goodness_of_fit",
    "chi2_independence",
    "chi2_sf",
    "chi2_statistic",
]


def chi2_sf(statistic: float, dof: int) -> float:
    """Survival function of the chi-squared distribution.

    ``P(X >= statistic)`` for ``X ~ chi2(dof)``, computed via the upper
    regularized incomplete gamma function.
    """
    if dof < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {dof}")
    if statistic < 0:
        raise ValueError(f"statistic must be >= 0, got {statistic}")
    from scipy import special

    return float(special.gammaincc(dof / 2.0, statistic / 2.0))


def chi2_statistic(
    observed: np.ndarray, expected_proportions: np.ndarray
) -> tuple[float, int]:
    """Goodness-of-fit statistic of observed counts against proportions.

    Args:
        observed: current-window counts per category (e.g. calls from
            one EJB type split across callee EJB types).
        expected_proportions: baseline distribution over the same
            categories; will be renormalized.

    Returns:
        ``(statistic, dof)``.  Categories whose expected count is zero
        are excluded (they carry no baseline information); if fewer
        than two categories remain, the test degenerates to "no
        deviation" and ``(0.0, 0)`` is returned.
    """
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
        return 0.0, 0
    expected = expected_proportions / prop_total * total

    keep = expected > 0
    observed = observed[keep]
    expected = expected[keep]
    if observed.size < 2:
        return 0.0, 0

    statistic = float(np.sum((observed - expected) ** 2 / expected))
    return statistic, observed.size - 1


def chi2_goodness_of_fit(
    observed: np.ndarray, expected_proportions: np.ndarray
) -> tuple[float, float]:
    """Test whether observed counts follow baseline proportions.

    Takes :func:`chi2_statistic`'s arguments and returns ``(statistic,
    p_value)``; its degenerate case is "no deviation" ``(0.0, 1.0)``.
    """
    statistic, dof = chi2_statistic(observed, expected_proportions)
    if dof == 0:
        return 0.0, 1.0
    return statistic, chi2_sf(statistic, dof)


def chi2_independence(table: np.ndarray) -> tuple[float, float]:
    """Pearson chi-squared test of independence on a contingency table.

    Rows and columns whose marginal totals are zero are dropped first;
    a table reduced below 2x2 yields ``(0.0, 1.0)``.
    """
    table = np.asarray(table, dtype=float)
    if table.ndim != 2:
        raise ValueError(f"contingency table must be 2-D, got {table.ndim}-D")
    if np.any(table < 0):
        raise ValueError("contingency table entries must be non-negative")

    table = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
    if table.shape[0] < 2 or table.shape[1] < 2:
        return 0.0, 1.0

    row_totals = table.sum(axis=1, keepdims=True)
    col_totals = table.sum(axis=0, keepdims=True)
    grand = table.sum()
    expected = row_totals @ col_totals / grand
    statistic = float(np.sum((table - expected) ** 2 / expected))
    dof = (table.shape[0] - 1) * (table.shape[1] - 1)
    return statistic, chi2_sf(statistic, dof)
