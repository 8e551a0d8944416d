"""Attribute ranking for correlation analysis.

"Correlation analysis proceeds by identifying attributes in the data
that are correlated strongly with (or predictive of) a failure-
indicator attribute" (Section 4.3.2).  The ranking here is absolute
Pearson correlation; the Bayesian-network mode of the correlation
approach ranks by mutual information instead
(:meth:`repro.learning.bayesnet.DiscreteBayesNet.attribute_relevance`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["correlation_ranking"]


def correlation_ranking(features: np.ndarray, indicator: np.ndarray) -> np.ndarray:
    """Absolute Pearson correlation of each column with the indicator.

    Constant columns (or a constant indicator) yield a correlation of
    exactly 0 rather than NaN, so dead metrics never rank.
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    indicator = np.asarray(indicator, dtype=float)
    if len(indicator) != len(features):
        raise ValueError(
            f"{len(features)} rows but indicator has {len(indicator)}"
        )
    if len(features) < 2:
        return np.zeros(features.shape[1])
    x = features - features.mean(axis=0)
    y = indicator - indicator.mean()
    x_norm = np.sqrt(np.sum(x**2, axis=0))
    y_norm = np.sqrt(np.sum(y**2))
    denom = x_norm * y_norm
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.where(denom > 0, (x.T @ y) / denom, 0.0)
    return np.abs(corr)
