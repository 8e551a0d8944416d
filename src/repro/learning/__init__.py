"""Machine-learning substrate for the self-healing reproduction.

The paper evaluates FixSym with synopses drawn from "statistics, machine
learning, and performance modeling" (Section 5.2): AdaBoost over weak
learners, nearest neighbor, and k-means clustering.  The diagnosis-based
approaches additionally need chi-squared tests (anomaly detection,
Example 2), correlation scoring and Bayesian networks (correlation
analysis, Example 3).

No third-party ML library is used; everything here is implemented from
scratch on top of numpy, deterministic and seedable.  The one exception
is the χ² survival function: :func:`repro.learning.chi2.chi2_sf`
imports scipy's regularized incomplete gamma inside the function, so
importing this package does not load scipy.
"""
