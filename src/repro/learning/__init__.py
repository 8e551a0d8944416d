"""Machine-learning substrate for the self-healing reproduction.

The paper evaluates FixSym with synopses drawn from "statistics, machine
learning, and performance modeling" (Section 5.2): AdaBoost over weak
learners, nearest neighbor, and k-means clustering.  The diagnosis-based
approaches additionally need chi-squared tests (anomaly detection,
Example 2), correlation scoring and Bayesian networks (correlation
analysis, Example 3).

No third-party ML library is used; everything here is implemented from
scratch on top of numpy, deterministic and seedable.  The one exception
is the χ² survival function: :func:`chi2_sf` imports scipy's
regularized incomplete gamma inside the function, so importing this
package does not load scipy.
"""

from repro.learning.adaboost import AdaBoostClassifier
from repro.learning.bayesnet import DiscreteBayesNet, discretize
from repro.learning.chi2 import (
    chi2_goodness_of_fit,
    chi2_independence,
    chi2_sf,
)
from repro.learning.dataset import (
    Dataset,
    MinMaxScaler,
    Standardizer,
    train_test_split,
)
from repro.learning.distance import (
    euclidean,
    manhattan,
    pairwise_euclidean,
)
from repro.learning.feature_selection import (
    correlation_ranking,
    mutual_information,
    top_k_features,
)
from repro.learning.kmeans import KMeans, PerClassCentroids
from repro.learning.knn import KNeighborsClassifier
from repro.learning.metrics import accuracy, confusion_matrix, macro_f1
from repro.learning.naive_bayes import GaussianNaiveBayes
from repro.learning.online import DriftDetector, RetrainScheduler
from repro.learning.stumps import DecisionStump
from repro.learning.tree import DecisionTree

__all__ = [
    "AdaBoostClassifier",
    "Dataset",
    "DecisionStump",
    "DecisionTree",
    "DiscreteBayesNet",
    "DriftDetector",
    "GaussianNaiveBayes",
    "KMeans",
    "KNeighborsClassifier",
    "MinMaxScaler",
    "PerClassCentroids",
    "RetrainScheduler",
    "Standardizer",
    "accuracy",
    "chi2_goodness_of_fit",
    "chi2_independence",
    "chi2_sf",
    "confusion_matrix",
    "correlation_ranking",
    "discretize",
    "euclidean",
    "macro_f1",
    "manhattan",
    "mutual_information",
    "pairwise_euclidean",
    "top_k_features",
    "train_test_split",
]
