"""Synopses: learned failure-symptom -> fix classifiers."""

from repro.core.synopses.adaboost import AdaBoostSynopsis
from repro.core.synopses.base import Synopsis
from repro.core.synopses.kmeans import KMeansSynopsis
from repro.core.synopses.naive_bayes import NaiveBayesSynopsis
from repro.core.synopses.nearest_neighbor import NearestNeighborSynopsis

__all__ = [
    "AdaBoostSynopsis",
    "KMeansSynopsis",
    "NaiveBayesSynopsis",
    "NearestNeighborSynopsis",
    "Synopsis",
]


def build_synopsis(name: str, fix_kinds: tuple[str, ...], **kwargs) -> Synopsis:
    """Factory over the registered synopsis families.

    Args:
        name: one of ``nearest_neighbor``, ``kmeans``, ``adaboost``,
            ``naive_bayes``.
        fix_kinds: class universe.
        kwargs: forwarded to the synopsis constructor.
    """
    families = {
        NearestNeighborSynopsis.name: NearestNeighborSynopsis,
        KMeansSynopsis.name: KMeansSynopsis,
        AdaBoostSynopsis.name: AdaBoostSynopsis,
        NaiveBayesSynopsis.name: NaiveBayesSynopsis,
    }
    if name not in families:
        raise KeyError(f"unknown synopsis {name!r}")
    return families[name](fix_kinds, **kwargs)
