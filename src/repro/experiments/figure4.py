"""Figure 4 / Table 3 — synopsis comparison (accuracy and time).

The paper's protocol (Section 5.2): FixSym runs on simulator-generated
failure states; "the x-axis corresponds to the number of training
samples — each representing the symptoms of a failure and a successful
fix"; "the y-axis shows the accuracy of the current synopsis computed
on a fixed test set comprising 1000 failure states (symptoms) and
correct fixes generated by the simulator."

Per failure, FixSym tries ranked fixes until the correct one is found
(Figure 3); every success appends a training pair and triggers a
synopsis refit — which is exactly why AdaBoost's cumulative learning
time in Table 3 dwarfs the instance-based synopses'.

Paper numbers for reference:
    AdaBoost(60): 98% accuracy at ~37 correct fixes; 1740 s for 50.
    Nearest neighbor: 98% at ~85 correct fixes; 90 s for 50.
    K-means: plateaus near 87%; 90 s for 50.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache

from repro.core.synopses import build_synopsis
from repro.experiments.data import FailureEpisodeGenerator, generate_failure_dataset
from repro.fixes.catalog import ALL_FIX_KINDS
from repro.learning.dataset import Dataset
from repro.learning.metrics import accuracy

__all__ = [
    "Figure4Result",
    "SynopsisCurve",
    "format_figure4",
    "format_table3",
    "run_figure4",
]

# Canonical experiment scale shared by the Figure 4 / Table 3 benches
# and the ablations (so the cached dataset is generated once).
FIG4_TRAIN_SIZE = 130
FIG4_TEST_SIZE = 400

# Paper-reported reference values, kept next to the measured output.
PAPER_REFERENCE = {
    "adaboost": {"fixes_to_98": 37, "time_50_s": 1740.0, "acc_50": 0.985},
    "nearest_neighbor": {"fixes_to_98": 85, "time_50_s": 90.0, "acc_50": 0.955},
    "kmeans": {"fixes_to_98": None, "time_50_s": 90.0, "acc_50": 0.87},
}


@dataclass
class SynopsisCurve:
    """Learning curve and cost accounting for one synopsis."""

    name: str
    points: list[tuple[int, float]] = field(default_factory=list)
    learning_time_at_50_s: float = 0.0
    wall_time_at_50_s: float = 0.0
    accuracy_at_50: float = 0.0
    total_attempts: int = 0
    total_successes: int = 0

    def accuracy_at(self, n_fixes: int) -> float:
        """Accuracy at the largest evaluated point <= ``n_fixes``."""
        best = 0.0
        for n, acc in self.points:
            if n <= n_fixes:
                best = acc
        return best

    def fixes_to_reach(self, level: float) -> int | None:
        for n, acc in self.points:
            if acc >= level:
                return n
        return None


@dataclass
class Figure4Result:
    curves: dict[str, SynopsisCurve]
    n_test: int
    max_correct_fixes: int


@lru_cache(maxsize=4)
def _cached_datasets(
    seed: int, n_train: int, n_test: int
) -> tuple[Dataset, Dataset]:
    """Train-stream and test datasets (generation dominates runtime)."""
    generator = FailureEpisodeGenerator(seed)
    train, _ = generate_failure_dataset(n_train, seed, generator=generator)
    test_gen = FailureEpisodeGenerator(seed + 9000)
    test, _ = generate_failure_dataset(n_test, seed + 9000, generator=test_gen)
    return train, test


def run_figure4(
    n_test: int = 500,
    max_correct_fixes: int = 120,
    seed: int = 42,
    synopsis_names: tuple[str, ...] = (
        "adaboost",
        "nearest_neighbor",
        "kmeans",
    ),
    eval_every: int = 5,
) -> Figure4Result:
    """Run the FixSym learning-curve experiment for each synopsis.

    The failure stream and the fixed test set are shared across
    synopses, so curves are directly comparable.
    """
    train, test = _cached_datasets(seed, max_correct_fixes + 10, n_test)
    eval_points = sorted(
        set(range(eval_every, max_correct_fixes + 1, eval_every))
        | {1, 2, 37, 50, 85, max_correct_fixes}
    )

    curves: dict[str, SynopsisCurve] = {}
    for name in synopsis_names:
        synopsis = build_synopsis(name, ALL_FIX_KINDS)
        curve = SynopsisCurve(name=name)
        wall_started = time.perf_counter()
        successes = 0
        stream_idx = 0
        while successes < max_correct_fixes and stream_idx < train.n_samples:
            symptoms = train.features[stream_idx]
            correct = train.labels[stream_idx]
            stream_idx += 1
            # Figure 3's inner loop: try ranked fixes until correct.
            tried: set[str] = set()
            while True:
                suggestion = synopsis.suggest(symptoms, exclude=tried)
                if suggestion is None:
                    break
                fix_kind, _ = suggestion
                curve.total_attempts += 1
                if fix_kind == correct:
                    synopsis.add_success(symptoms, fix_kind)
                    successes += 1
                    break
                synopsis.observe_failure(symptoms, fix_kind)
                tried.add(fix_kind)
            if successes in eval_points and (
                not curve.points or curve.points[-1][0] != successes
            ):
                acc = accuracy(test.labels, synopsis.predict(test.features))
                curve.points.append((successes, acc))
            if successes == 50 and curve.accuracy_at_50 == 0.0:
                curve.learning_time_at_50_s = synopsis.training_time_s
                curve.wall_time_at_50_s = time.perf_counter() - wall_started
                curve.accuracy_at_50 = accuracy(
                    test.labels, synopsis.predict(test.features)
                )
        curve.total_successes = successes
        curves[name] = curve
    return Figure4Result(curves, n_test, max_correct_fixes)


def format_figure4(result: Figure4Result) -> str:
    lines = [
        "Figure 4 — synopsis accuracy vs. number of correct fixes "
        f"(test set: {result.n_test} failure states)",
        "paper: AdaBoost(60) reaches 98% by ~37 fixes; NN needs ~85; "
        "K-means plateaus near 87%",
        "",
    ]
    header = f"{'fixes':>6}"
    names = sorted(result.curves)
    for name in names:
        header += f"{name:>18}"
    lines.append(header)
    all_points = sorted(
        {n for curve in result.curves.values() for n, _ in curve.points}
    )
    for n in all_points:
        row = f"{n:>6}"
        for name in names:
            row += f"{result.curves[name].accuracy_at(n):>18.3f}"
        lines.append(row)
    lines.append("")
    for name in names:
        curve = result.curves[name]
        reached = curve.fixes_to_reach(0.95)
        lines.append(
            f"{name}: fixes to reach 95% accuracy = "
            f"{reached if reached is not None else 'never'}"
            f" (paper 98% point: {PAPER_REFERENCE[name]['fixes_to_98']})"
        )
    return "\n".join(lines)


def format_table3(result: Figure4Result) -> str:
    lines = [
        "Table 3 — synopsis comparison (learning time and accuracy at "
        "50 correct fixes)",
        "",
        f"{'synopsis':<18}{'learn time (s)':>15}{'wall (s)':>10}"
        f"{'acc@50':>8}{'paper time':>12}{'paper acc':>10}",
    ]
    for name in sorted(result.curves):
        curve = result.curves[name]
        ref = PAPER_REFERENCE[name]
        lines.append(
            f"{name:<18}{curve.learning_time_at_50_s:>15.2f}"
            f"{curve.wall_time_at_50_s:>10.2f}{curve.accuracy_at_50:>8.3f}"
            f"{ref['time_50_s']:>12.0f}{ref['acc_50']:>10.3f}"
        )
    ada = result.curves.get("adaboost")
    nn = result.curves.get("nearest_neighbor")
    if ada and nn and nn.wall_time_at_50_s > 0:
        ratio = ada.wall_time_at_50_s / nn.wall_time_at_50_s
        lines.append(
            f"\nAdaBoost/NN wall-time ratio to 50 fixes: {ratio:.0f}x "
            "(paper: ~19x; their 1740 s / 90 s include simulator time, "
            "and our instance-based learners retrain in microseconds)"
        )
    return "\n".join(lines)
