"""Evaluation metrics, backdoor-task evaluation, and per-run summary statistics.

Backdoor accuracy follows the attack-success convention: the fraction of
triggered inputs classified as the target label. The clean-label reading
(accuracy of triggered inputs against their original labels) is computed
alongside and exported as ``backdoor_accuracy_clean``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from . import models
from .data import Dataset

METRIC_DIRECTIONS = {"accuracy": "maximize", "loss": "minimize", "macro_f1": "maximize"}


@dataclass(frozen=True)
class MetricSpec:
    name: str

    def __post_init__(self):
        if self.name not in METRIC_DIRECTIONS:
            raise ValueError(f"unknown metric {self.name!r}")

    @property
    def direction(self) -> str:
        """``maximize`` or ``minimize``: fixed by the metric's name."""
        return METRIC_DIRECTIONS[self.name]


@dataclass(frozen=True)
class RoundRecord:
    round: int
    winning_pool_id: int
    val_metric: float
    test_accuracy: float
    test_loss: float
    backdoor_accuracy_target: float
    backdoor_accuracy_clean: float
    backdoor_loss: float
    pool_metrics: Tuple[float, ...]


@dataclass(frozen=True)
class SummaryStats:
    final: float
    best: float
    avg_last_10: float
    nonfinite_in_window: int


def macro_f1(predictions: Sequence[int], labels: Sequence[int], num_classes: int) -> float:
    """Unweighted mean over classes of 2PR/(P+R); empty denominators count as 0."""
    if len(predictions) != len(labels):
        raise ValueError(f"length mismatch: {len(predictions)} predictions vs {len(labels)} labels")
    if len(labels) == 0:
        raise ValueError("macro_f1 of empty inputs")
    pred = np.asarray(predictions, dtype=np.int64)
    true = np.asarray(labels, dtype=np.int64)
    if min(pred.min(), true.min()) < 0 or max(pred.max(), true.max()) >= num_classes:
        raise ValueError(f"macro_f1 labels must lie in [0, {num_classes})")
    hit = pred == true
    tp = np.bincount(true[hit], minlength=num_classes).tolist()
    fp = np.bincount(pred[~hit], minlength=num_classes).tolist()
    fn = np.bincount(true[~hit], minlength=num_classes).tolist()
    total = 0.0
    for c in range(num_classes):
        precision = tp[c] / (tp[c] + fp[c]) if tp[c] + fp[c] > 0 else 0.0
        recall = tp[c] / (tp[c] + fn[c]) if tp[c] + fn[c] > 0 else 0.0
        total += 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return total / num_classes


def summarize(series: Sequence[float], direction: str) -> SummaryStats:
    """final / best / mean-of-last-10 for one metric series.

    ``final`` is the literal last value. ``best`` is the max (maximize) or min
    (minimize) over finite entries. The last-10 window averages its finite
    entries with a left-fold sum and reports how many it had to skip.
    """
    if len(series) == 0:
        raise ValueError("summarize of empty series")
    if direction not in ("maximize", "minimize"):
        raise ValueError(f"unknown direction {direction!r}")
    finite = [v for v in series if math.isfinite(v)]
    if finite:
        best = max(finite) if direction == "maximize" else min(finite)
    else:
        best = float("nan")
    window = list(series[-10:])
    finite_window = [v for v in window if math.isfinite(v)]
    if finite_window:
        acc = 0.0
        for v in finite_window:
            acc += v
        avg = acc / len(finite_window)
    else:
        avg = float("nan")
    return SummaryStats(final=float(series[-1]), best=best, avg_last_10=avg,
                        nonfinite_in_window=len(window) - len(finite_window))


def evaluate_backdoor(spec: models.ModelSpec, p: np.ndarray, backdoor_test: Dataset,
                      target_label: int) -> Tuple[float, float, float]:
    """(share predicted as target, share predicted as the original label, mean
    cross-entropy toward target) on triggered inputs, from one forward pass."""
    if len(backdoor_test) == 0:
        raise ValueError("empty backdoor test set")
    logp = models.log_probs(spec, p, backdoor_test)
    preds = logp.argmax(axis=1)
    accuracy = float((preds == target_label).mean())
    clean = int((preds == backdoor_test.y).sum()) / len(backdoor_test)
    loss = float(-logp[:, target_label].mean())
    return accuracy, clean, loss


def score_model(metric: MetricSpec, spec: models.ModelSpec, p: np.ndarray,
                data: Dataset) -> float:
    """Value of the configured consensus metric on one dataset."""
    if metric.name == "accuracy":
        return models.evaluate(spec, p, data)[1]
    if metric.name == "loss":
        return models.evaluate(spec, p, data)[0]
    preds = models.predict_labels(spec, p, data)
    return macro_f1(preds, data.y, spec.num_classes)


def better(a: float, b: float, direction: str) -> bool:
    """Strictly-better comparison under the metric direction (ties are not better)."""
    return a > b if direction == "maximize" else a < b
