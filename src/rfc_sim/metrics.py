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
            raise ValueError(f"metric.name must be one of {', '.join(METRIC_DIRECTIONS)}, got {self.name!r}")

    @property
    def direction(self) -> str:
        """``maximize`` or ``minimize``: fixed by the metric's name."""
        return METRIC_DIRECTIONS[self.name]


@dataclass(frozen=True)
class RoundRecord:
    round: int
    winning_pool: int
    val_metric: float
    test_accuracy: float
    test_loss: float
    backdoor_accuracy_target: float
    backdoor_accuracy_clean: float
    backdoor_loss: float


@dataclass(frozen=True)
class SummaryStats:
    final: float
    best: float
    avg_last_10: float
    nonfinite_in_window: int


def macro_f1(predictions, labels, num_classes: int):
    """Unweighted mean over classes of 2PR/(P+R), empty denominators counting as 0: a float for predictions
    ``[n]``, or a list of k for k candidates' ``[k, n]``, each as it would score alone."""
    pred = np.asarray(predictions, dtype=np.int64)
    true = np.asarray(labels, dtype=np.int64)
    if pred.shape[-1] != len(true):
        raise ValueError(f"length mismatch: {pred.shape[-1]} predictions vs {len(true)} labels")
    if len(true) == 0:
        raise ValueError("macro_f1 of empty inputs")
    if min(pred.min(initial=0), true.min()) < 0 or max(pred.max(initial=0), true.max()) >= num_classes:
        raise ValueError(f"macro_f1 labels must lie in [0, {num_classes})")
    rows = pred.reshape(-1, len(true))
    # one bin per (candidate, class) pair; the counts are exact, so their order does not matter
    at, bins = num_classes * np.arange(len(rows))[:, None], len(rows) * num_classes
    tp = np.bincount((at + true)[rows == true], minlength=bins).reshape(-1, num_classes)
    predicted = np.bincount((at + rows).ravel(), minlength=bins).reshape(-1, num_classes)  # tp + fp per class
    actual = np.bincount(true, minlength=num_classes)  # tp + fn per class
    precision, recall = (np.divide(tp, n, out=np.zeros(tp.shape), where=n > 0) for n in (predicted, actual))
    f1 = np.divide(2 * precision * recall, precision + recall, out=np.zeros(tp.shape), where=precision + recall > 0)
    # accumulate adds in order; its first term f1[:, 0] equals 0.0 + f1[:, 0], as f1 >= +0.0
    return (np.add.accumulate(f1, axis=1)[:, -1] / num_classes).reshape(pred.shape[:-1]).tolist()


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
    best = (max if direction == "maximize" else min)(finite, default=float("nan"))
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


def score_model(metric: MetricSpec, spec: models.ModelSpec, p: np.ndarray, data: Dataset):
    """Value of the configured consensus metric on one dataset: a float for one parameter vector, or
    for a stack ``[k, P]`` of candidates a list of k floats, each the bits it would get alone."""
    if metric.name == "macro_f1":
        return macro_f1(models.log_probs(spec, p, data).argmax(axis=-1), data.y, spec.num_classes)
    loss, accuracy = models.evaluate(spec, p, data)
    return loss if metric.name == "loss" else accuracy
