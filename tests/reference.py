"""References independent of the library paths they check.

The brute-force aggregation references are plain Python. Each takes the
updates as lists of floats, one list per row. ``bf_mean`` adds the rows one at
a time (a left fold), the order ``rfc_sim.aggregation.aggregate`` promises,
not builtin ``sum``, which is a compensated sum from Python 3.12 on.

``reference_score`` scores one candidate at a time, as consensus did before it
stacked a round's candidates: one forward pass per parameter vector and a
scalar macro-F1 that loops over the classes in Python.
"""

import numpy as np

from rfc_sim import models


def bf_sq_dist(a, b):
    return sum((x - y) ** 2 for x, y in zip(a, b))


def bf_mean(updates):
    n = len(updates)
    dim = len(updates[0])
    out = []
    for k in range(dim):
        acc = 0.0
        for u in updates:
            acc += u[k]
        out.append(acc / n)
    return out


def bf_krum_scores(updates, f):
    n = len(updates)
    scores = []
    for i in range(n):
        dists = sorted(bf_sq_dist(updates[i], updates[j]) for j in range(n) if j != i)
        scores.append(sum(dists[: n - f - 2]))
    return scores


def bf_kept(rule, updates, f, m):
    """Indices of the rows ``rule`` keeps, in averaging order; ties go to the lowest index."""
    n = len(updates)
    if rule == "fedavg":
        return list(range(n))
    if rule == "geomed":
        totals = [sum(bf_sq_dist(u, v) for v in updates) for u in updates]
        return [totals.index(min(totals))]
    scores = bf_krum_scores(updates, f)
    return sorted(range(n), key=lambda i: (scores[i], i))[: m if rule == "bulyan" else 1]


def bf_krum(updates, f):
    return updates[bf_kept("krum", updates, f, 1)[0]]


def bf_bulyan(updates, f, m):
    return bf_mean([updates[i] for i in bf_kept("bulyan", updates, f, m)])


def bf_geomed(updates):
    return updates[bf_kept("geomed", updates, 0, 1)[0]]


def reference_macro_f1(predictions, labels, num_classes):
    """Macro-F1 of one candidate: per class in Python, the class values summed as a left fold from 0.0."""
    pred = np.asarray(predictions, dtype=np.int64)
    true = np.asarray(labels, dtype=np.int64)
    tp = np.bincount(true[pred == true], minlength=num_classes).tolist()
    predicted = np.bincount(pred, minlength=num_classes).tolist()
    actual = np.bincount(true, minlength=num_classes).tolist()
    total = 0.0
    for c in range(num_classes):
        precision = tp[c] / predicted[c] if predicted[c] > 0 else 0.0
        recall = tp[c] / actual[c] if actual[c] > 0 else 0.0
        total += 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return total / num_classes


def reference_score(metric_name, spec, p, data):
    """One parameter vector's consensus score on ``data``, from its own forward pass."""
    if metric_name == "accuracy":
        return models.evaluate(spec, p, data)[1]
    if metric_name == "loss":
        return models.evaluate(spec, p, data)[0]
    return reference_macro_f1(models.log_probs(spec, p, data).argmax(axis=1), data.y, spec.num_classes)
