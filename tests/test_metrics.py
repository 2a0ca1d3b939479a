import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfc_sim import metrics, models
from rfc_sim.data import Dataset, gen_synthetic
from rfc_sim.attacks import build_backdoor_test
from rfc_sim.metrics import MetricSpec, evaluate_backdoor, macro_f1, score_model, summarize


def bf_macro_f1(predictions, labels, num_classes):
    total = 0.0
    for c in range(num_classes):
        tp = sum(1 for p, t in zip(predictions, labels) if p == c and t == c)
        fp = sum(1 for p, t in zip(predictions, labels) if p == c and t != c)
        fn = sum(1 for p, t in zip(predictions, labels) if p != c and t == c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        total += 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return total / num_classes


def test_metric_spec_directions():
    assert MetricSpec("accuracy").direction == "maximize"
    assert MetricSpec("loss").direction == "minimize"
    assert MetricSpec("macro_f1").direction == "maximize"
    with pytest.raises(ValueError):
        MetricSpec("auroc")


def test_macro_f1_perfect():
    assert macro_f1([0, 1, 2, 1], [0, 1, 2, 1], 3) == 1.0


def test_macro_f1_degenerate_binary():
    # all predicted 0 on balanced labels: F1(0) = 2/3, F1(1) = 0
    preds = [0, 0, 0, 0]
    labels = [0, 0, 1, 1]
    expected = ((2 * 0.5 * 1.0 / 1.5) + 0.0) / 2
    assert macro_f1(preds, labels, 2) == pytest.approx(expected, abs=1e-12)
    assert macro_f1(preds, labels, 2) == pytest.approx(1 / 3, abs=1e-12)


def test_macro_f1_errors():
    with pytest.raises(ValueError):
        macro_f1([0], [0, 1], 2)
    with pytest.raises(ValueError):
        macro_f1([], [], 2)


def test_macro_f1_rejects_out_of_range_labels():
    for preds, labels in (([0, 2], [0, 1]), ([0, 1], [-1, 1])):
        with pytest.raises(ValueError, match=r"lie in \[0, 2\)"):
            macro_f1(preds, labels, 2)


def test_macro_f1_equals_accuracy_on_diagonal_confusion():
    labels = [0, 0, 1, 1, 2, 2]
    assert macro_f1(labels, labels, 3) == 1.0


@settings(max_examples=60)
@given(st.integers(2, 5), st.integers(1, 40), st.integers(0, 2**32))
def test_macro_f1_matches_bruteforce(num_classes, n, seed):
    rng = random.Random(seed)
    preds = [rng.randrange(num_classes) for _ in range(n)]
    labels = [rng.randrange(num_classes) for _ in range(n)]
    got = macro_f1(preds, labels, num_classes)
    assert got == pytest.approx(bf_macro_f1(preds, labels, num_classes), abs=1e-12)
    assert 0.0 <= got <= 1.0


def test_summarize_short_series():
    stats = summarize([0.5, 0.6, 0.9, 0.8], "maximize")
    assert stats.final == 0.8
    assert stats.best == 0.9
    assert stats.avg_last_10 == (((0.5 + 0.6) + 0.9) + 0.8) / 4
    assert stats.nonfinite_in_window == 0


def test_summarize_constant_series():
    stats = summarize([0.25] * 7, "minimize")
    assert stats.final == stats.best == stats.avg_last_10 == 0.25


def test_summarize_window_ignores_prefix():
    series = [100.0, 100.0] + [float(i) for i in range(10)]
    stats = summarize(series, "maximize")
    assert stats.final == 9.0
    assert stats.best == 100.0
    acc = 0.0
    for v in range(10):
        acc += float(v)
    assert stats.avg_last_10 == acc / 10


def test_summarize_minimize_best():
    stats = summarize([0.5, 0.2, 0.9], "minimize")
    assert stats.best == 0.2


def test_summarize_excludes_nonfinite_with_count():
    series = [0.5, float("nan"), 1.5, float("inf"), 2.5]
    stats = summarize(series, "maximize")
    assert stats.best == 2.5
    assert stats.avg_last_10 == ((0.5 + 1.5) + 2.5) / 3
    assert stats.nonfinite_in_window == 2


def test_summarize_final_keeps_nan():
    stats = summarize([0.5, float("nan")], "maximize")
    assert math.isnan(stats.final)
    assert stats.best == 0.5


def test_summarize_prefix_padding_invariance():
    tail = [0.1 * i for i in range(1, 13)]
    padded = [float("nan")] * 5 + tail
    a = summarize(tail, "maximize")
    b = summarize(padded, "maximize")
    assert (a.final, a.best, a.avg_last_10) == (b.final, b.best, b.avg_last_10)


def test_summarize_errors():
    with pytest.raises(ValueError):
        summarize([], "maximize")
    with pytest.raises(ValueError):
        summarize([1.0], "upward")


def test_evaluate_backdoor_hardcoded_target_model():
    spec = models.ModelSpec("linear", 4, 3)
    p = np.zeros(models.param_count(spec))
    p[4 * 3 + 1] = 100.0  # bias of class 1
    data = gen_synthetic(3, 2, 2, per_class=5, noise_sigma=0.1, seed=1)
    triggered = build_backdoor_test(data, 2, 2, 1)
    acc, clean, loss = evaluate_backdoor(spec, p, triggered, target_label=1)
    assert acc == 1.0
    assert clean == float(np.mean(triggered.y == 1))
    assert loss < 1e-6


def test_evaluate_backdoor_uniform_model_loss():
    spec = models.ModelSpec("linear", 4, 3)
    p = np.zeros(models.param_count(spec))
    data = gen_synthetic(3, 2, 2, per_class=4, noise_sigma=0.1, seed=2)
    triggered = build_backdoor_test(data, 2, 2, 1)
    acc, clean, loss = evaluate_backdoor(spec, p, triggered, target_label=2)
    assert loss == pytest.approx(math.log(3), abs=1e-12)
    assert acc == 0.0  # uniform logits argmax to class 0, target is 2
    assert clean == models.evaluate(spec, p, triggered)[1]


def test_evaluate_backdoor_clean_model_near_target_prior():
    # a clean, converged model should classify triggered inputs mostly by their
    # true class, so target hits stay near the target-class prior
    train = gen_synthetic(3, 4, 4, per_class=80, noise_sigma=0.2, seed=3)
    spec = models.ModelSpec("linear", 16, 3)
    opt = models.OptimizerConfig(kind="adam", learning_rate=0.01, local_epochs=15, batch_size=8)
    trained = models.train_local(spec, models.init_params(spec, 4), train, opt, seed=5)
    test = gen_synthetic(3, 4, 4, per_class=40, noise_sigma=0.2, seed=6)
    triggered = build_backdoor_test(test, 4, 4, 2)
    acc, clean, _ = evaluate_backdoor(spec, trained, triggered, target_label=0)
    assert abs(acc - 1 / 3) < 0.15
    # the clean-label reading is the plain accuracy of the same forward pass
    assert clean == models.evaluate(spec, trained, triggered)[1]


def test_evaluate_backdoor_empty():
    spec = models.ModelSpec("linear", 4, 2)
    with pytest.raises(ValueError):
        evaluate_backdoor(spec, np.zeros(models.param_count(spec)),
                          Dataset(np.zeros((0, 4)), np.zeros(0, dtype=np.int64)), 0)


def test_score_model_all_metrics():
    spec = models.ModelSpec("linear", 4, 3)
    p = models.init_params(spec, 1)
    data = gen_synthetic(3, 2, 2, per_class=10, noise_sigma=0.1, seed=9)
    loss, acc = models.evaluate(spec, p, data)
    assert score_model(MetricSpec("accuracy"), spec, p, data) == acc
    assert score_model(MetricSpec("loss"), spec, p, data) == loss
    preds = models.predict_labels(spec, p, data)
    labels = [int(label) for label in data.y]
    assert score_model(MetricSpec("macro_f1"), spec, p, data) == macro_f1(list(preds), labels, 3)


def test_better_directions():
    assert metrics.better(0.9, 0.8, "maximize")
    assert not metrics.better(0.8, 0.8, "maximize")
    assert metrics.better(0.3, 0.4, "minimize")
    assert not metrics.better(0.4, 0.4, "minimize")
