import math

import numpy as np
import pytest

from rfc_sim import models
from rfc_sim.data import Dataset
from rfc_sim.models import DivergenceError, ModelSpec, OptimizerConfig
from rfc_sim.seeds import Sm64Stream


def make_batch(spec, n, seed=0):
    stream = Sm64Stream(seed)
    x = np.array([[stream.uniform() for _ in range(spec.input_dim)] for _ in range(n)])
    return Dataset(x.reshape(n, spec.input_dim), np.arange(n) % spec.num_classes)


def empty(dim):
    return Dataset(np.zeros((0, dim)), np.zeros(0, dtype=np.int64))


def central_diff_grad(spec, p, batch, eps=1e-5):
    grad = np.zeros_like(p)
    for k in range(p.shape[0]):
        hi = p.copy(); hi[k] += eps
        lo = p.copy(); lo[k] -= eps
        loss_hi, _, _ = models.forward_loss_grad(spec, hi, batch)
        loss_lo, _, _ = models.forward_loss_grad(spec, lo, batch)
        grad[k] = (loss_hi - loss_lo) / (2 * eps)
    return grad


def test_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("cnn", 4, 3)
    with pytest.raises(ValueError):
        ModelSpec("linear", 4, 3, hidden_dim=2)
    with pytest.raises(ValueError):
        ModelSpec("mlp", 4, 3, hidden_dim=0)
    with pytest.raises(ValueError):
        ModelSpec("linear", 4, 1)


def test_optimizer_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(kind="rmsprop")
    with pytest.raises(ValueError):
        OptimizerConfig(learning_rate=-1e-3)
    with pytest.raises(ValueError):
        OptimizerConfig(adam_beta1=1.0)
    with pytest.raises(ValueError):
        OptimizerConfig(local_epochs=0)
    assert OptimizerConfig().learning_rate == 0.001
    assert OptimizerConfig().local_epochs == 10


def test_param_counts():
    assert models.param_count(ModelSpec("linear", 4, 3)) == 4 * 3 + 3
    assert models.param_count(ModelSpec("mlp", 5, 3, hidden_dim=8)) == (5 * 8 + 8) + (8 * 3 + 3)


def test_init_deterministic_and_bounded():
    spec = ModelSpec("linear", 4, 3)
    a = models.init_params(spec, 7)
    b = models.init_params(spec, 7)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, models.init_params(spec, 8))
    s = math.sqrt(6.0 / (4 + 3))
    assert np.all(np.abs(a[: 4 * 3]) <= s)


def test_init_biases_zero():
    lin = ModelSpec("linear", 4, 3)
    p = models.init_params(lin, 1)
    assert np.all(p[4 * 3 :] == 0.0)
    mlp = ModelSpec("mlp", 4, 3, hidden_dim=5)
    q = models.init_params(mlp, 1)
    assert np.all(q[4 * 5 : 4 * 5 + 5] == 0.0)
    assert np.all(q[4 * 5 + 5 + 5 * 3 :] == 0.0)


def test_zero_params_gives_uniform_softmax_loss():
    for c in (2, 3, 5):
        spec = ModelSpec("linear", 4, c)
        batch = make_batch(spec, 6)
        loss, _, _ = models.forward_loss_grad(spec, np.zeros(models.param_count(spec)), batch)
        assert loss == pytest.approx(math.log(c), abs=1e-12)


def test_duplicated_batch_same_loss_and_grad():
    spec = ModelSpec("linear", 3, 2)
    p = models.init_params(spec, 3)
    batch = make_batch(spec, 4, seed=5)
    loss1, grad1, correct1 = models.forward_loss_grad(spec, p, batch)
    doubled = Dataset(np.concatenate([batch.x, batch.x]), np.concatenate([batch.y, batch.y]))
    loss2, grad2, correct2 = models.forward_loss_grad(spec, p, doubled)
    assert loss1 == pytest.approx(loss2, rel=1e-12)
    assert np.allclose(grad1, grad2, rtol=1e-12, atol=1e-15)
    assert correct2 == 2 * correct1


def test_softmax_rows_sum_to_one():
    spec = ModelSpec("mlp", 4, 3, hidden_dim=6)
    p = models.init_params(spec, 2)
    lp = models.log_probs(spec, p, make_batch(spec, 8, seed=9))
    sums = np.exp(lp).sum(axis=1)
    assert np.allclose(sums, 1.0, atol=1e-12)


@pytest.mark.parametrize("spec,seed", [
    (ModelSpec("linear", 2, 2), 11),      # 6 params
    (ModelSpec("linear", 4, 3), 12),      # 15 params
    (ModelSpec("mlp", 2, 2, hidden_dim=3), 13),   # 17 params
    (ModelSpec("mlp", 3, 3, hidden_dim=4), 14),   # 31 params
])
def test_gradient_matches_central_differences(spec, seed):
    p = models.init_params(spec, seed)
    batch = make_batch(spec, 5, seed=seed)
    _, grad, _ = models.forward_loss_grad(spec, p, batch)
    numeric = central_diff_grad(spec, p, batch)
    assert np.max(np.abs(grad - numeric)) < 1e-6


def test_forward_rejects_nonfinite_params_and_bad_batch():
    spec = ModelSpec("linear", 3, 2)
    batch = make_batch(spec, 2)
    bad = np.full(models.param_count(spec), np.nan)
    with pytest.raises(ValueError, match="non-finite"):
        models.forward_loss_grad(spec, bad, batch)
    with pytest.raises(ValueError):
        models.forward_loss_grad(spec, models.init_params(spec, 0), empty(3))
    wrong_dim = Dataset(np.zeros((1, 5)), np.array([0]))
    with pytest.raises(ValueError):
        models.forward_loss_grad(spec, models.init_params(spec, 0), wrong_dim)


def test_train_local_zero_learning_rate_is_identity():
    spec = ModelSpec("linear", 3, 2)
    start = models.init_params(spec, 4)
    data = make_batch(spec, 6, seed=2)
    for kind in ("sgd", "adam"):
        opt = OptimizerConfig(kind=kind, learning_rate=0.0, local_epochs=3, batch_size=2)
        out = models.train_local(spec, start, data, opt, seed=1)
        assert np.array_equal(out, start)


def test_single_full_batch_sgd_step_matches_oracle():
    spec = ModelSpec("linear", 3, 2)
    start = models.init_params(spec, 8)
    data = make_batch(spec, 2, seed=3)
    lr = 0.05
    opt = OptimizerConfig(kind="sgd", learning_rate=lr, local_epochs=1, batch_size=8)
    out = models.train_local(spec, start, data, opt, seed=17)
    _, grad, _ = models.forward_loss_grad(spec, start, data)
    assert np.array_equal(out, start - lr * grad)


def test_train_local_deterministic():
    spec = ModelSpec("mlp", 3, 2, hidden_dim=4)
    start = models.init_params(spec, 1)
    data = make_batch(spec, 10, seed=6)
    opt = OptimizerConfig(kind="adam", learning_rate=0.01, local_epochs=3, batch_size=4)
    a = models.train_local(spec, start, data, opt, seed=5)
    b = models.train_local(spec, start, data, opt, seed=5)
    assert np.array_equal(a, b)
    c = models.train_local(spec, start, data, opt, seed=6)
    assert not np.array_equal(a, c)


def test_train_local_divergence_error():
    spec = ModelSpec("linear", 3, 2)
    start = models.init_params(spec, 1)
    data = make_batch(spec, 8, seed=7)
    opt = OptimizerConfig(kind="sgd", learning_rate=1e308, local_epochs=2, batch_size=4)
    with pytest.raises(DivergenceError):
        models.train_local(spec, start, data, opt, seed=1)


def test_adam_separates_two_blobs():
    # linearly separable 2-class blobs, Adam defaults, within 50 epochs
    stream = Sm64Stream(42)
    rows = []
    for i in range(100):
        center = (0.1, 0.9) if i % 2 == 0 else (0.9, 0.1)
        rows.append([center[0] + 0.05 * stream.gauss(), center[1] + 0.05 * stream.gauss()])
    data = Dataset(np.clip(np.array(rows), 0, 1), np.arange(100) % 2)
    spec = ModelSpec("linear", 2, 2)
    opt = OptimizerConfig(kind="adam", local_epochs=50, batch_size=4)
    start = np.zeros(models.param_count(spec))
    trained = models.train_local(spec, start, data, opt, seed=9)
    _, acc = models.evaluate(spec, trained, data)
    assert acc >= 0.95


def test_evaluate_matches_batchwise_aggregation():
    spec = ModelSpec("linear", 4, 3)
    p = models.init_params(spec, 21)
    data = make_batch(spec, 23, seed=10)
    loss_all, acc_all = models.evaluate(spec, p, data)
    total_loss = 0.0
    total_correct = 0
    for lo in range(0, len(data), 5):
        batch = data[lo : lo + 5]
        loss, _, correct = models.forward_loss_grad(spec, p, batch)
        total_loss += loss * len(batch)
        total_correct += correct
    assert loss_all == pytest.approx(total_loss / len(data), abs=1e-12)
    assert acc_all == total_correct / len(data)


def test_evaluate_perfect_and_empty():
    spec = ModelSpec("linear", 2, 2)
    # weights that map feature 0 to class 0 and feature 1 to class 1
    p = np.array([10.0, -10.0, -10.0, 10.0, 0.0, 0.0])
    data = Dataset(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1]))
    loss, acc = models.evaluate(spec, p, data)
    assert acc == 1.0
    assert loss < 1e-6
    with pytest.raises(ValueError):
        models.evaluate(spec, p, empty(2))


def test_zero_params_balanced_binary():
    spec = ModelSpec("linear", 3, 2)
    data = make_batch(spec, 40, seed=30)
    loss, acc = models.evaluate(spec, np.zeros(models.param_count(spec)), data)
    assert loss == pytest.approx(math.log(2), abs=1e-12)
    # argmax of uniform logits is class 0, half the balanced labels
    assert acc == 0.5
