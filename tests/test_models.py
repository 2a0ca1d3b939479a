import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfc_sim import models
from rfc_sim.data import Dataset
from rfc_sim.models import DivergenceError, ModelSpec, OptimizerConfig
from rfc_sim.seeds import Sm64Stream, mix64
from test_seeds import gauss, uniform


def make_batch(spec, n, seed=0):
    stream = Sm64Stream(seed)
    x = np.array([[uniform(stream) for _ in range(spec.input_dim)] for _ in range(n)])
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
        rows.append([center[0] + 0.05 * gauss(stream), center[1] + 0.05 * gauss(stream)])
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


def reference_loss_grad(spec, p, x, y):
    """One client's 2-D forward and backward pass, as the trainer computed it per client."""
    n = x.shape[0]
    d, c, h = spec.input_dim, spec.num_classes, spec.hidden_dim
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind == "linear":
            logits = x @ p[: d * c].reshape(d, c) + p[d * c :]
        else:
            w1 = p[: d * h].reshape(d, h)
            b1 = p[d * h : d * h + h]
            w2 = p[d * h + h : d * h + h + h * c].reshape(h, c)
            pre = x @ w1 + b1
            hidden = np.maximum(pre, 0.0)
            logits = hidden @ w2 + p[d * h + h + h * c :]
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        loss = float(-logp[np.arange(n), y].mean())
    dlogits = np.exp(logp)
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n
    grad = np.empty_like(p)
    if spec.kind == "linear":
        grad[: d * c] = (x.T @ dlogits).reshape(-1)
        grad[d * c :] = dlogits.sum(axis=0)
    else:
        dpre = (dlogits @ w2.T) * (pre > 0.0)
        o = 0
        grad[o : o + d * h] = (x.T @ dpre).reshape(-1); o += d * h
        grad[o : o + h] = dpre.sum(axis=0); o += h
        grad[o : o + h * c] = (hidden.T @ dlogits).reshape(-1); o += h * c
        grad[o:] = dlogits.sum(axis=0)
    return loss, grad


def reference_train_local(spec, start, data, opt, seed):
    """The per-client training loop: scalar Fisher-Yates orders, one batch at a time."""
    x, y = data.x, data.y
    n = len(data)
    p = np.array(start, dtype=np.float64, copy=True)
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    t = 0
    for epoch in range(opt.local_epochs):
        stream = Sm64Stream(mix64(seed, epoch))
        order = list(range(n))
        for i in range(n - 1, 0, -1):
            j = stream.rand_below(i + 1)
            order[i], order[j] = order[j], order[i]
        idx = np.array(order, dtype=np.int64)
        for lo in range(0, n, opt.batch_size):
            rows = idx[lo : lo + opt.batch_size]
            loss, grad = reference_loss_grad(spec, p, x[rows], y[rows])
            if not math.isfinite(loss):
                raise DivergenceError(f"non-finite loss at epoch {epoch}, batch offset {lo}")
            if opt.kind == "sgd":
                p -= opt.learning_rate * grad
            else:
                t += 1
                m = opt.adam_beta1 * m + (1.0 - opt.adam_beta1) * grad
                v = opt.adam_beta2 * v + (1.0 - opt.adam_beta2) * grad * grad
                m_hat = m / (1.0 - opt.adam_beta1**t)
                v_hat = v / (1.0 - opt.adam_beta2**t)
                p -= opt.learning_rate * m_hat / (np.sqrt(v_hat) + opt.adam_epsilon)
            if not np.all(np.isfinite(p)):
                raise DivergenceError(f"parameters overflowed at epoch {epoch}, batch offset {lo}")
    return p


def outcome(train, *args):
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return train(*args)
    except DivergenceError as exc:
        return exc


def assert_same_outcome(got, want):
    if isinstance(want, DivergenceError):
        assert isinstance(got, DivergenceError) and str(got) == str(want)
    else:
        assert not isinstance(got, DivergenceError), str(got)
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


def per_client(trained, diverged):
    """train_clients' (update matrix, {row: DivergenceError}) as one outcome per client.

    Also checks the matrix's layout and that a diverged client's row is NaN.
    """
    assert trained.dtype == np.float64 and trained.ndim == 2 and trained.flags.c_contiguous
    assert set(diverged) <= set(range(len(trained)))
    assert all(np.isnan(trained[i]).all() for i in diverged)
    return [diverged.get(i, row) for i, row in enumerate(trained)]


def client_data(stream, spec, n, scale=1.0):
    x = np.array([[uniform(stream) for _ in range(spec.input_dim)] for _ in range(n)])
    x = x.reshape(n, spec.input_dim) * scale
    return Dataset(x, np.array([stream.rand_below(spec.num_classes) for _ in range(n)]))


@settings(max_examples=80)
@given(kind=st.sampled_from(["linear", "mlp"]), dims=st.tuples(st.integers(1, 6), st.integers(2, 4),
                                                                 st.integers(1, 5)),
       opt_kind=st.sampled_from(["sgd", "adam"]), lr=st.sampled_from([0.0, 0.05, 1.5, 1e300]),
       epochs=st.integers(1, 3), batch=st.integers(1, 7),
       clients=st.lists(st.tuples(st.integers(0, 9), st.booleans()), min_size=1, max_size=8),
       big_start=st.booleans(), seed=st.integers(0, 2**64 - 1))
def test_train_clients_equals_per_client_reference(kind, dims, opt_kind, lr, epochs, batch, clients,
                                                   big_start, seed):
    d, c, h = dims
    spec = ModelSpec(kind, d, c, hidden_dim=h if kind == "mlp" else 0)
    opt = OptimizerConfig(kind=opt_kind, learning_rate=lr, local_epochs=epochs, batch_size=batch)
    stream = Sm64Stream(seed)
    # a 1e308 start overflows every client at its first batch
    start = (np.full(models.param_count(spec), 1e308) if big_start
             else models.init_params(spec, stream.next_u64()))
    # features scaled by 1e200 make a client's logits or steps overflow sooner or later
    datasets = [client_data(stream, spec, n, 1e200 if large else 1.0) for n, large in clients]
    seeds = [stream.next_u64() for _ in clients]
    got = per_client(*models.train_clients(spec, start, datasets, opt, seeds))
    assert len(got) == len(datasets)
    for g, data, s in zip(got, datasets, seeds):
        assert_same_outcome(g, outcome(reference_train_local, spec, start, data, opt, s))
        assert_same_outcome(outcome(models.train_local, spec, start, data, opt, s), g)


def with_infinite_row(data, row):
    x = data.x.copy()
    x[row] = np.inf
    return Dataset(x, data.y)


# (diverging client, its infinite row or None for all rows, its DivergenceError)
@pytest.mark.parametrize("bad,row,message", [
    (1, None, "non-finite loss at epoch 0, batch offset 0"),
    # epoch 0 visits client 1's rows (seed 6) as 1 4 2 | 6 5 3 | 0: it leaves mid-epoch
    (1, 6, "non-finite loss at epoch 0, batch offset 3"),
    # and client 0's (seed 5) as 6 0 5 | 3 1 4 | 2: it leaves at the last batch, before epoch 1
    (0, 2, "non-finite loss at epoch 0, batch offset 6"),
], ids=["whole_client", "middle_row_mid_epoch", "first_row_last_batch"])
def test_diverged_client_leaves_stack_and_others_step(bad, row, message):
    spec = ModelSpec("mlp", 3, 2, hidden_dim=4)
    opt = OptimizerConfig(kind="adam", learning_rate=0.05, local_epochs=2, batch_size=3)
    stream = Sm64Stream(11)
    # infinite features make the client's loss NaN at the first batch that holds them
    datasets = [client_data(stream, spec, 7, np.inf if k == bad and row is None else 1.0) for k in range(3)]
    if row is not None:
        datasets[bad] = with_infinite_row(datasets[bad], row)
    start = models.init_params(spec, 2)
    got = per_client(*models.train_clients(spec, start, datasets, opt, [5, 6, 7]))
    assert str(got[bad]) == message
    assert_same_outcome(got[bad], outcome(reference_train_local, spec, start, datasets[bad], opt, 5 + bad))
    # the rows that stay take every later step in the stack's re-sliced buffers
    for k in {0, 1, 2} - {bad}:
        assert_same_outcome(got[k], reference_train_local(spec, start, datasets[k], opt, 5 + k))


@pytest.mark.parametrize("scales,opt", [
    ((1.0, np.inf, 1.0), OptimizerConfig(kind="adam", learning_rate=0.05, local_epochs=2, batch_size=3)),
    # every row leaves, so the stack returns from inside its loop
    ((np.inf, np.inf, np.inf), OptimizerConfig(kind="adam", learning_rate=0.05, local_epochs=2, batch_size=3)),
    ((1e200, 1e200), OptimizerConfig(kind="sgd", learning_rate=1e300, local_epochs=2, batch_size=3)),
], ids=["one_leaves", "all_leave_non_finite_loss", "all_leave_overflow"])
def test_divergence_is_silent_and_restores_error_state(scales, opt):
    spec = ModelSpec("linear", 3, 2)
    stream = Sm64Stream(12)
    datasets = [client_data(stream, spec, 7, scale) for scale in scales]
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = per_client(*models.train_clients(spec, models.init_params(spec, 2), datasets, opt,
                                               list(range(len(scales)))))
    assert np.geterr() == before
    assert [isinstance(g, DivergenceError) for g in got] == [scale != 1.0 for scale in scales]


def test_big_start_diverges_at_first_batch():
    spec = ModelSpec("linear", 3, 2)
    start = np.full(models.param_count(spec), 1e308)
    (got,) = per_client(*models.train_clients(spec, start, [make_batch(spec, 5)], OptimizerConfig(), [3]))
    assert str(got) == "non-finite loss at epoch 0, batch offset 0"


def test_stack_width_follows_param_count(monkeypatch):
    widths = []
    real = models._train_stack

    def spy(spec, start, datasets, orders, opt, *into):
        widths.append(len(datasets))
        return real(spec, start, datasets, orders, opt, *into)

    monkeypatch.setattr(models, "_train_stack", spy)
    opt = OptimizerConfig(local_epochs=1)
    for spec, count, want in [(ModelSpec("linear", 64, 3), 18, [18]),
                              (ModelSpec("linear", 64, 3), 170, [168, 2]),
                              (ModelSpec("mlp", 64, 3, hidden_dim=256), 3, [1, 1, 1])]:
        widths.clear()
        data = [make_batch(spec, 4, seed=k) for k in range(count)]
        models.train_clients(spec, models.init_params(spec, 0), data, opt, list(range(count)))
        assert widths == want
