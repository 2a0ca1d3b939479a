import contextlib
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfc_sim import models
from rfc_sim.data import Dataset
from rfc_sim.models import DivergenceError, ModelSpec, OptimizerConfig
from rfc_sim.seeds import Sm64Stream
from reference import (forward_loss_grad, gauss, reference_log_softmax, reference_loss_grad,
                       reference_train_local, uniform)


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
        loss_hi, _, _ = forward_loss_grad(spec, hi, batch)
        loss_lo, _, _ = forward_loss_grad(spec, lo, batch)
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
        loss, _, _ = forward_loss_grad(spec, np.zeros(models.param_count(spec)), batch)
        assert loss == pytest.approx(math.log(c), abs=1e-12)


def test_duplicated_batch_same_loss_and_grad():
    spec = ModelSpec("linear", 3, 2)
    p = models.init_params(spec, 3)
    batch = make_batch(spec, 4, seed=5)
    loss1, grad1, correct1 = forward_loss_grad(spec, p, batch)
    doubled = Dataset(np.concatenate([batch.x, batch.x]), np.concatenate([batch.y, batch.y]))
    loss2, grad2, correct2 = forward_loss_grad(spec, p, doubled)
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
    _, grad, _ = forward_loss_grad(spec, p, batch)
    numeric = central_diff_grad(spec, p, batch)
    assert np.max(np.abs(grad - numeric)) < 1e-6


def test_forward_rejects_nonfinite_params_and_bad_batch():
    spec = ModelSpec("linear", 3, 2)
    batch = make_batch(spec, 2)
    bad = np.full(models.param_count(spec), np.nan)
    for forward in (forward_loss_grad, models.log_probs, models.evaluate):
        with pytest.raises(ValueError, match="non-finite"):
            forward(spec, bad, batch)
        with pytest.raises(ValueError):
            forward(spec, models.init_params(spec, 0), empty(3))
        wrong_dim = Dataset(np.zeros((1, 5)), np.array([0]))
        with pytest.raises(ValueError):
            forward(spec, models.init_params(spec, 0), wrong_dim)


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
    _, grad, _ = forward_loss_grad(spec, start, data)
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
        loss, _, correct = forward_loss_grad(spec, p, batch)
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
    with pytest.raises(ValueError, match=r"^parameter vector has 5 entries, spec needs 6$"):
        models.evaluate(spec, p[:5], data)


def test_zero_params_balanced_binary():
    spec = ModelSpec("linear", 3, 2)
    data = make_batch(spec, 40, seed=30)
    loss, acc = models.evaluate(spec, np.zeros(models.param_count(spec)), data)
    assert loss == pytest.approx(math.log(2), abs=1e-12)
    # argmax of uniform logits is class 0, half the balanced labels
    assert acc == 0.5


SPECIAL = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e308, -1e308, 5e-324])


def same_values(got, want):
    """Equal elementwise, with NaN equal to NaN and the signs of zeros compared."""
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(want)
    return (np.array_equal(np.isnan(got), nan) and np.array_equal(got[~nan], want[~nan])
            and np.array_equal(np.signbit(got[~nan]), np.signbit(want[~nan])))


@pytest.mark.parametrize("clients", [1, 2, 3])
@pytest.mark.parametrize("spec", [ModelSpec("linear", 3, 3), ModelSpec("mlp", 3, 3, hidden_dim=4),
                                  ModelSpec("linear", 3, 2), ModelSpec("mlp", 3, 2, hidden_dim=4),
                                  ModelSpec("linear", 3, 10), ModelSpec("mlp", 3, 10, hidden_dim=4)],
                         ids=["linear", "mlp", "linear_k2", "mlp_k2", "linear_k10", "mlp_k10"])
def test_stacked_pass_matches_reference_on_special_values(spec, clients):
    rng = np.random.default_rng(clients)
    for _ in range(100):
        # up to a third of the parameters and features are special values, the rest ordinary
        rate = rng.choice([0.02, 0.1, 0.3])
        p = rng.normal(size=(clients, models.param_count(spec)))
        x = rng.normal(size=(clients, 4, spec.input_dim))
        for a in (p, x):
            special = rng.random(a.shape) < rate
            a[special] = rng.choice(SPECIAL, size=special.sum())
        y = rng.integers(0, spec.num_classes, size=(clients, 4))
        grad = np.empty_like(p)
        at = models._label_offsets(y.shape, spec.num_classes) + y
        with np.errstate(over="ignore", invalid="ignore"):
            sums = models._loss_grad(spec, models._unpack(spec, p), x, at, models._unpack(spec, grad))
            loss = -(sums / 4)
            for c in range(clients):
                want_loss, want_grad = reference_loss_grad(spec, p[c], x[c], y[c])
                assert same_values(loss[c], want_loss) and same_values(grad[c], want_grad)


@pytest.mark.parametrize("shape", [(18, 8, 3), (3, 120, 3), (120, 3), (3, 8, 10)])
def test_log_softmax_matches_reference_on_random_logits(shape):
    rng = np.random.default_rng(sum(shape))
    # rows at scales where exp is ordinary, underflows in part, or nearly all, with a few non-finite entries
    logits = rng.normal(size=shape) * rng.choice([1.0, 30.0, 1e3], size=shape[:-1] + (1,))
    special = rng.random(shape) < 0.02
    logits[special] = rng.choice([np.nan, np.inf, -np.inf, 1e308, -1e308], size=special.sum())
    with np.errstate(over="ignore", invalid="ignore"):
        assert same_values(models._log_softmax(logits), reference_log_softmax(logits))


@pytest.mark.parametrize("width", [2, 3, 4])
def test_log_softmax_matches_reference_on_every_special_row(width):
    values = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324]
    rows = np.array(list(itertools.product(values, repeat=width)))
    for logits in (rows, rows.reshape(9, -1, width)):
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = models._log_softmax(logits), reference_log_softmax(logits)
        # the two may keep different ones of two tied opposite-sign zero maxima (numpy's X86_V2 reduce keeps
        # the first in some rows), but each tied zero adds exp(0) = 1 to the sum, so no log-probability moves
        assert same_values(got, want)


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


@contextlib.contextmanager
def stack_width(spec, width):
    """Sets models.STACK_BYTES so that stacks of ``spec`` are ``width`` clients wide, inside the block."""
    saved = models.STACK_BYTES
    models.STACK_BYTES = width * 8 * models.param_count(spec)
    try:
        yield
    finally:
        models.STACK_BYTES = saved


def check_train_clients(kind, dims, opt_kind, lr, epochs, batch, clients, big_start, seed, width=None):
    """Every row of one train_clients call, with stacks ``width`` clients wide (None: STACK_BYTES'
    width), matches reference_train_local byte for byte."""
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
    with stack_width(spec, width) if width else contextlib.nullcontext():
        got = per_client(*models.train_clients(spec, start, datasets, opt, seeds))
    assert len(got) == len(datasets)
    for g, data, s in zip(got, datasets, seeds):
        assert_same_outcome(g, outcome(reference_train_local, spec, start, data, opt, s))
        assert_same_outcome(outcome(models.train_local, spec, start, data, opt, s), g)


@settings(max_examples=80)
@given(kind=st.sampled_from(["linear", "mlp"]), dims=st.tuples(st.integers(1, 6), st.integers(2, 4),
                                                                 st.integers(1, 5)),
       opt_kind=st.sampled_from(["sgd", "adam"]), lr=st.sampled_from([0.0, 0.05, 1.5, 1e300]),
       epochs=st.integers(1, 3), batch=st.integers(1, 7),
       clients=st.lists(st.tuples(st.integers(0, 9), st.booleans()), min_size=1, max_size=8),
       big_start=st.booleans(), seed=st.integers(0, 2**64 - 1))
def test_train_clients_equals_per_client_reference(kind, dims, opt_kind, lr, epochs, batch, clients,
                                                   big_start, seed):
    check_train_clients(kind, dims, opt_kind, lr, epochs, batch, clients, big_start, seed)


def record_stack_widths(monkeypatch):
    """The list to which each later stack of train_clients appends its client count."""
    widths, real = [], models._train_stack

    def spy(spec, start, datasets, orders, opt, *into):
        widths.append(len(datasets))
        return real(spec, start, datasets, orders, opt, *into)

    monkeypatch.setattr(models, "_train_stack", spy)
    return widths


# few row counts, so that clients share a length and a call trains several stacks through one workspace
@settings(max_examples=80)
@given(kind=st.sampled_from(["linear", "mlp"]), dims=st.tuples(st.integers(1, 6), st.integers(2, 4),
                                                                 st.integers(1, 5)),
       opt_kind=st.sampled_from(["sgd", "adam"]), lr=st.sampled_from([0.0, 0.05, 1.5, 1e300]),
       epochs=st.integers(1, 3), batch=st.integers(1, 7),
       clients=st.lists(st.tuples(st.integers(0, 3), st.booleans()), min_size=2, max_size=10),
       seed=st.integers(0, 2**64 - 1), width=st.integers(1, 3))
def test_narrow_stacks_equal_per_client_reference(kind, dims, opt_kind, lr, epochs, batch, clients, seed,
                                                  width):
    check_train_clients(kind, dims, opt_kind, lr, epochs, batch, clients, False, seed, width)


# scales of five 7-row clients trained as stacks of two: [0, 1], [2, 3], then the narrower [4]
@pytest.mark.parametrize("scales", [
    (np.inf, np.inf, 1.0, 1.0, 1.0),  # the first stack's rows all diverge; the next reuses its workspace
    (1.0, np.inf, 1.0, np.inf, 1.0),  # each stack after a diverged row starts on the workspace again
    (1.0, 1.0, np.inf, np.inf, 1.0),  # a full stack diverges before the narrower last one
], ids=["first_all_diverged", "one_per_stack_diverged", "middle_all_diverged"])
@pytest.mark.parametrize("kind", ["linear", "mlp"])
@pytest.mark.parametrize("opt_kind", ["sgd", "adam"])
def test_stacks_share_one_workspace(monkeypatch, scales, kind, opt_kind):
    spec = ModelSpec(kind, 3, 2, hidden_dim=4 if kind == "mlp" else 0)
    opt = OptimizerConfig(kind=opt_kind, learning_rate=0.05, local_epochs=2, batch_size=3)
    stream = Sm64Stream(13)
    datasets = [client_data(stream, spec, 7, scale) for scale in scales]
    start = models.init_params(spec, 4)
    widths = record_stack_widths(monkeypatch)
    with stack_width(spec, 2):
        got = per_client(*models.train_clients(spec, start, datasets, opt, [20, 21, 22, 23, 24]))
    assert widths == [2, 2, 1]
    assert [isinstance(g, DivergenceError) for g in got] == [scale != 1.0 for scale in scales]
    for k, data in enumerate(datasets):
        assert_same_outcome(got[k], outcome(reference_train_local, spec, start, data, opt, 20 + k))


def with_infinite_row(data, row):
    x = data.x.copy()
    x[row] = np.inf
    return Dataset(x, data.y)


# per diverging client: its infinite row or None for all rows, and its DivergenceError
@pytest.mark.parametrize("faults", [
    {1: (None, "non-finite loss at epoch 0, batch offset 0")},
    # epoch 0 visits client 1's rows (seed 6) as 1 4 2 | 6 5 3 | 0: it diverges mid-epoch
    {1: (6, "non-finite loss at epoch 0, batch offset 3")},
    # and client 0's (seed 5) as 6 0 5 | 3 1 4 | 2: it diverges at the last batch, before epoch 1
    {0: (2, "non-finite loss at epoch 0, batch offset 6")},
    # both: client 1's row stays NaN in the stack at client 0's step and keeps its own message
    {0: (2, "non-finite loss at epoch 0, batch offset 6"), 1: (6, "non-finite loss at epoch 0, batch offset 3")},
], ids=["whole_client", "middle_row_mid_epoch", "first_row_last_batch", "two_rows_at_different_steps"])
def test_diverged_client_stays_in_stack_and_others_step(faults):
    spec = ModelSpec("mlp", 3, 2, hidden_dim=4)
    opt = OptimizerConfig(kind="adam", learning_rate=0.05, local_epochs=2, batch_size=3)
    stream = Sm64Stream(11)
    # infinite features make the client's loss NaN at the first batch that holds them
    whole = {k for k, (row, _) in faults.items() if row is None}
    datasets = [client_data(stream, spec, 7, np.inf if k in whole else 1.0) for k in range(3)]
    for bad, (row, _) in faults.items():
        if row is not None:
            datasets[bad] = with_infinite_row(datasets[bad], row)
    start = models.init_params(spec, 2)
    got = per_client(*models.train_clients(spec, start, datasets, opt, [5, 6, 7]))
    for bad, (_, message) in faults.items():
        assert str(got[bad]) == message
        assert_same_outcome(got[bad], outcome(reference_train_local, spec, start, datasets[bad], opt, 5 + bad))
    # the other rows take every later step beside the diverged ones, in the same stack
    for k in {0, 1, 2} - set(faults):
        assert_same_outcome(got[k], reference_train_local(spec, start, datasets[k], opt, 5 + k))


# an infinite, NaN or overflowing feature row: the client's loss or parameters turn non-finite at once, later or never
@settings(max_examples=60)
@given(kind=st.sampled_from(["linear", "mlp"]), opt_kind=st.sampled_from(["sgd", "adam"]),
       lr=st.sampled_from([0.0, 0.05, 1.5]), width=st.integers(1, 4), n=st.integers(1, 7), batch=st.integers(1, 4),
       epochs=st.integers(1, 3), count=st.integers(1, 6),
       faults=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 6), st.sampled_from([np.inf, np.nan, 1e308])),
                       max_size=4),
       seed=st.integers(0, 2**64 - 1))
def test_faulty_rows_match_reference_in_any_stack(kind, opt_kind, lr, width, n, batch, epochs, count, faults, seed):
    spec = ModelSpec(kind, 3, 2, hidden_dim=4 if kind == "mlp" else 0)
    opt = OptimizerConfig(kind=opt_kind, learning_rate=lr, local_epochs=epochs, batch_size=batch)
    stream = Sm64Stream(seed)
    datasets = [client_data(stream, spec, n) for _ in range(count)]
    xs = [data.x.copy() for data in datasets]
    for k, row, value in faults:
        xs[k % count][row % n] = value
    datasets = [Dataset(x, data.y) for x, data in zip(xs, datasets)]
    start = models.init_params(spec, stream.next_u64())
    seeds = [stream.next_u64() for _ in range(count)]
    with stack_width(spec, width):
        got = per_client(*models.train_clients(spec, start, datasets, opt, seeds))
    for g, data, s in zip(got, datasets, seeds):
        assert_same_outcome(g, outcome(reference_train_local, spec, start, data, opt, s))


def count_loss_grad_calls(monkeypatch):
    """The one-element list that counts each later call of models._loss_grad."""
    calls, real = [0], models._loss_grad

    def spy(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(models, "_loss_grad", spy)
    return calls


def test_finite_parameters_whose_sum_overflows_train_to_reference_bits(monkeypatch):
    # feature 0 is zero, so its weights of 1e308 take no part in a logit and get a zero gradient: every step
    # is finite, but the parameters' sum overflows, so the end test fails and the stack trains twice
    spec = ModelSpec("linear", 3, 2)
    opt = OptimizerConfig(kind="sgd", learning_rate=0.05, local_epochs=2, batch_size=3)
    stream = Sm64Stream(14)
    datasets = [client_data(stream, spec, 7) for _ in range(3)]
    datasets = [Dataset(np.hstack([np.zeros((7, 1)), data.x[:, 1:]]), data.y) for data in datasets]
    start = models.init_params(spec, 5)
    start[:2] = 1e308
    calls = count_loss_grad_calls(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = per_client(*models.train_clients(spec, start, datasets, opt, [1, 2, 3]))
    assert calls == [2 * 2 * 3]
    for k, data in enumerate(datasets):
        assert not isinstance(got[k], DivergenceError)
        assert got[k][:2].tolist() == [1e308, 1e308]
        assert_same_outcome(got[k], reference_train_local(spec, start, data, opt, 1 + k))


def test_infinite_loss_with_finite_parameters_diverges():
    # logits of 1e308 and -1e308 are finite but their difference is not: label 1 gets an infinite loss and a
    # finite gradient, so without a learning rate every parameter stays finite and only the loss shows the fault
    spec = ModelSpec("linear", 1, 2)
    opt = OptimizerConfig(kind="sgd", learning_rate=0.0, local_epochs=2, batch_size=2)
    start = np.array([1.0, -1.0, 0.0, 0.0])
    good = Dataset(np.full((5, 1), 0.5), np.array([0, 1, 0, 1, 1]))
    bad = Dataset(np.array([[0.5], [0.5], [1e308], [0.5], [0.5]]), np.array([0, 1, 1, 0, 1]))
    got = per_client(*models.train_clients(spec, start, [good, bad], opt, [1, 2]))
    assert str(got[1]).startswith("non-finite loss at epoch 0, batch offset ")
    for k, data in enumerate([good, bad]):
        assert_same_outcome(got[k], outcome(reference_train_local, spec, start, data, opt, 1 + k))


@pytest.mark.parametrize("width", [2, 5])
def test_clean_stacks_train_once_and_a_diverging_stack_twice(monkeypatch, width):
    spec = ModelSpec("mlp", 3, 2, hidden_dim=4)
    opt = OptimizerConfig(kind="adam", learning_rate=0.05, local_epochs=3, batch_size=4)
    stream = Sm64Stream(15)
    # rows 9, 9, 9, 9, 9, 6, 6, 1: at width 2, stacks of 9 rows [0, 1], [2, 3], [4]; of 6 [5, 6]; of 1 [7]
    datasets = [client_data(stream, spec, n) for n in (9, 9, 9, 9, 9, 6, 6, 1)]
    stacks = {2: [9, 9, 9, 6, 1], 5: [9, 6, 1]}[width]
    steps = {n: opt.local_epochs * math.ceil(n / opt.batch_size) for n in (9, 6, 1)}
    calls = count_loss_grad_calls(monkeypatch)
    with stack_width(spec, width):
        models.train_clients(spec, models.init_params(spec, 1), datasets, opt, list(range(8)))
        assert calls == [sum(steps[n] for n in stacks)]
        # client 3 diverges at the step that first reads its row 0; its stack's other rows survive, so that stack's
        # second pass runs to its end
        datasets[3] = with_infinite_row(datasets[3], 0)
        calls[0] = 0
        _, diverged = models.train_clients(spec, models.init_params(spec, 1), datasets, opt, list(range(8)))
    assert list(diverged) == [3]
    assert calls == [sum(steps[n] for n in stacks) + steps[9]]


@pytest.mark.parametrize("scales,opt", [
    ((1.0, np.inf, 1.0), OptimizerConfig(kind="adam", learning_rate=0.05, local_epochs=2, batch_size=3)),
    # every row diverges, so the stack returns from inside its loop
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
    widths = record_stack_widths(monkeypatch)
    opt = OptimizerConfig(local_epochs=1)
    # STACK_BYTES of 512 KiB: 336 clients of 195 parameters, 3 of 17,411
    for spec, count, want in [(ModelSpec("linear", 64, 3), 18, [18]),
                              (ModelSpec("linear", 64, 3), 336, [336]),
                              (ModelSpec("linear", 64, 3), 340, [336, 4]),
                              (ModelSpec("mlp", 64, 3, hidden_dim=256), 3, [3]),
                              (ModelSpec("mlp", 64, 3, hidden_dim=256), 7, [3, 3, 1])]:
        widths.clear()
        data = [make_batch(spec, 4, seed=k) for k in range(count)]
        models.train_clients(spec, models.init_params(spec, 0), data, opt, list(range(count)))
        assert widths == want


def test_train_clients_checks_each_dataset_and_start_once():
    spec = ModelSpec("mlp", 64, 3, hidden_dim=256)  # three clients per stack
    start = models.init_params(spec, 0)
    narrow = Dataset(make_batch(spec, 4, seed=1).x[:, :63], np.zeros(4, dtype=np.int64))
    with pytest.raises(ValueError, match="^feature dim 63 does not match spec input_dim 64$"):
        models.train_clients(spec, start, [make_batch(spec, 4), narrow], OptimizerConfig(local_epochs=1), [0, 1])
    nan_start = start.copy()
    nan_start[5] = np.nan
    data = [make_batch(spec, 4, seed=k) for k in range(3)]
    with pytest.raises(ValueError, match="^non-finite model parameters$"):
        models.train_clients(spec, nan_start, data, OptimizerConfig(local_epochs=1), [0, 1, 2])
    # a call without rows takes no step, so it checks nothing and returns start for every client
    inf_start = np.full(models.param_count(spec), np.inf)
    trained, diverged = models.train_clients(spec, inf_start, [empty(64), empty(64)], OptimizerConfig(), [0, 1])
    assert trained.shape == (2, models.param_count(spec)) and np.isinf(trained).all() and diverged == {}
