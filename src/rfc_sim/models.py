"""Desk-scale differentiable classifiers: linear softmax and one-hidden-layer MLP.

Parameters live in a single flat float64 vector. Packing order:

* linear:  W (input_dim x num_classes, row-major), then b (num_classes)
* mlp:     W1 (input_dim x hidden_dim), b1, W2 (hidden_dim x num_classes), b2

Weights initialize uniformly in [-s, s] with s = sqrt(6 / (fan_in + fan_out)),
drawn in packing order from the words of ``Sm64Stream(seed)``; biases start
at zero. Local training shuffles with Fisher-Yates, reseeded per epoch as
``mix64(train_seed, epoch)``.

``train_clients`` checks its inputs, trains clients from one start as stacks on
a client axis (parameters ``[C, P]``, batches ``[C, b, input_dim]``) and writes
their rows into one ``[N, P]`` matrix. Clients with equal row counts share a
stack, split to stay within ``STACK_BYTES``. A stack keeps its shape to its last
step: a diverged row stays in it, masked. It trains in one pass with no per-step
test, and a second, step-tested pass runs only when a finiteness test at its end
fails. Every row gets exactly the bits it would get trained alone; ``train_local``
trains one client.

One workspace per call holds the five ``[C, P]`` arrays of every stack (``p``,
Adam's ``m`` and ``v``, which its first step writes directly, the gradient,
which holds the step once read, and one scratch array); a step allocates nothing
of parameter size. Each batch is a slice of one epoch's gather of the stack's rows.

``_log_softmax`` folds its row max over the class columns and ``_loss_grad`` picks labels by flat
index, with the bits of the class-axis ``max`` and the (row, label) index they replaced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .data import Dataset
from .seeds import epoch_seeds, shuffle_orders, stream_words

MODEL_KINDS = ("linear", "mlp")
OPTIMIZER_KINDS = ("sgd", "adam")
# Byte budget of one training stack's parameters; the call's workspace holds five arrays of it (p, m,
# v, gradient, scratch) beside one epoch's gather: 336 clients of the 195-parameter desk linear model,
# or 3 of a 17,411-parameter MLP. wide_krum ran in 634 / 543 / 518 / 531 ms at MLP widths 1 / 2 / 3 / 4.
STACK_BYTES = 512 * 1024


class DivergenceError(RuntimeError):
    """Raised when local training produces a non-finite loss."""


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    input_dim: int
    num_classes: int
    hidden_dim: int = 0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"model.kind must be one of {', '.join(MODEL_KINDS)}, got {self.kind!r}")
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.kind == "linear" and self.hidden_dim != 0:
            raise ValueError(f"linear model must have hidden_dim == 0, got {self.hidden_dim}")
        if self.kind == "mlp" and self.hidden_dim < 1:
            raise ValueError(f"mlp model needs hidden_dim >= 1, got {self.hidden_dim}")


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "adam"
    learning_rate: float = 0.001
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    local_epochs: int = 10
    batch_size: int = 16

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise ValueError(f"optimizer.kind must be one of {', '.join(OPTIMIZER_KINDS)}, got {self.kind!r}")
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not (0 < self.adam_beta1 < 1 and 0 < self.adam_beta2 < 1):
            raise ValueError(f"adam_beta1 and adam_beta2 must lie in (0, 1), got {self.adam_beta1}, {self.adam_beta2}")
        if self.adam_epsilon <= 0:
            raise ValueError(f"adam_epsilon must be > 0, got {self.adam_epsilon}")
        if self.local_epochs < 1:
            raise ValueError(f"local_epochs must be >= 1, got {self.local_epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


def _shapes(spec: ModelSpec):
    """Weight and bias blocks in packing order, as (rows, cols); a bias is one row."""
    d, c, h = spec.input_dim, spec.num_classes, spec.hidden_dim
    return [(d, c), (1, c)] if spec.kind == "linear" else [(d, h), (1, h), (h, c), (1, c)]


def param_count(spec: ModelSpec) -> int:
    return sum(rows * cols for rows, cols in _shapes(spec))


def init_params(spec: ModelSpec, seed: int) -> np.ndarray:
    out = np.zeros(param_count(spec), dtype=np.float64)
    weights = _unpack(spec, out)[::2]
    words = stream_words([seed], sum(w.size for w in weights))[0]
    uniform = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
    used = 0
    for w in weights:
        s = math.sqrt(6.0 / (w.shape[0] + w.shape[1]))
        w[...] = ((2.0 * uniform[used : used + w.size] - 1.0) * s).reshape(w.shape)
        used += w.size
    return out


def _unpack(spec: ModelSpec, p: np.ndarray) -> list:
    """Views of ``p`` (shape ``[..., P]``) as its ``_shapes`` blocks, with p's leading axes."""
    if p.shape[-1] != param_count(spec):
        raise ValueError(f"parameter vector has {p.shape[-1]} entries, spec needs {param_count(spec)}")
    views, o = [], 0
    for rows, cols in _shapes(spec):
        views.append(p[..., o : o + rows * cols].reshape(p.shape[:-1] + (rows, cols)))
        o += rows * cols
    return views


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis, its row max a left fold of ``np.maximum`` over the class columns.

    A max is exact, so the fold and ``max(axis=-1)`` can differ only in which of two tied opposite-sign
    zeros they keep. That sign reaches ``shifted`` only at those zero logits, where ``exp`` erases it;
    each adds exactly 1 to the sum, so the log subtracted is at least log 2 and no bit of the result
    (NaN payloads aside) moves, in training, ``evaluate`` or ``log_probs``. The sum stays a reduce:
    numpy sums 8 or more classes pairwise, so a folded sum would move bits.
    """
    top = logits[..., :1]
    for k in range(1, logits.shape[-1]):
        top = np.maximum(top, logits[..., k : k + 1])
    shifted = logits - top
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))


def _check(spec: ModelSpec, p: Optional[np.ndarray], x: np.ndarray) -> None:
    """The ValueErrors of a forward pass of the rows ``x`` under ``p``; a None ``p`` is not checked."""
    if p is not None and not np.isfinite(p).all():
        raise ValueError("non-finite model parameters")
    if x.shape[-2] == 0:
        raise ValueError("empty batch")
    if x.shape[-1] != spec.input_dim:
        raise ValueError(f"feature dim {x.shape[-1]} does not match spec input_dim {spec.input_dim}")


def _forward(spec: ModelSpec, w: list, x: np.ndarray):
    """Logits of the rows ``x`` under the ``_unpack`` views ``w``, and the output layer's input.

    The linear model is the output layer alone, on ``x``; the MLP's output layer reads its ReLU layer.
    ``x`` (``[..., n, input_dim]``) broadcasts against ``w``'s leading client axes; each client computes as alone.
    """
    hidden = x if spec.kind == "linear" else np.maximum(x @ w[0] + w[1], 0.0)
    return hidden @ w[-2] + w[-1], hidden


def _label_offsets(shape: Tuple[int, ...], num_classes: int) -> np.ndarray:
    """Flat index of each row's first entry in C-contiguous ``[*shape, num_classes]`` log-probs."""
    return np.arange(0, math.prod(shape) * num_classes, num_classes).reshape(shape)


def _loss_grad(spec: ModelSpec, w: list, x: np.ndarray, at: np.ndarray, g: Optional[list] = None):
    """Per-client sums of label log-probs and logits; with ``g``, the mean loss's gradient, written into those views.

    The pass of training and ``evaluate``. ``at``, shaped as the labels, is ``_label_offsets`` plus the
    labels: each label's flat index into the log-probs. The MLP's gradient reads its ReLU mask from the
    layer's output, positive exactly where the input is. Callers hold ``np.errstate(over="ignore",
    invalid="ignore")``: overflow surfaces as a non-finite sum. Labels lie in ``[0, num_classes)``, as
    every data path checks: the flat label index would read a neighbouring row's entry for a larger one.
    """
    logits, hidden = _forward(spec, w, x)
    logp = _log_softmax(logits)
    sums = np.add.reduce(logp.reshape(-1)[at], axis=-1)
    if g is None:
        return sums, logits
    dlogits = np.exp(logp)
    dlogits.reshape(-1)[at] -= 1.0
    dlogits /= x.shape[-2]
    np.matmul(hidden.swapaxes(-1, -2), dlogits, out=g[-2])
    np.add.reduce(dlogits, axis=-2, keepdims=True, out=g[-1])
    if spec.kind == "mlp":
        dhidden = dlogits @ w[-2].swapaxes(-1, -2)
        dhidden *= hidden > 0.0
        np.matmul(x.swapaxes(-1, -2), dhidden, out=g[0])
        np.add.reduce(dhidden, axis=-2, keepdims=True, out=g[1])
    return sums, logits


def log_probs(spec: ModelSpec, p: np.ndarray, data: Dataset) -> np.ndarray:
    """Log class probabilities ``[..., len(data), num_classes]`` under ``p`` ``[..., P]``, silently non-finite."""
    _check(spec, p, data.x)
    with np.errstate(over="ignore", invalid="ignore"):
        return _log_softmax(_forward(spec, _unpack(spec, p), data.x)[0])


def evaluate(spec: ModelSpec, p: np.ndarray, data: Dataset):
    """(mean cross-entropy, accuracy) over a nonempty dataset: floats, or lists of k for ``p`` ``[k, P]``."""
    _check(spec, p, data.x)
    y = data.y if p.ndim == 1 else data.y[None].repeat(len(p), axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        sums, logits = _loss_grad(spec, _unpack(spec, p), data.x, _label_offsets(y.shape, spec.num_classes) + y)
    # -mean, computed as ndarray.mean does but without its Python-level overhead
    loss = -(sums / len(data))
    return loss.tolist(), ((logits.argmax(axis=-1) == y).sum(axis=-1) / len(data)).tolist()  # as int / int rounds


def train_local(spec: ModelSpec, start: np.ndarray, data: Dataset, opt: OptimizerConfig, seed: int) -> np.ndarray:
    """Run ``local_epochs`` of shuffled mini-batch SGD or Adam from ``start``.

    The one-client call of ``train_clients``; raises the client's DivergenceError.
    """
    trained, diverged = train_clients(spec, start, [data], opt, [seed])
    if diverged:
        raise diverged[0]
    return trained[0]


def train_clients(spec: ModelSpec, start: np.ndarray, datasets: Sequence[Dataset], opt: OptimizerConfig,
                  seeds: Sequence[int]) -> Tuple[np.ndarray, Dict[int, DivergenceError]]:
    """Train one client per (dataset, seed) from the shared ``start``.

    Returns the C-contiguous ``[N, P]`` matrix of the clients' parameters in
    input order, and each diverged client's DivergenceError by row index (its
    row is NaN). Clients with equal row counts train as one stack.
    """
    width = max(1, STACK_BYTES // (8 * param_count(spec)))
    by_length: Dict[int, List[int]] = {}
    for i, data in enumerate(datasets):
        by_length.setdefault(len(data), []).append(i)
    # the first step's forward checks, once before any stack trains: start, then each client with rows
    for k, data in enumerate(filter(len, datasets)):
        _check(spec, None if k else start, data.x)
    trained, diverged = np.empty((len(datasets), param_count(spec))), {}
    # every stack's p, m, v, gradient and scratch array, with the views of full-width p and gradient
    ws = np.empty((5, min(width, len(datasets)), param_count(spec)))
    workspace = ws, _unpack(spec, ws[0]), _unpack(spec, ws[3])
    for n, members in by_length.items():
        try:  # numpy's refusals: past memory, or past any array's size
            orders = shuffle_orders(epoch_seeds([seeds[i] for i in members], opt.local_epochs), n)
        except (MemoryError, ValueError) as exc:
            raise MemoryError(f"optimizer.local_epochs = {opt.local_epochs} is too large: {exc}") from exc
        orders = orders.reshape(len(members), opt.local_epochs, n)
        for lo in range(0, len(members), width):
            stack = members[lo : lo + width]
            trained[stack], errors = _train_stack(spec, start, [datasets[i] for i in stack],
                                                  orders[lo : lo + width], opt, workspace)
            diverged.update((stack[r], error) for r, error in errors.items())
    trained[list(diverged)] = np.nan
    return trained, diverged


def _train_stack(spec: ModelSpec, start: np.ndarray, datasets: Sequence[Dataset], orders: np.ndarray,
                 opt: OptimizerConfig, workspace: tuple) -> Tuple[np.ndarray, Dict[int, DivergenceError]]:
    """Train equal-length clients with per-epoch ``orders`` ``[C, E, n]`` as one stack.

    The stack is the first C rows of ``train_clients``' workspace, one per
    client, to its last step. Each row takes every step as the one-client loop
    would, with the same operations in the same order; Adam's first step writes
    ``m`` and ``v`` directly, as the loop's update of zero moments rounds.

    The first pass tests no step: it adds each step's label log-prob sums into
    a ``[C]`` total. A NaN or inf entry makes a sum non-finite, and ``p -= grad``
    keeps a non-finite parameter non-finite, so a finite sum of that total and
    of the final ``p`` proves that no row diverged. Otherwise (a finite sum may
    also overflow) a second pass from ``start`` repeats every step's bits and
    tests each: a row whose loss or parameters turn non-finite gets its
    DivergenceError at that step and stays, stepping on values that nothing
    reads. Returns the ``[C, P]`` parameters and the errors by stack row, at
    once when every row has diverged.
    """
    width, n = len(datasets), len(datasets[0])
    # orders as rows of x and y, clients end to end; each epoch's are gathered into xe, ye
    orders = orders + n * np.arange(width)[:, None, None]
    x, y = np.concatenate([data.x for data in datasets]), np.concatenate([data.y for data in datasets])
    xe, ye = np.empty((width, n, x.shape[1])), np.empty((width, n), dtype=y.dtype)
    # each batch slot's [C, b] label offsets, to which its steps add the labels
    slots = [(lo, _label_offsets((width, min(opt.batch_size, n - lo)), spec.num_classes))
             for lo in range(0, n, opt.batch_size)]
    ws, w, g = workspace
    p, m, v, grad, s = ws[:, :width]
    if width < ws.shape[1]:
        w, g = _unpack(spec, p), _unpack(spec, grad)
    lr, b1, b2 = opt.learning_rate, opt.adam_beta1, opt.adam_beta2
    # a diverged row keeps stepping, silently; train_clients sets its row to NaN
    with np.errstate(over="ignore", invalid="ignore"):
        for checked in (False, True):
            p[...] = start
            t, total, alive, diverged = 0, np.zeros(width), np.ones(width, dtype=bool), {}
            for epoch in range(opt.local_epochs):
                np.take(x, orders[:, epoch], axis=0, out=xe, mode="clip")
                np.take(y, orders[:, epoch], out=ye, mode="clip")
                for lo, offsets in slots:
                    hi = lo + opt.batch_size
                    sums, _ = _loss_grad(spec, w, xe[:, lo:hi], offsets + ye[:, lo:hi], g)
                    t += 1
                    if opt.kind == "sgd":
                        grad *= lr
                    else:  # lr (m / c1) / (sqrt(v / c2) + eps), rounded op by op as the one-client update
                        if t == 1:  # b1 0 + a is a, with -0 made +0; (1 - b2) g g is never -0
                            np.add(np.multiply(grad, 1.0 - b1, out=m), 0.0, out=m)
                            np.multiply(np.multiply(grad, 1.0 - b2, out=v), grad, out=v)
                        else:
                            m *= b1
                            m += np.multiply(grad, 1.0 - b1, out=s)
                            v *= b2
                            np.multiply(grad, 1.0 - b2, out=s)
                            s *= grad
                            v += s
                        np.divide(m, 1.0 - b1**t, out=grad)
                        grad *= lr
                        np.divide(v, 1.0 - b2**t, out=s)
                        np.sqrt(s, out=s)
                        s += opt.adam_epsilon
                        grad /= s
                    p -= grad
                    if not checked:
                        total += sums
                        continue
                    if np.isfinite(sums).all() and np.isfinite(p).all():
                        continue
                    bad_loss = ~np.isfinite(sums)
                    bad = alive & (bad_loss | ~np.isfinite(p).all(axis=1))
                    for r in np.flatnonzero(bad).tolist():
                        what = "non-finite loss" if bad_loss[r] else "parameters overflowed"
                        diverged[r] = DivergenceError(f"{what} at epoch {epoch}, batch offset {lo}")
                    alive &= ~bad
                    if not alive.any():
                        return p, diverged
            if checked or math.isfinite(np.add.reduce(total)) and math.isfinite(np.add.reduce(p, axis=None)):
                return p, diverged
