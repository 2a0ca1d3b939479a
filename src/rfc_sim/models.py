"""Desk-scale differentiable classifiers: linear softmax and one-hidden-layer MLP.

Parameters live in a single flat float64 vector. Packing order:

* linear:  W (input_dim x num_classes, row-major), then b (num_classes)
* mlp:     W1 (input_dim x hidden_dim), b1, W2 (hidden_dim x num_classes), b2

Weights initialize uniformly in [-s, s] with s = sqrt(6 / (fan_in + fan_out)),
drawn in packing order from the words of ``Sm64Stream(seed)``; biases start
at zero. Local training shuffles with Fisher-Yates, reseeded per epoch as
``mix64(train_seed, epoch)``.

``train_clients`` trains many clients from one start as stacks on a client
axis: parameters ``[C, P]``, batches ``[C, b, input_dim]``. Clients with equal
row counts share a stack, split so that a stack's ``[C, P]`` block stays within
``STACK_BYTES``, and write their rows into one ``[N, P]`` matrix. Every row gets
exactly the bits it would get trained alone; ``train_local`` trains one client.

A stack allocates its arrays once and a step allocates nothing of parameter
size: six ``[C, P]`` arrays (``p``, Adam's ``m`` and ``v``, the gradient and
two scratch arrays) sit beside the clients' stacked rows and one epoch's
gather of them, of which each batch is a slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .data import Dataset
from .seeds import mix64, shuffle_orders, stream_words

MODEL_KINDS = ("linear", "mlp")
OPTIMIZER_KINDS = ("sgd", "adam")
# Byte budget of one training stack's parameters. p, m, v, the gradient and the
# two scratch arrays take as much each, beside the stacked rows and one epoch's
# gather: 168 clients of the 195-parameter desk linear model, or one client of
# a 17,411-parameter MLP, for which wider stacks only raise peak RSS.
STACK_BYTES = 256 * 1024


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
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.kind == "linear" and self.hidden_dim != 0:
            raise ValueError("linear model must have hidden_dim == 0")
        if self.kind == "mlp" and self.hidden_dim < 1:
            raise ValueError("mlp model needs hidden_dim >= 1")


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
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not (0 < self.adam_beta1 < 1 and 0 < self.adam_beta2 < 1):
            raise ValueError("adam betas must lie in (0, 1)")
        if self.adam_epsilon <= 0:
            raise ValueError("adam_epsilon must be > 0")
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
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _check(spec: ModelSpec, p: np.ndarray, x: np.ndarray) -> None:
    """The ValueErrors of a forward pass of the rows ``x`` under ``p``."""
    if not np.isfinite(p).all():
        raise ValueError("non-finite model parameters")
    if x.shape[-2] == 0:
        raise ValueError("empty batch")
    if x.shape[-1] != spec.input_dim:
        raise ValueError(f"feature dim {x.shape[-1]} does not match spec input_dim {spec.input_dim}")


def _forward(spec: ModelSpec, w: list, x: np.ndarray):
    """Logits of the rows ``x`` under the ``_unpack`` views ``w``, plus the MLP activations.

    ``w``'s blocks and ``x`` (``[..., n, input_dim]``) share leading (client)
    axes; each client's slice is computed as it would be alone.
    """
    if spec.kind == "linear":
        weight, bias = w
        return x @ weight + bias, None
    w1, b1, w2, b2 = w
    pre = x @ w1 + b1
    hidden = np.maximum(pre, 0.0)
    return hidden @ w2 + b2, (pre, hidden)


def _loss_grad(spec: ModelSpec, w: list, x: np.ndarray, y: np.ndarray, g: Optional[list] = None):
    """Per-client mean cross-entropy and logits; with ``g``, the gradient, written into those views.

    The forward and backward pass of training, ``evaluate`` and ``forward_loss_grad``. Callers hold
    ``np.errstate(over="ignore", invalid="ignore")``: overflow surfaces as a non-finite loss.
    """
    logits, acts = _forward(spec, w, x)
    logp = _log_softmax(logits)
    # (example, label) pairs of the flattened leading axes
    at = np.arange(y.size), y.reshape(-1)
    # -mean, computed as ndarray.mean does but without its Python-level overhead
    loss = -(np.add.reduce(logp.reshape(-1, spec.num_classes)[at].reshape(y.shape), axis=-1) / y.shape[-1])
    if g is None:
        return loss, logits
    dlogits = np.exp(logp)
    dlogits.reshape(-1, spec.num_classes)[at] -= 1.0
    dlogits /= x.shape[-2]
    if spec.kind == "linear":
        grad_w, grad_b = g
        np.matmul(np.swapaxes(x, -1, -2), dlogits, out=grad_w)
    else:
        pre, hidden = acts
        grad_w1, grad_b1, grad_w, grad_b = g
        dpre = dlogits @ np.swapaxes(w[2], -1, -2)
        dpre *= pre > 0.0
        np.matmul(np.swapaxes(x, -1, -2), dpre, out=grad_w1)
        np.add.reduce(dpre, axis=-2, keepdims=True, out=grad_b1)
        np.matmul(np.swapaxes(hidden, -1, -2), dlogits, out=grad_w)
    np.add.reduce(dlogits, axis=-2, keepdims=True, out=grad_b)
    return loss, logits


def forward_loss_grad(spec: ModelSpec, p: np.ndarray, batch: Dataset) -> Tuple[float, np.ndarray, int]:
    """Mean cross-entropy, its gradient, and the argmax hit count on one batch."""
    _check(spec, p, batch.x)
    grad = np.empty_like(p)
    with np.errstate(over="ignore", invalid="ignore"):
        loss, logits = _loss_grad(spec, _unpack(spec, p), batch.x, batch.y, _unpack(spec, grad))
    return float(loss), grad, int((logits.argmax(axis=-1) == batch.y).sum())


def log_probs(spec: ModelSpec, p: np.ndarray, data: Dataset) -> np.ndarray:
    """Per-example log class probabilities, shape (len(data), num_classes)."""
    _check(spec, p, data.x)
    return _log_softmax(_forward(spec, _unpack(spec, p), data.x)[0])


def predict_labels(spec: ModelSpec, p: np.ndarray, data: Dataset) -> np.ndarray:
    return log_probs(spec, p, data).argmax(axis=1)


def evaluate(spec: ModelSpec, p: np.ndarray, data: Dataset) -> Tuple[float, float]:
    """(mean cross-entropy, accuracy) over a nonempty dataset."""
    _check(spec, p, data.x)
    with np.errstate(over="ignore", invalid="ignore"):
        loss, logits = _loss_grad(spec, _unpack(spec, p), data.x, data.y)
    return float(loss), int((logits.argmax(axis=-1) == data.y).sum()) / len(data)


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
    trained, diverged = np.empty((len(datasets), param_count(spec))), {}
    for n, members in by_length.items():
        orders = shuffle_orders([mix64(seeds[i], e) for i in members for e in range(opt.local_epochs)], n)
        orders = orders.reshape(len(members), opt.local_epochs, n)
        for lo in range(0, len(members), width):
            stack = members[lo : lo + width]
            diverged.update(_train_stack(spec, start, [datasets[i] for i in stack], orders[lo : lo + width],
                                         opt, trained, stack))
    return trained, diverged


def _train_stack(spec: ModelSpec, start: np.ndarray, datasets: Sequence[Dataset], orders: np.ndarray,
                 opt: OptimizerConfig, trained: np.ndarray, dest: List[int]) -> Dict[int, DivergenceError]:
    """Train equal-length clients with per-epoch ``orders`` ``[C, E, n]`` as one stack into ``trained[dest]``.

    Each row takes every step as the one-client loop would, with the same
    operations in the same order, in buffers allocated once per stack. A row whose
    loss or parameters turn non-finite leaves as NaN; returns its DivergenceError by row of ``trained``.
    """
    x = np.stack([data.x for data in datasets])
    y = np.stack([data.y for data in datasets])
    width, n = y.shape
    diverged = {}
    if n:  # the first step's forward checks; every later step keeps its rows finite
        _check(spec, start, x)
    live = np.arange(width)
    # orders as rows of x and y flattened over clients; each epoch's rows are gathered into xe, ye
    orders = orders + n * live[:, None, None]
    x, y = x.reshape(-1, x.shape[2]), y.reshape(-1)
    xe, ye = np.empty((width, n, x.shape[1])), np.empty((width, n), dtype=y.dtype)
    # every [C, P] array a step uses, allocated once; the stack ends by copying p's live rows into trained
    m, v = np.zeros((2, width, param_count(spec)))
    grad, s1, s2 = np.empty((3, width, param_count(spec)))
    p = np.tile(np.asarray(start, dtype=np.float64), (width, 1))
    w, g = _unpack(spec, p), _unpack(spec, grad)
    lr, b1, b2 = opt.learning_rate, opt.adam_beta1, opt.adam_beta2
    t = 0
    # a row with a non-finite loss or overflowing step steps too, but is dropped before it is read
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(opt.local_epochs):
            rows = orders[live, epoch]
            np.take(x, rows, axis=0, out=xe, mode="clip")
            np.take(y, rows, out=ye, mode="clip")
            for lo in range(0, n, opt.batch_size):
                hi = lo + opt.batch_size
                loss, _ = _loss_grad(spec, w, xe[:, lo:hi], ye[:, lo:hi], g)
                t += 1
                if opt.kind == "sgd":
                    np.multiply(grad, lr, out=s1)
                else:  # lr (m / c1) / (sqrt(v / c2) + eps), rounded op by op as the one-client update
                    m *= b1
                    m += np.multiply(grad, 1.0 - b1, out=s1)
                    v *= b2
                    np.multiply(grad, 1.0 - b2, out=s2)
                    s2 *= grad
                    v += s2
                    np.divide(m, 1.0 - b1**t, out=s1)
                    s1 *= lr
                    np.divide(v, 1.0 - b2**t, out=s2)
                    np.sqrt(s2, out=s2)
                    s2 += opt.adam_epsilon
                    s1 /= s2
                p -= s1
                if np.isfinite(loss).all() and np.isfinite(p).all():
                    continue
                bad_loss = ~np.isfinite(loss)
                bad = bad_loss | ~np.isfinite(p).all(axis=1)
                for r, lossy in zip(live[bad].tolist(), bad_loss[bad].tolist()):
                    what = "non-finite loss" if lossy else "parameters overflowed"
                    diverged[dest[r]] = DivergenceError(f"{what} at epoch {epoch}, batch offset {lo}")
                    trained[dest[r]] = np.nan
                live, p, m, v, grad, s1, s2, xe, ye = (a[~bad] for a in (live, p, m, v, grad, s1, s2, xe, ye))
                if live.size == 0:
                    return diverged
                w, g = _unpack(spec, p), _unpack(spec, grad)
    trained[np.take(dest, live)] = p
    return diverged
