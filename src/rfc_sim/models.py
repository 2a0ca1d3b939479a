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
``STACK_BYTES``. Every client row gets exactly the bits it would get trained
alone, and ``train_local`` is the one-client call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from .data import Dataset
from .seeds import mix64, shuffle_orders, stream_words

MODEL_KINDS = ("linear", "mlp")
OPTIMIZER_KINDS = ("sgd", "adam")
# Byte budget of one training stack's parameters (each Adam moment takes as
# much again): 168 clients of the 195-parameter desk linear model, or one
# client of a 17,411-parameter MLP, for which wider stacks only raise peak RSS.
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


def _forward(spec: ModelSpec, p: np.ndarray, x: np.ndarray):
    """Logits of the rows ``x``, plus the MLP activations the backward pass reuses.

    ``p`` is ``[..., P]`` and ``x`` is ``[..., n, input_dim]`` with the same
    leading (client) axes; each client's slice is computed as it would be alone.
    """
    if not np.all(np.isfinite(p)):
        raise ValueError("non-finite model parameters")
    if x.shape[-2] == 0:
        raise ValueError("empty batch")
    if x.shape[-1] != spec.input_dim:
        raise ValueError(f"feature dim {x.shape[-1]} does not match spec input_dim {spec.input_dim}")
    if spec.kind == "linear":
        w, b = _unpack(spec, p)
        return x @ w + b, None
    w1, b1, w2, b2 = _unpack(spec, p)
    pre = x @ w1 + b1
    hidden = np.maximum(pre, 0.0)
    return hidden @ w2 + b2, (w2, pre, hidden)


def _loss_grad(spec: ModelSpec, p: np.ndarray, x: np.ndarray, y: np.ndarray, need_grad: bool):
    """Per-client mean cross-entropy, its gradient and argmax hits, over ``p``'s leading axes."""
    n = x.shape[-2]
    # overflow surfaces as a non-finite loss, which callers treat as divergence
    with np.errstate(over="ignore", invalid="ignore"):
        logits, acts = _forward(spec, p, x)
        logp = _log_softmax(logits)
        # (example, label) pairs of the flattened leading axes
        at = np.arange(y.size), y.reshape(-1)
        loss = -logp.reshape(-1, spec.num_classes)[at].reshape(y.shape).mean(axis=-1)
    correct = (logits.argmax(axis=-1) == y).sum(axis=-1)
    if not need_grad:
        return loss, None, correct
    dlogits = np.exp(logp)
    dlogits.reshape(-1, spec.num_classes)[at] -= 1.0
    dlogits /= n
    grad = np.empty_like(p)
    if spec.kind == "linear":
        grad_w, grad_b = _unpack(spec, grad)
        grad_w[...] = np.swapaxes(x, -1, -2) @ dlogits
    else:
        w2, pre, hidden = acts
        dpre = (dlogits @ np.swapaxes(w2, -1, -2)) * (pre > 0.0)
        grad_w1, grad_b1, grad_w, grad_b = _unpack(spec, grad)
        grad_w1[...] = np.swapaxes(x, -1, -2) @ dpre
        grad_b1[...] = dpre.sum(axis=-2, keepdims=True)
        grad_w[...] = np.swapaxes(hidden, -1, -2) @ dlogits
    grad_b[...] = dlogits.sum(axis=-2, keepdims=True)
    return loss, grad, correct


def forward_loss_grad(spec: ModelSpec, p: np.ndarray, batch: Dataset) -> Tuple[float, np.ndarray, int]:
    """Mean cross-entropy, its gradient, and the argmax hit count on one batch."""
    loss, grad, correct = _loss_grad(spec, p, batch.x, batch.y, need_grad=True)
    return float(loss), grad, int(correct)


def log_probs(spec: ModelSpec, p: np.ndarray, data: Dataset) -> np.ndarray:
    """Per-example log class probabilities, shape (len(data), num_classes)."""
    return _log_softmax(_forward(spec, p, data.x)[0])


def predict_labels(spec: ModelSpec, p: np.ndarray, data: Dataset) -> np.ndarray:
    return log_probs(spec, p, data).argmax(axis=1)


def evaluate(spec: ModelSpec, p: np.ndarray, data: Dataset) -> Tuple[float, float]:
    """(mean cross-entropy, accuracy) over a nonempty dataset."""
    loss, _, correct = _loss_grad(spec, p, data.x, data.y, need_grad=False)
    return float(loss), int(correct) / len(data)


def train_local(spec: ModelSpec, start: np.ndarray, data: Dataset, opt: OptimizerConfig, seed: int) -> np.ndarray:
    """Run ``local_epochs`` of shuffled mini-batch SGD or Adam from ``start``.

    The one-client call of ``train_clients``; raises the client's DivergenceError.
    """
    (out,) = train_clients(spec, start, [data], opt, [seed])
    if isinstance(out, DivergenceError):
        raise out
    return out


def train_clients(spec: ModelSpec, start: np.ndarray, datasets: Sequence[Dataset],
                  opt: OptimizerConfig, seeds: Sequence[int]) -> List[Union[np.ndarray, DivergenceError]]:
    """Train one client per (dataset, seed) from the shared ``start``.

    Returns, in input order, each client's parameters or the DivergenceError
    that stopped it. Clients with equal row counts train as one stack.
    """
    width = max(1, STACK_BYTES // (8 * param_count(spec)))
    by_length: Dict[int, List[int]] = {}
    for i, data in enumerate(datasets):
        by_length.setdefault(len(data), []).append(i)
    out: list = [None] * len(datasets)
    for n, members in by_length.items():
        orders = shuffle_orders([mix64(seeds[i], e) for i in members for e in range(opt.local_epochs)], n)
        orders = orders.reshape(len(members), opt.local_epochs, n)
        for lo in range(0, len(members), width):
            stack = members[lo : lo + width]
            trained = _train_stack(spec, start, [datasets[i] for i in stack], orders[lo : lo + width], opt)
            for i, result in zip(stack, trained):
                out[i] = result
    return out


def _train_stack(spec: ModelSpec, start: np.ndarray, datasets: Sequence[Dataset], orders: np.ndarray,
                 opt: OptimizerConfig) -> list:
    """Train equal-length clients with per-epoch ``orders`` ``[C, E, n]`` as one stack.

    Each row takes every step as the one-client loop would, with the same
    operations in the same order; Adam's moments are updated in place. A row
    whose loss or parameters turn non-finite leaves with its DivergenceError.
    """
    x = np.stack([data.x for data in datasets])
    y = np.stack([data.y for data in datasets])
    out: list = [None] * x.shape[0]
    live = np.arange(x.shape[0])
    p = np.tile(np.asarray(start, dtype=np.float64), (x.shape[0], 1))
    m, v = np.zeros_like(p), np.zeros_like(p)
    b1, b2 = opt.adam_beta1, opt.adam_beta2
    t = 0
    for epoch in range(opt.local_epochs):
        for lo in range(0, x.shape[1], opt.batch_size):
            rows = orders[live, epoch, lo : lo + opt.batch_size]
            loss, grad, _ = _loss_grad(spec, p, x[live[:, None], rows], y[live[:, None], rows], need_grad=True)
            t += 1
            # a row with a non-finite loss steps too, but is dropped below before it is read
            with np.errstate(over="ignore", invalid="ignore"):
                if opt.kind == "sgd":
                    p -= opt.learning_rate * grad
                else:
                    m *= b1
                    m += (1.0 - b1) * grad
                    v *= b2
                    v += (1.0 - b2) * grad * grad
                    p -= opt.learning_rate * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + opt.adam_epsilon)
            bad_loss = ~np.isfinite(loss)
            bad = bad_loss | ~np.isfinite(p).all(axis=1)
            if bad.any():
                for r, lossy in zip(live[bad].tolist(), bad_loss[bad].tolist()):
                    what = "non-finite loss" if lossy else "parameters overflowed"
                    out[r] = DivergenceError(f"{what} at epoch {epoch}, batch offset {lo}")
                live, p, m, v = (a[~bad] for a in (live, p, m, v))
                if live.size == 0:
                    return out
    for r, row in zip(live.tolist(), p):
        out[r] = row
    return out
