"""Desk-scale differentiable classifiers: linear softmax and one-hidden-layer MLP.

Parameters live in a single flat float64 vector. Packing order:

* linear:  W (input_dim x num_classes, row-major), then b (num_classes)
* mlp:     W1 (input_dim x hidden_dim), b1, W2 (hidden_dim x num_classes), b2

Weights initialize uniformly in [-s, s] with s = sqrt(6 / (fan_in + fan_out)),
drawn in packing order from an Sm64Stream; biases start at zero. Local
training shuffles with Fisher-Yates, reseeded per epoch as
``mix64(train_seed, epoch)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .data import Dataset
from .seeds import Sm64Stream, mix64

MODEL_KINDS = ("linear", "mlp")
OPTIMIZER_KINDS = ("sgd", "adam")


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


def param_count(spec: ModelSpec) -> int:
    d, c, h = spec.input_dim, spec.num_classes, spec.hidden_dim
    if spec.kind == "linear":
        return d * c + c
    return d * h + h + h * c + c


def _layer_segments(spec: ModelSpec):
    """(num_weights, fan_in, fan_out, num_biases) per layer, in packing order."""
    d, c, h = spec.input_dim, spec.num_classes, spec.hidden_dim
    if spec.kind == "linear":
        return [(d * c, d, c, c)]
    return [(d * h, d, h, h), (h * c, h, c, c)]


def init_params(spec: ModelSpec, seed: int) -> np.ndarray:
    stream = Sm64Stream(seed)
    out = np.empty(param_count(spec), dtype=np.float64)
    pos = 0
    for n_weights, fan_in, fan_out, n_biases in _layer_segments(spec):
        s = math.sqrt(6.0 / (fan_in + fan_out))
        for i in range(n_weights):
            out[pos + i] = (2.0 * stream.uniform() - 1.0) * s
        pos += n_weights
        out[pos : pos + n_biases] = 0.0
        pos += n_biases
    return out


def _unpack(spec: ModelSpec, p: np.ndarray):
    d, c, h = spec.input_dim, spec.num_classes, spec.hidden_dim
    if p.shape[0] != param_count(spec):
        raise ValueError(f"parameter vector has {p.shape[0]} entries, spec needs {param_count(spec)}")
    if spec.kind == "linear":
        return p[: d * c].reshape(d, c), p[d * c :]
    o = 0
    w1 = p[o : o + d * h].reshape(d, h); o += d * h
    b1 = p[o : o + h]; o += h
    w2 = p[o : o + h * c].reshape(h, c); o += h * c
    b2 = p[o:]
    return w1, b1, w2, b2


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _forward(spec: ModelSpec, p: np.ndarray, x: np.ndarray):
    """Logits of the rows ``x``, plus the MLP activations the backward pass reuses."""
    if not np.all(np.isfinite(p)):
        raise ValueError("non-finite model parameters")
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    if x.shape[1] != spec.input_dim:
        raise ValueError(f"feature dim {x.shape[1]} does not match spec input_dim {spec.input_dim}")
    if spec.kind == "linear":
        w, b = _unpack(spec, p)
        return x @ w + b, None
    w1, b1, w2, b2 = _unpack(spec, p)
    pre = x @ w1 + b1
    hidden = np.maximum(pre, 0.0)
    return hidden @ w2 + b2, (w2, pre, hidden)


def _loss_grad(spec: ModelSpec, p: np.ndarray, x: np.ndarray, y: np.ndarray, need_grad: bool):
    n = x.shape[0]
    # overflow surfaces as a non-finite loss, which callers treat as divergence
    with np.errstate(over="ignore", invalid="ignore"):
        logits, acts = _forward(spec, p, x)
        logp = _log_softmax(logits)
        loss = float(-logp[np.arange(n), y].mean())
    correct = int((logits.argmax(axis=1) == y).sum())
    if not need_grad:
        return loss, None, correct
    dlogits = np.exp(logp)
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n
    grad = np.empty_like(p)
    if spec.kind == "linear":
        d, c = spec.input_dim, spec.num_classes
        grad[: d * c] = (x.T @ dlogits).reshape(-1)
        grad[d * c :] = dlogits.sum(axis=0)
    else:
        d, c, h = spec.input_dim, spec.num_classes, spec.hidden_dim
        w2, pre, hidden = acts
        dhidden = dlogits @ w2.T
        dpre = dhidden * (pre > 0.0)
        o = 0
        grad[o : o + d * h] = (x.T @ dpre).reshape(-1); o += d * h
        grad[o : o + h] = dpre.sum(axis=0); o += h
        grad[o : o + h * c] = (hidden.T @ dlogits).reshape(-1); o += h * c
        grad[o:] = dlogits.sum(axis=0)
    return loss, grad, correct


def forward_loss_grad(spec: ModelSpec, p: np.ndarray, batch: Dataset) -> Tuple[float, np.ndarray, int]:
    """Mean cross-entropy, its gradient, and the argmax hit count on one batch."""
    return _loss_grad(spec, p, batch.x, batch.y, need_grad=True)


def log_probs(spec: ModelSpec, p: np.ndarray, data: Dataset) -> np.ndarray:
    """Per-example log class probabilities, shape (len(data), num_classes)."""
    return _log_softmax(_forward(spec, p, data.x)[0])


def predict_labels(spec: ModelSpec, p: np.ndarray, data: Dataset) -> np.ndarray:
    return log_probs(spec, p, data).argmax(axis=1)


def evaluate(spec: ModelSpec, p: np.ndarray, data: Dataset) -> Tuple[float, float]:
    """(mean cross-entropy, accuracy) over a nonempty dataset."""
    loss, _, correct = _loss_grad(spec, p, data.x, data.y, need_grad=False)
    return loss, correct / len(data)


def train_local(spec: ModelSpec, start: np.ndarray, data: Dataset, opt: OptimizerConfig, seed: int) -> np.ndarray:
    """Run ``local_epochs`` of shuffled mini-batch SGD or Adam from ``start``."""
    x, y = data.x, data.y
    n = len(data)
    p = np.array(start, dtype=np.float64, copy=True)
    if opt.kind == "adam":
        m = np.zeros_like(p)
        v = np.zeros_like(p)
        t = 0
    for epoch in range(opt.local_epochs):
        order = list(range(n))
        Sm64Stream(mix64(seed, epoch)).shuffle(order)
        idx = np.array(order, dtype=np.int64)
        for lo in range(0, n, opt.batch_size):
            rows = idx[lo : lo + opt.batch_size]
            loss, grad, _ = _loss_grad(spec, p, x[rows], y[rows], need_grad=True)
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
