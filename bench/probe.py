"""Host-speed probe: a fixed piece of work, independent of rfc_sim.

The host this benchmark was built on flips each CPU between a fast and a
slow state (about 1.7x), independently per CPU, and the share of time spent
slow drifts over minutes, for wall and CPU time alike. The worker pins itself
to one CPU and runs six probe passes just before and six just after the
workload; ``run.py`` multiplies the sample's times by ``REFERENCE_S`` over the
mean of those twelve passes, so that medians from runs made in different
minutes compare. The raw times stay in the full result.

A pass mixes the kinds of work the workloads do: interpreter loops, small
matrix products and a softmax training step, long-vector distances, and
SHA-256 over packed frozen dataclasses. Passes are averaged, not reduced to a
median, because the workloads' own times grow in proportion to the share of
time spent slow.
"""

from __future__ import annotations

import hashlib
import struct
import time
from dataclasses import dataclass, replace
from typing import List

import numpy as np

_X = np.linspace(0.0, 1.0, 160 * 64).reshape(160, 64)
_Y = np.arange(160) % 3
_W = np.linspace(-1.0, 1.0, 64 * 3).reshape(64, 3)
_V = np.linspace(0.0, 1.0, 17411)


@dataclass(frozen=True)
class _Block:
    index: int
    prev: bytes
    nonce: int = 0


def _interpreter() -> None:
    acc = 0
    for i in range(25000):
        acc += i & 7


def _small_matrices() -> None:
    x = _X[:8]
    for _ in range(600):
        (x @ _W).argmax(axis=1)


def _long_vectors() -> None:
    for _ in range(60):
        d = _V - _V[::-1]
        float(np.dot(d, d))


def _hashing() -> None:
    for i in range(1600):
        hashlib.sha256(i.to_bytes(8, "little") * 16).digest()


def _train_steps() -> None:
    p = np.zeros(64 * 3 + 3)
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t in range(1, 49):
        lo = (t * 8) % 152
        x, y = _X[lo : lo + 8], _Y[lo : lo + 8]
        logits = x @ p[:192].reshape(64, 3) + p[192:]
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        dlogits = np.exp(logp)
        dlogits[np.arange(8), y] -= 1.0
        dlogits /= 8
        g = np.empty_like(p)
        g[:192] = (x.T @ dlogits).reshape(-1)
        g[192:] = dlogits.sum(axis=0)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        p -= 0.01 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)


def _sealing() -> None:
    block = _Block(1, bytes(32))
    for nonce in range(1000):
        b = replace(block, nonce=nonce)
        hashlib.sha256(struct.pack("<Q", b.index) + b.prev + struct.pack("<Q", b.nonce)).digest()


_PARTS = (_interpreter, _small_matrices, _long_vectors, _hashing, _train_steps, _sealing)


def host_probe(passes: int = 6) -> List[float]:
    """Seconds of each of ``passes`` passes over every part."""
    times = []
    for _ in range(passes):
        t0 = time.perf_counter()
        for part in _PARTS:
            part()
        times.append(time.perf_counter() - t0)
    return times
