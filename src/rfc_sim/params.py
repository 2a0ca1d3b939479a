"""Flat parameter-vector arithmetic shared by models, attacks and aggregators.

A parameter vector is a 1-D float64 numpy array; its length is fixed for the
lifetime of a federation run. Summations are sequential left folds in input
order so results are bit-identical across runs.

Wire format (used for hashing and chain export): a little-endian uint64
element count followed by the elements as little-endian IEEE-754 doubles.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Sequence

import numpy as np


def _check_dims(a: np.ndarray, b: np.ndarray, op: str) -> None:
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"{op}: dimension mismatch ({a.shape[0]} vs {b.shape[0]})")


def l2_dist_sq(a: np.ndarray, b: np.ndarray) -> float:
    _check_dims(a, b, "l2_dist_sq")
    d = a - b
    return float(np.dot(d, d))


def mean(vs: Sequence[np.ndarray]) -> np.ndarray:
    """Elementwise mean, accumulated as a left fold in input order."""
    if len(vs) == 0:
        raise ValueError("mean of empty update list")
    acc = np.array(vs[0], dtype=np.float64, copy=True)
    for v in vs[1:]:
        _check_dims(acc, v, "mean")
        np.add(acc, v, out=acc)
    acc /= len(vs)
    return acc


def to_bytes(v: np.ndarray) -> bytes:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"parameter vector must be 1-D, got shape {arr.shape}")
    return struct.pack("<Q", arr.shape[0]) + arr.astype("<f8").tobytes()


def from_bytes(buf: bytes) -> np.ndarray:
    if len(buf) < 8:
        raise ValueError("truncated parameter vector: missing length prefix")
    (n,) = struct.unpack_from("<Q", buf, 0)
    expected = 8 + 8 * n
    if len(buf) != expected:
        raise ValueError(f"parameter vector length mismatch: header says {n} elements, buffer has {len(buf)} bytes")
    return np.frombuffer(buf, dtype="<f8", count=n, offset=8).astype(np.float64)


def digest(v: np.ndarray) -> bytes:
    """SHA-256 of the wire encoding; keys the off-chain model store."""
    return hashlib.sha256(to_bytes(v)).digest()
