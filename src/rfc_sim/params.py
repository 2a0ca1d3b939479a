"""Flat parameter vectors: their squared distance, wire format and digest.

A parameter vector is a 1-D float64 numpy array; its length is fixed for the
lifetime of a federation run.

Wire format (used for hashing and chain export): a little-endian uint64
element count followed by the elements as little-endian IEEE-754 doubles.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np


def l2_dist_sq(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"l2_dist_sq: dimension mismatch ({a.shape[0]} vs {b.shape[0]})")
    d = a - b
    return float(np.dot(d, d))


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
    """SHA-256 of the wire encoding: a chain block's payload_digest."""
    return hashlib.sha256(to_bytes(v)).digest()
