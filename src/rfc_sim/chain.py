"""Hash-linked ledger of winning round models, with nonce search and tampering checks.

Block hashes are SHA-256 over a canonical little-endian field serialization::

    u64 index | u64 timestamp | 32 raw payload_digest bytes
    | u64 round | i64 winning_pool_id
    | u64 len(metric_name) + UTF-8 bytes | f64 metric_value bits
    | u64 len(aggregator_rule) + UTF-8 bytes
    | u64 nonce | 32 raw prev_hash bytes

A block meets difficulty d when its hash starts with d zero bits. Timestamps
are logical round counters, never wall clock, so sealed chains are
reproducible. Model payloads live off-chain in a ParamStore keyed by the
sha256 digest of their wire encoding.

``append`` checks only the tip it links to. ``validate`` checks every block;
it is what ``validate-chain`` runs on an export.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, fields, replace
from typing import Dict, Optional, Tuple

import numpy as np

from . import params

ZERO32 = bytes(32)
MAX_DIFFICULTY = 256  # a SHA-256 hash has 256 bits to be zero
_U64 = struct.Struct("<Q")


@dataclass(frozen=True)
class RoundMeta:
    round: int
    winning_pool_id: int
    metric_name: str
    metric_value: float
    aggregator_rule: str


@dataclass(frozen=True)
class Block:
    index: int
    timestamp: int
    payload_digest: bytes
    meta: RoundMeta
    prev_hash: bytes
    nonce: int = 0
    hash: bytes = b""


@dataclass(frozen=True)
class Chain:
    blocks: Tuple[Block, ...]
    difficulty: int = 0


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return _U64.pack(len(raw)) + raw


def _preimage_parts(block: Block) -> Tuple[bytes, bytes]:
    """The preimage bytes before the nonce field, and the prev_hash after it."""
    m = block.meta
    head = (
        struct.pack("<QQ", block.index, block.timestamp)
        + block.payload_digest
        + struct.pack("<Qq", m.round, m.winning_pool_id)
        + _pack_str(m.metric_name)
        + struct.pack("<d", m.metric_value)
        + _pack_str(m.aggregator_rule)
    )
    return head, block.prev_hash


def block_hash(block: Block) -> bytes:
    head, tail = _preimage_parts(block)
    return hashlib.sha256(head + _U64.pack(block.nonce) + tail).digest()


def meets_difficulty(digest: bytes, difficulty: int) -> bool:
    if difficulty <= 0:
        return True
    if difficulty > MAX_DIFFICULTY:
        return False
    return int.from_bytes(digest, "big") < (1 << (256 - difficulty))


def seal_block(draft: Block, difficulty: int) -> Block:
    """Fill nonce and hash: smallest nonce from 0 upward whose hash meets difficulty."""
    if not 0 <= difficulty <= MAX_DIFFICULTY:
        raise ValueError(f"difficulty must lie in [0, {MAX_DIFFICULTY}], got {difficulty}")
    head, tail = _preimage_parts(draft)
    for nonce in range(1 << 64):
        h = hashlib.sha256(head + _U64.pack(nonce) + tail).digest()
        if meets_difficulty(h, difficulty):
            return replace(draft, nonce=nonce, hash=h)
    raise RuntimeError(f"no valid nonce for block {draft.index} at difficulty {difficulty}")


def genesis(initial_params: np.ndarray, difficulty: int = 0) -> Chain:
    meta = RoundMeta(round=0, winning_pool_id=-1, metric_name="", metric_value=0.0, aggregator_rule="")
    draft = Block(index=0, timestamp=0, payload_digest=params.digest(initial_params),
                  meta=meta, prev_hash=ZERO32)
    return Chain(blocks=(seal_block(draft, difficulty),), difficulty=difficulty)


def append(chain: Chain, model: np.ndarray, meta: RoundMeta) -> Chain:
    """Seal a block for model onto the tip; only the tip is checked, not the whole chain."""
    tip = len(chain.blocks) - 1
    if _invalid(chain, tip):
        raise ValueError(f"refusing to append to invalid chain (invalid tip block {tip})")
    draft = Block(index=tip + 1, timestamp=meta.round, payload_digest=params.digest(model),
                  meta=meta, prev_hash=chain.blocks[tip].hash)
    return Chain(blocks=chain.blocks + (seal_block(draft, chain.difficulty),),
                 difficulty=chain.difficulty)


def _invalid(chain: Chain, i: int) -> bool:
    """True when block i breaks its index, its link to block i - 1, its hash or the difficulty."""
    block = chain.blocks[i]
    prev = chain.blocks[i - 1].hash if i else ZERO32
    return (block.index != i or block.prev_hash != prev or block_hash(block) != block.hash
            or not meets_difficulty(block.hash, chain.difficulty))


def validate(chain: Chain) -> Optional[int]:
    """None when every block checks out, else the first invalid index; checks the whole chain."""
    return next((i for i in range(len(chain.blocks)) if _invalid(chain, i)), None)


class ParamStore:
    """Off-chain model storage keyed by payload digest; round-trips bit-exactly."""

    def __init__(self):
        self._blobs: Dict[bytes, bytes] = {}

    def put(self, v: np.ndarray) -> bytes:
        blob = params.to_bytes(v)
        key = hashlib.sha256(blob).digest()
        self._blobs[key] = blob
        return key

    def get(self, digest: bytes) -> np.ndarray:
        try:
            return params.from_bytes(self._blobs[digest])
        except KeyError:
            raise KeyError(f"no model stored under digest {digest.hex()}")

    def __contains__(self, digest: bytes) -> bool:
        return digest in self._blobs

    def __len__(self) -> int:
        return len(self._blobs)


def export_lines(chain: Chain) -> str:
    """One self-describing JSON record per block, hashes hex-encoded."""
    lines = []
    for b in chain.blocks:
        lines.append(json.dumps({
            "index": b.index,
            "timestamp": b.timestamp,
            "payload_digest": b.payload_digest.hex(),
            "round": b.meta.round,
            "winning_pool_id": b.meta.winning_pool_id,
            "metric_name": b.meta.metric_name,
            "metric_value": b.meta.metric_value,
            "aggregator_rule": b.meta.aggregator_rule,
            "nonce": b.nonce,
            "prev_hash": b.prev_hash.hex(),
            "hash": b.hash.hex(),
            "difficulty": chain.difficulty,
        }, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + "\n"


# Export field -> the JSON type export_lines writes for it and, for an integer,
# the range of its packed field. Nothing else loads, so no edited value can be
# coerced back to the one that was hashed.
_FIELDS = {**dict.fromkeys(("index", "timestamp", "round", "nonce"), (int, 0, (1 << 64) - 1)),
           "winning_pool_id": (int, -(1 << 63), (1 << 63) - 1),
           "difficulty": (int, 0, MAX_DIFFICULTY), "metric_value": (float,),
           **dict.fromkeys(("metric_name", "aggregator_rule", "payload_digest", "prev_hash", "hash"),
                           (str,))}


def load_lines(text: str) -> Chain:
    blocks = []
    difficulty = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            for key, (kind, *bounds) in _FIELDS.items():
                value = rec[key]
                if type(value) is not kind:  # exact, so a bool is no int
                    raise ValueError(f"{key} must be a JSON {kind.__name__}, got {value!r}")
                if bounds and not bounds[0] <= value <= bounds[1]:
                    raise ValueError(f"{key} {value} outside [{bounds[0]}, {bounds[1]}]")
                if kind is str:
                    value.encode("utf-8")  # a lone surrogate would fail when hashed
            meta = RoundMeta(**{f.name: rec[f.name] for f in fields(RoundMeta)})
            block = Block(index=rec["index"], timestamp=rec["timestamp"],
                          payload_digest=bytes.fromhex(rec["payload_digest"]), meta=meta,
                          prev_hash=bytes.fromhex(rec["prev_hash"]), nonce=rec["nonce"],
                          hash=bytes.fromhex(rec["hash"]))
            if blocks and rec["difficulty"] != difficulty:
                raise ValueError(f"difficulty {rec['difficulty']} disagrees with {difficulty} "
                                 f"on the lines before")
            difficulty = rec["difficulty"]
        except (KeyError, ValueError, TypeError) as exc:
            raise ValueError(f"chain export line {lineno}: {exc}")
        blocks.append(block)
    if not blocks:
        raise ValueError("chain export holds no blocks")
    return Chain(blocks=tuple(blocks), difficulty=difficulty)
