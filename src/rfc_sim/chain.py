"""Hash-linked ledger of winning round models, with nonce search and tampering checks.

Block hashes are SHA-256 over every Block field but ``hash``, in order, little-endian::

    u64 index | u64 timestamp | 32 raw payload_digest bytes
    | u64 round | i64 winning_pool_id
    | u64 len(metric_name) + UTF-8 bytes | f64 metric_value bits
    | u64 len(aggregator_rule) + UTF-8 bytes
    | u64 nonce | 32 raw prev_hash bytes

Genesis holds round 0, winning_pool_id -1 and empty strings. An export line is
one JSON object of a block's fields, digests as hex, plus the chain's difficulty.

A block meets difficulty d when its hash starts with d zero bits; sealing hashes
the fields before the nonce once (a midstate) and tests d as a 32-byte bound.
Timestamps are logical round counters, never wall clock, so sealed chains are
reproducible. A block holds no model: its payload_digest is the SHA-256 of
the winning model's wire encoding (``params.to_bytes``), computed once, here.

``append`` checks only the tip it links to. ``validate`` checks every block;
it is what ``validate-chain`` runs on an export.
"""

from __future__ import annotations

import hashlib
import json
import re
import struct
from dataclasses import dataclass, fields, replace
from typing import Optional, Tuple

import numpy as np

from . import params

ZERO32 = bytes(32)
MAX_DIFFICULTY = 256  # a SHA-256 hash has 256 bits to be zero
_U64 = struct.Struct("<Q")
_BOUNDS = tuple(((1 << (256 - d)) - 1).to_bytes(32, "big") for d in range(MAX_DIFFICULTY + 1))  # largest hash meeting d


@dataclass(frozen=True, slots=True)
class Block:
    index: int
    timestamp: int
    payload_digest: bytes
    round: int
    winning_pool_id: int
    metric_name: str
    metric_value: float
    aggregator_rule: str
    nonce: int = 0
    prev_hash: bytes = ZERO32
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
    head = (struct.pack("<QQ", block.index, block.timestamp) + block.payload_digest
            + struct.pack("<Qq", block.round, block.winning_pool_id) + _pack_str(block.metric_name)
            + struct.pack("<d", block.metric_value) + _pack_str(block.aggregator_rule))
    return head, block.prev_hash


def block_hash(block: Block) -> bytes:
    head, tail = _preimage_parts(block)
    return hashlib.sha256(head + _U64.pack(block.nonce) + tail).digest()


def meets_difficulty(digest: bytes, difficulty: int) -> bool:
    return difficulty <= 0 or (difficulty <= MAX_DIFFICULTY and digest <= _BOUNDS[difficulty])


def seal_block(draft: Block, difficulty: int) -> Block:
    """Fill nonce and hash: smallest nonce from 0 upward whose hash meets difficulty."""
    if not 0 <= difficulty <= MAX_DIFFICULTY:
        raise ValueError(f"difficulty must lie in [0, {MAX_DIFFICULTY}], got {difficulty}")
    head, tail = _preimage_parts(draft)
    midstate, bound = hashlib.sha256(head), _BOUNDS[difficulty]
    for nonce in range(1 << 64):
        h = midstate.copy()
        h.update(nonce.to_bytes(8, "little") + tail)
        if (digest := h.digest()) <= bound:
            return replace(draft, nonce=nonce, hash=digest)
    raise RuntimeError(f"no valid nonce for block {draft.index} at difficulty {difficulty}")


def genesis(initial_params: np.ndarray, difficulty: int = 0) -> Chain:
    draft = Block(0, 0, params.digest(initial_params), 0, -1, "", 0.0, "")
    return Chain(blocks=(seal_block(draft, difficulty),), difficulty=difficulty)


def append(chain: Chain, model: np.ndarray, round: int, winning_pool_id: int, metric_name: str,
           metric_value: float, aggregator_rule: str) -> Chain:
    """Seal a block for model and round onto the tip; only the tip is checked, not the whole chain."""
    tip = len(chain.blocks) - 1
    if _invalid(chain, tip):
        raise ValueError(f"refusing to append to invalid chain (invalid tip block {tip})")
    draft = Block(tip + 1, round, params.digest(model), round, winning_pool_id, metric_name,
                  metric_value, aggregator_rule, prev_hash=chain.blocks[tip].hash)
    return Chain(chain.blocks + (seal_block(draft, chain.difficulty),), chain.difficulty)


def _invalid(chain: Chain, i: int) -> bool:
    """True when block i breaks its index, its link to block i - 1, its hash or the difficulty."""
    block = chain.blocks[i]
    prev = chain.blocks[i - 1].hash if i else ZERO32
    return (block.index != i or block.prev_hash != prev or block_hash(block) != block.hash
            or not meets_difficulty(block.hash, chain.difficulty))


def validate(chain: Chain) -> Optional[int]:
    """None when every block checks out, else the first invalid index; checks the whole chain."""
    return next((i for i in range(len(chain.blocks)) if _invalid(chain, i)), None)


_BLOCK_FIELDS = tuple(f.name for f in fields(Block))
_DIGESTS = ("payload_digest", "prev_hash", "hash")


def export_lines(chain: Chain) -> str:
    """One self-describing JSON record per block: every Block field, digests as hex, and difficulty."""
    lines = []
    for b in chain.blocks:
        rec = {k: getattr(b, k) for k in _BLOCK_FIELDS}
        for k in _DIGESTS:
            rec[k] = rec[k].hex()
        rec["difficulty"] = chain.difficulty
        lines.append(json.dumps(rec, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + "\n"


# Export field -> the JSON type export_lines writes for it and, for an integer,
# the range of its packed field; a digest is 64 lowercase hex digits. No other key
# loads, and no edited value can be coerced back to the one that was hashed.
_FIELDS = {**dict.fromkeys(("index", "timestamp", "round", "nonce"), (int, 0, (1 << 64) - 1)),
           "winning_pool_id": (int, -(1 << 63), (1 << 63) - 1),
           "difficulty": (int, 0, MAX_DIFFICULTY), "metric_value": (float,),
           **dict.fromkeys(("metric_name", "aggregator_rule"), (str,)),
           **dict.fromkeys(_DIGESTS, (str, re.compile("[0-9a-f]{64}")))}


def _unique_keys(pairs: list) -> dict:
    """``json.loads``' object hook: a repeated key, of which a dict keeps only the last value, is refused."""
    rec = {}
    for key, value in pairs:
        if key in rec:
            raise ValueError(f"duplicate key {key!r}")
        rec[key] = value
    return rec


# A line of str.splitlines and its line end, or the text's end; the empty match past a final line end is no line,
# so the m[1] of the non-empty matches m are text.splitlines(), one line at a time.
_LINE = re.compile("([^\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]*)(?:\r\n|[\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]|\\Z)")


def load_lines(text: str) -> Chain:
    blocks = []
    difficulty = 0
    for lineno, line in enumerate((m[1] for m in _LINE.finditer(text) if m[0]), start=1):  # one line held at a time
        if not line.strip():
            continue
        try:
            rec = json.loads(line, object_pairs_hook=_unique_keys)
            for key, (kind, *bounds) in _FIELDS.items():
                value = rec[key]
                if type(value) is not kind:  # exact, so a bool is no int
                    raise ValueError(f"{key} must be a JSON {kind.__name__}, got {value!r}")
                if kind is str:
                    value.encode("utf-8")  # a lone surrogate would fail when hashed
                    if bounds and not bounds[0].fullmatch(value):
                        raise ValueError(f"{key} must be 64 lowercase hex digits, got {value[:80]!r}")
                elif bounds and not bounds[0] <= value <= bounds[1]:
                    raise ValueError(f"{key} {value} outside [{bounds[0]}, {bounds[1]}]")
            if extra := sorted(rec.keys() - _FIELDS.keys()):  # rec is an object: every _FIELDS key was read
                raise ValueError(f"unexpected keys {extra}")
            block = Block(**{k: bytes.fromhex(rec[k]) if k in _DIGESTS else rec[k] for k in _BLOCK_FIELDS})
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
