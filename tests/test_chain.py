import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfc_sim import chain as chain_mod
from rfc_sim import params
from rfc_sim.chain import (Block, Chain, append, block_hash, export_lines,
                           genesis, load_lines, meets_difficulty, seal_block, validate)


def vec(*values):
    return np.array(values, dtype=np.float64)


def round_fields(round_idx, pool=0, value=0.5):
    return dict(round=round_idx, winning_pool_id=pool, metric_name="accuracy",
                metric_value=value, aggregator_rule="fedavg")


def build_chain(n_rounds, difficulty=0):
    ledger = genesis(vec(1.0, 2.0, 3.0), difficulty)
    for t in range(1, n_rounds + 1):
        ledger = append(ledger, vec(float(t), 0.0, -float(t)), **round_fields(t, pool=t % 3, value=0.9 - 0.01 * t))
    return ledger


def test_genesis_validates_and_is_deterministic():
    a = genesis(vec(1.0, 2.0), 0)
    b = genesis(vec(1.0, 2.0), 0)
    assert validate(a) is None
    assert a.blocks[0].hash == b.blocks[0].hash
    assert a.blocks[0].prev_hash == bytes(32)
    assert a.blocks[0].round == 0
    assert a.blocks[0].index == 0


def test_append_links_blocks():
    ledger = genesis(vec(0.5), 0)
    longer = append(ledger, vec(1.5), **round_fields(1))
    assert len(longer.blocks) == 2
    assert longer.blocks[1].prev_hash == longer.blocks[0].hash
    assert validate(longer) is None
    assert longer.blocks[1].round == 1


def test_same_payload_different_index_different_hash():
    ledger = genesis(vec(0.5), 0)
    ledger = append(ledger, vec(7.0), **round_fields(1))
    ledger = append(ledger, vec(7.0), **round_fields(2))
    assert ledger.blocks[1].payload_digest == ledger.blocks[2].payload_digest
    assert ledger.blocks[1].hash != ledger.blocks[2].hash


def test_chain_length_is_rounds_plus_one():
    assert len(build_chain(9).blocks) == 10


def test_round_numbers_monotone():
    ledger = build_chain(5)
    rounds = [b.round for b in ledger.blocks]
    assert rounds == sorted(rounds) == list(range(6))


def test_seal_difficulty_zero_takes_first_nonce():
    draft = Block(index=0, timestamp=0, payload_digest=bytes(32), **round_fields(0), prev_hash=bytes(32))
    sealed = seal_block(draft, 0)
    assert sealed.nonce == 0
    assert sealed.hash == block_hash(sealed)


def test_seal_difficulty_eight_leading_zero_byte():
    draft = Block(index=0, timestamp=0, payload_digest=bytes(32), **round_fields(0), prev_hash=bytes(32))
    sealed = seal_block(draft, 8)
    assert sealed.hash[0] == 0
    resealed = seal_block(draft, 8)
    assert resealed.nonce == sealed.nonce and resealed.hash == sealed.hash
    # minimality: no smaller nonce satisfies the target
    for n in range(sealed.nonce):
        cand = dataclasses.replace(draft, nonce=n, hash=b"")
        assert not meets_difficulty(block_hash(cand), 8)


def test_difficulty_chain_validates():
    ledger = build_chain(3, difficulty=4)
    assert validate(ledger) is None
    assert all(b.hash[0] >> 4 == 0 for b in ledger.blocks)


def test_validate_detects_payload_mutation():
    ledger = build_chain(5)
    blocks = list(ledger.blocks)
    blocks[2] = dataclasses.replace(blocks[2], payload_digest=bytes(32))
    assert validate(Chain(tuple(blocks), 0)) == 2


def test_validate_detects_resealed_mutation_at_successor():
    ledger = build_chain(5)
    blocks = list(ledger.blocks)
    tampered = dataclasses.replace(blocks[2], payload_digest=bytes(32))
    blocks[2] = seal_block(tampered, 0)  # fix block 2's own hash, not block 3's link
    assert validate(Chain(tuple(blocks), 0)) == 3


def test_validate_detects_bad_genesis_prev():
    ledger = build_chain(2)
    blocks = list(ledger.blocks)
    blocks[0] = dataclasses.replace(blocks[0], prev_hash=b"\x01" + bytes(31))
    assert validate(Chain(tuple(blocks), 0)) == 0


def test_validate_detects_index_gap():
    ledger = build_chain(3)
    blocks = list(ledger.blocks)
    blocks[2] = dataclasses.replace(blocks[2], index=5)
    assert validate(Chain(tuple(blocks), 0)) == 2


# a changed tip nonce, a changed tip index, and a predecessor whose stored hash
# no longer matches the tip's prev_hash (build_chain(2) seals nonce 0, tip index 2)
@pytest.mark.parametrize("pos,change", [(-1, {"nonce": 1}), (-1, {"index": 3}),
                                        (-2, {"hash": bytes(32)})],
                         ids=["tip_nonce", "tip_index", "predecessor_hash"])
def test_append_rejects_invalid_chain(pos, change):
    blocks = list(build_chain(2).blocks)
    blocks[pos] = dataclasses.replace(blocks[pos], **change)
    with pytest.raises(ValueError, match="invalid chain"):
        append(Chain(tuple(blocks), 0), vec(1.0), **round_fields(3))


def test_append_checks_only_the_tip():
    # append trusts the blocks behind the tip; validate still finds the tampered one
    blocks = list(build_chain(4).blocks)
    blocks[2] = dataclasses.replace(blocks[2], payload_digest=bytes(32))
    longer = append(Chain(tuple(blocks), 0), vec(1.0), **round_fields(5))
    assert len(longer.blocks) == 6
    assert validate(longer) == 2


def test_append_hash_count_independent_of_length(monkeypatch):
    short, long_ = build_chain(1), build_chain(299)
    calls = []
    real = chain_mod.block_hash

    def counting(block):
        calls.append(block.index)
        return real(block)

    monkeypatch.setattr(chain_mod, "block_hash", counting)
    counts = []
    for ledger in (short, long_):
        calls.clear()
        append(ledger, vec(1.0), **round_fields(len(ledger.blocks)))
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_export_import_roundtrip():
    ledger = build_chain(4)
    text = export_lines(ledger)
    assert len(text.splitlines()) == 5
    loaded = load_lines(text)
    assert loaded == ledger
    assert validate(loaded) is None
    assert export_lines(loaded) == text


def test_export_deterministic():
    assert export_lines(build_chain(4)) == export_lines(build_chain(4))


def test_load_rejects_garbage():
    with pytest.raises(ValueError, match="line 1"):
        load_lines("not json\n")
    with pytest.raises(ValueError):
        load_lines("")


def test_meets_difficulty_boundaries():
    assert meets_difficulty(bytes(32), 256)
    assert meets_difficulty(b"\xff" * 32, 0)
    assert meets_difficulty(b"\x00\xff" + bytes(30), 8)
    assert not meets_difficulty(b"\x01" + bytes(31), 8)
    for d in range(1, 257):
        largest = (1 << (256 - d)) - 1  # the largest hash with d leading zero bits
        assert meets_difficulty(largest.to_bytes(32, "big"), d), d
        assert not meets_difficulty((largest + 1).to_bytes(32, "big"), d), d
    assert meets_difficulty(b"\xff" * 32, -1)  # a negative difficulty is met, and raises nothing
    assert not meets_difficulty(bytes(32), 257)


def _first_nonce_by_brute_force(draft, difficulty):
    """The smallest nonce whose full-preimage hash, read as an integer, is below 2**(256 - d)."""
    for nonce in range(1 << 20):
        h = block_hash(dataclasses.replace(draft, nonce=nonce))
        if int.from_bytes(h, "big") < 1 << (256 - difficulty):
            return nonce, h
    raise AssertionError("no nonce below 2**20")


_label = st.one_of(st.text(max_size=80), st.text(alphabet="é€𝄞", max_size=40))


@settings(max_examples=40)
@given(difficulty=st.integers(0, 10), metric_name=_label, aggregator_rule=_label,
       payload_digest=st.binary(min_size=32, max_size=32), prev_hash=st.binary(min_size=32, max_size=32),
       round_idx=st.integers(0, (1 << 64) - 1), pool=st.integers(-(1 << 63), (1 << 63) - 1),
       metric_value=st.floats())
@example(difficulty=10, metric_name="", aggregator_rule="", payload_digest=bytes(32), prev_hash=bytes(32),
         round_idx=0, pool=-1, metric_value=0.0)
@example(difficulty=6, metric_name="macro_f1" * 40, aggregator_rule="\u00e9" * 100, payload_digest=bytes(32),
         prev_hash=b"\xff" * 32, round_idx=(1 << 64) - 1, pool=(1 << 63) - 1, metric_value=float("nan"))
def test_seal_matches_brute_force_search(difficulty, metric_name, aggregator_rule, payload_digest, prev_hash,
                                         round_idx, pool, metric_value):
    # the head before the nonce is 96 bytes plus both labels' UTF-8 bytes, so it ends in varying 64-byte blocks
    draft = Block(index=round_idx, timestamp=round_idx, payload_digest=payload_digest, round=round_idx,
                  winning_pool_id=pool, metric_name=metric_name, metric_value=metric_value,
                  aggregator_rule=aggregator_rule, prev_hash=prev_hash)
    sealed = seal_block(draft, difficulty)
    assert (sealed.nonce, sealed.hash) == _first_nonce_by_brute_force(draft, difficulty)
    assert sealed.hash == block_hash(sealed) and meets_difficulty(sealed.hash, difficulty)


def test_seal_rejects_difficulty_above_hash_width():
    draft = Block(index=0, timestamp=0, payload_digest=bytes(32), **round_fields(0), prev_hash=bytes(32))
    for difficulty in (257, 300, -1):
        with pytest.raises(ValueError, match="difficulty"):
            seal_block(draft, difficulty)
    assert seal_block(draft, 0).nonce == 0


def test_load_rejects_difficulty_mismatch_between_lines():
    lines = export_lines(build_chain(3)).splitlines()
    rec = json.loads(lines[1])
    rec["difficulty"] = 4
    lines[1] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    with pytest.raises(ValueError, match="line 2: difficulty 4 disagrees with 0"):
        load_lines("\n".join(lines) + "\n")


def test_load_rejects_keys_no_hash_covers():
    lines = export_lines(build_chain(2)).splitlines()
    rec = json.loads(lines[1])
    rec["model_url"] = "http://evil"
    lines[1] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    with pytest.raises(ValueError, match=r"^chain export line 2: unexpected keys \['model_url'\]$"):
        load_lines("\n".join(lines) + "\n")
    # a line that is not a JSON object is refused too, with its line number
    for line in ('["index"]', '"index"', "7", "null"):
        with pytest.raises(ValueError, match="^chain export line 1: "):
            load_lines(line + "\n")


def test_load_rejects_a_repeated_key():
    lines = export_lines(build_chain(3)).splitlines()
    assert '"round":1,' in lines[1]
    # json.loads would keep the later "round":1, which the hash covers, and hide the 99 before it
    lines[1] = '{"round":99,' + lines[1][1:]
    with pytest.raises(ValueError, match=r"^chain export line 2: duplicate key 'round'$"):
        load_lines("\n".join(lines) + "\n")
    # the same key twice with the same value is refused too
    lines[1] = '{"round":1,' + lines[1][len('{"round":99,'):]
    with pytest.raises(ValueError, match=r"^chain export line 2: duplicate key 'round'$"):
        load_lines("\n".join(lines) + "\n")
