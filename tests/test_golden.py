"""Golden outputs: the records.csv sha256 and chain tip of fixed runs.

The simulator's contract is bit-reproducibility, so a refactor must leave every
pin below unchanged. A change that moves a pin changes behaviour: re-pin only
on purpose, in the same change, and say why.
"""

import hashlib
from dataclasses import replace

import pytest

from rfc_sim import cli, consensus
from rfc_sim.config import (PRESET_NAMES, build_partition, desk_default, parse_config_text, preset,
                            render_config, with_master_seed)

# (preset, topology) -> (records.csv sha256, chain tip) after 3 desk rounds at seed 42
PRESET_PINS = {
    ("no_attack", "rfc"): (
        "d5f6ea7a9660f18eca82eebd58a907f5ea2a2d6a5f7d72b4bed041c76b7e47d7",
        "d3478b9fd9c0c3071b4b8e956aab3575142c13b3e9e1720ebc07c63728f923ed"),
    ("no_attack", "client_server"): (
        "c33f0ab9197caa36ae7f15cce0d5c8869654979b2b7708e4739203de4b8d2715",
        "9667ce8aee4bbc2e782fd3bf7a2769afa40cf2074b3051cdf25e16d7d861b136"),
    ("one_pool_labelflip", "rfc"): (
        "2be621f68a3cc1794b3e92699871024e8cf717ebf372e91d3fa0488c8a419697",
        "2a2c48b2f4083c0da740ef8460771b50605a29cf01d47acd7d6b388cb94a7ac1"),
    ("one_pool_labelflip", "client_server"): (
        "2906aee2065a5225c937899bd3ff42eccea69dbf94c7e9bc3c7262f95f5eef3f",
        "a140c2aa6457ca9ccc95469f0804f71b048bf62e16f9753a47f50631a0f9b371"),
    ("one_pool_backdoor", "rfc"): (
        "02c831ec2534745c482a0b0f732ab5a033dd0a1c9b9f9cffb343f499805f2a88",
        "2a2c48b2f4083c0da740ef8460771b50605a29cf01d47acd7d6b388cb94a7ac1"),
    ("one_pool_backdoor", "client_server"): (
        "efad1a34940c6e2498e5eb7b8bc66527b02a0ef7b9091fc4ba8bba2594a49aae",
        "e455f993bc7015ea2f32a7856aebcf3d2f30deb9d0c95e40f46cc520fbf3c93f"),
    ("all_pools_labelflip", "rfc"): (
        "8e0afa386021e695d2528ed9f555cc7af39a591fcefc0c641e0e0dd3f9767e4d",
        "80f61e9f1f10c6b2e9f669b78e4a5887fcc26a74ce3930c91140dcec98da602b"),
    ("all_pools_labelflip", "client_server"): (
        "6d20fda4e810cfe899bf1f2dce9794f55862d331d9225d0f86a83c0a6dc3245b",
        "21c662c2bb6b408df8e5cb2b58051eee97b71fe8e27e2db046c09881dc268fd0"),
    ("all_pools_backdoor", "rfc"): (
        "1f3bd8ba33b97553042c46a6929e4cec9ae0e51895fc08cb9da53e778d5f251a",
        "e35e9c49abdb9530c4ba00e976fc59b705834d9bf9dfc5b3760c7d1c18600803"),
    ("all_pools_backdoor", "client_server"): (
        "c9449cc3fbd51d1a6b58995dc86f9afe90e1a15c0d54be654b190224627280ee",
        "672080e37c0c4bdcd97a1a91b3718222de06a5f056ec8f1c1a8a4f7f1c651b57"),
}

# config text -> pins; these reach the paths the presets leave alone: label
# shards, ragged batches, the MLP, SGD, every other rule and metric, and a
# chain sealed at a difficulty above 0
VARIANT_CONFIGS = {
    "label_shard_geomed": (
        "rounds = 3\ndata.partition = label_shard:2\naggregator.rule = geomed\n"
        "adversary.attack = labelflip\nadversary.placement = all_pools\n"
        "adversary.boost = replacement\n"),
    "mlp_sgd_bulyan_macro_f1": (
        "rounds = 3\nmodel.kind = mlp\nmodel.hidden_dim = 16\nmetric.name = macro_f1\n"
        "optimizer.kind = sgd\noptimizer.learning_rate = 0.05\noptimizer.batch_size = 7\n"
        "aggregator.rule = bulyan\nadversary.attack = backdoor\n"
        "adversary.placement = one_pool:1\nadversary.poison_fraction = 0.3\n"),
    "client_server_krum_loss_uneven": (
        "rounds = 3\ntopology = client_server\nmetric.name = loss\naggregator.rule = krum\n"
        "data.partition = label_shard:3\ndata.per_class = 123\ndata.val_fraction = 0.13\n"
        "adversary.attack = backdoor\nadversary.placement = all_pools\n"
        "adversary.adversaries_per_pool = 1\nadversary.trigger_size = 3\n"
        "adversary.target_label = 2\n"),
    "desk_sealed_difficulty_12": "rounds = 3\nchain_difficulty = 12\n",
}

VARIANT_PINS = {
    "label_shard_geomed": (
        "611c17b6ae214e121ba1b5b72d1c01947ad9de182cba7ae36a92102a5a4cb0b0",
        "017818397b63de352978f1511ca269c06e0b93c19b2bf5d84beb1942cd1b098b"),
    "mlp_sgd_bulyan_macro_f1": (
        "266f1da61c8a6107c7796dd7d14a781ece701f017796dfaec3afbb6e8dd96a32",
        "8c4c0161c88edbdfc93458a9785da68207e86ab500004201e69f2d3b2136ac5a"),
    "client_server_krum_loss_uneven": (
        "519acec440938680ccbfe1faa9c5f04589b739735e52590ac7fce809309b3be2",
        "0c1a12c07024515ebca737f7ad0781ae7a5e49350c8348f44a4ce48a10c5dba6"),
    "desk_sealed_difficulty_12": (
        "d5f6ea7a9660f18eca82eebd58a907f5ea2a2d6a5f7d72b4bed041c76b7e47d7",
        "0009eedd565b6696444374c7442c9d24ff5065a9c3cb0437b45b5953eb473625"),
}

# gen-data --per-class 60 --seed 5, read back through the CSV source
CSV_PINS = (
    "feca10830027ef8d9082ba159a52b8d2d6d66fe9193400c8b115f934a16204a1",
    "082039ec30b6cb73978ebe696c2159ab3c5a13d97e69d6223a30e78218cf4e25")

# bench/pins.json, desk_backdoor at seed 42: the full 30-round headline run
DESK_BACKDOOR_42 = (
    "936cc7cd7588b0a5b8989204e4cae54e149e1d03771f6ed50b6ddcf832cc5331",
    "fc0f2b6785962bf53db7c96dab8b42570a4728d4420046b18af7d82194ea8efe")

# the same run's chain.jsonl and summary.csv, as cli.write_outputs writes them
DESK_BACKDOOR_42_CHAIN_JSONL = "e56e924717a59d61fce38bb1c0b53735468231787b36aa992e536cc26b0d2b7a"
DESK_BACKDOOR_42_SUMMARY_CSV = "4a905810b93753168305af78445ec3e5f1fd9d9e8be3adc8f04c2c6122217cfa"

# run config -> sha256 of its config.txt snapshot (render_config)
CONFIG_TXT_PINS = {
    "desk_default": "c3298d8a88a93d82f194db5780f139bb6298a174fbf192deefe969629af6e198",
    "no_attack": "c3298d8a88a93d82f194db5780f139bb6298a174fbf192deefe969629af6e198",
    "one_pool_labelflip": "cfac660b703c7e411e5a794fa7ac46b3c84d72eb3b159c6ac4b3a77a55c62a2e",
    "one_pool_backdoor": "c0da91d11ea066259b174495f40e573d9b9c2afdfeb5b6f7232736c8608f8a4b",
    "all_pools_labelflip": "ba73554b0c47d4ea489348ad06b9f38d8be3a9bc5e7c1ac78da73944d74960f5",
    "all_pools_backdoor": "236399176f686100c7a47448549c13457741701afae09a11cd58bedb998053dc",
    "override": "6821392652ba4d45f8ea07a185245b25be60d091e436e70cc9a676f97b19f5c1",
}

# both compound keys, a non-default enum, a bool and a nested section
OVERRIDE_CONFIG = (
    "model.kind = mlp\nmodel.hidden_dim = 16\ndata.partition = label_shard:2\n"
    "adversary.attack = backdoor\nadversary.placement = one_pool:1\nmetric.name = loss\n"
    "export.chain = false\n")


def digests(result):
    records = cli.records_csv_text(result).encode()
    return hashlib.sha256(records).hexdigest(), result.chain.blocks[-1].hash.hex()


@pytest.mark.parametrize("name", sorted(CONFIG_TXT_PINS))
def test_config_txt(name):
    if name == "desk_default":
        rc = desk_default()
    elif name == "override":
        rc = parse_config_text(OVERRIDE_CONFIG)
    else:
        assert name in PRESET_NAMES
        rc = preset(name, desk_default())
    assert hashlib.sha256(render_config(rc).encode()).hexdigest() == CONFIG_TXT_PINS[name]


@pytest.mark.parametrize("name,topology", sorted(PRESET_PINS))
def test_preset_three_rounds(name, topology):
    rc = preset(name, desk_default())
    rc = replace(rc, federation=replace(rc.federation, topology=topology, rounds=3))
    assert digests(consensus.run_federation(rc.federation, build_partition(rc))) == PRESET_PINS[(name, topology)]


@pytest.mark.parametrize("name", sorted(VARIANT_CONFIGS))
def test_variant_three_rounds(name):
    rc = parse_config_text(VARIANT_CONFIGS[name])
    assert digests(consensus.run_federation(rc.federation, build_partition(rc))) == VARIANT_PINS[name]


def test_csv_source_three_rounds(tmp_path):
    path = tmp_path / "data.csv"
    assert cli.main(["gen-data", "--out", str(path), "--per-class", "60", "--seed", "5"]) == 0
    rc = parse_config_text(f"rounds = 3\ndata.source = csv\ndata.csv_path = {path}\n"
                           "adversary.attack = labelflip\nadversary.placement = one_pool:2\n")
    assert digests(consensus.run_federation(rc.federation, build_partition(rc))) == CSV_PINS


def test_full_desk_backdoor_seed_42(tmp_path):
    rc = with_master_seed(preset("one_pool_backdoor", desk_default()), 42)
    result = consensus.run_federation(rc.federation, build_partition(rc))
    cli.write_outputs(result, rc, str(tmp_path))
    records = hashlib.sha256((tmp_path / "records.csv").read_bytes()).hexdigest()
    assert (records, result.chain.blocks[-1].hash.hex()) == DESK_BACKDOOR_42
    assert hashlib.sha256((tmp_path / "chain.jsonl").read_bytes()).hexdigest() == DESK_BACKDOOR_42_CHAIN_JSONL
    assert hashlib.sha256((tmp_path / "summary.csv").read_bytes()).hexdigest() == DESK_BACKDOOR_42_SUMMARY_CSV
