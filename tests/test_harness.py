import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfc_sim import cli, metrics
from rfc_sim import chain as chain_mod
from rfc_sim import config as config_mod
from rfc_sim import consensus as consensus_mod
from rfc_sim import data as data_mod
from rfc_sim.attacks import AdversaryConfig
from rfc_sim.config import (SCHEMA, ConfigError, desk_default, parse_config_text, preset,
                            render_config, with_master_seed)
from rfc_sim.data import DataConfig

TINY_CONFIG = """\
# tiny run used by the CLI tests
rounds = 3
num_pools = 2
clients_per_pool = 4
clients_sampled_per_round = 4
data.height = 3
data.width = 3
data.per_class = 40
optimizer.local_epochs = 2
master_seed = 11
"""


def test_empty_config_is_desk_default():
    assert parse_config_text("") == desk_default()


def test_comments_and_blanks_ignored():
    rc = parse_config_text("# hello\n\nrounds = 5\n")
    assert rc.federation.rounds == 5


def test_unknown_key_names_line():
    with pytest.raises(ConfigError, match="line 2: unknown key 'rounds_total'"):
        parse_config_text("rounds = 5\nrounds_total = 3\n")


def test_duplicate_key_names_both_lines():
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config_text("rounds = 5\nrounds = 6\n")


def test_bad_value_names_line():
    with pytest.raises(ConfigError, match="line 1: bad value for rounds"):
        parse_config_text("rounds = many\n")
    with pytest.raises(ConfigError) as refusal:
        parse_config_text("aggregator.rule = median\n")
    assert str(refusal.value) == "<config>: aggregator.rule must be one of fedavg, krum, bulyan, geomed, got 'median'"


def test_missing_equals_rejected():
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config_text("rounds 5\n")


def test_placement_syntax():
    rc = parse_config_text("adversary.attack = labelflip\nadversary.placement = one_pool:1\n")
    assert rc.federation.adversary.placement == "one_pool"
    assert rc.federation.adversary.pool_id == 1
    with pytest.raises(ConfigError):
        parse_config_text("adversary.placement = one_pool\n")


def test_partition_syntax():
    rc = parse_config_text("data.partition = label_shard:3\n")
    assert rc.data.scheme == "label_shard"
    assert rc.data.shards_per_client == 3


def test_compound_keys_take_the_int_syntax_of_int_keys():
    rc = parse_config_text("rounds = 0x2\nadversary.attack = labelflip\nadversary.placement = one_pool:0x1\n"
                           "data.partition = label_shard:0x2\n")
    assert rc.federation.rounds == 2
    assert (rc.federation.adversary.placement, rc.federation.adversary.pool_id) == ("one_pool", 1)
    assert (rc.data.scheme, rc.data.shards_per_client) == ("label_shard", 2)
    for key, value in (("rounds", "01"), ("adversary.placement", "one_pool:01"),
                       ("data.partition", "label_shard:01")):
        with pytest.raises(ConfigError, match=f"line 1: bad value for {re.escape(key)}: invalid literal"):
            parse_config_text(f"{key} = {value}\n")


@pytest.mark.parametrize("shards", ["0", "-1"])
def test_partition_needs_a_shard_per_client(shards):
    with pytest.raises(ConfigError, match="line 2: bad value for data.partition: label_shard needs"):
        parse_config_text(f"rounds = 1\ndata.partition = label_shard:{shards}\n")


def test_cross_field_validation():
    with pytest.raises(ConfigError, match="trigger_size"):
        parse_config_text("adversary.attack = backdoor\nadversary.placement = all_pools\n"
                          "adversary.trigger_size = 8\n")
    with pytest.raises(ConfigError, match="target_label"):
        parse_config_text("adversary.attack = backdoor\nadversary.placement = all_pools\n"
                          "adversary.target_label = 7\n")
    with pytest.raises(ConfigError, match="csv_path"):
        parse_config_text("data.source = csv\n")
    with pytest.raises(ConfigError, match="placement"):
        parse_config_text("adversary.attack = labelflip\n")


def leaf_paths(section, prefix=""):
    """The field path of every non-dataclass field of section, nested sections walked."""
    for f in fields(section):
        value = getattr(section, f.name)
        if is_dataclass(value):
            yield from leaf_paths(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name


def test_schema_paths_cover_every_leaf_field_once():
    paths = [path for entry, _, _ in SCHEMA.values() for path in ((entry,) if isinstance(entry, str) else entry)]
    derived = {"federation.model.input_dim", "federation.model.num_classes"}
    assert sorted(paths) == sorted(set(leaf_paths(desk_default())) - derived)
    assert not {"adversary.pool_id", "data.scheme", "data.shards_per_client"} & set(SCHEMA)


def test_render_parse_roundtrip_with_overrides():
    rc = parse_config_text("rounds = 7\nadversary.attack = backdoor\n"
                           "adversary.placement = one_pool:2\nnum_pools = 4\n"
                           "data.partition = label_shard:2\nmetric.name = loss\n")
    assert parse_config_text(render_config(rc)) == rc


@given(placement=st.sampled_from(["none", "all_pools", "one_pool"]), pool_id=st.integers(-1, 2),
       scheme=st.sampled_from(["iid", "label_shard"]), shards=st.integers(0, 5))
def test_compound_keys_round_trip(placement, pool_id, scheme, shards):
    # the word forms none, all_pools and iid carry no count, so their sections accept only the count they parse to
    try:
        adversary = AdversaryConfig(attack="none" if placement == "none" else "labelflip", placement=placement,
                                    pool_id=pool_id)
        data = DataConfig(scheme=scheme, shards_per_client=shards)
        rc = replace(desk_default(), data=data, federation=replace(desk_default().federation, adversary=adversary))
    except ValueError:
        return
    assert parse_config_text(render_config(rc)) == rc


def test_word_forms_of_compound_keys_refuse_a_count():
    with pytest.raises(ValueError, match="^data.shards_per_client must be 1 under data.partition = iid, got 5$"):
        DataConfig(scheme="iid", shards_per_client=5)
    with pytest.raises(ValueError,
                       match="^adversary.pool_id must be 0 under adversary.placement = all_pools, got 2$"):
        AdversaryConfig(attack="labelflip", placement="all_pools", pool_id=2)
    with pytest.raises(ValueError, match="^adversary.pool_id must be 0 under adversary.placement = none, got 1$"):
        AdversaryConfig(pool_id=1)
    # the no_attack preset resets the pool id that a one_pool config set
    one_pool = parse_config_text("adversary.attack = labelflip\nadversary.placement = one_pool:1\n")
    assert preset("no_attack", one_pool).federation.adversary.pool_id == 0


# key -> a config setting it to a valid non-default value, plus whatever else
# that value needs to form a valid run config
NON_DEFAULT = {
    "topology": "topology = client_server\n",
    "rounds": "rounds = 7\n",
    "num_pools": "num_pools = 2\n",
    "clients_per_pool": "clients_per_pool = 12\n",
    "clients_sampled_per_round": "clients_sampled_per_round = 12\n",
    "master_seed": "master_seed = 0x1f\n",
    "server_eta": "server_eta = 0.5\n",
    "chain_difficulty": "chain_difficulty = 4\n",
    "model.kind": "model.kind = mlp\nmodel.hidden_dim = 8\n",
    "model.hidden_dim": "model.kind = mlp\nmodel.hidden_dim = 32\n",
    "optimizer.kind": "optimizer.kind = sgd\n",
    "optimizer.learning_rate": "optimizer.learning_rate = 0.1\n",
    "optimizer.adam_beta1": "optimizer.adam_beta1 = 0.8\n",
    "optimizer.adam_beta2": "optimizer.adam_beta2 = 0.99\n",
    "optimizer.adam_epsilon": "optimizer.adam_epsilon = 1e-6\n",
    "optimizer.local_epochs": "optimizer.local_epochs = 3\n",
    "optimizer.batch_size": "optimizer.batch_size = 32\n",
    "aggregator.rule": "aggregator.rule = krum\n",
    "aggregator.krum_f": "aggregator.rule = krum\naggregator.krum_f = 1\n",
    "aggregator.bulyan_m": "aggregator.rule = bulyan\naggregator.krum_f = 1\naggregator.bulyan_m = 4\n",
    "metric.name": "metric.name = macro_f1\n",
    "adversary.attack": "adversary.attack = labelflip\nadversary.placement = all_pools\n",
    "adversary.placement": "adversary.attack = backdoor\nadversary.placement = one_pool:2\n",
    "adversary.adversaries_per_pool": "adversary.adversaries_per_pool = 3\n",
    "adversary.boost": "adversary.boost = replacement\n",
    "adversary.boost_eta": "adversary.boost_eta = 0.25\n",
    "adversary.trigger_size": "adversary.trigger_size = 3\n",
    "adversary.target_label": "adversary.target_label = 2\n",
    "adversary.poison_fraction": "adversary.poison_fraction = 0.75\n",
    "data.source": "data.source = csv\ndata.csv_path = some/data.csv\n",
    "data.num_classes": "data.num_classes = 4\n",
    "data.height": "data.height = 6\n",
    "data.width": "data.width = 5\n",
    "data.per_class": "data.per_class = 50\n",
    "data.noise_sigma": "data.noise_sigma = 0.0\n",
    "data.csv_path": "data.csv_path = other.csv\n",
    "data.val_fraction": "data.val_fraction = 0.15\n",
    "data.test_fraction": "data.test_fraction = 0.2\n",
    "data.partition": "data.partition = label_shard:3\n",
    "export.records": "export.records = false\n",
    "export.chain": "export.chain = no\n",
    "export.summary": "export.summary = 0\n",
}


def test_non_default_table_covers_schema():
    assert set(NON_DEFAULT) == set(SCHEMA)


@pytest.mark.parametrize("key", sorted(NON_DEFAULT))
def test_render_parse_roundtrip_every_key(key):
    rc = parse_config_text(NON_DEFAULT[key])
    rendered = render_config(rc)
    line = next(line for line in rendered.splitlines() if line.startswith(f"{key} = "))
    assert line not in render_config(desk_default()).splitlines()
    assert parse_config_text(rendered) == rc


FLOAT_KEYS = [key for key, (_, parser, _) in SCHEMA.items() if parser is config_mod._parse_float]


@pytest.mark.parametrize("key", FLOAT_KEYS)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "-Infinity"])
def test_non_finite_float_rejected(key, value):
    with pytest.raises(ConfigError, match=f"line 1: bad value for {re.escape(key)}: expected a finite"):
        parse_config_text(f"{key} = {value}\n")


def readme_config_rows():
    """(keys, defaults) of each row of README's run config table; one default may serve every key."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Run config", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        if line.startswith("| `"):
            key_cell, default_cell = line.split("|")[1:3]
            defaults = ["" if cell.strip() == "empty" else cell.strip().strip("`")
                        for cell in default_cell.split(",")]
            rows.append((re.findall(r"`([^`]+)`", key_cell), defaults))
    return rows


def test_readme_run_config_table_lists_every_key():
    keys = [key for row_keys, _ in readme_config_rows() for key in row_keys]
    assert len(keys) == len(set(keys))
    assert set(keys) == set(SCHEMA)


def test_readme_run_config_table_defaults_match_desk_default():
    rendered = dict(line.split(" = ", 1) for line in render_config(desk_default()).splitlines())
    for keys, defaults in readme_config_rows():
        if len(defaults) == 1:
            defaults = defaults * len(keys)
        assert dict(zip(keys, defaults, strict=True)) == {key: rendered[key] for key in keys}


def test_presets():
    base = desk_default()
    no_attack = preset("no_attack", base)
    assert no_attack.federation.adversary.attack == "none"
    assert no_attack.federation.adversary.placement == "none"

    one_bd = preset("one_pool_backdoor", base)
    assert one_bd.federation.adversary.attack == "backdoor"
    assert one_bd.federation.adversary.placement == "one_pool"
    assert one_bd.federation.adversary.pool_id == 0
    assert one_bd.federation.adversary.boost == "replacement"

    all_lf = preset("all_pools_labelflip", base)
    assert all_lf.federation.adversary.attack == "labelflip"
    assert all_lf.federation.adversary.placement == "all_pools"
    assert all_lf.federation.adversary.adversaries_per_pool >= 1

    with pytest.raises(ConfigError, match="unknown preset"):
        preset("no_adversary", base)


def test_with_master_seed():
    rc = with_master_seed(desk_default(), 123)
    assert rc.federation.master_seed == 123


def write_config(tmp_path, text=TINY_CONFIG):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_cli_run_writes_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    for name in ("config.txt", "records.csv", "chain.jsonl", "summary.csv"):
        assert (out / name).exists(), name
    stdout = capsys.readouterr().out
    assert "completed 3 rounds" in stdout
    # the printed tip is the full hash of the export's last block, as validate-chain --tip takes it
    tip = re.search(r"chain tip ([0-9a-f]+)$", stdout, re.MULTILINE).group(1)
    assert tip == json.loads((out / "chain.jsonl").read_text().splitlines()[-1])["hash"]
    assert cli.main(["validate-chain", str(out / "chain.jsonl"), "--tip", tip]) == 0
    # the config snapshot reparses to the same run config
    from rfc_sim.config import parse_config_file
    assert parse_config_file(str(out / "config.txt")) == parse_config_file(cfg)


def test_cli_run_config_snapshot_is_utf8_under_an_ascii_locale(tmp_path):
    """config.txt is written as UTF-8 whatever the locale, so the UTF-8 config reader takes it back."""
    (tmp_path / "run.cfg").write_bytes((TINY_CONFIG + "data.csv_path = dätä.csv\n").encode("utf-8"))
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    subprocess.run([sys.executable, "-m", "rfc_sim", "run", "--config", "run.cfg", "--out", "o"],
                   cwd=tmp_path, env=env, check=True, capture_output=True, timeout=300)
    assert "data.csv_path = dätä.csv\n".encode("utf-8") in (tmp_path / "o" / "config.txt").read_bytes()
    snapshot, source = (config_mod.parse_config_file(str(tmp_path / name)) for name in ("o/config.txt", "run.cfg"))
    assert snapshot == source


def test_cli_run_twice_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["run", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("records.csv", "chain.jsonl", "summary.csv", "config.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_cli_run_bad_config_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, "rounds = nope\n")
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "line 1" in capsys.readouterr().err


def test_cli_run_missing_config_exits_1(tmp_path, capsys):
    assert cli.main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")]) == 1


def test_cli_run_runtime_abort_exits_2(tmp_path, capsys, monkeypatch):
    from rfc_sim import models as models_mod

    def blow_up(spec, start, datasets, opt, seeds):
        return (np.full((len(seeds), models_mod.param_count(spec)), np.nan),
                {i: models_mod.DivergenceError("synthetic blow-up") for i in range(len(seeds))})

    monkeypatch.setattr(models_mod, "train_clients", blow_up)
    cfg = write_config(tmp_path)
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "aborted" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_cli_run_overflowing_updates_abort_with_one_line(tmp_path, capsys):
    # updates overflow to inf; the candidates are disqualified without a numpy warning
    cfg = write_config(tmp_path, "rounds = 1\noptimizer.learning_rate = 1e308\n"
                       "optimizer.local_epochs = 1\noptimizer.batch_size = 64\n")
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("run aborted:")


@pytest.mark.parametrize("exc,code,prefix", [
    (ValueError("partition lacks data"), 1, "config error: "),
    (MemoryError("too large"), 1, "config error: "),
    (consensus_mod.RoundAbortError(1, ["pool 0 disqualified"]), 2, "run aborted: "),
], ids=["ValueError", "MemoryError", "RoundAbortError"])
def test_cli_run_federation_errors_exit_with_one_line(tmp_path, capsys, monkeypatch, exc, code, prefix):
    def fail(cfg, partition):
        raise exc

    monkeypatch.setattr(consensus_mod, "run_federation", fail)
    out = tmp_path / "o"
    assert cli.main(["run", "--config", write_config(tmp_path), "--out", str(out)]) == code
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0] == prefix + str(exc)
    assert not (out / "config.txt").exists()


def test_cli_run_foreign_sampled_client_exits_2(tmp_path, capsys, monkeypatch):
    from rfc_sim import consensus

    def foreign(members, pool_id, round_idx, quota, master_seed):
        return [c for c in range(8) if c not in members][:quota]  # TINY_CONFIG has 8 clients

    monkeypatch.setattr(consensus, "sample_clients", foreign)
    assert cli.main(["run", "--config", write_config(tmp_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "round 1: pool 0 sampled foreign clients" in err and len(err.strip().splitlines()) == 1


def test_cli_run_preset_and_seed_flags(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "p"
    code = cli.main(["run", "--config", cfg, "--preset", "one_pool_labelflip",
                     "--seed", "99", "--out", str(out)])
    assert code == 0
    snapshot = (out / "config.txt").read_text()
    assert "adversary.attack = labelflip" in snapshot
    assert "adversary.placement = one_pool:0" in snapshot
    assert "master_seed = 99" in snapshot


def test_cli_validate_chain_ok_and_tampered(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    chain_file = out / "chain.jsonl"
    assert cli.main(["validate-chain", str(chain_file)]) == 0
    assert "chain ok (4 blocks" in capsys.readouterr().out
    # blank lines between blocks are skipped: the same blocks load
    lines = chain_file.read_text().splitlines()
    spaced = tmp_path / "spaced.jsonl"
    spaced.write_text(lines[0] + "\n\n" + "\n \n".join(lines[1:]) + "\n")
    assert chain_mod.load_lines(spaced.read_text()) == chain_mod.load_lines(chain_file.read_text())
    assert cli.main(["validate-chain", str(spaced)]) == 0
    assert "chain ok (4 blocks" in capsys.readouterr().out

    rec = json.loads(chain_file.read_text().splitlines()[2])
    rec["metric_value"] = rec["metric_value"] - 0.125
    tampered = chain_file.read_text().splitlines()
    tampered[2] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    bad_file = tmp_path / "tampered.jsonl"
    bad_file.write_text("\n".join(tampered) + "\n")
    assert cli.main(["validate-chain", str(bad_file)]) == 3
    assert "first invalid block 2" in capsys.readouterr().err


def test_cli_validate_chain_garbage_exits_3(tmp_path, capsys):
    bad = tmp_path / "junk.jsonl"
    bad.write_text("definitely not json\n")
    assert cli.main(["validate-chain", str(bad)]) == 3


@pytest.fixture(scope="module")
def difficulty8_export(tmp_path_factory):
    """chain.jsonl of a 3-round run sealed at difficulty 8."""
    tmp = tmp_path_factory.mktemp("difficulty8")
    cfg = write_config(tmp, TINY_CONFIG + "chain_difficulty = 8\n")
    assert cli.main(["run", "--config", cfg, "--out", str(tmp / "run")]) == 0
    return tmp / "run" / "chain.jsonl"


@pytest.mark.parametrize("difficulty", [8, 9, 7, 0, -1])
def test_cli_validate_chain_difficulty_flag(difficulty8_export, capsys, difficulty):
    code = cli.main(["validate-chain", str(difficulty8_export), "--difficulty", str(difficulty)])
    out, err = capsys.readouterr()
    if difficulty == 8:
        assert (code, out, err) == (0, "chain ok (4 blocks, difficulty 8)\n", "")
    else:
        assert code == 3 and out == ""
        assert err == f"chain validation failed: export claims difficulty 8, not --difficulty {difficulty}\n"


def test_cli_validate_chain_difficulty_flag_refuses_a_rewritten_claim(difficulty8_export, tmp_path, capsys):
    text = difficulty8_export.read_text()
    rewritten = tmp_path / "difficulty0.jsonl"
    rewritten.write_text(text.replace('"difficulty":8', '"difficulty":0'))
    assert rewritten.read_text().count('"difficulty":0') == len(text.splitlines()) == 4
    # every block meets the difficulty the file now claims, so plain validation accepts it
    assert cli.main(["validate-chain", str(rewritten)]) == 0
    assert capsys.readouterr().out == "chain ok (4 blocks, difficulty 0)\n"
    assert cli.main(["validate-chain", str(rewritten), "--difficulty", "8"]) == 3
    assert capsys.readouterr().err == "chain validation failed: export claims difficulty 0, not --difficulty 8\n"


def test_cli_validate_chain_tip_flag(difficulty8_export, capsys):
    hashes = [json.loads(line)["hash"] for line in difficulty8_export.read_text().splitlines()]
    tip = hashes[-1]
    for good in (tip, tip.upper()):
        assert cli.main(["validate-chain", str(difficulty8_export), "--tip", good, "--difficulty", "8"]) == 0
    flipped = tip[:-1] + "0123456789abcdef"[(int(tip[-1], 16) + 1) % 16]
    for bad in (flipped, hashes[-2], tip[:16], tip + "0", ""):
        capsys.readouterr()
        assert cli.main(["validate-chain", str(difficulty8_export), "--tip", bad]) == 3, bad
        assert capsys.readouterr().err == f"chain validation failed: tip {tip} is not --tip {bad}\n"


@pytest.mark.parametrize("args,out_name", [(["--classes", "100"], "d.csv"),
                                           (["--per-class", "0"], "d.csv"),
                                           (["--noise-sigma", "-1"], "d.csv"),
                                           (["--noise-sigma", "nan"], "d.csv"),
                                           ([], "missing/d.csv"),
                                           # 2.13 PiB of labels: no 48-bit address space holds it
                                           (["--per-class", "100000000000000"], "d.csv"),
                                           (["--height", "-2", "--width", "-2", "--per-class", "2"], "d.csv"),
                                           (["--classes", "1"], "d.csv")])
def test_cli_gen_data_bad_input_exits_1(tmp_path, capsys, args, out_name):
    out = tmp_path / out_name
    assert cli.main(["gen-data", "--out", str(out)] + args) == 1
    err = capsys.readouterr().err
    assert err.startswith("gen-data failed: ") and len(err.strip().splitlines()) == 1
    assert not out.exists()
    if "100000000000000" in args:  # too large to allocate: the message names the key the flag sets
        assert err.startswith("gen-data failed: data.per_class = 100000000000000 is too large: ")


def test_cli_gen_data_roundtrip(tmp_path, capsys):
    out = tmp_path / "synthetic.csv"
    code = cli.main(["gen-data", "--out", str(out), "--classes", "3", "--height", "3",
                     "--width", "3", "--per-class", "5", "--noise-sigma", "0.2", "--seed", "4"])
    assert code == 0
    loaded = data_mod.load_csv(str(out), num_classes=3)
    assert len(loaded) == 15


def test_cli_summarize_matches_library(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["summarize", str(out / "records.csv")]) == 0
    stdout = capsys.readouterr().out.splitlines()
    rows = {line.split(",")[0]: line.split(",") for line in stdout[1:]}

    accs = []
    with open(out / "records.csv") as fh:
        import csv as csv_lib
        for row in csv_lib.DictReader(fh):
            accs.append(float(row["test_accuracy"]))
    stats = metrics.summarize(accs, "maximize")
    assert rows["test_accuracy"][2] == repr(stats.final)
    assert rows["test_accuracy"][3] == repr(stats.best)
    assert rows["test_accuracy"][4] == repr(stats.avg_last_10)


def test_cli_summarize_prints_summary_csv(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["summarize", str(out / "records.csv")]) == 0
    assert capsys.readouterr().out == (out / "summary.csv").read_text()


def test_records_csv_columns(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "cols"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    header = (out / "records.csv").read_text().splitlines()[0].split(",")
    assert header == ["round", "winning_pool", "val_metric", "test_accuracy", "test_loss",
                      "backdoor_accuracy_target", "backdoor_accuracy_clean", "backdoor_loss",
                      "pool0_metric", "pool1_metric"]


@pytest.mark.parametrize("key", ["data.val_fraction", "data.test_fraction"])
@pytest.mark.parametrize("fraction", ["0.0", "0.004"])  # 0.004 * 120 examples rounds to 0
def test_cli_run_empty_split_exits_1(tmp_path, capsys, key, fraction):
    cfg = write_config(tmp_path, TINY_CONFIG + f"{key} = {fraction}\n")
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"{key} = {fraction} selects no examples of the 120" in err
    assert len(err.strip().splitlines()) == 1


def test_cli_run_difficulty_above_256_exits_1(tmp_path, capsys):
    with pytest.raises(ConfigError, match="chain_difficulty"):
        parse_config_text("chain_difficulty = 300\n")
    # 64 is a valid export difficulty but would take ~2**64 hashes to seal.
    for value in (300, 64):
        cfg = write_config(tmp_path, TINY_CONFIG + f"chain_difficulty = {value}\n")
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"chain_difficulty must lie in [0, 20], got {value}: sealing takes about 2**d hashes" in err
        assert not (tmp_path / "o").exists()


def test_cli_run_uncreatable_out_exits_1_before_training(tmp_path, capsys, monkeypatch):
    from rfc_sim import models as models_mod

    def never(*args, **kwargs):
        raise AssertionError("train_clients called before the output directory was checked")

    monkeypatch.setattr(models_mod, "train_clients", never)
    (tmp_path / "afile").write_text("")
    out = tmp_path / "afile" / "sub"
    assert cli.main(["run", "--config", write_config(tmp_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert str(out) in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("name", ["config.txt", "records.csv", "chain.jsonl", "summary.csv"])
def test_cli_run_unwritable_output_exits_1(tmp_path, capsys, name):
    out = tmp_path / "o"
    (out / name).mkdir(parents=True)
    assert cli.main(["run", "--config", write_config(tmp_path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("output error: ") and str(out / name) in err[0]
    assert "completed" not in captured.out
    # the temporaries and the exports already renamed into place are removed
    assert [p.name for p in out.iterdir()] == [name]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
def test_cli_run_full_disk_names_the_file(tmp_path, capsys):
    # a write to /dev/full fails with ENOSPC, an OSError that carries no file name of its own;
    # chain.jsonl is written to chain.jsonl.tmp before it is renamed into place
    out = tmp_path / "o"
    out.mkdir()
    (out / "chain.jsonl.tmp").symlink_to("/dev/full")
    assert cli.main(["run", "--config", write_config(tmp_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"output error: {out / 'chain.jsonl'}: No space left on device"]
    assert list(out.iterdir()) == []


def test_cli_run_dataset_too_large_exits_1(tmp_path, capsys):
    # 2.13 PiB of labels: no 48-bit address space holds it, so allocation fails at once
    cfg = write_config(tmp_path, "rounds = 1\ndata.per_class = 100000000000000\n")
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: data.per_class = 100000000000000 is too large: ")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "o").exists()


# 495 TiB of parameters, and more parameters than any array can index: both are
# refused at allocation, at once
@pytest.mark.parametrize("hidden_dim", ["1000000000000", "100000000000000000000"])
def test_cli_run_model_too_large_exits_1(tmp_path, capsys, hidden_dim):
    cfg = write_config(tmp_path, f"rounds = 1\nmodel.kind = mlp\nmodel.hidden_dim = {hidden_dim}\n")
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: model.hidden_dim = {hidden_dim} is too large: ")
    assert len(err.strip().splitlines()) == 1


# 7.28 TiB of per-epoch seeds, and more epochs than any array can index: both are refused
# when the first round's training allocates its shuffle seeds, at once
@pytest.mark.parametrize("epochs", ["1000000000000", "10000000000000000000"])
def test_cli_run_local_epochs_too_large_exits_1(tmp_path, capsys, epochs):
    cfg = write_config(tmp_path, f"rounds = 1\noptimizer.local_epochs = {epochs}\n")
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: optimizer.local_epochs = {epochs} is too large: ")
    assert len(err.strip().splitlines()) == 1


# each too large to allocate (PiB), or past what numpy can index or count; the
# message names every size that sets the dataset's shape, leading with the larger
# factor, and run and gen-data give the same text after their prefixes
@pytest.mark.parametrize("sizes,blame", [
    ({"per_class": 100000000000000},
     "data.per_class = 100000000000000 is too large: data.per_class x data.num_classes = "
     "100000000000000 x 3 examples of a data.height x data.width = 8x8 grid: "),
    ({"height": 1000000, "width": 1000000},
     "data.height x data.width = 1000000x1000000 grid is too large for data.per_class x "
     "data.num_classes = 400 x 3 examples: "),
    ({"per_class": 10000000000000000000},  # past int64: np.repeat raises OverflowError
     "data.per_class = 10000000000000000000 is too large: data.per_class x data.num_classes = "
     "10000000000000000000 x 3 examples of a data.height x data.width = 8x8 grid: "),
    ({"height": 1000000000, "width": 1000000000},  # 1.2e21 elements: ValueError "array is too big"
     "data.height x data.width = 1000000000x1000000000 grid is too large for data.per_class x "
     "data.num_classes = 400 x 3 examples: "),
    ({"height": 10000000000000000000},  # one dimension past int64: ValueError "Maximum allowed dimension"
     "data.height x data.width = 10000000000000000000x8 grid is too large for data.per_class x "
     "data.num_classes = 400 x 3 examples: "),
], ids=["per_class", "grid", "per_class_past_int64", "grid_past_index", "height_past_int64"])
def test_cli_dataset_too_large_names_every_size(tmp_path, capsys, sizes, blame):
    cfg = write_config(tmp_path, "rounds = 1\n" + "".join(f"data.{k} = {v}\n" for k, v in sizes.items()))
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: " + blame) and len(err.strip().splitlines()) == 1
    flags = [arg for k, v in sizes.items() for arg in (f"--{k.replace('_', '-')}", str(v))]
    assert cli.main(["gen-data", "--out", str(tmp_path / "d.csv"), "--per-class", "400"] + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("gen-data failed: " + blame) and len(err.strip().splitlines()) == 1


def test_cli_run_nan_boost_eta_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY_CONFIG + "adversary.attack = backdoor\n"
                       "adversary.placement = all_pools\nadversary.boost = replacement\n"
                       "adversary.boost_eta = nan\n")
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "bad value for adversary.boost_eta" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("line,message", [
    ("data.height = 0", "data.height and data.width must be >= 1, got 0x8"),
    ("data.width = -2", "data.height and data.width must be >= 1, got 8x-2"),
    ("data.num_classes = 1", "data.num_classes must be >= 2, got 1"),
    ("data.per_class = 0", "data.per_class must be >= 1, got 0"),
    ("data.noise_sigma = -1.0", "data.noise_sigma must be finite and >= 0, got -1.0"),
    ("data.val_fraction = 0.6\ndata.test_fraction = 0.5",
     "data.val_fraction and data.test_fraction must lie in [0, 1) and sum below 1, got 0.6 and 0.5"),
    ("data.height = 1\ndata.width = 2",
     "data.height x data.width grid 1x2 has fewer cells than data.num_classes = 3"),
])
def test_cli_run_bad_data_key_names_the_key(tmp_path, capsys, line, message):
    cfg = write_config(tmp_path, f"rounds = 1\n{line}\n")
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert message in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "o").exists()


BACKDOOR = "adversary.attack = backdoor\nadversary.placement = all_pools\n"


@pytest.mark.parametrize("line,fragments", [
    ("clients_sampled_per_round = 40", ["clients_sampled_per_round = 40 gives 13", "clients_per_pool = 10"]),
    ("aggregator.rule = krum\nclients_sampled_per_round = 6",
     ["aggregator.rule = krum needs at least 5", "clients_sampled_per_round = 6 gives 2"]),
    ("optimizer.adam_beta1 = 1", ["adam_beta1 and adam_beta2 must lie in (0, 1), got 1.0, 0.999"]),
    (BACKDOOR + "adversary.target_label = 3", ["adversary.target_label 3 out of range for 3 classes"]),
    ("clients_per_pool = 0", ["clients_per_pool must be >= 1, got 0"]),
    ("server_eta = 0", ["server_eta must be > 0, got 0.0"]),
    ("optimizer.adam_epsilon = 0", ["adam_epsilon must be > 0, got 0.0"]),
    ("optimizer.batch_size = 0", ["batch_size must be >= 1, got 0"]),
    (BACKDOOR + "adversary.trigger_size = 0", ["trigger_size must be >= 1, got 0"]),
    ("export.records = maybe", ["bad value for export.records"]),
    ("adversary.adversaries_per_pool = 0", ["adversaries_per_pool must be >= 1, got 0"]),
    ("adversary.boost_eta = 0", ["boost_eta must be > 0, got 0.0"]),
    ("adversary.target_label = -1", ["target_label must be >= 0, got -1"]),
    (BACKDOOR + "adversary.poison_fraction = 2", ["poison_fraction must lie in (0, 1], got 2.0"]),
    ("aggregator.krum_f = -1", ["krum_f must be >= 0, got -1"]),
    ("aggregator.bulyan_m = 0", ["bulyan_m must be >= 1, got 0"]),
    ("model.hidden_dim = 5", ["linear model must have hidden_dim == 0, got 5"]),
    ("model.kind = mlp\nmodel.hidden_dim = 0", ["mlp model needs hidden_dim >= 1, got 0"]),
    (BACKDOOR + "adversary.adversaries_per_pool = 11",
     ["adversaries_per_pool exceeds clients_per_pool, got 11 > 10"]),
    ("topology = ring", ["topology", "'ring'", "rfc", "client_server"]),
    ("model.kind = cnn", ["model.kind", "'cnn'", "linear", "mlp"]),
    ("optimizer.kind = rmsprop", ["optimizer.kind", "'rmsprop'", "sgd", "adam"]),
    ("aggregator.rule = median", ["aggregator.rule", "'median'", "fedavg", "krum", "bulyan", "geomed"]),
    ("metric.name = auc", ["metric.name", "'auc'", "accuracy", "loss", "macro_f1"]),
    ("adversary.attack = sybil", ["adversary.attack", "'sybil'", "none", "labelflip", "backdoor"]),
    ("adversary.boost = double", ["adversary.boost", "'double'", "off", "replacement"]),
    ("data.source = s3", ["data.source", "'s3'", "synthetic", "csv"]),
], ids=["sample_over_pool", "krum_sample", "adam_beta1", "target_label", "clients_per_pool", "server_eta",
        "adam_epsilon", "batch_size", "trigger_size", "export_records", "adversaries_per_pool", "boost_eta",
        "negative_target_label", "poison_fraction", "krum_f", "bulyan_m", "linear_hidden_dim", "mlp_hidden_dim",
        "adversaries_over_pool", "topology", "model_kind", "optimizer_kind", "aggregator_rule", "metric_name",
        "adversary_attack", "adversary_boost", "data_source"])
def test_cli_run_config_refusal_names_its_field(tmp_path, capsys, line, fragments):
    cfg = write_config(tmp_path, f"rounds = 1\n{line}\n")
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert all(fragment in err for fragment in fragments), err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text,message", [("", "missing header row"),
                                          ("label\n", "line 1: header declares no feature columns")],
                         ids=["empty", "label_only"])
def test_cli_run_csv_source_without_features_exits_1(tmp_path, capsys, text, message):
    path = tmp_path / "data.csv"
    path.write_text(text)
    cfg = write_config(tmp_path, f"rounds = 1\ndata.source = csv\ndata.csv_path = {path}\n")
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"config error: {path}: {message}\n"


def test_cli_run_negative_placement_pool_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY_CONFIG + "adversary.attack = labelflip\n"
                       "adversary.placement = one_pool:-1\n")
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    lineno = len(TINY_CONFIG.splitlines()) + 2
    assert f"line {lineno}: bad value for adversary.placement: one_pool needs an int >= 0, got -1" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,code,prefix", [("run", 1, "config error"),
                                                  ("validate-chain", 3, "chain validation failed"),
                                                  ("csv", 1, "config error"),
                                                  ("summarize", 1, "summarize failed")],
                         ids=["config", "chain", "csv", "records"])
def test_cli_non_utf8_input_names_its_file(tmp_path, capsys, command, code, prefix):
    path = tmp_path / "input.txt"
    path.write_bytes(b"label,f0\n0,0.5\n\xff\n")
    out = str(tmp_path / "o")
    argv = {"run": ["run", "--config", str(path), "--out", out],
            "validate-chain": ["validate-chain", str(path)],
            "csv": ["run", "--config", write_config(tmp_path, f"data.source = csv\ndata.csv_path = {path}\n"),
                    "--out", out],
            "summarize": ["summarize", str(path)]}[command]
    assert cli.main(argv) == code
    assert capsys.readouterr().err == (f"{prefix}: {path}: 'utf-8' codec can't decode byte 0xff "
                                       "in position 15: invalid start byte\n")
    assert not (tmp_path / "o").exists()


def test_cli_summarize_missing_file_exits_1(tmp_path, capsys):
    assert cli.main(["summarize", str(tmp_path / "absent.csv")]) == 1
    assert "absent.csv" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["", "round,winning_pool,val_metric,test_accuracy\n", "a,b\n1,2\n"],
                         ids=["empty", "header_only", "unrelated"])
def test_cli_summarize_nothing_to_summarize_exits_1(tmp_path, capsys, text):
    path = tmp_path / "records.csv"
    path.write_text(text)
    assert cli.main(["summarize", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"summarize failed: {path}: no records.csv rows to summarize\n"


def test_cli_summarize_prints_only_the_summarized_columns_present(tmp_path, capsys):
    path = tmp_path / "records.csv"
    path.write_text("round,val_metric,test_loss\n1,0.5,0.25\n2,0.75,0.125\n")
    assert cli.main(["summarize", str(path)]) == 0
    assert capsys.readouterr().out == ("metric,direction,final,best,avg_last_10,nonfinite_in_window\n"
                                       "val_metric,maximize,0.75,0.75,0.625,0\n"
                                       "test_loss,minimize,0.125,0.125,0.1875,0\n")


@pytest.mark.parametrize("body", ["1,0,0.5,oops\n", "1,0,0.5\n"])
def test_cli_summarize_bad_cell_exits_1(tmp_path, capsys, body):
    path = tmp_path / "records.csv"
    path.write_text("round,winning_pool,val_metric,test_accuracy\n1,0,0.5,0.5\n" + body)
    assert cli.main(["summarize", str(path)]) == 1
    assert "line 3: test_accuracy is not a number" in capsys.readouterr().err


def test_cli_validate_chain_difficulty_mismatch_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    import json
    lines = (out / "chain.jsonl").read_text().splitlines()
    rec = json.loads(lines[0])
    rec["difficulty"] = 1
    lines[0] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    bad_file = tmp_path / "mixed.jsonl"
    bad_file.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["validate-chain", str(bad_file)]) == 3
    assert "line 2: difficulty 0 disagrees with 1" in capsys.readouterr().err


@pytest.mark.parametrize("difficulty", [-3, 257])
def test_cli_validate_chain_out_of_range_difficulty_exits_3(tmp_path, capsys, difficulty):
    import json
    ledger = chain_mod.genesis(np.array([1.0, 2.0]), 0)
    ledger = chain_mod.append(ledger, np.array([3.0, 4.0]), 1, 0, "accuracy", 0.5, "fedavg")
    records = [json.loads(line) for line in chain_mod.export_lines(ledger).splitlines()]
    bad_file = tmp_path / "range.jsonl"
    bad_file.write_text("".join(json.dumps({**rec, "difficulty": difficulty}) + "\n"
                                for rec in records))
    assert cli.main(["validate-chain", str(bad_file)]) == 3
    assert f"line 1: difficulty {difficulty} outside [0, 256]" in capsys.readouterr().err


def _two_round_export() -> str:
    ledger = chain_mod.genesis(np.array([1.0, 2.0]), 0)
    for r in (1, 2):
        ledger = chain_mod.append(ledger, np.array([3.0, float(r)]), r, 0, "accuracy", 0.5 + r / 8, "fedavg")
    return chain_mod.export_lines(ledger)


# Each edit of line 2 packs to bytes no export holds, or would be coerced back
# to the hashed value by int()/float().
@pytest.mark.parametrize("pattern,replacement", [
    (r'"round":1,', '"round":-1,'),
    (r'"nonce":0,', '"nonce":-5,'),
    (r'"timestamp":1,', f'"timestamp":{2**64},'),
    (r'"round":1,', '"round":1.5,'),
    (r'"round":1,', '"round":"1",'),
    (r'"round":1,', '"round":true,'),
    (r'"metric_value":([^,]+),', r'"metric_value":"\1",'),
    (r'"metric_name":"accuracy"', r'"metric_name":"\\ud800"'),  # unencodable when hashed
    (r'^\{', '{"round":99,'),  # json.loads alone keeps the later, hashed "round":1
], ids=["negative_round", "negative_nonce", "timestamp_2_64", "float_round", "string_round",
        "bool_round", "string_metric_value", "lone_surrogate_metric_name", "duplicated_round"])
def test_cli_validate_chain_wrong_field_type_or_range_exits_3(tmp_path, capsys, pattern, replacement):
    lines = _two_round_export().splitlines()
    good = tmp_path / "good.jsonl"
    good.write_text("\n".join(lines) + "\n")
    assert cli.main(["validate-chain", str(good)]) == 0
    lines[1], count = re.subn(pattern, replacement, lines[1])
    assert count == 1
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["validate-chain", str(bad)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("chain validation failed: chain export line 2: ")
    assert len(err.strip().splitlines()) == 1


def _resealed_export(payload_digest: bytes) -> str:
    """A two-round export whose round-1 block holds ``payload_digest``, resealed so every hash links."""
    blocks = list(chain_mod.genesis(np.array([1.0, 2.0]), 0).blocks)
    for r, digest in ((1, payload_digest), (2, bytes(32))):
        draft = chain_mod.Block(r, r, digest, r, 0, "accuracy", 0.5, "fedavg", prev_hash=blocks[-1].hash)
        blocks.append(chain_mod.seal_block(draft, 0))
    return chain_mod.export_lines(chain_mod.Chain(tuple(blocks), 0))


def _spaced_digest_export() -> str:
    """A valid two-round export with line 2's payload_digest written as space-separated hex pairs."""
    lines = _two_round_export().splitlines()
    digest = re.search(r'"payload_digest":"([0-9a-f]{64})"', lines[1]).group(1)
    spaced = " ".join(digest[i : i + 2] for i in range(0, 64, 2))
    lines[1] = lines[1].replace(digest, spaced)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("export", [lambda: _resealed_export(bytes(5)), _spaced_digest_export],
                         ids=["resealed_5_byte_digest", "space_separated_hex_pairs"])
def test_cli_validate_chain_malformed_digest_exits_3(tmp_path, capsys, export):
    # either decodes with bytes.fromhex and hashes consistently; only the digest's form is wrong
    bad = tmp_path / "bad.jsonl"
    bad.write_text(export())
    assert cli.main(["validate-chain", str(bad)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("chain validation failed: chain export line 2: payload_digest must be 64 "
                          "lowercase hex digits")
    assert len(err.strip().splitlines()) == 1


def test_cli_run_krum_skips_nan_scored_update(tmp_path, capsys):
    # n/eta overflows, and inf * 0 puts NaN on the boosted update's untouched weights; Krum's
    # fallback must rank that NaN score last, as Multi-Krum with bulyan_m = 1 does
    cfg = write_config(tmp_path, "rounds = 3\ndata.noise_sigma = 0\nadversary.boost_eta = 1e-320\n"
                                 "aggregator.rule = krum\n")
    out = tmp_path / "o"
    assert cli.main(["run", "--config", cfg, "--preset", "all_pools_backdoor", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert len((out / "records.csv").read_text().splitlines()) == 4


# config key -> raw values, valid and invalid, that the exit-code property draws
FUZZ_VALUES = {
    "topology": ["rfc", "client_server", "p2p"],
    "num_pools": ["1", "2", "3", "0"],
    "clients_per_pool": ["1", "2", "4", "0"],
    "clients_sampled_per_round": ["1", "2", "4", "6", "0", "99"],
    "aggregator.rule": ["fedavg", "krum", "bulyan", "geomed", "median"],
    "aggregator.krum_f": ["0", "1", "-1"],
    "aggregator.bulyan_m": ["1", "2", "0"],
    "adversary.attack": ["none", "labelflip", "backdoor"],
    "adversary.placement": ["none", "all_pools", "one_pool:0", "one_pool:1", "one_pool:4",
                            "one_pool:-1", "one_pool"],
    "adversary.adversaries_per_pool": ["1", "2", "5", "0"],
    "adversary.boost": ["off", "replacement"],
    "adversary.trigger_size": ["1", "2", "3"],
    "adversary.target_label": ["0", "2", "3", "-1"],
    "data.num_classes": ["2", "3", "1"],
    "data.height": ["3", "1", "0"],
    "data.width": ["3", "2", "-2"],
    "data.per_class": ["12", "2", "0", "100000000000000"],  # the last is too large to allocate
    "data.partition": ["iid", "label_shard:1", "label_shard:2", "label_shard:0", "label_shard:x"],
    "optimizer.learning_rate": ["0.01", "1e308"],  # 1e308 diverges: every pool disqualified
}
# a tiny run unless a drawn line overrides it
FUZZ_BASE = {"num_pools": "2", "clients_per_pool": "4", "clients_sampled_per_round": "4",
             "data.height": "3", "data.width": "3", "data.per_class": "12",
             "optimizer.local_epochs": "1"}


@st.composite
def fuzz_configs(draw):
    lines = dict(FUZZ_BASE, rounds=draw(st.sampled_from(["1", "2"])))
    for key in draw(st.lists(st.sampled_from(sorted(FUZZ_VALUES)), unique=True, max_size=8)):
        lines[key] = draw(st.sampled_from(FUZZ_VALUES[key]))
    return "".join(f"{key} = {value}\n" for key, value in lines.items())


@given(text=fuzz_configs())
def test_cli_run_exit_code_contract(text):
    """Any config exits 0, 1 or 2 and raises nothing; a completed run's chain validates."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w") as fh:
            fh.write(text)
        out = os.path.join(tmp, "out")
        code = cli.main(["run", "--config", cfg, "--out", out])
        assert code in (0, 1, 2)
        if code == 0:
            assert cli.main(["validate-chain", os.path.join(out, "chain.jsonl")]) == 0


RUN_MATRIX = Path(__file__).resolve().parent.parent / "scripts" / "run_matrix.py"


def test_run_matrix_one_cell_writes_its_row_and_repeats_bytes(tmp_path):
    """scripts/run_matrix.py on a one-cell matrix: one row under the header, the same bytes twice."""
    written = []
    for out in ("a", "b"):
        subprocess.run([sys.executable, str(RUN_MATRIX), "--out", out, "--seeds", "1",
                        "--scenarios", "no_attack", "--rules", "fedavg", "--topologies", "rfc",
                        "--metrics", "accuracy"], cwd=tmp_path, check=True, capture_output=True, timeout=300)
        written.append((tmp_path / out / "matrix.csv").read_bytes())
    header, row = written[0].decode().splitlines()
    assert header == ("scenario,rule,topology,metric,seed,final_accuracy,best_accuracy,avg10_accuracy,"
                      "final_loss,best_loss,avg10_loss,final_backdoor,best_backdoor,avg10_backdoor")
    fields = row.split(",")
    assert fields[:5] == ["no_attack", "fedavg", "rfc", "accuracy", "1"]
    stats = [float(v) for v in fields[5:]]
    assert len(stats) == 9 and all(0.0 <= v <= 1.0 for v in stats[:3])
    assert all(math.isnan(v) for v in stats[6:])  # no backdoor in no_attack
    assert written[1] == written[0]


def load_ab_bench():
    spec = importlib.util.spec_from_file_location("ab_bench", RUN_MATRIX.parent / "ab_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned_line(run_s, failed=0, setup_s=0.02):
    metrics = {"setup_s": {"value": setup_s, "unit": "s"}, "run_s": {"value": run_s, "unit": "s"}}
    return ("workload long_chain  seed 42  trace 0  samples 4  failed 0  error_rate 0.0000\n"
            + json.dumps({"correct": failed == 0, "attempted": 4, "failed": failed, "metrics": metrics}))


def test_ab_bench_summary_on_canned_result_lines():
    """scripts/ab_bench.py's table from result lines alone: medians, IQRs, wins, null deviation, failures."""
    ab = load_ab_bench()
    assert ab.parse_result("FAIL sample 0 (untraced): boom\nnot json") is None
    assert ab.parse_result("") is None
    results = {"base": [ab.parse_result(canned_line(v)) for v in (1.00, 1.10, 0.90)],
               "null": [ab.parse_result(canned_line(v)) for v in (1.02, 1.00, 0.98)],
               "change": [ab.parse_result(canned_line(0.93, failed=1)), ab.parse_result(canned_line(1.12)), None]}
    metrics = [m for m in ab.benchmark()["end_to_end"] if m["name"] in ("run_s", "setup_s", "peak_rss_mb")]
    assert [m["name"] for m in metrics] == ["setup_s", "run_s", "peak_rss_mb"]
    table = ab.summarize(results, metrics).splitlines()
    run_s = next(line for line in table if line.startswith("run_s "))
    # base 0.90 / 1.00 / 1.10; change 0.93, 1.12 and no result line (not a win); null 0.98 / 1.00 / 1.02
    assert "1 [0.95, 1.05]" in run_s and "1.025 [0.9775, 1.073]" in run_s and "1 [0.99, 1.01]" in run_s
    assert run_s.split()[-3:] == ["+2.5%", "1/3", "+0.0%"]
    assert next(line for line in table if line.startswith("setup_s ")).split()[-3:] == ["+0.0%", "0/3", "+0.0%"]
    assert next(line for line in table if line.startswith("peak_rss_mb ")).split()[-3:] == ["-", "0/3", "-"]
    assert table[-2:] == ["FAIL pair 0 change: failed 1 of 4 samples", "FAIL pair 2 change: no result line"]
