"""Run configuration: file schema, scenario presets, dataset assembly.

A run is described by a flat ``key = value`` text file ('#' starts a comment).
Unknown keys, duplicate keys and malformed values are rejected with the
offending line number; a misconfigured attack must fail loudly rather than
silently run a different scenario. Every key has a desk-scale default, so an
empty file is the benign desk preset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Callable, Dict, Tuple

from . import consensus, data as data_mod
from .aggregation import AGGREGATION_RULES, AggregatorConfig
from .attacks import ATTACK_KINDS, BOOST_MODES, AdversaryConfig
from .consensus import TOPOLOGIES, FederationConfig
from .metrics import METRIC_DIRECTIONS, MetricSpec
from .models import MODEL_KINDS, OPTIMIZER_KINDS, ModelSpec, OptimizerConfig
from .seeds import derive_seed

PRESET_NAMES = ("no_attack", "one_pool_labelflip", "one_pool_backdoor",
                "all_pools_labelflip", "all_pools_backdoor")

DATA_SOURCES = ("synthetic", "csv")


class ConfigError(ValueError):
    """Configuration rejected; message carries file/line context when known."""


@dataclass(frozen=True)
class DataConfig:
    source: str = "synthetic"
    num_classes: int = 3
    height: int = 8
    width: int = 8
    per_class: int = 400
    noise_sigma: float = 0.2
    csv_path: str = ""
    val_fraction: float = 0.1
    test_fraction: float = 0.1
    scheme: str = "iid"
    shards_per_client: int = 1

    def __post_init__(self):
        if self.source not in DATA_SOURCES:
            raise ValueError(f"unknown data source {self.source!r}")
        if self.source == "csv" and not self.csv_path:
            raise ValueError("data.source = csv requires data.csv_path")
        if self.num_classes < 2:
            raise ValueError(f"data.num_classes must be >= 2, got {self.num_classes}")
        if self.height < 1 or self.width < 1:
            raise ValueError(f"data.height and data.width must be >= 1, got {self.height}x{self.width}")
        if self.source == "synthetic":  # gen_synthetic's inputs
            if self.height * self.width < self.num_classes:
                raise ValueError(f"data.height x data.width grid {self.height}x{self.width} has "
                                 f"fewer cells than data.num_classes = {self.num_classes}")
            if self.per_class < 1:
                raise ValueError(f"data.per_class must be >= 1, got {self.per_class}")
            if not 0 <= self.noise_sigma < math.inf:
                raise ValueError(f"data.noise_sigma must be finite and >= 0, got {self.noise_sigma!r}")
        v, t = self.val_fraction, self.test_fraction
        if not (0 <= v < 1 and 0 <= t < 1 and v + t < 1):
            raise ValueError(f"data.val_fraction and data.test_fraction must lie in [0, 1) "
                             f"and sum below 1, got {v!r} and {t!r}")


@dataclass(frozen=True)
class RunConfig:
    federation: FederationConfig = field(default_factory=FederationConfig)
    data: DataConfig = field(default_factory=DataConfig)
    export_records: bool = True
    export_chain: bool = True
    export_summary: bool = True

    def __post_init__(self):
        adv, d = self.federation.adversary, self.data
        if adv.attack == "backdoor":
            if adv.trigger_size >= min(d.height, d.width):
                raise ValueError(f"trigger_size {adv.trigger_size} must be smaller than "
                                 f"min grid side {min(d.height, d.width)}")
            if not (0 <= adv.target_label < d.num_classes):
                raise ValueError(f"target_label {adv.target_label} out of range")


def _parse_int(raw: str) -> int:
    return int(raw, 0)


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_enum(options) -> Callable[[str], str]:
    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"expected one of {', '.join(options)}, got {raw!r}")
        return raw
    return parse


def _parse_placement(raw: str) -> Tuple[str, int]:
    if raw in ("none", "all_pools"):
        return raw, 0
    if raw.startswith("one_pool:"):
        return "one_pool", int(raw.split(":", 1)[1])
    raise ValueError(f"expected none, all_pools or one_pool:<id>, got {raw!r}")


def _parse_partition(raw: str) -> Tuple[str, int]:
    if raw == "iid":
        return "iid", 1
    if raw.startswith("label_shard:"):
        spc = int(raw.split(":", 1)[1])
        if spc < 1:
            raise ValueError(f"label_shard needs >= 1 shard per client, got {spc}")
        return "label_shard", spc
    raise ValueError(f"expected iid or label_shard:<shards>, got {raw!r}")


def _render_placement(value: Tuple[str, int]) -> str:
    kind, pool_id = value
    return f"one_pool:{pool_id}" if kind == "one_pool" else kind


def _render_partition(value: Tuple[str, int]) -> str:
    kind, spc = value
    return f"label_shard:{spc}" if kind == "label_shard" else kind


def _render_bool(value: bool) -> str:
    return "true" if value else "false"


# key -> (RunConfig field path, parser, renderer). A compound key names one path
# per part of its parsed value. Defaults are read from RunConfig(), the desk preset.
_DEFAULTS = RunConfig()
SCHEMA: Dict[str, tuple] = {
    "topology": ("federation.topology", _parse_enum(TOPOLOGIES), str),
    "rounds": ("federation.rounds", _parse_int, str),
    "num_pools": ("federation.num_pools", _parse_int, str),
    "clients_per_pool": ("federation.clients_per_pool", _parse_int, str),
    "clients_sampled_per_round": ("federation.clients_sampled_per_round", _parse_int, str),
    "master_seed": ("federation.master_seed", _parse_int, str),
    "server_eta": ("federation.server_eta", _parse_float, repr),
    "chain_difficulty": ("federation.chain_difficulty", _parse_int, str),
    "model.kind": ("federation.model.kind", _parse_enum(MODEL_KINDS), str),
    "model.hidden_dim": ("federation.model.hidden_dim", _parse_int, str),
    "optimizer.kind": ("federation.optimizer.kind", _parse_enum(OPTIMIZER_KINDS), str),
    "optimizer.learning_rate": ("federation.optimizer.learning_rate", _parse_float, repr),
    "optimizer.adam_beta1": ("federation.optimizer.adam_beta1", _parse_float, repr),
    "optimizer.adam_beta2": ("federation.optimizer.adam_beta2", _parse_float, repr),
    "optimizer.adam_epsilon": ("federation.optimizer.adam_epsilon", _parse_float, repr),
    "optimizer.local_epochs": ("federation.optimizer.local_epochs", _parse_int, str),
    "optimizer.batch_size": ("federation.optimizer.batch_size", _parse_int, str),
    "aggregator.rule": ("federation.aggregator.rule", _parse_enum(AGGREGATION_RULES), str),
    "aggregator.krum_f": ("federation.aggregator.krum_f", _parse_int, str),
    "aggregator.bulyan_m": ("federation.aggregator.bulyan_m", _parse_int, str),
    "metric.name": ("federation.metric.name", _parse_enum(tuple(METRIC_DIRECTIONS)), str),
    "adversary.attack": ("federation.adversary.attack", _parse_enum(ATTACK_KINDS), str),
    "adversary.placement": (("federation.adversary.placement", "federation.adversary.pool_id"),
                            _parse_placement, _render_placement),
    "adversary.adversaries_per_pool": ("federation.adversary.adversaries_per_pool", _parse_int, str),
    "adversary.boost": ("federation.adversary.boost", _parse_enum(BOOST_MODES), str),
    "adversary.boost_eta": ("federation.adversary.boost_eta", _parse_float, repr),
    "adversary.trigger_size": ("federation.adversary.trigger_size", _parse_int, str),
    "adversary.target_label": ("federation.adversary.target_label", _parse_int, str),
    "adversary.poison_fraction": ("federation.adversary.poison_fraction", _parse_float, repr),
    "data.source": ("data.source", _parse_enum(DATA_SOURCES), str),
    "data.num_classes": ("data.num_classes", _parse_int, str),
    "data.height": ("data.height", _parse_int, str),
    "data.width": ("data.width", _parse_int, str),
    "data.per_class": ("data.per_class", _parse_int, str),
    "data.noise_sigma": ("data.noise_sigma", _parse_float, repr),
    "data.csv_path": ("data.csv_path", str, str),
    "data.val_fraction": ("data.val_fraction", _parse_float, repr),
    "data.test_fraction": ("data.test_fraction", _parse_float, repr),
    "data.partition": (("data.scheme", "data.shards_per_client"), _parse_partition, _render_partition),
    "export.records": ("export_records", _parse_bool, _render_bool),
    "export.chain": ("export_chain", _parse_bool, _render_bool),
    "export.summary": ("export_summary", _parse_bool, _render_bool),
}

# Each nested dataclass and the prefix of its fields' paths, in build order:
# the first invalid section of a bad file is the one reported. The model's
# input_dim and num_classes are derived from data, so data is checked first
# and a bad data key is reported by its own name.
_SECTIONS = (("data", DataConfig), ("federation.model", ModelSpec),
             ("federation.optimizer", OptimizerConfig), ("federation.aggregator", AggregatorConfig),
             ("federation.adversary", AdversaryConfig), ("federation.metric", MetricSpec),
             ("federation", FederationConfig), ("", RunConfig))


def _read(rc: RunConfig, key: str):
    """The value of one key in rc: a tuple for a compound key."""
    paths = SCHEMA[key][0]
    if isinstance(paths, str):
        return reduce(getattr, paths.split("."), rc)
    return tuple(reduce(getattr, path.split("."), rc) for path in paths)


def _store(fields: Dict[str, object], key: str, value) -> None:
    paths = SCHEMA[key][0]
    if isinstance(paths, str):
        fields[paths] = value
    else:
        fields.update(zip(paths, value))


def _assemble(fields: Dict[str, object]) -> RunConfig:
    """Build RunConfig from its field paths, innermost section first."""
    fields["federation.model.input_dim"] = fields["data.height"] * fields["data.width"]
    fields["federation.model.num_classes"] = fields["data.num_classes"]
    for prefix, cls in _SECTIONS:
        kwargs = {}
        for path, value in fields.items():
            head, _, name = path.rpartition(".")
            if head == prefix:
                kwargs[name] = value
        fields[prefix] = cls(**kwargs)
    return fields[""]


def parse_config_text(text: str, name: str = "<config>") -> RunConfig:
    fields: Dict[str, object] = {}
    for key in SCHEMA:
        _store(fields, key, _read(_DEFAULTS, key))
    seen: Dict[str, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{name}: line {lineno}: expected 'key = value'")
        key, raw_value = (part.strip() for part in line.split("=", 1))
        if key not in SCHEMA:
            raise ConfigError(f"{name}: line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{name}: line {lineno}: duplicate key {key!r} (first on line {seen[key]})")
        seen[key] = lineno
        parser = SCHEMA[key][1]
        try:
            _store(fields, key, parser(raw_value))
        except ValueError as exc:
            raise ConfigError(f"{name}: line {lineno}: bad value for {key}: {exc}")
    try:
        return _assemble(fields)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}")


def parse_config_file(path: str) -> RunConfig:
    with open(path) as fh:
        return parse_config_text(fh.read(), name=path)


def render_config(rc: RunConfig) -> str:
    """Canonical snapshot; parsing it back reproduces the config."""
    lines = [f"{key} = {render(_read(rc, key))}" for key, (_, _, render) in SCHEMA.items()]
    return "\n".join(lines) + "\n"


def desk_default() -> RunConfig:
    return RunConfig()


def preset(name: str, base: RunConfig) -> RunConfig:
    """Fill the adversary section for one of the named scenarios."""
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r} (choose from {', '.join(PRESET_NAMES)})")
    adv = base.federation.adversary
    if name == "no_attack":
        new_adv = replace(adv, attack="none", placement="none", boost="off")
    else:
        attack = "labelflip" if name.endswith("labelflip") else "backdoor"
        placement = "one_pool" if name.startswith("one_pool") else "all_pools"
        new_adv = replace(adv, attack=attack, placement=placement, pool_id=0, boost="replacement")
    return replace(base, federation=replace(base.federation, adversary=new_adv))


def with_master_seed(rc: RunConfig, master_seed: int) -> RunConfig:
    return replace(rc, federation=replace(rc.federation, master_seed=master_seed))


def build_partition(rc: RunConfig) -> data_mod.FederatedPartition:
    """Materialize the dataset and client split a run config describes.

    A validation or test fraction that rounds to no examples of the dataset is
    a ConfigError: both splits are scored every round.
    """
    fed, d = rc.federation, rc.data
    if d.source == "synthetic":
        dataset = data_mod.gen_synthetic(d.num_classes, d.height, d.width, d.per_class,
                                         d.noise_sigma, derive_seed(fed.master_seed, 0, 0, 0, "dataset"))
    else:
        dataset = data_mod.load_csv(d.csv_path, num_classes=d.num_classes)
    for key, fraction in (("data.val_fraction", d.val_fraction), ("data.test_fraction", d.test_fraction)):
        if round(fraction * len(dataset)) < 1:
            raise ConfigError(f"{key} = {fraction!r} selects no examples of the "
                              f"{len(dataset)} in the dataset")
    return data_mod.partition(dataset, fed.total_clients(), d.scheme, d.val_fraction,
                              d.test_fraction, derive_seed(fed.master_seed, 0, 0, 0, "partition"),
                              height=d.height, width=d.width, num_classes=d.num_classes,
                              shards_per_client=d.shards_per_client)


def execute_run(rc: RunConfig) -> consensus.FederationResult:
    return consensus.run_federation(rc.federation, build_partition(rc))
