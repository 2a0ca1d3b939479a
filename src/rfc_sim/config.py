"""Run configuration: file schema, scenario presets, dataset assembly.

A run is described by a flat ``key = value`` text file ('#' starts a comment).
Unknown keys, duplicate keys and malformed values are rejected with the
offending line number; a misconfigured attack must fail loudly rather than
silently run a different scenario. Every key has a desk-scale default, so an
empty file is the benign desk preset.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
            raise ValueError("data.num_classes must be >= 2")
        if self.height < 1 or self.width < 1:
            raise ValueError("grid dimensions must be >= 1")
        if self.scheme not in data_mod.PARTITION_SCHEMES:
            raise ValueError(f"unknown partition scheme {self.scheme!r}")


@dataclass(frozen=True)
class RunConfig:
    federation: FederationConfig = field(default_factory=FederationConfig)
    data: DataConfig = field(default_factory=DataConfig)
    export_records: bool = True
    export_chain: bool = True
    export_summary: bool = True

    def __post_init__(self):
        fed, d = self.federation, self.data
        if fed.model.input_dim != d.height * d.width:
            raise ValueError(f"model input_dim {fed.model.input_dim} does not match grid "
                             f"{d.height}x{d.width}")
        if fed.model.num_classes != d.num_classes:
            raise ValueError("model num_classes does not match data.num_classes")
        adv = fed.adversary
        if adv.attack == "backdoor":
            if adv.trigger_size >= min(d.height, d.width):
                raise ValueError(f"trigger_size {adv.trigger_size} must be smaller than "
                                 f"min grid side {min(d.height, d.width)}")
            if not (0 <= adv.target_label < d.num_classes):
                raise ValueError(f"target_label {adv.target_label} out of range")


def _parse_int(raw: str) -> int:
    return int(raw, 0)


def _parse_float(raw: str) -> float:
    return float(raw)


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
        return "label_shard", spc
    raise ValueError(f"expected iid or label_shard:<shards>, got {raw!r}")


def _render_placement(value: Tuple[str, int]) -> str:
    kind, pool_id = value
    return f"one_pool:{pool_id}" if kind == "one_pool" else kind


def _render_partition(value: Tuple[str, int]) -> str:
    kind, spc = value
    return f"label_shard:{spc}" if kind == "label_shard" else kind


# key -> (parser, default, renderer). Defaults are the desk-scale preset.
_DEFAULTS = RunConfig()
SCHEMA: Dict[str, tuple] = {
    "topology": (_parse_enum(TOPOLOGIES), _DEFAULTS.federation.topology, str),
    "rounds": (_parse_int, _DEFAULTS.federation.rounds, str),
    "num_pools": (_parse_int, _DEFAULTS.federation.num_pools, str),
    "clients_per_pool": (_parse_int, _DEFAULTS.federation.clients_per_pool, str),
    "clients_sampled_per_round": (_parse_int, _DEFAULTS.federation.clients_sampled_per_round, str),
    "master_seed": (_parse_int, _DEFAULTS.federation.master_seed, str),
    "server_eta": (_parse_float, _DEFAULTS.federation.server_eta, repr),
    "chain_difficulty": (_parse_int, _DEFAULTS.federation.chain_difficulty, str),
    "model.kind": (_parse_enum(MODEL_KINDS), _DEFAULTS.federation.model.kind, str),
    "model.hidden_dim": (_parse_int, _DEFAULTS.federation.model.hidden_dim, str),
    "optimizer.kind": (_parse_enum(OPTIMIZER_KINDS), _DEFAULTS.federation.optimizer.kind, str),
    "optimizer.learning_rate": (_parse_float, _DEFAULTS.federation.optimizer.learning_rate, repr),
    "optimizer.adam_beta1": (_parse_float, _DEFAULTS.federation.optimizer.adam_beta1, repr),
    "optimizer.adam_beta2": (_parse_float, _DEFAULTS.federation.optimizer.adam_beta2, repr),
    "optimizer.adam_epsilon": (_parse_float, _DEFAULTS.federation.optimizer.adam_epsilon, repr),
    "optimizer.local_epochs": (_parse_int, _DEFAULTS.federation.optimizer.local_epochs, str),
    "optimizer.batch_size": (_parse_int, _DEFAULTS.federation.optimizer.batch_size, str),
    "aggregator.rule": (_parse_enum(AGGREGATION_RULES), _DEFAULTS.federation.aggregator.rule, str),
    "aggregator.krum_f": (_parse_int, _DEFAULTS.federation.aggregator.krum_f, str),
    "aggregator.bulyan_m": (_parse_int, _DEFAULTS.federation.aggregator.bulyan_m, str),
    "metric.name": (_parse_enum(tuple(METRIC_DIRECTIONS)), _DEFAULTS.federation.metric.name, str),
    "adversary.attack": (_parse_enum(ATTACK_KINDS), _DEFAULTS.federation.adversary.attack, str),
    "adversary.placement": (_parse_placement,
                            (_DEFAULTS.federation.adversary.placement, _DEFAULTS.federation.adversary.pool_id),
                            _render_placement),
    "adversary.adversaries_per_pool": (_parse_int, _DEFAULTS.federation.adversary.adversaries_per_pool, str),
    "adversary.boost": (_parse_enum(BOOST_MODES), _DEFAULTS.federation.adversary.boost, str),
    "adversary.boost_eta": (_parse_float, _DEFAULTS.federation.adversary.boost_eta, repr),
    "adversary.trigger_size": (_parse_int, _DEFAULTS.federation.adversary.trigger_size, str),
    "adversary.target_label": (_parse_int, _DEFAULTS.federation.adversary.target_label, str),
    "adversary.poison_fraction": (_parse_float, _DEFAULTS.federation.adversary.poison_fraction, repr),
    "data.source": (_parse_enum(DATA_SOURCES), _DEFAULTS.data.source, str),
    "data.num_classes": (_parse_int, _DEFAULTS.data.num_classes, str),
    "data.height": (_parse_int, _DEFAULTS.data.height, str),
    "data.width": (_parse_int, _DEFAULTS.data.width, str),
    "data.per_class": (_parse_int, _DEFAULTS.data.per_class, str),
    "data.noise_sigma": (_parse_float, _DEFAULTS.data.noise_sigma, repr),
    "data.csv_path": (str, _DEFAULTS.data.csv_path, str),
    "data.val_fraction": (_parse_float, _DEFAULTS.data.val_fraction, repr),
    "data.test_fraction": (_parse_float, _DEFAULTS.data.test_fraction, repr),
    "data.partition": (_parse_partition,
                       (_DEFAULTS.data.scheme, _DEFAULTS.data.shards_per_client),
                       _render_partition),
    "export.records": (_parse_bool, _DEFAULTS.export_records, lambda b: "true" if b else "false"),
    "export.chain": (_parse_bool, _DEFAULTS.export_chain, lambda b: "true" if b else "false"),
    "export.summary": (_parse_bool, _DEFAULTS.export_summary, lambda b: "true" if b else "false"),
}


def _assemble(values: Dict[str, object]) -> RunConfig:
    placement, pool_id = values["adversary.placement"]
    scheme, shards = values["data.partition"]
    height, width = values["data.height"], values["data.width"]
    num_classes = values["data.num_classes"]
    model = ModelSpec(kind=values["model.kind"], input_dim=height * width,
                      num_classes=num_classes, hidden_dim=values["model.hidden_dim"])
    optimizer = OptimizerConfig(kind=values["optimizer.kind"],
                                learning_rate=values["optimizer.learning_rate"],
                                adam_beta1=values["optimizer.adam_beta1"],
                                adam_beta2=values["optimizer.adam_beta2"],
                                adam_epsilon=values["optimizer.adam_epsilon"],
                                local_epochs=values["optimizer.local_epochs"],
                                batch_size=values["optimizer.batch_size"])
    aggregator = AggregatorConfig(rule=values["aggregator.rule"],
                                  krum_f=values["aggregator.krum_f"],
                                  bulyan_m=values["aggregator.bulyan_m"])
    adversary = AdversaryConfig(attack=values["adversary.attack"], placement=placement,
                                pool_id=pool_id,
                                adversaries_per_pool=values["adversary.adversaries_per_pool"],
                                boost=values["adversary.boost"],
                                boost_eta=values["adversary.boost_eta"],
                                trigger_size=values["adversary.trigger_size"],
                                target_label=values["adversary.target_label"],
                                poison_fraction=values["adversary.poison_fraction"])
    federation = FederationConfig(num_pools=values["num_pools"],
                                  clients_per_pool=values["clients_per_pool"],
                                  rounds=values["rounds"],
                                  clients_sampled_per_round=values["clients_sampled_per_round"],
                                  model=model, optimizer=optimizer, aggregator=aggregator,
                                  metric=MetricSpec(values["metric.name"]), adversary=adversary,
                                  master_seed=values["master_seed"], topology=values["topology"],
                                  server_eta=values["server_eta"],
                                  chain_difficulty=values["chain_difficulty"])
    dcfg = DataConfig(source=values["data.source"], num_classes=num_classes, height=height,
                      width=width, per_class=values["data.per_class"],
                      noise_sigma=values["data.noise_sigma"], csv_path=values["data.csv_path"],
                      val_fraction=values["data.val_fraction"],
                      test_fraction=values["data.test_fraction"], scheme=scheme,
                      shards_per_client=shards)
    return RunConfig(federation=federation, data=dcfg,
                     export_records=values["export.records"],
                     export_chain=values["export.chain"],
                     export_summary=values["export.summary"])


def parse_config_text(text: str, name: str = "<config>") -> RunConfig:
    values = {key: default for key, (_, default, _) in SCHEMA.items()}
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
        parser = SCHEMA[key][0]
        try:
            values[key] = parser(raw_value)
        except ValueError as exc:
            raise ConfigError(f"{name}: line {lineno}: bad value for {key}: {exc}")
    try:
        return _assemble(values)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}")


def parse_config_file(path: str) -> RunConfig:
    with open(path) as fh:
        return parse_config_text(fh.read(), name=path)


def render_config(rc: RunConfig) -> str:
    """Canonical snapshot; parsing it back reproduces the config."""
    fed, d, adv, opt = rc.federation, rc.data, rc.federation.adversary, rc.federation.optimizer
    current: Dict[str, object] = {
        "topology": fed.topology, "rounds": fed.rounds, "num_pools": fed.num_pools,
        "clients_per_pool": fed.clients_per_pool,
        "clients_sampled_per_round": fed.clients_sampled_per_round,
        "master_seed": fed.master_seed, "server_eta": fed.server_eta,
        "chain_difficulty": fed.chain_difficulty,
        "model.kind": fed.model.kind, "model.hidden_dim": fed.model.hidden_dim,
        "optimizer.kind": opt.kind, "optimizer.learning_rate": opt.learning_rate,
        "optimizer.adam_beta1": opt.adam_beta1, "optimizer.adam_beta2": opt.adam_beta2,
        "optimizer.adam_epsilon": opt.adam_epsilon, "optimizer.local_epochs": opt.local_epochs,
        "optimizer.batch_size": opt.batch_size,
        "aggregator.rule": fed.aggregator.rule, "aggregator.krum_f": fed.aggregator.krum_f,
        "aggregator.bulyan_m": fed.aggregator.bulyan_m,
        "metric.name": fed.metric.name,
        "adversary.attack": adv.attack,
        "adversary.placement": (adv.placement, adv.pool_id),
        "adversary.adversaries_per_pool": adv.adversaries_per_pool,
        "adversary.boost": adv.boost, "adversary.boost_eta": adv.boost_eta,
        "adversary.trigger_size": adv.trigger_size, "adversary.target_label": adv.target_label,
        "adversary.poison_fraction": adv.poison_fraction,
        "data.source": d.source, "data.num_classes": d.num_classes,
        "data.height": d.height, "data.width": d.width, "data.per_class": d.per_class,
        "data.noise_sigma": d.noise_sigma, "data.csv_path": d.csv_path,
        "data.val_fraction": d.val_fraction, "data.test_fraction": d.test_fraction,
        "data.partition": (d.scheme, d.shards_per_client),
        "export.records": rc.export_records, "export.chain": rc.export_chain,
        "export.summary": rc.export_summary,
    }
    lines = [f"{key} = {SCHEMA[key][2](current[key])}" for key in SCHEMA]
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
