"""Run configuration: file schema, scenario presets, dataset assembly.

A run is a flat UTF-8 ``key = value`` text file ('#' starts a comment) whose
schema is derived from the section dataclasses; every key defaults to the desk
preset. Malformed values, unknown keys and duplicates are rejected with their
line number, out-of-range and unknown enum values by their section, which names
the key and the value: a misconfigured attack must fail loudly rather than
silently run a different scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import reduce
from typing import Callable, Dict, Tuple

from . import data as data_mod
from .aggregation import AggregatorConfig
from .attacks import AdversaryConfig, check_trigger
from .consensus import FederationConfig
from .data import DataConfig
from .metrics import MetricSpec
from .models import ModelSpec, OptimizerConfig
from .seeds import derive_seed

PRESET_NAMES = ("no_attack", "one_pool_labelflip", "one_pool_backdoor",
                "all_pools_labelflip", "all_pools_backdoor")


class ConfigError(ValueError):
    """Configuration rejected; message carries file/line context when known."""


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
            check_trigger(adv.trigger_size, d.height, d.width)
            if not (0 <= adv.target_label < d.num_classes):
                raise ValueError(f"adversary.target_label {adv.target_label} out of range for {d.num_classes} classes")


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


def _parse_tagged(words: Tuple[str, ...], tag: str, least: int) -> Callable[[str], Tuple[str, int]]:
    """A compound value: one of ``words``, which carries ``least``, or ``tag:<int>`` with the int >= ``least``."""
    def parse(raw: str) -> Tuple[str, int]:
        if raw in words:
            return raw, least
        if not raw.startswith(f"{tag}:"):
            raise ValueError(f"expected {', '.join(words)} or {tag}:<int>, got {raw!r}")
        value = _parse_int(raw[len(tag) + 1 :])
        if value < least:
            raise ValueError(f"{tag} needs an int >= {least}, got {value}")
        return tag, value
    return parse


def _render_tagged(tag: str) -> Callable[[Tuple[str, int]], str]:
    return lambda value: f"{tag}:{value[1]}" if value[0] == tag else value[0]


def _render_bool(value: bool) -> str:
    return "true" if value else "false"


_CODECS = ((bool, _parse_bool, _render_bool), (int, _parse_int, str), (float, _parse_float, repr), (str, str, str))
# The only fields whose keys are written out, by field path. A compound key stands
# where its first field is and covers the rest; the model's input_dim and
# num_classes are derived from data in _assemble and have no key.
_EXPLICIT = {
    "federation.model.input_dim": {},
    "federation.model.num_classes": {},
    "federation.adversary.placement": {"adversary.placement": (
        ("federation.adversary.placement", "federation.adversary.pool_id"),
        _parse_tagged(("none", "all_pools"), "one_pool", 0), _render_tagged("one_pool"))},
    "federation.adversary.pool_id": {},
    "data.scheme": {"data.partition": (("data.scheme", "data.shards_per_client"),
                                       _parse_tagged(("iid",), "label_shard", 1), _render_tagged("label_shard"))},
    "data.shards_per_client": {},
}


def _derive_schema(section, prefix: str = "") -> Dict[str, tuple]:
    """A key per leaf field of section, in field order, coded by its default's type: bool first, as a bool is an int."""
    schema: Dict[str, tuple] = {}
    for f in fields(section):
        path, default = prefix + f.name, getattr(section, f.name)
        if is_dataclass(default):
            schema.update(_derive_schema(default, path + "."))
        elif path in _EXPLICIT:
            schema.update(_EXPLICIT[path])
        else:
            parse, render = next((p, r) for kind, p, r in _CODECS if isinstance(default, kind))
            schema[path.removeprefix("federation.").replace("export_", "export.")] = (path, parse, render)
    return schema


# key -> (RunConfig field path, parser, renderer), in field order, which is config.txt's key
# order. A compound key names one path per part of its parsed value. Defaults: RunConfig().
_DEFAULTS = RunConfig()
SCHEMA: Dict[str, tuple] = _derive_schema(_DEFAULTS)

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


def _store(values: Dict[str, object], key: str, value) -> None:
    paths = SCHEMA[key][0]
    if isinstance(paths, str):
        values[paths] = value
    else:
        values.update(zip(paths, value))


def _assemble(values: Dict[str, object]) -> RunConfig:
    """Build RunConfig from its field paths, innermost section first."""
    values["federation.model.input_dim"] = values["data.height"] * values["data.width"]
    values["federation.model.num_classes"] = values["data.num_classes"]
    for prefix, cls in _SECTIONS:
        values[prefix] = cls(**{f.name: values[f"{prefix}.{f.name}" if prefix else f.name] for f in fields(cls)})
    return values[""]


def parse_config_text(text: str, name: str = "<config>") -> RunConfig:
    values: Dict[str, object] = {}
    for key in SCHEMA:
        _store(values, key, _read(_DEFAULTS, key))
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
            _store(values, key, parser(raw_value))
        except ValueError as exc:
            raise ConfigError(f"{name}: line {lineno}: bad value for {key}: {exc}")
    try:
        return _assemble(values)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}")


def parse_config_file(path: str) -> RunConfig:
    return parse_config_text(data_mod.open_text(path).read(), name=path)


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
        new_adv = replace(adv, attack="none", placement="none", pool_id=0, boost="off")
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
        dataset = data_mod.gen_synthetic(d, derive_seed(fed.master_seed, 0, 0, 0, "dataset"))
    else:
        dataset = data_mod.load_csv(d.csv_path, num_classes=d.num_classes)
    for key, fraction in (("data.val_fraction", d.val_fraction), ("data.test_fraction", d.test_fraction)):
        if round(fraction * len(dataset)) < 1:
            raise ConfigError(f"{key} = {fraction!r} selects no examples of the "
                              f"{len(dataset)} in the dataset")
    return data_mod.partition(dataset, fed.total_clients(), d.scheme, d.val_fraction,
                              d.test_fraction, derive_seed(fed.master_seed, 0, 0, 0, "partition"),
                              height=d.height, width=d.width,
                              shards_per_client=d.shards_per_client)
