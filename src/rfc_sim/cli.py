"""Command-line entry points: run, validate-chain, gen-data, summarize.

Exit codes: 0 success, 1 config validation failure, 2 runtime abort,
3 chain validation failure. A failed run removes the directories it made for --out.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import os
import sys
from dataclasses import fields
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from . import chain as chain_mod
from . import config as config_mod
from . import consensus
from . import data as data_mod
from . import metrics
from .consensus import FederationResult, ProvenanceError, RoundAbortError

# records.csv columns: RoundRecord's fields, then one pool<p>_metric column per pool candidate
RECORD_COLUMNS = tuple(f.name for f in fields(metrics.RoundRecord))

SUMMARY_DIRECTIONS = {
    "test_accuracy": "maximize",
    "test_loss": "minimize",
    "backdoor_accuracy_target": "maximize",
    "backdoor_accuracy_clean": "maximize",
    "backdoor_loss": "minimize",
}


def _fmt(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def records_csv_text(result: FederationResult) -> str:
    header = list(RECORD_COLUMNS) + [f"pool{c.pool_id}_metric" for c in result.candidates[0]]
    lines = [",".join(header)]
    for rec, candidates in zip(result.records, result.candidates):
        row = [getattr(rec, column) for column in RECORD_COLUMNS] + [c.metric_value for c in candidates]
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def summary_csv_text(series_by_name: Dict[str, List[float]], val_direction: str) -> str:
    lines = ["metric,direction,final,best,avg_last_10,nonfinite_in_window"]
    for name, direction in {"val_metric": val_direction, **SUMMARY_DIRECTIONS}.items():
        series = series_by_name.get(name)
        if not series:
            continue
        stats = metrics.summarize(series, direction)
        lines.append(f"{name},{direction},{stats.final!r},{stats.best!r},{stats.avg_last_10!r},"
                     f"{stats.nonfinite_in_window}")
    return "\n".join(lines) + "\n"


def _result_series(result: FederationResult) -> Dict[str, List[float]]:
    return {column: [getattr(rec, column) for rec in result.records] for column in RECORD_COLUMNS}


def write_outputs(result: FederationResult, rc: config_mod.RunConfig, out_dir: str) -> None:
    """Write each enabled file as <name>.tmp, then rename all into place, config.txt last.

    An OSError names the file and removes the temporaries and the files this call already
    renamed into place, so a failed call leaves none of its files in ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    outputs = (("records.csv", rc.export_records, lambda: records_csv_text(result)),
               ("chain.jsonl", rc.export_chain, lambda: chain_mod.export_lines(result.chain)),
               ("summary.csv", rc.export_summary, lambda: summary_csv_text(
                   _result_series(result), rc.federation.metric.direction)),
               ("config.txt", True, lambda: config_mod.render_config(rc)))
    enabled = [(os.path.join(out_dir, name), text) for name, on, text in outputs if on]
    placed: List[str] = []
    try:
        for path, text in enabled:
            with open(path + ".tmp", "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text())
        for path, _ in enabled:
            os.replace(path + ".tmp", path)
            placed.append(path)
    except OSError as exc:
        for target in [target + ".tmp" for target, _ in enabled] + placed:
            with contextlib.suppress(OSError):
                os.remove(target)
        raise OSError(f"{path}: {exc.strerror or exc}") from exc


def _fail(code: int, message: str, made: Sequence[Path] = ()) -> int:
    """Print message as the one stderr line, remove the directories in made, deepest first, and return code."""
    print(message, file=sys.stderr)
    for path in made:
        with contextlib.suppress(OSError):  # never made, as makedirs failed first, or no longer empty
            path.rmdir()
    return code


def _cmd_run(args) -> int:
    out = Path(args.out).absolute()
    made = [d for d in (out, *out.parents) if not os.path.lexists(d)]  # makedirs makes these, deepest first
    try:
        rc = config_mod.parse_config_file(args.config) if args.config else config_mod.desk_default()
        if args.preset:
            rc = config_mod.preset(args.preset, rc)
        if args.seed is not None:
            rc = config_mod.with_master_seed(rc, args.seed)
        partition = config_mod.build_partition(rc)
        os.makedirs(args.out, exist_ok=True)
        result = consensus.run_federation(rc.federation, partition)
    except (RoundAbortError, ProvenanceError) as exc:
        return _fail(2, f"run aborted: {exc}", made)
    except (ValueError, OSError, MemoryError) as exc:  # MemoryError: a dataset, model or schedule too large to allocate
        return _fail(1, f"config error: {exc}", made)
    try:
        write_outputs(result, rc, args.out)
    except OSError as exc:
        return _fail(1, f"output error: {exc}", made)
    last = result.records[-1]
    print(f"completed {len(result.records)} rounds; final test accuracy {last.test_accuracy:.4f}, "
          f"chain tip {result.chain.blocks[-1].hash.hex()}")
    print(f"outputs in {args.out}")
    return 0


def _cmd_validate_chain(args) -> int:
    try:
        loaded = chain_mod.load_lines(data_mod.open_text(args.chain_file).read())
        if (bad := chain_mod.validate(loaded)) is not None:
            raise ValueError(f"first invalid block {bad}")
        if args.difficulty not in (None, loaded.difficulty):
            raise ValueError(f"export claims difficulty {loaded.difficulty}, not --difficulty {args.difficulty}")
        if args.tip not in (None, tip := loaded.blocks[-1].hash.hex()):
            raise ValueError(f"tip {tip} is not --tip {args.tip}")
    except (OSError, ValueError) as exc:
        return _fail(3, f"chain validation failed: {exc}")
    print(f"chain ok ({len(loaded.blocks)} blocks, difficulty {loaded.difficulty})")
    return 0


def _cmd_gen_data(args) -> int:
    try:
        if not 0 <= args.seed < 2**64:
            raise ValueError(f"--seed must lie in [0, 2**64), got {args.seed}")
        cfg = data_mod.DataConfig(num_classes=args.classes, height=args.height, width=args.width,
                                  per_class=args.per_class, noise_sigma=args.noise_sigma)
        dataset = data_mod.gen_synthetic(cfg, args.seed)
        data_mod.save_csv(dataset, args.out)
    except (ValueError, OSError, MemoryError) as exc:
        return _fail(1, f"gen-data failed: {exc}")
    print(f"wrote {len(dataset)} examples to {args.out}")
    return 0


def _read_series(path: str) -> Dict[str, List[float]]:
    """The summarized columns of a records.csv; a cell that is not a number raises ValueError."""
    series: Dict[str, List[float]] = {}
    reader = csv.DictReader(data_mod.open_text(path))
    for row in reader:
        for name in ("val_metric",) + tuple(SUMMARY_DIRECTIONS):
            if name in row:
                try:
                    series.setdefault(name, []).append(float(row[name]))
                except (TypeError, ValueError):
                    raise ValueError(f"{path}: line {reader.line_num}: {name} is not a number: "
                                     f"{row[name]!r}")
    if not series:
        raise ValueError(f"{path}: no records.csv rows to summarize")
    return series


def _cmd_summarize(args) -> int:
    try:
        series = _read_series(args.records)
    except (OSError, ValueError, csv.Error) as exc:
        return _fail(1, f"summarize failed: {exc}")
    print(summary_csv_text(series, args.val_direction), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rfc-sim",
                                     description="Pooled federated learning on a hash chain, desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a federation run and export its artifacts")
    p_run.add_argument("--config", help="run config file (defaults to the built-in desk preset)")
    p_run.add_argument("--preset", choices=config_mod.PRESET_NAMES,
                       help="scenario preset applied on top of the config")
    p_run.add_argument("--seed", type=int, help="override master_seed")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate-chain", help="re-validate an exported chain")
    p_val.add_argument("chain_file")
    p_val.add_argument("--difficulty", type=int, help="exit 3 unless the export claims this difficulty")
    p_val.add_argument("--tip", type=str.lower, help="exit 3 unless the last block's hash is this hex")
    p_val.set_defaults(func=_cmd_validate_chain)

    p_gen = sub.add_parser("gen-data", help="write a synthetic dataset CSV")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--classes", type=int, default=3, help="sets data.num_classes")
    p_gen.add_argument("--height", type=int, default=8, help="sets data.height")
    p_gen.add_argument("--width", type=int, default=8, help="sets data.width")
    p_gen.add_argument("--per-class", type=int, default=100, dest="per_class", help="sets data.per_class")
    p_gen.add_argument("--noise-sigma", type=float, default=0.35, dest="noise_sigma", help="sets data.noise_sigma")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=_cmd_gen_data)

    p_sum = sub.add_parser("summarize", help="print final / best / avg-last-10 for a records.csv")
    p_sum.add_argument("records")
    p_sum.add_argument("--val-direction", choices=("maximize", "minimize"),
                       default="maximize", dest="val_direction")
    p_sum.set_defaults(func=_cmd_summarize)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entrypoint() -> None:
    sys.exit(main())
