"""Config-driven experiment runner with three subcommands: bound-grid,
two-phase and plot-data.

Configs are YAML (or JSON) with one rule: each table lists exactly the
keys its run reads, and any other key is an error. The tables GRID and
TWO_PHASE, with the tables they nest, give every field's type, default and
check; a dataset's table follows its source and the run's kind, a model's
its kind. --seed and --workers replace the config values before
validation. Every run writes a manifest with the fully resolved
config; rerunning from it with the same BLAS build reproduces the CSV
outputs byte for byte.

Importing this module sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to "1", whatever the caller set: BLAS sums depend on its
thread count, and the cores go to --workers and to each bound-grid cell's
two solver threads. BLAS reads them once, when numpy loads it, so the pin
holds in the `ltcl` console script and `python -m ltcl.cli`, and has no
effect in a process that loaded numpy before this import.

Exit codes: 0 success, 1 validation error (an unreadable config or a
command-line usage error included), 2 bound violation, 3 runtime failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations
from pathlib import Path
from typing import NamedTuple

# before the imports below load numpy; assigned, not defaulted (docstring)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import yaml  # noqa: E402

from . import __version__  # noqa: E402
from .bounds import BoundGridConfig, bound_grid  # noqa: E402
from .continual import STRATEGIES, VARIANTS, default_phase2_config, run_head_phase, run_tail_phase  # noqa: E402
from .datasets import head_tail_split, load_idx, make_longtail, mean_pool_images, synthetic_gaussian  # noqa: E402
from .errors import (  # noqa: E402
    AT_LEAST_1, COUNT, FILE, FINITE_AT_LEAST_0, FINITE_POSITIVE, FRACTION, POSITIVE, SEED, ConfigError,
    LtclError, list_of, one_of,
)
from .metrics import accuracy_diff, transfer_decomposition  # noqa: E402
from .models import LinearModel, LossSpec, MlpModel, save_checkpoint  # noqa: E402
from .training import TRAIN_RULES, TrainConfig  # noqa: E402

KINDS = ("bound_grid", "ltr_two_phase")
SUBCOMMAND_KINDS = {"bound-grid": "bound_grid", "two-phase": "ltr_two_phase"}
SCHEMA_VERSION = 1

BOUNDS_CSV_HEADER = ("if,mu,measured_distance,delta_hat,loose_bound,tight_bound,lemma2_bound,"
                     "holds_tight,holds_loose,converged_full,converged_head")
METRICS_CSV_HEADER = "class,count,acc_before,acc_after,delta,region,weight_norm_before,weight_norm_after"
SUMMARY_CSV_HEADER = ("strategy,avg_class_acc_before,avg_class_acc_after,"
                      "head_acc_before,head_acc_after,head_acc_drop,tail_acc_after,status")

# stable per-strategy phase-2 seed offsets, independent of list order
_PHASE2_SEED_OFFSET = {name: i + 1 for i, name in enumerate(VARIANTS)}
# the synthetic test set is drawn from its own stream
_TEST_SEED_OFFSET = 999_983

REQUIRED = object()  # no default: the field must be given


class Field(NamedTuple):
    """A config table maps each key its run reads to a Field. type is int, float, str,
    bool, a nested table, a Choice of nested tables or [T] (a list of T). A missing or
    null value takes the default. check is a rule of `errors`: a value failing its test
    is rejected with its message and the value."""

    type: object
    default: object = None
    check: tuple | None = None


class Choice(NamedTuple):
    """Nested tables picked by the value of one key of the mapping. Any other value
    picks the first table, whose field for that key rejects it."""

    key: str
    tables: dict


HEADER = {
    "schema_version": Field(int, REQUIRED, one_of(SCHEMA_VERSION)),
    "kind": Field(str, REQUIRED, one_of(*KINDS)),
    "seed": Field(int, 0, SEED),
    "workers": Field(int, 1, COUNT),
    "output_dir": Field(str),
}

DATASET = {"source": Field(str, REQUIRED, one_of("synthetic", "idx")),
           "pool_factor": Field(int, None, COUNT)}
SYNTHETIC = {
    **DATASET,
    "n_classes": Field(int, 10, COUNT),
    "n_features": Field(int, 64, COUNT),
    "n_per_class": Field(int, 500, COUNT),
    "class_separation": Field(float, 3.0, POSITIVE),
}
IDX_FILE = Field(str, REQUIRED, FILE)
IDX = {**DATASET, "train_images": IDX_FILE, "train_labels": IDX_FILE}
# a bound grid reads no test set
GRID_DATASET = Choice("source", {"synthetic": SYNTHETIC, "idx": IDX})
TWO_PHASE_DATASET = Choice("source", {
    "synthetic": {**SYNTHETIC, "test_n_per_class": Field(int, 200, COUNT)},
    "idx": {**IDX, "test_images": IDX_FILE, "test_labels": IDX_FILE},
})

LONGTAIL = {"head_fraction": Field(float, 0.6, FRACTION), "n_max": Field(int, None, COUNT)}
BOUND_GRID = {
    "mu_values": Field([float], REQUIRED, list_of(POSITIVE, distinct=True)),
    "grad_tolerance": Field(float, BoundGridConfig.grad_tolerance, FINITE_POSITIVE),
    "compute_lemma2": Field(bool, BoundGridConfig.compute_lemma2),
}

# a phase's train keys, each checked by its TrainConfig rule; the run gives the seed
TRAIN_TYPES = {"learning_rate": float, "momentum": float, "epochs": int, "batch_size": int, "schedule": str}
PHASE1_DEFAULTS = {"learning_rate": 0.01, "momentum": 0.9, "epochs": 30,
                   "batch_size": TrainConfig.batch_size, "schedule": "constant"}


def _train_table(defaults: dict) -> dict:
    return {name: Field(kind, defaults[name], TRAIN_RULES[name]) for name, kind in TRAIN_TYPES.items()}


# a strategy's table: its Phase-2 training keys and the settings it reads, with the
# defaults and checks of continual.STRATEGIES, each setting typed as its default
STRATEGY_OVERRIDES = {
    name: Field({
        **_train_table(vars(default_phase2_config(name))),
        **{key: Field(type(default), default, check) for key, (default, check) in strategy.settings.items()},
    }, {})
    for name, strategy in STRATEGIES.items()
}
MLP = {"kind": Field(str, "mlp", one_of("mlp", "linear")),
       "hidden_sizes": Field([int], [64], list_of(COUNT))}
# a linear model has no hidden layers
MODEL = Choice("kind", {"mlp": MLP, "linear": {"kind": MLP["kind"]}})
GRID = {
    **HEADER,
    "dataset": Field(GRID_DATASET, REQUIRED),
    "longtail": Field(
        {**LONGTAIL, "imbalance_factors": Field([float], REQUIRED, list_of(AT_LEAST_1, distinct=True))}, REQUIRED
    ),
    "bound_grid": Field(BOUND_GRID, REQUIRED),
}
TWO_PHASE = {
    **HEADER,
    "dataset": Field(TWO_PHASE_DATASET, REQUIRED),
    "longtail": Field({**LONGTAIL, "imbalance_factor": Field(float, REQUIRED, AT_LEAST_1)}, REQUIRED),
    "loss": Field({"mu": Field(float, 1e-4, FINITE_AT_LEAST_0)}, {}),
    "model": Field(MODEL, {}),
    "phase1": Field(_train_table(PHASE1_DEFAULTS), {}),
    "strategies": Field([str], REQUIRED, list_of(one_of(*VARIANTS), distinct=True)),
    "strategy_overrides": Field(STRATEGY_OVERRIDES, {}),
}
CONFIG = Choice("kind", {"bound_grid": GRID, "ltr_two_phase": TWO_PHASE})


def _typed(value, kind, where: str):
    """value as kind: an int widens to float, a bool is never a number and
    a float must be finite."""
    shape = dict if isinstance(kind, (dict, Choice)) else list if isinstance(kind, list) else kind
    if shape is float and type(value) is int and abs(value) < 2**1023:  # a larger int stays int
        value = float(value)
    if not isinstance(value, shape) or (shape is not bool and isinstance(value, bool)):
        raise ConfigError(where or "<root>", f"expected {shape.__name__}, got {type(value).__name__}")
    if shape is float and not math.isfinite(value):
        raise ConfigError(where, "must be finite")
    if isinstance(kind, Choice):  # a value that is no table name picks the first table
        kind = kind.tables.get(str(value.get(kind.key)), next(iter(kind.tables.values())))
    if isinstance(kind, dict):
        return _resolve(value, kind, where)
    return [_typed(v, kind[0], where) for v in value] if isinstance(kind, list) else value


def _resolve(raw: dict, table: dict, path: str) -> dict:
    """Walk one table over one mapping: type, default and check each field
    in table order, then reject any other key. The fields come first
    because a Choice picks the table by a value not yet checked."""
    out = {}
    for name, field in table.items():
        where = f"{path}.{name}" if path else name
        value = field.default if raw.get(name) is None else raw[name]
        if value is REQUIRED:
            raise ConfigError(where, "missing required field")
        if value is not None:
            value = _typed(value, field.type, where)
            if field.check and not field.check[0](value):
                raise ConfigError(where, f"{field.check[1]}, got {value!r}")
        out[name] = value
    for key in raw:
        if key not in table:
            raise ConfigError(f"{path}.{key}" if path else str(key), "unknown key")
    return out


def _train_config(section: dict, seed: int = 0) -> TrainConfig:
    """The one place a resolved train section becomes a TrainConfig."""
    return TrainConfig(seed=seed, **{name: section[name] for name in TRAIN_TYPES})


def load_config(path) -> dict:
    try:
        text = Path(path).read_text()
        raw = json.loads(text) if str(path).endswith(".json") else yaml.safe_load(text)
    except (OSError, ValueError, yaml.YAMLError) as exc:
        raise ConfigError("<root>", f"cannot read {path}: {exc}") from None
    if isinstance(raw, dict) and "resolved_config" in raw:  # manifest file
        raw = raw["resolved_config"]
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a mapping")
    return raw


def validate_config(raw: dict) -> dict:
    """Validate a raw config mapping and return it with defaults resolved."""
    cfg = _typed(raw, CONFIG, "")
    if cfg["kind"] == "bound_grid":
        return cfg
    for name in raw.get("strategy_overrides") or {}:  # a strategy that does not run reads no table
        if name not in cfg["strategies"]:
            raise ConfigError(f"strategy_overrides.{name}", "strategy is not in strategies")
    cfg["strategy_overrides"] = {name: cfg["strategy_overrides"][name] for name in cfg["strategies"]}
    return cfg


def _load_dataset(cfg: dict, split: str):
    """The configured train or test set, mean-pooled when pool_factor > 1;
    IDX images are pooled as they are decoded."""
    ds = cfg["dataset"]
    pool_factor = ds["pool_factor"] or 1
    if ds["source"] == "idx":
        return load_idx(ds[f"{split}_images"], ds[f"{split}_labels"], pool_factor=pool_factor)
    test = split == "test"
    n_per_class = ds["test_n_per_class" if test else "n_per_class"]
    seed = cfg["seed"] + (_TEST_SEED_OFFSET if test else 0)
    data = synthetic_gaussian(
        ds["n_classes"], ds["n_features"], n_per_class, ds["class_separation"], seed
    )
    return mean_pool_images(data, pool_factor) if pool_factor > 1 else data


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    return repr(float(value)) if isinstance(value, float) else str(value)  # numpy float64 too


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def run_bound_grid(cfg: dict, out_dir: Path) -> int:
    section = cfg["bound_grid"]
    longtail = cfg["longtail"]
    source = _load_dataset(cfg, "train")
    settings = {key: value for key, value in section.items() if key != "mu_values"}
    grid_config = BoundGridConfig(head_fraction=longtail["head_fraction"], **settings)
    reports = bound_grid(
        lambda if_value: make_longtail(source, if_value, seed=cfg["seed"], n_max=longtail["n_max"]),
        longtail["imbalance_factors"], section["mu_values"], grid_config, workers=cfg["workers"],
    )
    rows = [
        (r.imbalance_factor, r.mu_full, r.measured_distance, r.delta, r.loose_bound, r.tight_bound,
         r.lemma2_bound, r.holds["tight"], r.holds["loose"], r.converged_full, r.converged_head)
        for r in reports
    ]
    _write_csv(out_dir / "bounds.csv", BOUNDS_CSV_HEADER, rows)

    ok = [r for r in reports if not r.failed]
    print(f"bound grid: {len(reports)} cells, {len(reports) - len(ok)} failed")
    for bound in ("tight", "loose", "lemma2") if section["compute_lemma2"] else ("tight", "loose"):
        print(f"  {bound} bound holds: {sum(r.holds.get(bound, False) for r in ok)}/{len(ok)}")
    return grid_exit_code(reports)


def grid_exit_code(reports) -> int:
    """2 if a converged cell violates the tight bound, else 3 if a cell failed, else 0."""
    if any(not r.failed and not r.holds["tight"] for r in reports):
        return 2
    return 3 if any(r.failed for r in reports) else 0


def run_ltr_two_phase(cfg: dict, out_dir: Path) -> int:
    """Train Phase 1 once, then each strategy's Phase 2 from it, and write the
    accuracy diff of each pair of strategies that succeeded."""
    longtail = cfg["longtail"]
    source = _load_dataset(cfg, "train")
    test_dataset = _load_dataset(cfg, "test")
    lt = make_longtail(source, longtail["imbalance_factor"], seed=cfg["seed"], n_max=longtail["n_max"])
    spec = LossSpec(mu=cfg["loss"]["mu"])
    phase1_config = _train_config(cfg["phase1"], seed=cfg["seed"])
    if cfg["model"]["kind"] == "linear":
        model = LinearModel.zeros(lt.n_features, lt.n_classes)
    else:
        sizes = [lt.n_features, *cfg["model"]["hidden_sizes"], lt.n_classes]
        model = MlpModel.initialize(sizes, seed=cfg["seed"])

    def run_one(name):
        """The strategy's result, or the LtclError that ended it."""
        settings = cfg["strategy_overrides"][name]
        seed = cfg["seed"] + _PHASE2_SEED_OFFSET[name]
        phase2_config = _train_config(settings, seed=seed)
        cl_settings = {key: value for key, value in settings.items() if key not in TRAIN_TYPES}
        try:
            return run_tail_phase(name, head_phase, split, phase2_config, spec, test_dataset,
                                  phase1_config.seed, **cl_settings)
        except LtclError as exc:
            return exc

    names = cfg["strategies"]
    try:
        split = head_tail_split(lt, longtail["head_fraction"])
        head_phase = run_head_phase(split, phase1_config, spec, model, test_dataset)
    except LtclError as exc:  # no head class, or phase 1 failed: every strategy fails with it
        outcomes = dict.fromkeys(names, exc)
    else:
        save_checkpoint(head_phase.model_after_head, out_dir / "model_head.ckpt")
        with ThreadPoolExecutor(max_workers=cfg["workers"]) as pool:
            outcomes = dict(zip(names, pool.map(run_one, names)))
    results = {name: res for name, res in outcomes.items() if not isinstance(res, LtclError)}

    summary_rows = []
    for name, res in outcomes.items():
        if name not in results:
            summary_rows.append((name, None, None, None, None, None, None, f"failed: {res}"))
            continue
        head, tail = sorted(split.head_classes), sorted(split.tail_classes)
        before, after = res.metrics_before, res.metrics_after
        acc_before, acc_after = before.per_class_accuracy, after.per_class_accuracy
        head_before, head_after = float(acc_before[head].mean()), float(acc_after[head].mean())
        tail_after = float(acc_after[tail].mean()) if tail else float("nan")
        summary_rows.append((name, before.avg_class_accuracy, after.avg_class_accuracy, head_before,
                             head_after, head_before - head_after, tail_after, "ok"))
        transfer = transfer_decomposition(acc_before, acc_after, split.head_classes)
        rows = zip(range(lt.n_classes), after.n_test_per_class, acc_before, acc_after,
                   transfer.per_class_delta, transfer.per_class_region,
                   before.per_class_weight_norm, after.per_class_weight_norm)
        _write_csv(out_dir / f"metrics_{name}.csv", METRICS_CSV_HEADER, rows)
        save_checkpoint(res.model_after_tail, out_dir / f"model_{name}_tail.ckpt")
    _write_csv(out_dir / "summary.csv", SUMMARY_CSV_HEADER, summary_rows)

    for a, b in combinations(results, 2):
        diff = accuracy_diff(results[a].metrics_after, results[b].metrics_after)
        _write_csv(out_dir / f"accdiff_{a}_vs_{b}.csv", "class,diff", enumerate(diff))

    for row in summary_rows:
        print(f"{row[0]}: avg class acc {_fmt(row[2]) or 'n/a'} ({row[-1]})")
    return 3 if len(results) < len(names) else 0


def _read_csv(path: Path) -> list[dict]:
    return list(csv.DictReader(path.read_text().splitlines()))


def emit_plot_data(results_dir: Path, kind: str, out_dir: Path) -> int:
    """Reshape run outputs into long-format x/y series files."""
    if kind == "distance-vs-if":
        rows = sorted(_read_csv(results_dir / "bounds.csv"), key=lambda r: (float(r["mu"]), float(r["if"])))
        out_rows = [(f"mu={r['mu']}", r["if"], r["measured_distance"]) for r in rows]
        _write_csv(out_dir / "plot_distance_vs_if.csv", "series,x,y", out_rows)
        return 0
    if kind not in ("per-class-delta", "per-class-norm"):
        raise ConfigError("kind", f"unknown plot kind {kind!r}")
    # the last run's strategies: metrics CSVs of an earlier run may share the directory
    names = [row["strategy"] for row in _read_csv(results_dir / "summary.csv") if row["status"] == "ok"]
    tables = {name: _read_csv(results_dir / f"metrics_{name}.csv") for name in names}
    if not tables:
        raise ConfigError("results", f"no strategy succeeded in {results_dir / 'summary.csv'}")
    if kind == "per-class-delta":
        for name, rows in tables.items():
            out_rows = [(r["class"], r["delta"], r["region"]) for r in rows]
            _write_csv(out_dir / f"plot_per_class_delta_{name}.csv", "class,delta,region", out_rows)
    else:
        out_rows = [(name, r["class"], r["weight_norm_after"]) for name, rows in tables.items() for r in rows]
        _write_csv(out_dir / "plot_per_class_norm.csv", "series,class,norm", out_rows)
    return 0


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, as on any validation error: argparse's own 2 means a bound violation here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ltcl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMAND_KINDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--workers", type=int, default=None)
    p = sub.add_parser("plot-data")
    p.add_argument("--results", required=True)
    p.add_argument("--kind", required=True)
    p.add_argument("--out", default=None)
    return parser


def _make_dir(path) -> Path:
    """The output directory, made if missing; a path that cannot be one is a validation error."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # an existing file, or a file on the path
        raise ConfigError("output_dir", f"cannot make directory {path}: {exc}") from None
    return Path(path)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "plot-data":
            return emit_plot_data(Path(args.results), args.kind, _make_dir(args.out or args.results))
        raw = load_config(args.config)
        for key in ("seed", "workers"):
            if getattr(args, key) is not None:
                raw[key] = getattr(args, key)
        cfg = validate_config(raw)
        if cfg["kind"] != SUBCOMMAND_KINDS[args.command]:
            raise ConfigError("kind", f"config kind {cfg['kind']!r} does not match subcommand")
        out = args.out or cfg["output_dir"]
        if not out:
            raise ConfigError("output_dir", "set output_dir in the config or pass --out")
        out_dir = _make_dir(out)
        cfg["output_dir"] = str(out_dir)
        code = (run_bound_grid if cfg["kind"] == "bound_grid" else run_ltr_two_phase)(cfg, out_dir)
        manifest = {"code_version": __version__, "resolved_config": cfg}
        (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        return code
    except (LtclError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, (ConfigError, FileNotFoundError)) else 3


if __name__ == "__main__":
    sys.exit(main())
