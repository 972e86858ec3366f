"""Config-driven experiment runner.

Subcommands: bound-grid, two-phase, compare, plot-data. Configs are
YAML (or JSON) with a strict schema: unknown keys are errors. Every run
writes a manifest with the fully resolved config; rerunning from the
manifest reproduces the CSV outputs byte for byte.

Exit codes: 0 success, 1 validation error, 2 bound violation, 3 runtime
failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import yaml

from . import __version__
from .bounds import BoundGridConfig, bound_grid
from .continual import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_CL_WEIGHTS,
    DEFAULT_ENERGY_THRESHOLD,
    DEFAULT_FISHER_MAX_SAMPLES,
    DEFAULT_TEMPERATURE,
    VARIANTS,
    PHASE2_DEFAULTS,
    run_two_phase,
)
from .datasets import (
    head_tail_split,
    load_idx,
    make_longtail,
    mean_pool_images,
    synthetic_gaussian,
)
from .errors import ConfigError, LtclError
from .models import LinearModel, LossSpec, MlpModel, save_checkpoint
from .training import TrainConfig

KINDS = ("bound_grid", "ltr_two_phase", "compare")
SCHEMA_VERSION = 1

BOUNDS_CSV_HEADER = (
    "if,mu,measured_distance,delta_hat,loose_bound,tight_bound,lemma2_bound,"
    "holds_tight,holds_loose,converged_full,converged_head"
)
METRICS_CSV_HEADER = (
    "class,count,acc_before,acc_after,delta,region,"
    "weight_norm_before,weight_norm_after"
)
SUMMARY_CSV_HEADER = (
    "strategy,avg_class_acc_before,avg_class_acc_after,"
    "head_acc_before,head_acc_after,head_acc_drop,tail_acc_after,status"
)

# stable per-strategy phase-2 seed offsets, independent of list order
_PHASE2_SEED_OFFSET = {name: i + 1 for i, name in enumerate(VARIANTS)}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _check_keys(section: dict, allowed, path: str) -> None:
    for key in section:
        if key not in allowed:
            where = f"{path}.{key}" if path else str(key)
            raise ConfigError(where, "unknown key")


def _get(section: dict, path: str, key: str, kind, default=None, required=False):
    if key not in section or section[key] is None:
        if required:
            raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
        return default
    value = section[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
        name = kind.__name__ if isinstance(kind, type) else "number"
        raise ConfigError(
            f"{path}.{key}" if path else key,
            f"expected {name}, got {type(value).__name__}",
        )
    return value


def load_config(path) -> dict:
    with open(path) as fh:
        text = fh.read()
    if str(path).endswith(".json"):
        raw = json.loads(text)
    else:
        raw = yaml.safe_load(text)
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a mapping")
    if "resolved_config" in raw:  # manifest file
        raw = raw["resolved_config"]
        if not isinstance(raw, dict):
            raise ConfigError("resolved_config", "must be a mapping")
    return raw


def _validate_dataset(raw: dict, kind: str) -> dict:
    allowed = {
        "source",
        "n_classes",
        "n_features",
        "n_per_class",
        "class_separation",
        "test_n_per_class",
        "train_images",
        "train_labels",
        "test_images",
        "test_labels",
        "pool_factor",
    }
    _check_keys(raw, allowed, "dataset")
    source = _get(raw, "dataset", "source", str, required=True)
    if source not in ("synthetic", "idx"):
        raise ConfigError("dataset.source", f"must be 'synthetic' or 'idx', got {source!r}")
    out = {"source": source}
    if source == "synthetic":
        out["n_classes"] = _get(raw, "dataset", "n_classes", int, default=10)
        out["n_features"] = _get(raw, "dataset", "n_features", int, default=64)
        out["n_per_class"] = _get(raw, "dataset", "n_per_class", int, default=500)
        out["class_separation"] = _get(raw, "dataset", "class_separation", float, default=3.0)
        out["test_n_per_class"] = _get(raw, "dataset", "test_n_per_class", int, default=200)
        for field in ("n_classes", "n_features", "n_per_class", "test_n_per_class"):
            if out[field] < 1:
                raise ConfigError(f"dataset.{field}", "must be >= 1")
        if out["class_separation"] <= 0:
            raise ConfigError("dataset.class_separation", "must be positive")
    else:
        needed = ["train_images", "train_labels"]
        if kind != "bound_grid":
            needed += ["test_images", "test_labels"]
        for field in needed:
            value = _get(raw, "dataset", field, str, required=True)
            if not Path(value).exists():
                raise ConfigError(f"dataset.{field}", f"file not found: {value}")
            out[field] = value
        for field in ("test_images", "test_labels"):
            value = raw.get(field)
            if field not in out and value is not None:
                if not Path(value).exists():
                    raise ConfigError(f"dataset.{field}", f"file not found: {value}")
                out[field] = value
    pool = _get(raw, "dataset", "pool_factor", int)
    if pool is not None and pool < 1:
        raise ConfigError("dataset.pool_factor", "must be >= 1")
    out["pool_factor"] = pool
    return out


def _validate_longtail(raw: dict, kind: str) -> dict:
    _check_keys(raw, {"imbalance_factors", "imbalance_factor", "head_fraction", "n_max"}, "longtail")
    out = {"head_fraction": _get(raw, "longtail", "head_fraction", float, default=0.6)}
    if not 0.0 < out["head_fraction"] <= 1.0:
        raise ConfigError("longtail.head_fraction", "must be in (0, 1]")
    out["n_max"] = _get(raw, "longtail", "n_max", int)
    if kind == "bound_grid":
        values = _get(raw, "longtail", "imbalance_factors", list, required=True)
        if not values or not all(isinstance(v, (int, float)) and v >= 1 for v in values):
            raise ConfigError("longtail.imbalance_factors", "must be a list of numbers >= 1")
        out["imbalance_factors"] = [float(v) for v in values]
    else:
        value = _get(raw, "longtail", "imbalance_factor", (int, float), required=True)
        if value < 1:
            raise ConfigError("longtail.imbalance_factor", "must be >= 1")
        out["imbalance_factor"] = float(value)
    return out


def _validate_train_section(raw: dict, path: str, defaults: dict) -> dict:
    allowed = {"learning_rate", "momentum", "epochs", "batch_size", "schedule", "lr_min"}
    _check_keys(raw, allowed, path)
    out = dict(defaults)
    for field, kind in (
        ("learning_rate", float),
        ("momentum", float),
        ("epochs", int),
        ("batch_size", int),
        ("schedule", str),
        ("lr_min", float),
    ):
        if field in raw and raw[field] is not None:
            out[field] = _get(raw, path, field, kind)
    try:
        TrainConfig(
            learning_rate=out["learning_rate"],
            momentum=out["momentum"],
            epochs=out["epochs"],
            batch_size=out.get("batch_size"),
            schedule=out.get("schedule", "constant"),
            lr_min=out.get("lr_min", 0.0),
        )
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None
    return out


def _validate_strategy_override(raw: dict, name: str) -> dict:
    path = f"strategy_overrides.{name}"
    allowed = {
        "learning_rate",
        "momentum",
        "epochs",
        "batch_size",
        "schedule",
        "lr_min",
        "cl_weight",
        "temperature",
        "energy_threshold",
        "fisher_max_samples",
    }
    _check_keys(raw, allowed, path)
    out = {}
    for field, kind in (
        ("learning_rate", float),
        ("momentum", float),
        ("epochs", int),
        ("batch_size", int),
        ("schedule", str),
        ("lr_min", float),
        ("cl_weight", float),
        ("temperature", float),
        ("energy_threshold", float),
        ("fisher_max_samples", int),
    ):
        if field in raw and raw[field] is not None:
            out[field] = _get(raw, path, field, kind)
    return out


def validate_config(raw: dict) -> dict:
    """Validate a raw config mapping and return it with defaults resolved."""
    top_allowed = {
        "schema_version",
        "kind",
        "seed",
        "output_dir",
        "workers",
        "dataset",
        "longtail",
        "bound_grid",
        "loss",
        "model",
        "phase1",
        "strategies",
        "strategy_overrides",
    }
    _check_keys(raw, top_allowed, "")
    version = _get(raw, "", "schema_version", int, required=True)
    if version != SCHEMA_VERSION:
        raise ConfigError("schema_version", f"unsupported version {version}")
    kind = _get(raw, "", "kind", str, required=True)
    if kind not in KINDS:
        raise ConfigError("kind", f"must be one of {KINDS}, got {kind!r}")

    cfg = {
        "schema_version": version,
        "kind": kind,
        "seed": _get(raw, "", "seed", int, default=0),
        "workers": _get(raw, "", "workers", int, default=1),
        "output_dir": _get(raw, "", "output_dir", str),
    }
    if cfg["workers"] < 1:
        raise ConfigError("workers", "must be >= 1")

    dataset_raw = _get(raw, "", "dataset", dict, required=True)
    cfg["dataset"] = _validate_dataset(dataset_raw, kind)
    longtail_raw = _get(raw, "", "longtail", dict, required=True)
    cfg["longtail"] = _validate_longtail(longtail_raw, kind)

    if kind == "bound_grid":
        section = _get(raw, "", "bound_grid", dict, required=True)
        allowed = {"mu_values", "grad_tolerance", "max_epochs", "delta_probes", "compute_lemma2"}
        _check_keys(section, allowed, "bound_grid")
        mu_values = _get(section, "bound_grid", "mu_values", list, required=True)
        if not mu_values or not all(isinstance(v, (int, float)) and v > 0 for v in mu_values):
            raise ConfigError("bound_grid.mu_values", "must be a list of positive numbers")
        cfg["bound_grid"] = {
            "mu_values": [float(v) for v in mu_values],
            "grad_tolerance": _get(section, "bound_grid", "grad_tolerance", float, default=1e-8),
            "max_epochs": _get(section, "bound_grid", "max_epochs", int, default=200_000),
            "delta_probes": _get(section, "bound_grid", "delta_probes", int, default=64),
            "compute_lemma2": _get(section, "bound_grid", "compute_lemma2", bool, default=False),
        }
        if cfg["bound_grid"]["grad_tolerance"] <= 0:
            raise ConfigError("bound_grid.grad_tolerance", "must be positive")
        if cfg["bound_grid"]["max_epochs"] < 1:
            raise ConfigError("bound_grid.max_epochs", "must be >= 1")
        for extra in ("loss", "model", "phase1", "strategies", "strategy_overrides"):
            if raw.get(extra) is not None:
                raise ConfigError(extra, f"not valid for kind {kind}")
        return cfg

    loss_raw = _get(raw, "", "loss", dict, default={})
    _check_keys(loss_raw, {"mu"}, "loss")
    mu = _get(loss_raw, "loss", "mu", float, default=1e-4)
    if mu < 0:
        raise ConfigError("loss.mu", "must be >= 0")
    cfg["loss"] = {"mu": mu}

    model_raw = _get(raw, "", "model", dict, default={})
    _check_keys(model_raw, {"kind", "hidden_sizes"}, "model")
    model_kind = _get(model_raw, "model", "kind", str, default="mlp")
    if model_kind not in ("mlp", "linear"):
        raise ConfigError("model.kind", f"must be 'mlp' or 'linear', got {model_kind!r}")
    hidden = _get(model_raw, "model", "hidden_sizes", list, default=[64])
    if model_kind == "mlp" and (
        not hidden or not all(isinstance(h, int) and h >= 1 for h in hidden)
    ):
        raise ConfigError("model.hidden_sizes", "must be a list of positive integers")
    cfg["model"] = {"kind": model_kind, "hidden_sizes": hidden if model_kind == "mlp" else []}

    phase1_raw = _get(raw, "", "phase1", dict, default={})
    cfg["phase1"] = _validate_train_section(
        phase1_raw,
        "phase1",
        dict(
            learning_rate=0.01,
            momentum=0.9,
            epochs=30,
            batch_size=DEFAULT_BATCH_SIZE,
            schedule="constant",
            lr_min=0.0,
        ),
    )

    strategies = _get(raw, "", "strategies", list, required=True)
    if not strategies:
        raise ConfigError("strategies", "must be a non-empty list")
    for name in strategies:
        if name not in VARIANTS:
            raise ConfigError("strategies", f"unknown strategy {name!r}")
    if len(set(strategies)) != len(strategies):
        raise ConfigError("strategies", "contains duplicates")
    cfg["strategies"] = list(strategies)

    overrides_raw = _get(raw, "", "strategy_overrides", dict, default={})
    for name in overrides_raw:
        if name not in VARIANTS:
            raise ConfigError("strategy_overrides", f"unknown strategy {name!r}")
        _validate_strategy_override(overrides_raw[name] or {}, name)
    resolved = {}
    for name in cfg["strategies"]:
        override = _validate_strategy_override(overrides_raw.get(name, {}) or {}, name)
        base = dict(PHASE2_DEFAULTS[name])
        base["batch_size"] = DEFAULT_BATCH_SIZE
        base["lr_min"] = 0.0
        settings = {
            "cl_weight": DEFAULT_CL_WEIGHTS.get(name, 0.0),
            "temperature": DEFAULT_TEMPERATURE,
            "energy_threshold": DEFAULT_ENERGY_THRESHOLD,
            "fisher_max_samples": DEFAULT_FISHER_MAX_SAMPLES,
        }
        for key, value in override.items():
            if key in settings:
                settings[key] = value
            else:
                base[key] = value
        try:
            TrainConfig(
                learning_rate=base["learning_rate"],
                momentum=base["momentum"],
                epochs=base["epochs"],
                batch_size=base.get("batch_size"),
                schedule=base["schedule"],
                lr_min=base["lr_min"],
            )
        except ValueError as exc:
            raise ConfigError(f"strategy_overrides.{name}", str(exc)) from None
        resolved[name] = {**base, **settings}
    cfg["strategy_overrides"] = resolved
    return cfg


def _maybe_pool(dataset, pool_factor):
    if pool_factor and pool_factor > 1:
        return mean_pool_images(dataset, pool_factor)
    return dataset


def _build_train_source(cfg: dict):
    ds = cfg["dataset"]
    if ds["source"] == "synthetic":
        source = synthetic_gaussian(
            ds["n_classes"],
            ds["n_features"],
            ds["n_per_class"],
            ds["class_separation"],
            seed=cfg["seed"],
        )
    else:
        source = load_idx(ds["train_images"], ds["train_labels"])
    return _maybe_pool(source, ds["pool_factor"])


def _build_test_dataset(cfg: dict):
    ds = cfg["dataset"]
    if ds["source"] == "synthetic":
        test = synthetic_gaussian(
            ds["n_classes"],
            ds["n_features"],
            ds["test_n_per_class"],
            ds["class_separation"],
            seed=cfg["seed"] + 999_983,
        )
    else:
        test = load_idx(ds["test_images"], ds["test_labels"])
    return _maybe_pool(test, ds["pool_factor"])


def _write_manifest(cfg: dict, out_dir: Path) -> None:
    manifest = {"code_version": __version__, "resolved_config": cfg}
    out_dir.joinpath("manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def run_bound_grid(cfg: dict, out_dir: Path) -> int:
    section = cfg["bound_grid"]
    source = _build_train_source(cfg)
    grid_config = BoundGridConfig(
        head_fraction=cfg["longtail"]["head_fraction"],
        grad_tolerance=section["grad_tolerance"],
        max_epochs=section["max_epochs"],
        delta_probes=section["delta_probes"],
        compute_lemma2=section["compute_lemma2"],
    )

    def builder(if_value):
        return make_longtail(
            source, if_value, seed=cfg["seed"], n_max=cfg["longtail"]["n_max"]
        )

    reports = bound_grid(
        builder,
        cfg["longtail"]["imbalance_factors"],
        section["mu_values"],
        grid_config,
        workers=cfg["workers"],
    )

    rows = []
    for r in reports:
        holds = r.holds
        rows.append(
            (
                r.imbalance_factor,
                r.mu_full,
                r.measured_distance,
                r.delta,
                r.loose_bound,
                r.tight_bound,
                r.lemma2_bound,
                False if r.failed else holds["tight"],
                False if r.failed else holds["loose"],
                r.converged_full,
                r.converged_head,
            )
        )
    _write_csv(out_dir / "bounds.csv", BOUNDS_CSV_HEADER, rows)
    _write_manifest(cfg, out_dir)

    ok = [r for r in reports if not r.failed]
    failed = [r for r in reports if r.failed]
    n_tight = sum(r.holds["tight"] for r in ok)
    n_loose = sum(r.holds["loose"] for r in ok)
    print(f"bound grid: {len(reports)} cells, {len(failed)} failed")
    print(f"  tight bound holds: {n_tight}/{len(ok)}")
    print(f"  loose bound holds: {n_loose}/{len(ok)}")
    if section["compute_lemma2"]:
        n_l2 = sum(r.holds.get("lemma2", False) for r in ok)
        print(f"  lemma2 bound holds: {n_l2}/{len(ok)}")
    return grid_exit_code(reports)


def grid_exit_code(reports) -> int:
    ok = [r for r in reports if not r.failed]
    if any(not r.holds["tight"] for r in ok):
        return 2
    if len(ok) < len(reports):
        return 3
    return 0


def _strategy_train_config(cfg: dict, name: str) -> TrainConfig:
    s = cfg["strategy_overrides"][name]
    return TrainConfig(
        learning_rate=s["learning_rate"],
        momentum=s["momentum"],
        epochs=s["epochs"],
        batch_size=s.get("batch_size"),
        schedule=s["schedule"],
        lr_min=s["lr_min"],
        seed=cfg["seed"] + _PHASE2_SEED_OFFSET[name],
    )


def _build_model(cfg: dict, n_features: int, n_classes: int):
    if cfg["model"]["kind"] == "linear":
        return LinearModel.zeros(n_features, n_classes)
    sizes = [n_features] + list(cfg["model"]["hidden_sizes"]) + [n_classes]
    return MlpModel.initialize(sizes, seed=cfg["seed"])


def run_ltr_two_phase(cfg: dict, out_dir: Path, pairwise_diffs: bool = False) -> int:
    source = _build_train_source(cfg)
    test_dataset = _build_test_dataset(cfg)
    lt = make_longtail(
        source,
        cfg["longtail"]["imbalance_factor"],
        seed=cfg["seed"],
        n_max=cfg["longtail"]["n_max"],
    )
    split = head_tail_split(lt, cfg["longtail"]["head_fraction"])
    spec = LossSpec(mu=cfg["loss"]["mu"])
    p1 = cfg["phase1"]
    phase1_config = TrainConfig(
        learning_rate=p1["learning_rate"],
        momentum=p1["momentum"],
        epochs=p1["epochs"],
        batch_size=p1.get("batch_size"),
        schedule=p1["schedule"],
        lr_min=p1["lr_min"],
        seed=cfg["seed"],
    )

    def run_one(name):
        settings = cfg["strategy_overrides"][name]
        model = _build_model(cfg, lt.n_features, lt.n_classes)
        return run_two_phase(
            name,
            lt,
            split,
            phase1_config,
            _strategy_train_config(cfg, name),
            spec,
            model=model,
            test_dataset=test_dataset,
            cl_weight=settings["cl_weight"],
            temperature=settings["temperature"],
            energy_threshold=settings["energy_threshold"],
            fisher_max_samples=settings["fisher_max_samples"],
        )

    names = cfg["strategies"]
    results: dict = {}
    failures: dict = {}
    if cfg["workers"] > 1:
        with ThreadPoolExecutor(max_workers=cfg["workers"]) as pool:
            futures = {name: pool.submit(run_one, name) for name in names}
        for name, future in futures.items():
            try:
                results[name] = future.result()
            except LtclError as exc:
                failures[name] = exc
    else:
        for name in names:
            try:
                results[name] = run_one(name)
            except LtclError as exc:
                failures[name] = exc

    head = sorted(split.head_classes)
    summary_rows = []
    for name in names:
        if name in failures:
            summary_rows.append((name, None, None, None, None, None, None, f"failed: {failures[name]}"))
            continue
        res = results[name]
        before = res.metrics_before
        after = res.metrics_after
        head_before = float(before.per_class_accuracy[head].mean())
        head_after = float(after.per_class_accuracy[head].mean())
        tail = sorted(split.tail_classes)
        tail_after = float(after.per_class_accuracy[tail].mean()) if tail else float("nan")
        summary_rows.append(
            (
                name,
                before.avg_class_accuracy,
                after.avg_class_accuracy,
                head_before,
                head_after,
                head_before - head_after,
                tail_after,
                "ok",
            )
        )
        rows = []
        for c in range(lt.n_classes):
            delta = after.per_class_accuracy[c] - before.per_class_accuracy[c]
            if c in split.head_classes:
                region = "forgetting" if delta < 0 else ("backward_transfer" if delta > 0 else "unchanged")
            else:
                region = "forward_transfer" if delta > 0 else "unchanged"
            rows.append(
                (
                    c,
                    int(after.n_test_per_class[c]),
                    float(before.per_class_accuracy[c]),
                    float(after.per_class_accuracy[c]),
                    float(delta),
                    region,
                    float(before.per_class_weight_norm[c]),
                    float(after.per_class_weight_norm[c]),
                )
            )
        _write_csv(out_dir / f"metrics_{name}.csv", METRICS_CSV_HEADER, rows)
        save_checkpoint(res.model_after_head, out_dir / f"model_{name}_head.ckpt")
        save_checkpoint(res.model_after_tail, out_dir / f"model_{name}_tail.ckpt")

    _write_csv(out_dir / "summary.csv", SUMMARY_CSV_HEADER, summary_rows)

    if pairwise_diffs:
        done = [n for n in names if n in results]
        for i, a in enumerate(done):
            for b in done[i + 1 :]:
                diff = (
                    results[a].metrics_after.per_class_accuracy
                    - results[b].metrics_after.per_class_accuracy
                )
                _write_csv(
                    out_dir / f"accdiff_{a}_vs_{b}.csv",
                    "class,diff",
                    [(c, float(d)) for c, d in enumerate(diff)],
                )

    _write_manifest(cfg, out_dir)

    for row in summary_rows:
        print(f"{row[0]}: avg class acc {_fmt(row[2]) or 'n/a'} ({row[-1]})")
    return 3 if failures else 0


def _read_csv(path: Path) -> tuple[list, list]:
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def emit_plot_data(results_dir: Path, kind: str, out_dir: Path) -> int:
    """Reshape run outputs into long-format x/y series files."""
    if kind == "distance-vs-if":
        header, rows = _read_csv(results_dir / "bounds.csv")
        col = {name: i for i, name in enumerate(header)}
        out_rows = [
            (f"mu={row[col['mu']]}", row[col["if"]], row[col["measured_distance"]])
            for row in sorted(rows, key=lambda r: (float(r[col["mu"]]), float(r[col["if"]])))
        ]
        _write_csv(out_dir / "plot_distance_vs_if.csv", "series,x,y", out_rows)
    elif kind == "per-class-delta":
        found = sorted(results_dir.glob("metrics_*.csv"))
        if not found:
            raise ConfigError("results", f"no metrics CSVs under {results_dir}")
        for path in found:
            name = path.stem.removeprefix("metrics_")
            header, rows = _read_csv(path)
            col = {n: i for i, n in enumerate(header)}
            out_rows = [
                (row[col["class"]], row[col["delta"]], row[col["region"]]) for row in rows
            ]
            _write_csv(out_dir / f"plot_per_class_delta_{name}.csv", "class,delta,region", out_rows)
    elif kind == "per-class-norm":
        found = sorted(results_dir.glob("metrics_*.csv"))
        if not found:
            raise ConfigError("results", f"no metrics CSVs under {results_dir}")
        out_rows = []
        for path in found:
            name = path.stem.removeprefix("metrics_")
            header, rows = _read_csv(path)
            col = {n: i for i, n in enumerate(header)}
            out_rows.extend(
                (name, row[col["class"]], row[col["weight_norm_after"]]) for row in rows
            )
        _write_csv(out_dir / "plot_per_class_norm.csv", "series,class,norm", out_rows)
    else:
        raise ConfigError("kind", f"unknown plot kind {kind!r}")
    return 0


def _run_from_args(args) -> int:
    cfg = validate_config(load_config(args.config))
    expected_kind = {"bound-grid": "bound_grid", "two-phase": "ltr_two_phase", "compare": "compare"}[
        args.command
    ]
    if cfg["kind"] != expected_kind:
        raise ConfigError("kind", f"config kind {cfg['kind']!r} does not match subcommand")
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.workers is not None:
        cfg["workers"] = args.workers
    out_dir = Path(args.out) if args.out else (Path(cfg["output_dir"]) if cfg["output_dir"] else None)
    if out_dir is None:
        raise ConfigError("output_dir", "set output_dir in the config or pass --out")
    cfg["output_dir"] = str(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if cfg["kind"] == "bound_grid":
        return run_bound_grid(cfg, out_dir)
    return run_ltr_two_phase(cfg, out_dir, pairwise_diffs=cfg["kind"] == "compare")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ltcl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("bound-grid", "two-phase", "compare"):
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "plot-data":
            results_dir = Path(args.results)
            out_dir = Path(args.out) if args.out else results_dir
            out_dir.mkdir(parents=True, exist_ok=True)
            return emit_plot_data(results_dir, args.kind, out_dir)
        return _run_from_args(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except LtclError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
