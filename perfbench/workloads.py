"""The three benchmark workloads: inputs from a seed, one pass, and its checks.

Each workload builds its inputs in `setup` (timed as setup_s), runs one
pass over them in `run` (timed as run_s together with `check`), and
checks the pass in `check`, which returns (attempted, failed, notes).
An operation is a grid cell or a continual-learning strategy.

Workload seed s gives the sample seeds of the acceptance suite shifted by
1000*s, so seed 0 reproduces the acceptance corpus, LT subsample and
two-phase seeds exactly.
"""
from __future__ import annotations

import contextlib
import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from corpus import surrogate, write_idx
from ltcl import bounds, cli, continual, datasets, models, training
from ltcl.errors import LtclError

HEAD_FRACTION = 0.6
GRAD_TOLERANCE = 1e-8
CL_VARIANTS = ("ewc", "modified_ewc", "lwf", "gpm")
# A CL strategy's average class accuracy may fall below its recorded
# reference by at most this much: about two balanced-test predictions.
ACC_TOLERANCE = 5e-4


def sample_seeds(seed: int) -> dict:
    offset = 1000 * seed
    return {"train": 11 + offset, "test": 12 + offset, "longtail": 13 + offset, "two_phase": 21 + offset}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable  # (seed, workdir, scale) -> inputs
    run: Callable  # (inputs) -> outputs
    check: Callable  # (outputs, reference | None) -> (attempted, failed, notes)
    fingerprint: Callable  # (outputs) -> comparable value, equal across passes
    reference: Callable  # (outputs) -> {key: float} recorded as the reference


def _distance_checks(cells, reference) -> tuple[int, list]:
    """cells: (key, mu, converged, holds: dict, distance). A cell fails when
    unconverged, when a bound does not hold, or when its distance leaves the
    certified radius 4*tol/mu around the recorded reference (each of the
    two minimizers of each of the two runs lies within tol/mu of the true
    minimizer by strong convexity)."""
    failed = 0
    notes = []
    for key, mu, converged, holds, distance in cells:
        problems = [] if converged else ["not converged"]
        problems += [f"{name} bound violated" for name, ok in holds.items() if not ok]
        if reference is not None and key in reference:
            radius = 4.0 * GRAD_TOLERANCE / mu
            if abs(distance - reference[key]) > radius:
                problems.append(f"distance {distance!r} outside {radius:g} of reference {reference[key]!r}")
        if problems:
            failed += 1
            notes.append(f"cell {key}: " + "; ".join(problems))
    return failed, notes


# --- grid784 ---------------------------------------------------------------

GRID784 = dict(n_per_class=1000, n_max=300, imbalance_factors=[100.0], mu_values=[1e-3, 1e-1])


def _grid784_setup(seed, workdir, scale=GRID784):
    s = sample_seeds(seed)
    return {"corpus": surrogate(scale["n_per_class"], s["train"]), "lt_seed": s["longtail"], "scale": scale}


def _grid784_run(inputs):
    scale = inputs["scale"]
    source = inputs["corpus"]
    config = bounds.BoundGridConfig(head_fraction=HEAD_FRACTION, grad_tolerance=GRAD_TOLERANCE)
    try:
        reports = bounds.bound_grid(
            lambda iv: datasets.make_longtail(source, iv, seed=inputs["lt_seed"], n_max=scale["n_max"]),
            scale["imbalance_factors"],
            scale["mu_values"],
            config,
        )
    except LtclError as exc:
        return {"error": repr(exc), "cells": len(scale["imbalance_factors"]) * len(scale["mu_values"])}
    return {"reports": reports}


def _cell_key(imbalance, mu) -> str:
    return f"{float(imbalance)!r},{float(mu)!r}"


def _grid784_check(outputs, reference):
    if "error" in outputs:
        return outputs["cells"], outputs["cells"], [outputs["error"]]
    cells = [
        (_cell_key(r.imbalance_factor, r.mu_full), r.mu_full, not r.failed, r.holds, r.measured_distance)
        for r in outputs["reports"]
    ]
    failed, notes = _distance_checks(cells, reference)
    return len(cells), failed, notes


def _grid784_fingerprint(outputs):
    if "error" in outputs:
        return outputs["error"]
    return [
        (r.measured_distance, r.delta, r.tight_bound, r.loose_bound, r.epochs_full, r.epochs_head)
        for r in outputs["reports"]
    ]


def _grid784_reference(outputs):
    return {_cell_key(r.imbalance_factor, r.mu_full): r.measured_distance for r in outputs["reports"]}


# --- lemma2_cli ------------------------------------------------------------

LEMMA2_CLI = dict(n_per_class=1000, n_max=500, imbalance_factors=[100.0], mu_values=[1e-2, 1e-1])


def _lemma2_setup(seed, workdir, scale=LEMMA2_CLI):
    s = sample_seeds(seed)
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    images, labels = workdir / "train-images-idx3-ubyte", workdir / "train-labels-idx1-ubyte"
    write_idx(surrogate(scale["n_per_class"], s["train"]), images, labels)
    config = {
        "schema_version": 1,
        "kind": "bound_grid",
        "seed": s["longtail"],
        "workers": 1,
        "dataset": {"source": "idx", "train_images": str(images), "train_labels": str(labels), "pool_factor": 2},
        "longtail": {
            "imbalance_factors": scale["imbalance_factors"],
            "head_fraction": HEAD_FRACTION,
            "n_max": scale["n_max"],
        },
        "bound_grid": {"mu_values": scale["mu_values"], "grad_tolerance": GRAD_TOLERANCE, "compute_lemma2": True},
    }
    config_path = workdir / "bound_grid.yaml"
    config_path.write_text(yaml.safe_dump(config))
    return {"config": config_path, "out": workdir / "out"}


def _lemma2_run(inputs):
    out = inputs["out"]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["bound-grid", "--config", str(inputs["config"]), "--out", str(out)])
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}
    return {"exit_code": code, "files": files}


def _bounds_rows(outputs) -> list:
    text = outputs["files"].get("bounds.csv", b"").decode()
    return list(csv.DictReader(io.StringIO(text)))


def _lemma2_check(outputs, reference):
    rows = _bounds_rows(outputs)
    if outputs["exit_code"] != 0 or not rows:
        n = max(len(rows), 1)
        return n, n, [f"exit code {outputs['exit_code']}, {len(rows)} rows"]
    cells = []
    for row in rows:
        distance = float(row["measured_distance"])
        lemma2 = float(row["lemma2_bound"]) if row["lemma2_bound"] else float("nan")
        holds = {
            "tight": row["holds_tight"] == "true",
            "loose": row["holds_loose"] == "true",
            "lemma2": distance <= lemma2,
        }
        converged = row["converged_full"] == "true" and row["converged_head"] == "true"
        cells.append((_cell_key(row["if"], row["mu"]), float(row["mu"]), converged, holds, distance))
    failed, notes = _distance_checks(cells, reference)
    return len(cells), failed, notes


def _lemma2_fingerprint(outputs):
    # bounds.csv must be byte-identical across passes; the manifest holds
    # the output path, which is the same for every pass of one run.
    return outputs["exit_code"], outputs["files"].get("bounds.csv"), outputs["files"].get("manifest.json")


def _lemma2_reference(outputs):
    return {_cell_key(row["if"], row["mu"]): float(row["measured_distance"]) for row in _bounds_rows(outputs)}


# --- two_phase -------------------------------------------------------------

TWO_PHASE = dict(n_per_class=3000, n_test_per_class=500, imbalance_factor=100.0, hidden=64,
                 phase1_epochs=8, phase1_batch=64, phase2_batch=8, gpm_batch=2, mu=1e-4)


def _two_phase_setup(seed, workdir, scale=TWO_PHASE):
    s = sample_seeds(seed)
    longtail = datasets.make_longtail(surrogate(scale["n_per_class"], s["train"]), scale["imbalance_factor"], seed=s["longtail"])
    return {
        "longtail": longtail,
        "split": datasets.head_tail_split(longtail, HEAD_FRACTION),
        "test": surrogate(scale["n_test_per_class"], s["test"]),
        "seed": s["two_phase"],
        "scale": scale,
    }


def _two_phase_run(inputs):
    scale, seed, lt, split = inputs["scale"], inputs["seed"], inputs["longtail"], inputs["split"]
    head = sorted(split.head_classes)
    spec = models.LossSpec(mu=scale["mu"])
    phase1 = training.TrainConfig(
        learning_rate=0.01, momentum=0.9, epochs=scale["phase1_epochs"], batch_size=scale["phase1_batch"], seed=seed
    )
    results = {}
    for variant in continual.VARIANTS:
        model = models.MlpModel.initialize([lt.n_features, scale["hidden"], lt.n_classes], seed=seed)
        batch = scale["gpm_batch"] if variant == "gpm" else scale["phase2_batch"]
        phase2 = continual.default_phase2_config(variant, seed=seed + 1, batch_size=batch)
        try:
            res = continual.run_two_phase(
                variant, lt, split, phase1, phase2, spec, model=model, test_dataset=inputs["test"]
            )
        except LtclError as exc:
            results[variant] = {"error": repr(exc)}
            continue
        before, after = res.metrics_before.per_class_accuracy, res.metrics_after.per_class_accuracy
        entry = {
            "avg_class_acc": res.metrics_after.avg_class_accuracy,
            "head_drop": float(before[head].mean() - after[head].mean()),
        }
        if variant == "gpm":
            entry["max_inspan_ratio"] = max(res.gpm_projection_ratios)
            entry["basis_orthonormality"] = max(
                float(np.max(np.abs(b.T @ b - np.eye(b.shape[1])))) for b in res.state.bases
            )
        results[variant] = entry
    return {"strategies": results}


def avg_class_acc(outputs) -> float:
    """Mean over the four CL strategies of the phase-2 average class accuracy."""
    return float(np.mean([outputs["strategies"][v].get("avg_class_acc", np.nan) for v in CL_VARIANTS]))


def _two_phase_check(outputs, reference):
    strategies = outputs["strategies"]
    notes = [f"{v}: {r['error']}" for v, r in strategies.items() if "error" in r]
    failed = len(notes)
    naive = strategies["naive"]
    for variant in CL_VARIANTS:
        res = strategies[variant]
        if "error" in res:
            continue
        problems = []
        # acceptance criterion 6
        if "error" in naive or not (
            res["avg_class_acc"] > naive["avg_class_acc"] and res["head_drop"] < naive["head_drop"]
        ):
            problems.append("does not beat naive on average accuracy and head drop")
        # acceptance criterion 7
        if variant == "gpm" and not (res["max_inspan_ratio"] <= 1e-6 and res["basis_orthonormality"] <= 1e-8):
            problems.append(f"in-span ratio {res['max_inspan_ratio']:.2e}, orthonormality {res['basis_orthonormality']:.2e}")
        if reference is not None and variant in reference and res["avg_class_acc"] < reference[variant] - ACC_TOLERANCE:
            problems.append(f"avg class acc {res['avg_class_acc']!r} below reference {reference[variant]!r}")
        if problems:
            failed += 1
            notes.append(f"{variant}: " + "; ".join(problems))
    return len(strategies), failed, notes


def _two_phase_fingerprint(outputs):
    return sorted((v, sorted(r.items())) for v, r in outputs["strategies"].items())


def _two_phase_reference(outputs):
    return {v: r["avg_class_acc"] for v, r in outputs["strategies"].items() if "avg_class_acc" in r}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grid784",
            "784-d bound grid (IF=100, mu=1e-3 and 1e-1): heavy-ball minimizer solves and full-batch "
            "linear gradients do nearly all the work; no Hessian, eigensolve, IO or continual code",
            _grid784_setup, _grid784_run, _grid784_check, _grid784_fingerprint, _grid784_reference,
        ),
        Workload(
            "lemma2_cli",
            "ltcl bound-grid on uint8 IDX files, pooled to 14x14 with Lemma 2: the only workload with the "
            "dense Hessian, eigensolve, IDX parsing, pooling and CSV/manifest writing",
            _lemma2_setup, _lemma2_run, _lemma2_check, _lemma2_fingerprint, _lemma2_reference,
        ),
        Workload(
            "two_phase",
            "five-strategy head-then-tail run at the acceptance settings: small-batch MLP steps, Python "
            "per-step cost, Fisher loop and GPM projection dominate; bounds never runs",
            _two_phase_setup, _two_phase_run, _two_phase_check, _two_phase_fingerprint, _two_phase_reference,
        ),
    )
}
