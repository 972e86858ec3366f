"""Balanced-test evaluation: per-class accuracy, weight norms, and the
forgetting / backward-transfer / forward-transfer decomposition."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datasets import LabeledDataset
from .errors import CoverageError, ShapeMismatchError, UnsupportedModelError

FORGETTING = "forgetting"
BACKWARD_TRANSFER = "backward_transfer"
FORWARD_TRANSFER = "forward_transfer"
UNCHANGED = "unchanged"
REGIONS = (FORGETTING, BACKWARD_TRANSFER, FORWARD_TRANSFER, UNCHANGED)


@dataclass
class MetricsReport:
    per_class_accuracy: np.ndarray
    avg_class_accuracy: float
    per_class_weight_norm: np.ndarray
    n_test_per_class: np.ndarray


@dataclass
class TransferDecomposition:
    per_class_delta: np.ndarray
    per_class_region: list
    # tail classes that regressed; labeled unchanged but listed here
    tail_regressions: list = field(default_factory=list)


def per_class_accuracy(model, test_dataset: LabeledDataset) -> np.ndarray:
    """Fraction of correct argmax predictions per class.

    Ties at the argmax resolve to the smallest class index.
    """
    counts = test_dataset.class_counts
    if np.any(counts == 0):
        missing = int(np.flatnonzero(counts == 0)[0])
        raise CoverageError(f"test set has no samples for class {missing}")
    logits = model.forward(test_dataset.features)
    if logits.shape[1] != test_dataset.n_classes:
        raise ShapeMismatchError(
            f"model predicts {logits.shape[1]} classes, test set has {test_dataset.n_classes}"
        )
    labels = test_dataset.labels
    correct = labels[np.argmax(logits, axis=1) == labels]
    return np.bincount(correct, minlength=test_dataset.n_classes) / counts


def per_class_weight_norms(model) -> np.ndarray:
    """Euclidean norm of each final-layer weight row, bias excluded."""
    final = getattr(model, "final_weights", None)
    if final is None or np.ndim(final) != 2:
        raise UnsupportedModelError("model has no per-class final weight layer")
    return np.linalg.norm(final, axis=1)


def evaluate(model, test_dataset: LabeledDataset) -> MetricsReport:
    acc = per_class_accuracy(model, test_dataset)
    return MetricsReport(
        per_class_accuracy=acc,
        avg_class_accuracy=float(acc.mean()),  # count-independent: each class weighs the same
        per_class_weight_norm=per_class_weight_norms(model),
        n_test_per_class=test_dataset.class_counts.copy(),
    )


def transfer_decomposition(acc_before, acc_after, head_classes) -> TransferDecomposition:
    """Label each class by how its accuracy moved across Phase 2.

    Head classes: down = forgetting, up = backward transfer. Tail
    classes: up = forward transfer. Zero deltas are unchanged. A tail
    class that regressed (possible only when Phase 1 guessed it right by
    luck) is labeled unchanged and reported in tail_regressions.
    """
    acc_before = np.asarray(acc_before, dtype=np.float64)
    acc_after = np.asarray(acc_after, dtype=np.float64)
    if acc_before.shape != acc_after.shape:
        raise ShapeMismatchError(
            f"accuracy vectors differ in shape: {acc_before.shape} vs {acc_after.shape}"
        )
    head = set(int(c) for c in head_classes)
    if not head <= set(range(len(acc_before))):  # an unknown class would be ignored, silently
        raise ValueError(f"head_classes must lie in 0..{len(acc_before) - 1}, got {sorted(head)!r}")
    delta = acc_after - acc_before
    regions = []
    tail_regressions = []
    for c, d in enumerate(delta):
        if c in head:
            if d < 0:
                regions.append(FORGETTING)
            elif d > 0:
                regions.append(BACKWARD_TRANSFER)
            else:
                regions.append(UNCHANGED)
        else:
            if d > 0:
                regions.append(FORWARD_TRANSFER)
            else:
                if d < 0:
                    tail_regressions.append(c)
                regions.append(UNCHANGED)
    return TransferDecomposition(delta, regions, tail_regressions)

