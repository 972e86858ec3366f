"""Deterministic fixed-budget SGD with classical momentum.

Every epoch is one pass over batches: the whole dataset as one batch
when batch_size is None, otherwise the chunks of a seeded permutation.
Minimizers that must be certified come from `bounds`, not from here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datasets import LabeledDataset
from .errors import AT_LEAST_0_BELOW_1, COUNT, FINITE_POSITIVE, SEED, DivergenceError, EmptyClassError, check, one_of
from .models import GradientWorkspace, LossSpec

SCHEDULES = ("constant", "cosine")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    momentum: float = 0.0
    epochs: int = 1
    batch_size: int | None = None  # None = full batch
    schedule: str = "constant"
    seed: int = 0

    def __post_init__(self):
        check("learning_rate", self.learning_rate, FINITE_POSITIVE)
        check("momentum", self.momentum, AT_LEAST_0_BELOW_1)
        check("epochs", self.epochs, COUNT)
        if self.batch_size is not None:  # None is full batch
            check("batch_size", self.batch_size, COUNT)
        check("schedule", self.schedule, one_of(*SCHEDULES))
        check("seed", self.seed, SEED)


def _lr_at(config: TrainConfig, epoch: int) -> float:
    """The learning rate of `epoch`: constant, or a cosine decay from
    learning_rate at the first epoch to 0 at the last."""
    if config.schedule == "constant":
        return config.learning_rate
    period = max(config.epochs - 1, 1)
    return 0.5 * config.learning_rate * (1.0 + math.cos(math.pi * epoch / period))


def _step(theta, velocity, grad, lr: float, momentum: float) -> None:
    """In place: grad *= lr, then the heavy-ball update (plain SGD at m = 0)."""
    grad *= lr
    if momentum:
        velocity *= momentum
        velocity -= grad
        theta += velocity
    else:
        theta -= grad


def train(
    model,
    dataset: LabeledDataset,
    spec: LossSpec,
    config: TrainConfig,
    term=None,
):
    """Run config.epochs epochs of SGD with classical momentum; returns
    (trained copy, epoch_losses), the mean batch loss of each epoch.

    The model needs `copy()`, a flat float64 `params` buffer that its
    `loss_and_gradient(features, labels, spec, term, out=workspace)`
    reads. `workspace` is one `models.GradientWorkspace`, made from
    `params` once per call; the model fills its `grad` and returns
    (loss, grad). Training updates the copy's `params` in place.
    `term` (a `models.ObjectiveTerm`) extends every step's objective.
    """
    if dataset.n_samples == 0:
        raise EmptyClassError("cannot train on an empty dataset")
    model = model.copy()
    x, y = dataset.features, dataset.labels
    n = dataset.n_samples
    theta = model.params
    velocity = np.zeros_like(theta) if config.momentum else None
    workspace = GradientWorkspace(theta)
    rng = np.random.default_rng(config.seed)
    losses = []

    for epoch in range(config.epochs):
        lr = _lr_at(config, epoch)
        if config.batch_size is None:
            batches = [slice(None)]
        else:
            order = rng.permutation(n)
            batches = [order[i : i + config.batch_size] for i in range(0, n, config.batch_size)]
        batch_losses = []
        for rows in batches:
            value, grad = model.loss_and_gradient(x[rows], y[rows], spec, term, out=workspace)
            if not math.isfinite(value):
                raise DivergenceError(epoch)
            batch_losses.append(value)
            _step(theta, velocity, grad, lr, config.momentum)
        losses.append(float(np.mean(batch_losses)))

    return model, np.array(losses)
