"""Deterministic fixed-budget SGD with classical momentum.

Every epoch is one pass over the batch_size-row chunks of a seeded
permutation of the dataset; batch_size defaults to 64 here and nowhere
else. Minimizers that must be certified come from `bounds`, not from here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datasets import LabeledDataset
from .errors import (
    AT_LEAST_0_BELOW_1, COUNT, FINITE_POSITIVE, SEED, DivergenceError, EmptyClassError, check, one_of, seeded_rng,
)
from .models import NO_TERM, GradientWorkspace, LossSpec, ObjectiveTerm

SCHEDULES = ("constant", "cosine")
# each TrainConfig field's rule, in the order they are checked
TRAIN_RULES = {"learning_rate": FINITE_POSITIVE, "momentum": AT_LEAST_0_BELOW_1, "epochs": COUNT, "batch_size": COUNT,
               "schedule": one_of(*SCHEDULES), "seed": SEED}


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    momentum: float = 0.0
    epochs: int = 1
    batch_size: int = 64
    schedule: str = "constant"
    seed: int = 0

    def __post_init__(self):
        for name, rule in TRAIN_RULES.items():
            check(name, getattr(self, name), rule)


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
    term: ObjectiveTerm = NO_TERM,
):
    """Run config.epochs epochs of SGD with classical momentum; returns
    (trained copy, epoch_losses), the mean batch loss of each epoch.

    The model needs `copy()`, a flat float64 `params` buffer laid out by
    its `layout` (a `models.ParamLayout`), and a
    `loss_and_gradient(features, labels, spec, term, out=workspace)`
    that reads `params`. `workspace` is one `models.GradientWorkspace`,
    made for the copy once per call; the model fills its `grad` and
    returns (loss, grad). Training updates the copy's `params` in place.
    `term` (a `models.ObjectiveTerm`; `NO_TERM`, the plain objective, by
    default) extends every step's objective; its `enter` and `leave` hooks
    run on the copy before the first step and after the last.
    """
    if dataset.n_samples == 0:
        raise EmptyClassError("cannot train on an empty dataset")
    model, dataset = term.enter(model.copy(), dataset)
    x, y = dataset.features, dataset.labels
    n = dataset.n_samples
    theta = model.params
    velocity = np.zeros_like(theta) if config.momentum else None
    workspace = GradientWorkspace(model)
    rng = seeded_rng(config.seed)
    losses = []

    for epoch in range(config.epochs):
        lr = _lr_at(config, epoch)
        order = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, config.batch_size):
            rows = order[start : start + config.batch_size]
            value, grad = model.loss_and_gradient(x[rows], y[rows], spec, term, out=workspace)
            if not math.isfinite(value):
                raise DivergenceError(epoch)
            batch_losses.append(value)
            _step(theta, velocity, grad, lr, config.momentum)
        losses.append(float(np.mean(batch_losses)))

    return term.leave(model), np.array(losses)
