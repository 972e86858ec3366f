"""Deterministic SGD/heavy-ball training with optional stationarity stopping.

One epoch is one full-batch step when batch_size is None, otherwise a
seeded shuffle over mini-batches. When grad_tolerance is set, training
stops as soon as the full-dataset gradient norm falls below it and the
trace is marked converged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datasets import LabeledDataset
from .errors import DivergenceError, EmptyClassError, ScheduleExhaustedError
from .models import LossSpec

SCHEDULES = ("constant", "cosine")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    momentum: float = 0.0
    epochs: int = 1
    batch_size: int | None = None  # None = full batch
    schedule: str = "constant"
    lr_min: float = 0.0
    seed: int = 0
    grad_tolerance: float | None = None

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be positive or None for full batch")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.grad_tolerance is not None and self.grad_tolerance <= 0:
            raise ValueError("grad_tolerance must be positive")


@dataclass
class TrainTrace:
    epoch_losses: np.ndarray
    final_grad_norm: float
    epochs_run: int
    converged: bool


def cosine_anneal(lr0: float, lr_min: float, t: int, period: int) -> float:
    """Cosine decay from lr0 at t=0 to lr_min at t=period."""
    if period < 1:
        raise ValueError("period must be >= 1")
    if t < 0 or t > period:
        raise ScheduleExhaustedError(f"step {t} outside schedule horizon {period}")
    return lr_min + 0.5 * (lr0 - lr_min) * (1.0 + math.cos(math.pi * t / period))


def _lr_at(config: TrainConfig, epoch: int) -> float:
    if config.schedule == "constant":
        return config.learning_rate
    period = max(config.epochs - 1, 1)
    return cosine_anneal(config.learning_rate, config.lr_min, epoch, period)


def heavy_ball_settings(smoothness: float, mu: float) -> tuple[float, float]:
    """Conservative heavy-ball (lr, momentum) for a mu-strongly-convex,
    L-smooth objective."""
    if smoothness <= 0 or mu <= 0 or mu > smoothness:
        raise ValueError("need 0 < mu <= smoothness")
    lr = 1.0 / smoothness
    beta = (1.0 - math.sqrt(mu / smoothness)) ** 2
    return lr, beta


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
    """Run SGD with classical momentum; returns (trained copy, trace).

    The model needs `copy()`, a flat float64 `params` buffer that its
    `loss_and_gradient(features, labels, spec, term)` reads, returning a
    new gradient array. Training updates the copy's `params` in place.
    `term` (a `models.ObjectiveTerm`) extends every step's objective; the
    full-batch gradients for `grad_tolerance` and `final_grad_norm` are
    of the plain objective, so the two cannot be combined.
    """
    if dataset.n_samples == 0:
        raise EmptyClassError("cannot train on an empty dataset")
    if term is not None and config.grad_tolerance is not None:
        raise ValueError("grad_tolerance cannot be combined with a term")
    model = model.copy()
    x, y = dataset.features, dataset.labels
    n = dataset.n_samples
    theta = model.params
    velocity = np.zeros_like(theta) if config.momentum else None
    rng = np.random.default_rng(config.seed)
    losses = []
    converged = False
    grad_norm = math.inf
    epochs_run = 0

    for epoch in range(config.epochs):
        lr = _lr_at(config, epoch)
        if config.batch_size is None:
            value, grad = model.loss_and_gradient(x, y, spec, term)
            if not math.isfinite(value):
                raise DivergenceError(epoch)
            losses.append(value)
            epochs_run = epoch + 1
            grad_norm = float(np.linalg.norm(grad))
            if config.grad_tolerance is not None and grad_norm <= config.grad_tolerance:
                converged = True
                break
            _step(theta, velocity, grad, lr, config.momentum)
        else:
            order = rng.permutation(n)
            batch_losses = []
            for start in range(0, n, config.batch_size):
                rows = order[start : start + config.batch_size]
                value, grad = model.loss_and_gradient(x[rows], y[rows], spec, term)
                if not math.isfinite(value):
                    raise DivergenceError(epoch)
                batch_losses.append(value)
                _step(theta, velocity, grad, lr, config.momentum)
            losses.append(float(np.mean(batch_losses)))
            epochs_run = epoch + 1
            if config.grad_tolerance is not None:
                _, full_grad = model.loss_and_gradient(x, y, spec)
                grad_norm = float(np.linalg.norm(full_grad))
                if grad_norm <= config.grad_tolerance:
                    converged = True
                    break

    if not converged:
        _, final_grad = model.loss_and_gradient(x, y, spec)
        grad_norm = float(np.linalg.norm(final_grad))
        if config.grad_tolerance is not None:
            converged = grad_norm <= config.grad_tolerance

    trace = TrainTrace(
        epoch_losses=np.array(losses),
        final_grad_norm=grad_norm,
        epochs_run=epochs_run,
        converged=converged,
    )
    return model, trace
