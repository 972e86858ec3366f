"""Shared test helpers: the MNIST-scale corpus of the acceptance suite, an
independent heavy-ball minimizer, a seeded random linear model, the LwF
objective that the LwF term is checked against, and a byte-mutation
strategy for fuzzing the file parsers.

Real MNIST IDX files are used when present (set LTCL_MNIST_DIR, or put
the four standard files under ./data/mnist). Otherwise a deterministic
low-rank Gaussian surrogate at the same scale (10 classes, 784
features, balanced test split) stands in, since this environment cannot
download datasets. The surrogate shares its mixing map and class means
between train and test so the two splits are drawn from one population.
"""
from __future__ import annotations

import os
from functools import lru_cache
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from ltcl import continual, datasets, models

STRUCTURE_SEED = 91
TRAIN_SAMPLE_SEED = 11
TEST_SAMPLE_SEED = 12
N_PER_CLASS_TRAIN = 3000
N_PER_CLASS_TEST = 500


def _surrogate(n_per_class: int, sample_seed: int, shared_dim=24, n_features=784,
               n_classes=10, sep=0.55, private_mean=1.1, private_noise=0.3,
               ambient_noise=0.02, scale=0.34) -> datasets.LabeledDataset:
    # Shared latent directions carry class overlap; one private direction
    # per class mimics class-specific strokes so the head's dominant
    # input subspace does not swallow the tail's signal.
    srng = np.random.default_rng(STRUCTURE_SEED)
    latent_dim = shared_dim + n_classes
    mixing = srng.standard_normal((latent_dim, n_features)) / np.sqrt(latent_dim)
    shared_means = sep * srng.standard_normal((n_classes, shared_dim))
    rng = np.random.default_rng(sample_seed)
    labels = np.repeat(np.arange(n_classes), n_per_class)
    blocks = []
    for c in range(n_classes):
        z_shared = shared_means[c] + rng.standard_normal((n_per_class, shared_dim))
        z_private = private_noise * rng.standard_normal((n_per_class, n_classes))
        z_private[:, c] += private_mean
        z = np.hstack([z_shared, z_private])
        x = (z @ mixing + ambient_noise * rng.standard_normal((n_per_class, n_features))) * scale
        blocks.append(x)
    return datasets.LabeledDataset.from_arrays(np.vstack(blocks), labels, n_classes=n_classes)


def _find(directory: Path, stem: str) -> Path | None:
    for suffix in ("", ".gz"):
        path = directory / (stem + suffix)
        if path.exists():
            return path
    return None


def _mnist_paths():
    candidates = []
    env = os.environ.get("LTCL_MNIST_DIR")
    if env:
        candidates.append(Path(env))
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "mnist")
    stems = (
        "train-images-idx3-ubyte",
        "train-labels-idx1-ubyte",
        "t10k-images-idx3-ubyte",
        "t10k-labels-idx1-ubyte",
    )
    for directory in candidates:
        if not directory.is_dir():
            continue
        paths = [_find(directory, stem) for stem in stems]
        if all(paths):
            return paths
    return None


@lru_cache(maxsize=1)
def corpus():
    """(train, balanced test, source name) at MNIST scale."""
    paths = _mnist_paths()
    if paths:
        train = datasets.load_idx(paths[0], paths[1])
        test = datasets.load_idx(paths[2], paths[3])
        return train, test, "mnist"
    return (
        _surrogate(N_PER_CLASS_TRAIN, TRAIN_SAMPLE_SEED),
        _surrogate(N_PER_CLASS_TEST, TEST_SAMPLE_SEED),
        "surrogate",
    )


def heavy_ball_minimizer(dataset, mu, tol, max_iters, start=None):
    """Independent oracle for the mu-regularized CE minimizer: full-batch
    heavy ball with lr = 1/L and beta = (1 - sqrt(mu/L))^2, L from
    `models.softmax_smoothness_bound`, stopped at ||grad|| <= tol. That L
    is a power-iteration estimate times 1.01, not a certified upper bound
    on the curvature, so the step size is not proven stable: a run that
    diverges fails by not reaching tol.

    Starts from `start` (zeros when None); returns (model, steps taken)
    and fails if max_iters steps do not reach tol.
    """
    smoothness = models.softmax_smoothness_bound(dataset, mu)
    lr = 1.0 / smoothness
    beta = (1.0 - np.sqrt(mu / smoothness)) ** 2
    model = (
        models.LinearModel.zeros(dataset.n_features, dataset.n_classes)
        if start is None
        else start.copy()
    )
    spec = models.LossSpec(mu=mu)
    theta = model.params  # updated in place
    velocity = np.zeros_like(theta)
    for steps in range(max_iters + 1):
        _, grad = model.loss_and_gradient(dataset.features, dataset.labels, spec)
        if np.linalg.norm(grad) <= tol:
            return model, steps
        velocity = beta * velocity - lr * grad
        theta += velocity
    raise AssertionError(f"heavy ball did not reach ||grad|| <= {tol} in {max_iters} steps")


def random_linear(n_features: int, n_classes: int, seed: int) -> models.LinearModel:
    """A linear model with the weights `MlpModel.initialize([n_features,
    n_classes], seed)` draws: scaled-uniform fan-in, zero biases."""
    mlp = models.MlpModel.initialize([n_features, n_classes], seed)
    return models.LinearModel(mlp.weights[0], mlp.biases[0])


def lwf_loss(student_logits, teacher_logits, true_labels, temperature, cl_weight) -> float:
    """Reference LwF objective (Li & Hoiem): CE on the true labels plus
    cl_weight * T^2 times the mean KL from the teacher's to the student's
    temperature-T softmax, its targets floored inside the log as the
    package's LwF term floors them."""
    n = len(student_logits)
    ce = -models.log_softmax(student_logits)[np.arange(n), np.asarray(true_labels)].mean()
    targets = models.softmax_probs(teacher_logits / temperature)
    student_soft_logp = models.log_softmax(student_logits / temperature)
    kl = (targets * (np.log(np.maximum(targets, continual._LOG_FLOOR)) - student_soft_logp)).sum(axis=1)
    return float(ce + cl_weight * (temperature * temperature) * kl.mean())


def _apply_edits(valid: bytes, edits, keep: int, tail: bytes) -> bytes:
    data = bytearray(valid)
    for index, value in edits:
        data[index] = value
    return bytes(data[:keep]) + tail


def parser_inputs(valid: bytes):
    """Arbitrary short byte strings, and copies of the valid file `valid`
    with a few bytes overwritten, then truncated and/or extended."""
    edits = st.lists(st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255)), max_size=4)
    mutated = st.builds(_apply_edits, st.just(valid), edits, st.integers(0, len(valid)), st.binary(max_size=16))
    return st.binary(max_size=64) | mutated
