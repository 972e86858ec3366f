"""Benchmark inputs: an MNIST-shaped surrogate corpus and IDX files made from it.

The surrogate matches the acceptance-suite corpus: 10 classes, 784
features, a low-rank shared structure plus one private direction per
class. The structure (mixing map, class means) is fixed; the workload
seed only picks the samples, so every seed draws from one population
and costs about the same to solve.

`surrogate` is a deliberate copy of `_surrogate` in tests/_fixtures.py,
not an import of it: the benchmark's inputs, and so its baseline, must
not move when the test fixtures change. selftest.py checks that the two
still agree.
"""
from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from ltcl import datasets

STRUCTURE_SEED = 91
N_CLASSES = 10
N_FEATURES = 784


def surrogate(n_per_class: int, sample_seed: int, shared_dim=24, sep=0.55,
              private_mean=1.1, private_noise=0.3, ambient_noise=0.02,
              scale=0.34) -> datasets.LabeledDataset:
    """Deterministic 784-d corpus; identical to the acceptance fixture for
    the same sample seed."""
    srng = np.random.default_rng(STRUCTURE_SEED)
    latent_dim = shared_dim + N_CLASSES
    mixing = srng.standard_normal((latent_dim, N_FEATURES)) / np.sqrt(latent_dim)
    shared_means = sep * srng.standard_normal((N_CLASSES, shared_dim))
    rng = np.random.default_rng(sample_seed)
    labels = np.repeat(np.arange(N_CLASSES), n_per_class)
    blocks = []
    for c in range(N_CLASSES):
        z_shared = shared_means[c] + rng.standard_normal((n_per_class, shared_dim))
        z_private = private_noise * rng.standard_normal((n_per_class, N_CLASSES))
        z_private[:, c] += private_mean
        z = np.hstack([z_shared, z_private])
        x = (z @ mixing + ambient_noise * rng.standard_normal((n_per_class, N_FEATURES))) * scale
        blocks.append(x)
    return datasets.LabeledDataset.from_arrays(np.vstack(blocks), labels, n_classes=N_CLASSES)


def write_idx(dataset: datasets.LabeledDataset, images_path: Path, labels_path: Path,
              lo: float = -1.5, hi: float = 1.5) -> None:
    """Quantise features linearly from [lo, hi] to uint8 28x28 IDX images."""
    side = int(round(np.sqrt(dataset.n_features)))
    pixels = np.clip(np.rint((dataset.features - lo) / (hi - lo) * 255.0), 0, 255).astype(np.uint8)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", datasets.IDX_IMAGES_MAGIC, dataset.n_samples, side, side))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", datasets.IDX_LABELS_MAGIC, dataset.n_samples))
        fh.write(dataset.labels.astype(np.uint8).tobytes())
