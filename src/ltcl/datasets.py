"""Long-tailed dataset construction, splitting, and loading.

Datasets are plain dense matrices with integer labels. Long-tailed
variants are produced by subsampling a source dataset down to an
exponential per-class profile controlled by the imbalance factor.
"""
from __future__ import annotations

import gzip
import struct
import zlib
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import (
    CapacityError, EmptyClassError, IdxParseError, NonFiniteInputError, ShapeMismatchError,
)

IDX_LABELS_MAGIC = 0x00000801
IDX_IMAGES_MAGIC = 0x00000803


@dataclass(frozen=True)
class LabeledDataset:
    """Dense feature matrix plus integer class labels and per-class counts."""

    features: np.ndarray  # (n_samples, n_features) float64
    labels: np.ndarray  # (n_samples,) int64
    class_counts: np.ndarray  # (n_classes,) int64

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if self.labels.ndim != 1 or len(self.labels) != len(self.features):
            raise ValueError("labels must be 1-D with one entry per sample")
        counts = np.bincount(self.labels, minlength=self.n_classes) if self.n_samples else np.zeros(self.n_classes, dtype=np.int64)
        if self.n_samples and self.labels.max() >= self.n_classes:
            raise ValueError("label exceeds class count")
        if not np.array_equal(counts, self.class_counts):
            raise ValueError("class_counts does not match labels")
        # One BLAS pass: the squared norm is finite unless an entry is NaN or
        # infinite, or the sum overflows; only then is every entry checked.
        flat = self.features.ravel()
        with np.errstate(over="ignore"):
            squared_norm = flat @ flat
        if not np.isfinite(squared_norm) and not np.isfinite(flat).all():
            raise NonFiniteInputError("features contain NaN or infinite values")

    @classmethod
    def from_arrays(cls, features, labels, n_classes: int | None = None) -> "LabeledDataset":
        features = np.ascontiguousarray(features, dtype=np.float64)
        labels = np.ascontiguousarray(labels, dtype=np.int64)
        if n_classes is None:
            n_classes = int(labels.max()) + 1 if len(labels) else 0
        counts = np.bincount(labels, minlength=n_classes).astype(np.int64)
        return cls(features, labels, counts)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_counts)

    def subset(self, indices) -> "LabeledDataset":
        """Row subset keeping the full label space."""
        indices = np.asarray(indices)
        return LabeledDataset.from_arrays(
            self.features[indices], self.labels[indices], n_classes=self.n_classes
        )


@dataclass(frozen=True)
class LongTailProfile:
    """Exponential per-class sample budget for a requested imbalance factor."""

    imbalance_factor: float
    n_max: int
    per_class_targets: np.ndarray

    def __post_init__(self):
        t = self.per_class_targets
        if np.any(t[:-1] < t[1:]):
            raise ValueError("per-class targets must be non-increasing")
        if t[0] != self.n_max:
            raise ValueError("first target must equal n_max")


@dataclass(frozen=True)
class HeadTailSplit:
    """Partition of a dataset into many-sample and few-sample classes."""

    head_classes: frozenset
    tail_classes: frozenset
    head: LabeledDataset
    tail: LabeledDataset


def imbalance_factor(counts) -> float:
    """Ratio of the largest to the smallest per-class count."""
    counts = np.asarray(counts)
    if counts.size == 0:
        raise EmptyClassError("cannot compute imbalance factor of zero classes")
    if np.any(counts <= 0):
        empty = int(np.flatnonzero(counts <= 0)[0])
        raise EmptyClassError(f"class {empty} has no samples; imbalance factor undefined")
    return float(counts.max()) / float(counts.min())


def gamma(imbalance_factor: float) -> float:
    """Head mixture weight IF/(1+IF), in [0.5, 1)."""
    if imbalance_factor < 1.0:
        raise ValueError(f"imbalance factor must be >= 1, got {imbalance_factor}")
    return imbalance_factor / (1.0 + imbalance_factor)


def longtail_profile(n_classes: int, n_max: int, imbalance_factor: float) -> LongTailProfile:
    """Per-class targets n_max * IF^(-c/(C-1)), truncated to integers.

    Truncation matches the usual exponential LT construction, so the
    last class gets int(n_max / IF) samples.
    """
    if imbalance_factor < 1.0:
        raise ValueError(f"imbalance factor must be >= 1, got {imbalance_factor}")
    if n_classes < 1 or n_max < 1:
        raise ValueError("n_classes and n_max must be positive")
    if n_classes == 1:
        targets = np.array([n_max], dtype=np.int64)
    else:
        c = np.arange(n_classes, dtype=np.float64)
        raw = n_max * imbalance_factor ** (-c / (n_classes - 1))
        targets = np.floor(raw + 1e-9).astype(np.int64)  # epsilon guards 10.0 -> 9
    if targets[-1] < 1:
        raise EmptyClassError(
            f"imbalance factor {imbalance_factor} leaves class {n_classes - 1} empty "
            f"(n_max={n_max})"
        )
    return LongTailProfile(float(imbalance_factor), int(n_max), targets)


def make_longtail(
    dataset: LabeledDataset,
    imbalance_factor: float,
    seed: int,
    n_max: int | None = None,
) -> LabeledDataset:
    """Subsample a dataset down to an exponential long-tailed profile.

    Class c keeps `n_max * IF^(-c/(C-1))` samples chosen uniformly without
    replacement. n_max defaults to the smallest source class count so the
    profile is always satisfiable; pass it explicitly to override.
    """
    if np.any(dataset.class_counts <= 0):
        raise EmptyClassError("source dataset has an empty class")
    if n_max is None:
        n_max = int(dataset.class_counts.min())
    profile = longtail_profile(dataset.n_classes, n_max, imbalance_factor)
    rng = np.random.default_rng(seed)
    keep = []
    for c, target in enumerate(profile.per_class_targets):
        rows = np.flatnonzero(dataset.labels == c)
        if len(rows) < target:
            raise CapacityError(
                f"class {c} has {len(rows)} samples, fewer than the {target} required"
            )
        keep.append(rng.choice(rows, size=int(target), replace=False))
    keep = np.sort(np.concatenate(keep))
    return dataset.subset(keep)


def head_tail_split(dataset: LabeledDataset, head_class_fraction: float) -> HeadTailSplit:
    """Assign the floor(C * fraction) largest classes to the head; raise
    EmptyClassError when that is no class."""
    if not 0.0 < head_class_fraction <= 1.0:
        raise ValueError(
            f"head_class_fraction must be in (0, 1], got {head_class_fraction}"
        )
    n_head = int(np.floor(dataset.n_classes * head_class_fraction))
    if n_head == 0:
        raise EmptyClassError(
            f"head fraction {head_class_fraction} of {dataset.n_classes} classes leaves the head "
            f"empty: floor({dataset.n_classes} * {head_class_fraction}) = 0"
        )
    order = np.lexsort((np.arange(dataset.n_classes), -dataset.class_counts))
    head_classes = frozenset(int(c) for c in order[:n_head])
    tail_classes = frozenset(int(c) for c in order[n_head:])
    in_head = np.isin(dataset.labels, list(head_classes))
    return HeadTailSplit(
        head_classes=head_classes,
        tail_classes=tail_classes,
        head=dataset.subset(np.flatnonzero(in_head)),
        tail=dataset.subset(np.flatnonzero(~in_head)),
    )


def _read_maybe_gzip(path) -> bytes:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] == b"\x1f\x8b":
        try:
            data = gzip.decompress(data)
        except (OSError, EOFError, zlib.error) as exc:
            raise IdxParseError(f"{path}: corrupt gzip stream ({exc})") from exc
    return data


def load_idx(images_path, labels_path) -> LabeledDataset:
    """Load an IDX image/label file pair, scaling pixels to [0, 1]."""
    img = _read_maybe_gzip(images_path)
    lab = _read_maybe_gzip(labels_path)

    if len(lab) < 8:
        raise IdxParseError(f"{labels_path}: truncated header")
    magic, n_labels = struct.unpack(">II", lab[:8])
    if magic != IDX_LABELS_MAGIC:
        raise IdxParseError(
            f"{labels_path}: bad magic 0x{magic:08x}, expected 0x{IDX_LABELS_MAGIC:08x}"
        )
    if len(lab) - 8 < n_labels:
        raise IdxParseError(f"{labels_path}: payload truncated ({len(lab) - 8} of {n_labels} bytes)")
    labels = np.frombuffer(lab, dtype=np.uint8, count=n_labels, offset=8)

    if len(img) < 16:
        raise IdxParseError(f"{images_path}: truncated header")
    magic, n_images, rows, cols = struct.unpack(">IIII", img[:16])
    if magic != IDX_IMAGES_MAGIC:
        raise IdxParseError(
            f"{images_path}: bad magic 0x{magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x}"
        )
    if n_images != n_labels:
        raise IdxParseError(
            f"image count {n_images} does not match label count {n_labels}"
        )
    n_pixels = n_images * rows * cols
    if n_pixels == 0:
        raise IdxParseError(f"{images_path}: no pixels ({n_images} images of {rows}x{cols})")
    if len(img) - 16 < n_pixels:
        raise IdxParseError(f"{images_path}: payload truncated ({len(img) - 16} of {n_pixels} bytes)")
    pixels = np.frombuffer(img, dtype=np.uint8, count=n_pixels, offset=16)
    features = pixels.reshape(n_images, rows * cols).astype(np.float64) / 255.0
    return LabeledDataset.from_arrays(features, labels.astype(np.int64))


def synthetic_gaussian(
    n_classes: int,
    n_features: int,
    n_per_class: int,
    class_separation: float,
    seed: int,
) -> LabeledDataset:
    """Balanced isotropic Gaussian blobs, one per class, mean on axis c mod d."""
    if min(n_classes, n_features, n_per_class) < 1:
        raise ValueError("all sizes must be >= 1")
    if class_separation <= 0:
        raise ValueError("class_separation must be positive")
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n_classes * n_per_class, n_features))
    labels = np.repeat(np.arange(n_classes), n_per_class)
    features[np.arange(len(labels)), labels % n_features] += class_separation
    return LabeledDataset.from_arrays(features, labels, n_classes=n_classes)


def mean_pool_images(dataset: LabeledDataset, factor: int = 2) -> LabeledDataset:
    """Mean-pool square row-major images by an integer factor.

    Each pooled pixel sums every row of its window left to right, then
    the row sums top to bottom, and divides by factor**2: for factor 2,
    ((a00 + a01) + (a10 + a11)) / 4. Strided slice sums give the same
    values as `.mean(axis=(2, 4))` on the window view, in a fraction of
    its time.
    """
    side = int(round(np.sqrt(dataset.n_features)))
    if side * side != dataset.n_features:
        raise ShapeMismatchError(f"features of length {dataset.n_features} are not square images")
    if side % factor != 0:
        raise ShapeMismatchError(f"image side {side} not divisible by pool factor {factor}")
    out = side // factor
    window = dataset.features.reshape(-1, out, factor, out, factor)
    rows = [reduce(np.add, (window[:, :, i, :, j] for j in range(factor))) for i in range(factor)]
    pooled = (reduce(np.add, rows) / (factor * factor)).reshape(-1, out * out)
    return LabeledDataset.from_arrays(pooled, dataset.labels, n_classes=dataset.n_classes)

