"""Long-tailed dataset construction, splitting, and loading.

Datasets are plain dense matrices with integer labels. Long-tailed
variants are produced by subsampling a source dataset down to an
exponential per-class profile controlled by the imbalance factor.
"""
from __future__ import annotations

import gzip
import math
import struct
import zlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    AT_LEAST_1, COUNT, FINITE_POSITIVE, FRACTION, CapacityError, DatasetError, EmptyClassError, IdxParseError,
    NonFiniteInputError, ShapeMismatchError, check, seeded_rng,
)

IDX_LABELS_MAGIC = 0x00000801
IDX_IMAGES_MAGIC = 0x00000803


@dataclass(frozen=True)
class LabeledDataset:
    """Dense feature matrix plus integer class labels in 0..n_classes-1."""

    features: np.ndarray  # (n_samples, n_features) float64
    labels: np.ndarray  # (n_samples,) int64
    n_classes: int

    def __post_init__(self):
        if self.features.dtype != np.float64:
            raise DatasetError(f"features must be float64, got {self.features.dtype}")
        # bincount needs integers that cast safely to the platform index type
        if self.labels.dtype.kind not in "iu" or not np.can_cast(self.labels.dtype, np.intp):
            raise DatasetError(f"labels must be integers, got {self.labels.dtype}")
        if self.features.ndim != 2:
            raise ShapeMismatchError("features must be a 2-D matrix")
        if self.labels.ndim != 1 or len(self.labels) != len(self.features):
            raise ShapeMismatchError("labels must be 1-D with one entry per sample")
        if self.n_samples and not 0 <= self.labels.min() <= self.labels.max() < self.n_classes:
            raise DatasetError(f"labels must lie in 0..{self.n_classes - 1}")
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
        return cls(features, labels, n_classes)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @cached_property
    def class_counts(self) -> np.ndarray:
        """(n_classes,) int64 sample count of each class."""
        return np.bincount(self.labels, minlength=self.n_classes)

    def subset(self, indices) -> "LabeledDataset":
        """Row subset keeping the full label space."""
        indices = np.asarray(indices)
        return LabeledDataset.from_arrays(
            self.features[indices], self.labels[indices], n_classes=self.n_classes
        )


@dataclass(frozen=True)
class HeadTailSplit:
    """Partition of a dataset into many-sample and few-sample classes."""

    head_classes: frozenset
    tail_classes: frozenset
    head: LabeledDataset
    tail: LabeledDataset


def longtail_profile(n_classes: int, n_max: int, imbalance_factor: float) -> np.ndarray:
    """(n_classes,) int64 per-class targets n_max * IF^(-c/(C-1)),
    truncated to integers, so non-increasing from n_max.

    Truncation matches the usual exponential LT construction, so the
    last class gets int(n_max / IF) samples.
    """
    for name, value in (("n_classes", n_classes), ("n_max", n_max)):
        check(name, value, COUNT)
    check("imbalance_factor", imbalance_factor, AT_LEAST_1)
    c = np.arange(n_classes, dtype=np.float64)
    raw = n_max * imbalance_factor ** (-c / max(n_classes - 1, 1))  # one class gets n_max
    targets = np.floor(raw + 1e-9).astype(np.int64)  # epsilon guards 10.0 -> 9
    if targets[-1] < 1:
        raise EmptyClassError(
            f"imbalance factor {imbalance_factor} leaves class {n_classes - 1} empty "
            f"(n_max={n_max})"
        )
    return targets


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
    targets = longtail_profile(dataset.n_classes, n_max, imbalance_factor)
    rng = seeded_rng(seed)
    keep = []
    for c, target in enumerate(targets):
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
    check("head_class_fraction", head_class_fraction, FRACTION)
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


def _idx_payload(data: bytes, path, magic: int, n_dims: int):
    """The n_dims sizes in the header of an IDX file's bytes, and its uint8
    payload of their product, after checking the header's length, its
    magic and that the payload holds that many bytes."""
    start = 4 * (n_dims + 1)
    if len(data) < start:
        raise IdxParseError(f"{path}: truncated header")
    found, *sizes = struct.unpack(f">{n_dims + 1}I", data[:start])
    if found != magic:
        raise IdxParseError(f"{path}: bad magic 0x{found:08x}, expected 0x{magic:08x}")
    count = math.prod(sizes)  # a Python int: a crafted header cannot overflow it
    if len(data) - start < count:
        raise IdxParseError(f"{path}: payload truncated ({len(data) - start} of {count} bytes)")
    return sizes, np.frombuffer(data, dtype=np.uint8, count=count, offset=start)


def load_idx(images_path, labels_path, pool_factor: int = 1) -> LabeledDataset:
    """Load an IDX image/label file pair, scaling pixels to [0, 1] and
    mean-pooling each image by pool_factor as `mean_pool_images` does.

    Pooling happens while decoding: each block of POOL_BLOCK images is
    scaled by one division and pooled into the preallocated output, so
    the full-resolution float64 images are never built. The result equals
    `mean_pool_images(load_idx(images_path, labels_path), pool_factor)`
    bit for bit. A factor that does not divide the image side raises
    ShapeMismatchError, after every check of the files' headers.
    """
    check("pool_factor", pool_factor, COUNT)
    img = _read_maybe_gzip(images_path)
    lab = _read_maybe_gzip(labels_path)
    (n_labels,), labels = _idx_payload(lab, labels_path, IDX_LABELS_MAGIC, 1)
    (n_images, rows, cols), pixels = _idx_payload(img, images_path, IDX_IMAGES_MAGIC, 3)
    if n_images != n_labels:
        raise IdxParseError(f"image count {n_images} does not match label count {n_labels}")
    if len(pixels) == 0:
        raise IdxParseError(f"{images_path}: no pixels ({n_images} images of {rows}x{cols})")
    if rows % pool_factor or cols % pool_factor:
        raise ShapeMismatchError(f"image side {rows}x{cols} not divisible by pool factor {pool_factor}")
    pixels = pixels.reshape(n_images, rows * cols)
    features = _pool_images(pixels, rows, cols, pool_factor, lambda block: np.divide(block, 255.0))
    return LabeledDataset.from_arrays(features, labels.astype(np.int64))


def synthetic_gaussian(
    n_classes: int,
    n_features: int,
    n_per_class: int,
    class_separation: float,
    seed: int,
) -> LabeledDataset:
    """Balanced isotropic Gaussian blobs, one per class, mean on axis c mod d.
    With n_classes > n_features, classes c and c + d share a mean axis, so
    their blobs coincide."""
    for name, value in (("n_classes", n_classes), ("n_features", n_features), ("n_per_class", n_per_class)):
        check(name, value, COUNT)
    check("class_separation", class_separation, FINITE_POSITIVE)
    rng = seeded_rng(seed)
    features = rng.standard_normal((n_classes * n_per_class, n_features))
    labels = np.repeat(np.arange(n_classes), n_per_class)
    features[np.arange(len(labels)), labels % n_features] += class_separation
    return LabeledDataset.from_arrays(features, labels, n_classes=n_classes)


# Images per block of the pooling loop: a block's float64 pixels (0.8 MB
# at 28x28) stay in cache while they are pooled. Blocks of 64 to 2048
# images decoded and pooled a 60 000-image IDX file in 0.17-0.22 s on
# 2 vCPUs, against 0.36-0.48 s for decoding it whole and pooling after.
POOL_BLOCK = 128


def _pool_images(images, rows: int, cols: int, factor: int, convert) -> np.ndarray:
    """Mean-pool row-major rows x cols images, one per row of `images`, by
    factor in the summation order that `mean_pool_images` states,
    POOL_BLOCK images at a time: `convert` turns each block into float64,
    and its pooled values fill one preallocated output."""
    out_rows, out_cols = rows // factor, cols // factor
    pooled = np.empty((len(images), out_rows * out_cols))
    row_sum = np.empty((POOL_BLOCK, out_rows, out_cols))
    for start in range(0, len(images), POOL_BLOCK):
        block = convert(images[start : start + POOL_BLOCK])
        n = len(block)
        window = block.reshape(n, out_rows, factor, out_cols, factor)
        target = pooled[start : start + n].reshape(n, out_rows, out_cols)
        for i in range(factor):
            acc = row_sum[:n] if i else target
            np.copyto(acc, window[:, :, i, :, 0])
            for j in range(1, factor):
                acc += window[:, :, i, :, j]
            if i:
                target += acc
        target /= factor * factor
    return pooled


def mean_pool_images(dataset: LabeledDataset, factor: int = 2) -> LabeledDataset:
    """Mean-pool square row-major images by an integer factor.

    Each pooled pixel sums every row of its window left to right, then
    the row sums top to bottom, and divides by factor**2: for factor 2,
    ((a00 + a01) + (a10 + a11)) / 4. Strided slice sums over blocks of
    POOL_BLOCK images give the same values as `.mean(axis=(2, 4))` on the
    window view, in a fraction of its time; `load_idx` pools with the same
    routine as it decodes.
    """
    check("factor", factor, COUNT)
    side = int(round(np.sqrt(dataset.n_features)))
    if side * side != dataset.n_features:
        raise ShapeMismatchError(f"features of length {dataset.n_features} are not square images")
    if side % factor != 0:
        raise ShapeMismatchError(f"image side {side} not divisible by pool factor {factor}")
    pooled = _pool_images(dataset.features, side, side, factor, np.asarray)
    return LabeledDataset.from_arrays(pooled, dataset.labels, n_classes=dataset.n_classes)
