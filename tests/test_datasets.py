import gzip
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _fixtures import parser_inputs
from ltcl import datasets, models
from ltcl.errors import (
    CapacityError,
    EmptyClassError,
    IdxParseError,
    NonFiniteInputError,
    ShapeMismatchError,
)


def test_imbalance_factor_examples():
    assert datasets.imbalance_factor([100, 10]) == 10.0
    assert datasets.imbalance_factor([50, 50, 50]) == 1.0
    # Caltech256-style counts: largest 827, smallest 80
    assert datasets.imbalance_factor([827, 400, 80]) == pytest.approx(10.3375)


def test_imbalance_factor_empty_class():
    with pytest.raises(EmptyClassError):
        datasets.imbalance_factor([10, 0, 5])


def test_gamma_examples():
    assert datasets.gamma(1.0) == 0.5
    assert datasets.gamma(100.0) == pytest.approx(100.0 / 101.0)
    assert abs(datasets.gamma(1e6) - 1.0) < 1e-6
    with pytest.raises(ValueError):
        datasets.gamma(0.5)


@given(st.floats(min_value=1.0, max_value=1e9, allow_nan=False))
def test_gamma_range(if_value):
    g = datasets.gamma(if_value)
    assert 0.5 <= g < 1.0


def test_longtail_profile_if100():
    profile = datasets.longtail_profile(10, 1000, 100.0)
    assert profile.per_class_targets.tolist() == [
        1000, 599, 359, 215, 129, 77, 46, 27, 16, 10,
    ]
    t = profile.per_class_targets
    assert np.all(t[:-1] >= t[1:])
    assert t[0] == 1000 and t[-1] == 10


def test_longtail_profile_balanced():
    profile = datasets.longtail_profile(7, 123, 1.0)
    assert np.all(profile.per_class_targets == 123)


def test_longtail_profile_empty_tail():
    with pytest.raises(EmptyClassError):
        datasets.longtail_profile(10, 50, 1000.0)


def _balanced(n_classes=10, n_per_class=300, n_features=8, seed=0):
    return datasets.synthetic_gaussian(n_classes, n_features, n_per_class, 2.0, seed)


def test_make_longtail_counts_match_profile():
    src = _balanced()
    lt = datasets.make_longtail(src, 100.0, seed=3)
    expected = datasets.longtail_profile(10, 300, 100.0).per_class_targets
    assert np.array_equal(lt.class_counts, expected)


def test_make_longtail_if1_keeps_everything():
    src = _balanced(n_per_class=50)
    lt = datasets.make_longtail(src, 1.0, seed=3)
    assert np.array_equal(lt.class_counts, src.class_counts)
    assert lt.n_samples == src.n_samples


def test_make_longtail_capacity_error_names_class():
    src = _balanced(n_per_class=20)
    with pytest.raises(CapacityError, match="class 0"):
        datasets.make_longtail(src, 10.0, seed=0, n_max=100)


def test_make_longtail_deterministic():
    src = _balanced()
    a = datasets.make_longtail(src, 50.0, seed=9)
    b = datasets.make_longtail(src, 50.0, seed=9)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


@settings(deadline=None, max_examples=30)
@given(
    n_classes=st.integers(min_value=2, max_value=12),
    n_max=st.integers(min_value=20, max_value=200),
    if_value=st.floats(min_value=1.0, max_value=20.0),
)
def test_make_longtail_measured_if_within_rounding(n_classes, n_max, if_value):
    targets = datasets.longtail_profile(n_classes, n_max, if_value).per_class_targets
    measured = targets[0] / targets[-1]
    n_min = targets[-1]
    assert if_value * (1 - 2 / n_min) <= measured <= if_value * (1 + 2 / n_min)


def test_head_tail_split_examples():
    src = _balanced(n_classes=10, n_per_class=30)
    lt = datasets.make_longtail(src, 20.0, seed=1)
    split = datasets.head_tail_split(lt, 0.6)
    assert sorted(split.head_classes) == [0, 1, 2, 3, 4, 5]
    assert sorted(split.tail_classes) == [6, 7, 8, 9]
    # partition
    assert split.head.n_samples + split.tail.n_samples == lt.n_samples
    assert set(np.unique(split.head.labels)).isdisjoint(np.unique(split.tail.labels))


def test_head_tail_split_fraction_one():
    src = _balanced(n_classes=4, n_per_class=10)
    split = datasets.head_tail_split(src, 1.0)
    assert split.tail.n_samples == 0
    assert len(split.head_classes) == 4


def test_head_tail_split_empty_head_raises():
    # floor(10 * 0.05) = 0 head classes: the split would train on no rows
    src = _balanced(n_classes=10, n_per_class=10)
    with pytest.raises(EmptyClassError, match=r"head fraction 0\.05 of 10 classes"):
        datasets.head_tail_split(src, 0.05)
    assert len(datasets.head_tail_split(src, 0.1).head_classes) == 1


def test_head_tail_split_bad_fraction():
    src = _balanced(n_classes=4, n_per_class=10)
    for fraction in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            datasets.head_tail_split(src, fraction)


def _write_idx_pair(tmp_path, images, labels, image_magic=0x803, label_magic=0x801,
                    gz=False, truncate_images=0):
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    img_bytes = struct.pack(">IIII", image_magic, n, rows, cols) + images.tobytes()
    if truncate_images:
        img_bytes = img_bytes[:-truncate_images]
    lab_bytes = struct.pack(">II", label_magic, len(labels)) + labels.tobytes()
    img_path = tmp_path / ("img.idx.gz" if gz else "img.idx")
    lab_path = tmp_path / ("lab.idx.gz" if gz else "lab.idx")
    img_path.write_bytes(gzip.compress(img_bytes) if gz else img_bytes)
    lab_path.write_bytes(gzip.compress(lab_bytes) if gz else lab_bytes)
    return img_path, lab_path


def test_load_idx_scales_pixels(tmp_path):
    images = np.array(
        [[[0, 255], [255, 0]], [[255, 255], [0, 0]], [[0, 0], [0, 255]]]
    )
    img, lab = _write_idx_pair(tmp_path, images, [0, 1, 1])
    ds = datasets.load_idx(img, lab)
    assert ds.features.shape == (3, 4)
    assert set(np.unique(ds.features)) == {0.0, 1.0}
    assert ds.labels.tolist() == [0, 1, 1]
    assert ds.class_counts.tolist() == [1, 2]


def test_load_idx_gzip(tmp_path):
    images = np.zeros((2, 2, 2))
    img, lab = _write_idx_pair(tmp_path, images, [1, 0], gz=True)
    ds = datasets.load_idx(img, lab)
    assert ds.n_samples == 2


def test_load_idx_bad_image_magic(tmp_path):
    img, lab = _write_idx_pair(tmp_path, np.zeros((1, 2, 2)), [0], image_magic=0x804)
    with pytest.raises(IdxParseError, match="magic"):
        datasets.load_idx(img, lab)


def test_load_idx_bad_label_magic(tmp_path):
    img, lab = _write_idx_pair(tmp_path, np.zeros((1, 2, 2)), [0], label_magic=0x802)
    with pytest.raises(IdxParseError, match="magic"):
        datasets.load_idx(img, lab)


def test_load_idx_count_mismatch(tmp_path):
    img, _ = _write_idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1])
    lab = tmp_path / "other_lab.idx"
    lab.write_bytes(struct.pack(">II", 0x801, 3) + bytes([0, 1, 1]))
    with pytest.raises(IdxParseError, match="match"):
        datasets.load_idx(img, lab)


def test_load_idx_truncated(tmp_path):
    img, lab = _write_idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1], truncate_images=3)
    with pytest.raises(IdxParseError, match="truncated"):
        datasets.load_idx(img, lab)


@pytest.mark.parametrize("payload", [b"\x1f\x8bjunk", b"\x1f\x8b\x08\x00"])
def test_load_idx_corrupt_gzip(tmp_path, payload):
    img, lab = _write_idx_pair(tmp_path, np.zeros((1, 2, 2)), [0])
    img.write_bytes(payload)
    with pytest.raises(IdxParseError, match="gzip"):
        datasets.load_idx(img, lab)
    with pytest.raises(FileNotFoundError):
        datasets.load_idx(tmp_path / "missing.idx", lab)


def test_load_idx_without_pixels(tmp_path):
    img, lab = _write_idx_pair(tmp_path, np.zeros((2, 0, 3)), [0, 1])
    with pytest.raises(IdxParseError, match="no pixels"):
        datasets.load_idx(img, lab)


_VALID_IMAGES = struct.pack(">IIII", 0x803, 3, 2, 2) + bytes(range(0, 240, 20))
_VALID_LABELS = struct.pack(">II", 0x801, 3) + bytes([0, 2, 1])


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    images=parser_inputs(_VALID_IMAGES) | parser_inputs(gzip.compress(_VALID_IMAGES, mtime=0)),
    labels=parser_inputs(_VALID_LABELS),
)
def test_load_idx_fuzz(tmp_path, images, labels):
    # any byte string loads as a dataset or fails with IdxParseError
    img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
    img.write_bytes(images)
    lab.write_bytes(labels)
    try:
        ds = datasets.load_idx(img, lab)
    except IdxParseError:
        return
    assert isinstance(ds, datasets.LabeledDataset) and ds.n_samples >= 1


def test_synthetic_gaussian_deterministic():
    a = datasets.synthetic_gaussian(3, 5, 20, 1.0, seed=42)
    b = datasets.synthetic_gaussian(3, 5, 20, 1.0, seed=42)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_synthetic_gaussian_separable():
    ds = datasets.synthetic_gaussian(2, 2, 100, 10.0, seed=0)
    # brute-force check against the midpoint separator on axis 0 vs 1
    predicted = (ds.features[:, 1] > ds.features[:, 0]).astype(int)
    assert np.mean(predicted == ds.labels) >= 0.99


def test_mean_pool_images():
    ds = datasets.LabeledDataset.from_arrays(
        np.arange(16, dtype=float).reshape(1, 16), np.array([0]), n_classes=1
    )
    pooled = datasets.mean_pool_images(ds, 2)
    assert pooled.features.shape == (1, 4)
    assert pooled.features[0].tolist() == [2.5, 4.5, 10.5, 12.5]
    with pytest.raises(ShapeMismatchError):
        datasets.mean_pool_images(ds, 3)  # side 4 is not divisible by 3
    with pytest.raises(ShapeMismatchError):
        datasets.mean_pool_images(datasets.LabeledDataset.from_arrays(np.zeros((1, 8)), [0]), 2)


@pytest.mark.parametrize("factor", [2, 4, 7])
def test_mean_pool_images_equals_mean_over_windows(factor):
    # the slice sums reproduce numpy's two-axis mean exactly, on 8-bit
    # pixels scaled to [0, 1] as load_idx reads them and on arbitrary floats
    rng = np.random.default_rng(factor)
    pixels = rng.integers(0, 256, size=(300, 784)).astype(np.float64) / 255.0
    for features in (pixels, rng.standard_normal((300, 784))):
        ds = datasets.LabeledDataset.from_arrays(features, np.zeros(300, dtype=int))
        out = 28 // factor
        expected = features.reshape(-1, out, factor, out, factor).mean(axis=(2, 4)).reshape(-1, out * out)
        assert np.array_equal(datasets.mean_pool_images(ds, factor).features, expected)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_features_rejected(bad):
    features = np.ones((4, 3))
    features[2, 1] = bad
    with pytest.raises(NonFiniteInputError):
        datasets.LabeledDataset.from_arrays(features, [0, 1, 0, 1])
    # an empty dataset has nothing to reject, and finite entries whose squares
    # overflow are still finite
    assert datasets.LabeledDataset.from_arrays(np.zeros((0, 3)), [], n_classes=2).n_samples == 0
    assert datasets.LabeledDataset.from_arrays(np.full((4, 3), 1e200), [0, 1, 0, 1]).n_samples == 4


def test_loss_decomposition_identity():
    src = _balanced(n_classes=6, n_per_class=40)
    lt = datasets.make_longtail(src, 10.0, seed=4)
    split = datasets.head_tail_split(lt, 0.5)
    model = models.MlpModel.initialize([lt.n_features, 7, 6], seed=8)
    spec = models.LossSpec(mu=0.0)  # data term only
    total = models.loss(model, lt, spec)
    wh = split.head.n_samples / lt.n_samples
    wt = split.tail.n_samples / lt.n_samples
    combined = wh * models.loss(model, split.head, spec) + wt * models.loss(
        model, split.tail, spec
    )
    assert abs(total - combined) <= 1e-12 * abs(total)
