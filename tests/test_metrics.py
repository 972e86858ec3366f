import numpy as np
import pytest

from _fixtures import random_linear
from ltcl import datasets, metrics, models
from ltcl.errors import CoverageError, ShapeMismatchError, UnsupportedModelError


class FixedPredictor:
    """Test double returning precomputed logits row-aligned with the test set."""

    def __init__(self, logits):
        self.logits = np.asarray(logits, dtype=np.float64)

    def forward(self, features):
        return self.logits[: len(features)]


def _balanced_test_set(n_classes=4, n_per_class=5, n_features=3, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(n_classes), n_per_class)
    return datasets.LabeledDataset.from_arrays(
        rng.standard_normal((len(labels), n_features)), labels, n_classes=n_classes
    )


def _onehot_logits(labels, n_classes):
    logits = np.zeros((len(labels), n_classes))
    logits[np.arange(len(labels)), labels] = 1.0
    return logits


def test_per_class_accuracy_oracle_model():
    ds = _balanced_test_set()
    model = FixedPredictor(_onehot_logits(ds.labels, ds.n_classes))
    assert metrics.per_class_accuracy(model, ds).tolist() == [1.0, 1.0, 1.0, 1.0]


def test_per_class_accuracy_constant_model():
    ds = _balanced_test_set()
    model = FixedPredictor(np.zeros((ds.n_samples, ds.n_classes)))  # argmax ties -> class 0
    assert metrics.per_class_accuracy(model, ds).tolist() == [1.0, 0.0, 0.0, 0.0]


def test_per_class_accuracy_hand_count():
    labels = np.array([0, 0, 1, 1])
    ds = datasets.LabeledDataset.from_arrays(np.zeros((4, 2)), labels, n_classes=2)
    predictions = np.array([0, 1, 1, 1])  # right, wrong, right, right
    model = FixedPredictor(_onehot_logits(predictions, 2))
    assert metrics.per_class_accuracy(model, ds).tolist() == [0.5, 1.0]


def test_per_class_accuracy_coverage_error():
    ds = datasets.LabeledDataset.from_arrays(np.zeros((2, 2)), np.array([0, 2]), n_classes=3)
    with pytest.raises(CoverageError, match="class 1"):
        metrics.per_class_accuracy(FixedPredictor(np.zeros((2, 3))), ds)


@pytest.mark.parametrize("n_logits", [3, 5])
def test_per_class_accuracy_class_count_mismatch(n_logits):
    # more logits than classes would index past the accuracy vector; fewer
    # would average over classes the model cannot predict
    ds = _balanced_test_set()
    with pytest.raises(ShapeMismatchError, match=f"model predicts {n_logits} classes, test set has 4"):
        metrics.per_class_accuracy(FixedPredictor(np.zeros((ds.n_samples, n_logits))), ds)


def test_per_class_accuracy_scale_invariant():
    rng = np.random.default_rng(3)
    ds = _balanced_test_set(n_classes=5, n_per_class=8, n_features=6, seed=3)
    for _ in range(100):
        model = models.LinearModel(rng.standard_normal((5, 6)), rng.standard_normal(5))
        base = metrics.per_class_accuracy(model, ds)
        scale = float(rng.uniform(0.01, 100.0))
        scaled = models.LinearModel(model.weights * scale, model.biases * scale)
        assert np.array_equal(base, metrics.per_class_accuracy(scaled, ds))


def test_avg_class_accuracy_count_independent():
    # unbalanced test counts must not change the average
    labels = np.array([0] * 9 + [1])
    ds = datasets.LabeledDataset.from_arrays(np.zeros((10, 2)), labels, n_classes=2)
    predictions = np.array([0] * 9 + [0])  # always class 0
    model = FixedPredictor(_onehot_logits(predictions, 2))
    acc = metrics.per_class_accuracy(model, ds)
    assert acc.mean() == 0.5


def test_random_predictor_near_chance():
    n_classes, n_per_class, n_trials = 5, 200, 20
    ds = _balanced_test_set(n_classes=n_classes, n_per_class=n_per_class, seed=10)
    rng = np.random.default_rng(10)
    values = []
    for _ in range(n_trials):
        model = FixedPredictor(rng.standard_normal((ds.n_samples, n_classes)))
        values.append(metrics.per_class_accuracy(model, ds).mean())
    p = 1.0 / n_classes
    se_mean = np.sqrt(p * (1 - p) / (n_per_class * n_classes * n_trials))
    assert abs(np.mean(values) - p) <= 3 * se_mean


def test_per_class_weight_norms():
    model = models.LinearModel(np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([5.0, 5.0]))
    assert metrics.per_class_weight_norms(model).tolist() == [1.0, 2.0]
    zero = models.LinearModel.zeros(3, 4)
    assert metrics.per_class_weight_norms(zero).tolist() == [0.0, 0.0, 0.0, 0.0]


def test_per_class_weight_norms_mlp_final_layer():
    model = models.MlpModel.initialize([3, 4, 2], seed=0)
    norms = metrics.per_class_weight_norms(model)
    assert np.allclose(norms, np.linalg.norm(model.weights[-1], axis=1))


def test_per_class_weight_norms_unsupported():
    with pytest.raises(UnsupportedModelError):
        metrics.per_class_weight_norms(object())


def test_transfer_decomposition_regions():
    decomp = metrics.transfer_decomposition([0.9, 0.1], [0.85, 0.5], {0})
    assert decomp.per_class_delta == pytest.approx([-0.05, 0.4])
    assert decomp.per_class_region == [metrics.FORGETTING, metrics.FORWARD_TRANSFER]


def test_transfer_decomposition_unchanged():
    decomp = metrics.transfer_decomposition([0.3, 0.4], [0.3, 0.4], {0})
    assert decomp.per_class_region == [metrics.UNCHANGED, metrics.UNCHANGED]


def test_transfer_decomposition_backward_transfer():
    decomp = metrics.transfer_decomposition([0.5], [0.52], {0})
    assert decomp.per_class_region == [metrics.BACKWARD_TRANSFER]


def test_transfer_decomposition_tail_regression_reported():
    decomp = metrics.transfer_decomposition([0.2, 0.3], [0.2, 0.1], {0})
    assert decomp.per_class_region == [metrics.UNCHANGED, metrics.UNCHANGED]
    assert decomp.tail_regressions == [1]


def test_transfer_decomposition_rejects_a_head_class_out_of_range():
    # class 7 of two would be ignored, and both classes labeled tail
    for head in ({7}, {-1}, {0, 2}):
        with pytest.raises(ValueError, match=r"head_classes must lie in 0\.\.1"):
            metrics.transfer_decomposition([0.1, 0.2], [0.2, 0.1], head)
    assert metrics.transfer_decomposition([0.1, 0.2], [0.2, 0.1], set()).per_class_region == [
        metrics.FORWARD_TRANSFER, metrics.UNCHANGED]


def test_transfer_decomposition_partitions_classes():
    rng = np.random.default_rng(0)
    for _ in range(25):
        c = int(rng.integers(2, 20))
        before = rng.uniform(0, 1, c)
        after = rng.uniform(0, 1, c)
        head = set(rng.choice(c, size=c // 2, replace=False).tolist())
        decomp = metrics.transfer_decomposition(before, after, head)
        assert len(decomp.per_class_region) == c
        assert all(region in metrics.REGIONS for region in decomp.per_class_region)


def test_transfer_decomposition_shape_error():
    with pytest.raises(ShapeMismatchError):
        metrics.transfer_decomposition([0.1], [0.1, 0.2], set())


def test_evaluate_report_invariants():
    ds = _balanced_test_set(n_classes=3, n_per_class=6, n_features=4, seed=5)
    model = random_linear(4, 3, seed=5)
    report = metrics.evaluate(model, ds)
    assert np.all((0.0 <= report.per_class_accuracy) & (report.per_class_accuracy <= 1.0))
    assert abs(report.avg_class_accuracy - report.per_class_accuracy.mean()) <= 1e-12
    assert np.array_equal(report.n_test_per_class, ds.class_counts)
