import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from _fixtures import heavy_ball_minimizer, parser_inputs, random_linear
from ltcl import datasets, models
from ltcl.errors import (
    CapacityError,
    CheckpointError,
    ShapeMismatchError,
    UnsupportedModelError,
)


def _random_dataset(n=12, d=4, c=3, seed=0):
    rng = np.random.default_rng(seed)
    return datasets.LabeledDataset.from_arrays(
        rng.standard_normal((n, d)), rng.integers(0, c, n), n_classes=c
    )


def _fd_gradient(model, ds, spec, h=1e-5):
    theta = model.get_params()
    grad = np.zeros_like(theta)
    probe = model.copy()
    for i in range(len(theta)):
        up = theta.copy()
        up[i] += h
        probe.set_params(up)
        hi = models.loss(probe, ds, spec)
        down = theta.copy()
        down[i] -= h
        probe.set_params(down)
        lo = models.loss(probe, ds, spec)
        grad[i] = (hi - lo) / (2 * h)
    return grad


def test_softmax_uniform_at_zero_params():
    model = models.LinearModel.zeros(4, 5)
    probs = models.softmax_probs(model.forward(np.random.default_rng(0).standard_normal((7, 4))))
    assert np.allclose(probs, 0.2, atol=1e-12)


def test_softmax_overflow_safe():
    model = models.LinearModel(np.array([[1000.0], [0.0]]), np.zeros(2))
    probs = models.softmax_probs(model.forward(np.array([[1.0]])))
    assert np.all(np.isfinite(probs))
    assert probs[0] == pytest.approx([1.0, 0.0], abs=1e-9)


def test_softmax_hand_value():
    model = models.LinearModel(np.eye(3), np.zeros(3))
    probs = models.softmax_probs(model.forward(np.array([[1.0, 2.0, 3.0]])))
    assert probs[0] == pytest.approx([0.09003057, 0.24472847, 0.66524096], abs=1e-7)


def test_softmax_rows_sum_to_one_many_draws():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((10, 6))
    for _ in range(1000):
        model = models.LinearModel(rng.standard_normal((4, 6)) * 3, rng.standard_normal(4))
        probs = models.softmax_probs(model.forward(x))
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-9)
        assert np.all(probs >= 0)


def test_softmax_dimension_mismatch():
    model = models.LinearModel.zeros(4, 3)
    with pytest.raises(ShapeMismatchError):
        model.forward(np.zeros((2, 5)))


def test_loss_ln_c_at_origin():
    ds = _random_dataset(n=20, d=4, c=10)
    model = models.LinearModel.zeros(4, 10)
    assert models.loss(model, ds, models.LossSpec(mu=0.0)) == pytest.approx(np.log(10), abs=1e-12)
    # regularizer vanishes at the origin
    assert models.loss(model, ds, models.LossSpec(mu=0.7)) == pytest.approx(np.log(10), abs=1e-12)


def test_loss_additive_regularizer():
    ds = _random_dataset()
    weights = np.zeros((3, 4))
    weights[0, 0] = 2.0  # ||theta||^2 = 4
    model = models.LinearModel(weights, np.zeros(3))
    data_term = models.loss(model, ds, models.LossSpec(mu=0.0))
    full = models.loss(model, ds, models.LossSpec(mu=0.5))
    assert full == pytest.approx(data_term + 1.0, abs=1e-12)


@pytest.mark.parametrize("mu", [-0.1, float("nan"), float("inf")])
def test_loss_spec_rejects_negative_or_non_finite_mu(mu):
    # NaN fails every comparison, so a check written as `mu < 0` would let it through
    with pytest.raises(ValueError, match="mu"):
        models.LossSpec(mu=mu)


def test_loss_empty_dataset():
    ds = datasets.LabeledDataset.from_arrays(np.zeros((0, 4)), np.zeros(0, dtype=int), n_classes=3)
    with pytest.raises(ValueError):
        models.loss(models.LinearModel.zeros(4, 3), ds, models.LossSpec())


@pytest.mark.parametrize("seed", range(20))
def test_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    c = int(rng.integers(2, 5))
    d = int(rng.integers(2, 6))
    n = int(rng.integers(4, 12))
    ds = _random_dataset(n=n, d=d, c=c, seed=seed + 100)
    spec = models.LossSpec(mu=float(rng.uniform(0, 0.5)))
    if seed % 2 == 0:
        model = models.LinearModel(
            rng.standard_normal((c, d)) * 0.5, rng.standard_normal(c) * 0.2
        )
    else:
        h = int(rng.integers(3, 8))
        model = models.MlpModel.initialize([d, h, c], seed=seed)
    _, grad = model.loss_and_gradient(ds.features, ds.labels, spec)
    fd = _fd_gradient(model, ds, spec)
    assert np.allclose(grad, fd, rtol=1e-5, atol=1e-8)


def test_gradient_vanishes_at_minimizer():
    ds = _random_dataset(n=30, d=3, c=3, seed=5)
    spec = models.LossSpec(mu=0.1)
    trained, _ = heavy_ball_minimizer(ds, 0.1, 1e-8, 50_000)
    _, grad = trained.loss_and_gradient(ds.features, ds.labels, spec)
    assert np.linalg.norm(grad) <= 1e-6


def test_gradient_mu_linearity():
    ds = _random_dataset(seed=7)
    rng = np.random.default_rng(7)
    model = models.LinearModel(rng.standard_normal((3, 4)), rng.standard_normal(3))
    theta = model.get_params()
    g1 = model.loss_and_gradient(ds.features, ds.labels, models.LossSpec(mu=0.3))[1]
    g2 = model.loss_and_gradient(ds.features, ds.labels, models.LossSpec(mu=0.6))[1]
    assert np.allclose(g2 - g1, 0.3 * theta, atol=1e-12)


def test_gradient_weighted_head_tail_combination():
    src = datasets.synthetic_gaussian(6, 5, 40, 2.0, seed=3)
    lt = datasets.make_longtail(src, 8.0, seed=3)
    split = datasets.head_tail_split(lt, 0.5)
    model = models.MlpModel.initialize([5, 6, 6], seed=4)
    spec = models.LossSpec(mu=0.05)
    g_full, g_head, g_tail = (
        model.loss_and_gradient(ds.features, ds.labels, spec)[1] for ds in (lt, split.head, split.tail)
    )
    wh = split.head.n_samples / lt.n_samples
    wt = split.tail.n_samples / lt.n_samples
    assert np.allclose(g_full, wh * g_head + wt * g_tail, atol=1e-10)


def test_strong_convexity_witness():
    ds = _random_dataset(n=25, d=4, c=3, seed=11)
    mu = 0.2
    spec = models.LossSpec(mu=mu)
    model = models.LinearModel.zeros(4, 3)
    rng = np.random.default_rng(11)
    probe = model.copy()
    for _ in range(50):
        theta1 = rng.standard_normal(probe.layout.total_size) * 2
        theta2 = rng.standard_normal(probe.layout.total_size) * 2
        probe.set_params(theta2)
        l2, g2 = probe.loss_and_gradient(ds.features, ds.labels, spec)
        probe.set_params(theta1)
        l1 = models.loss(probe, ds, spec)
        lower = l2 + g2 @ (theta1 - theta2) + 0.5 * mu * np.sum((theta1 - theta2) ** 2)
        assert l1 >= lower - 1e-8


def test_hessian_psd_minus_mu():
    ds = _random_dataset(n=30, d=4, c=3, seed=2)
    rng = np.random.default_rng(2)
    model = models.LinearModel(rng.standard_normal((3, 4)), rng.standard_normal(3))
    mu = 0.05
    h = models.hessian(model, ds, models.LossSpec(mu=mu))
    assert np.max(np.abs(h - h.T)) <= 1e-10
    data_term = h - mu * np.eye(len(h))
    assert np.linalg.eigvalsh(data_term)[0] >= -1e-8


def test_hessian_matches_fd_of_gradient():
    ds = _random_dataset(n=10, d=3, c=2, seed=9)
    rng = np.random.default_rng(9)
    model = models.LinearModel(rng.standard_normal((2, 3)) * 0.4, rng.standard_normal(2) * 0.1)
    spec = models.LossSpec(mu=0.1)
    h = models.hessian(model, ds, spec)
    theta = model.get_params()
    probe = model.copy()
    step = 1e-5
    fd = np.zeros_like(h)
    for i in range(len(theta)):
        up = theta.copy()
        up[i] += step
        probe.set_params(up)
        _, gp = probe.loss_and_gradient(ds.features, ds.labels, spec)
        down = theta.copy()
        down[i] -= step
        probe.set_params(down)
        _, gm = probe.loss_and_gradient(ds.features, ds.labels, spec)
        fd[:, i] = (gp - gm) / (2 * step)
    assert np.allclose(h, fd, rtol=1e-4, atol=1e-7)


def test_hessian_single_sample_binary_curvature():
    x = 2.0
    ds = datasets.LabeledDataset.from_arrays(np.array([[x]]), np.array([0]), n_classes=2)
    model = models.LinearModel.zeros(1, 2)
    h = models.hessian(model, ds, models.LossSpec(mu=0.0))
    assert h[0, 0] == pytest.approx(0.25 * x * x, abs=1e-12)


def test_hessian_guard_and_unsupported():
    big = datasets.LabeledDataset.from_arrays(
        np.zeros((2, 600)), np.array([0, 1]), n_classes=10
    )
    with pytest.raises(CapacityError):
        models.hessian(models.LinearModel.zeros(600, 10), big, models.LossSpec())
    mlp = models.MlpModel.initialize([4, 5, 3], seed=0)
    with pytest.raises(UnsupportedModelError):
        models.hessian(mlp, _random_dataset(), models.LossSpec())


def _hvp_case(seed):
    ds = _random_dataset(n=25, d=5, c=4, seed=seed)
    rng = np.random.default_rng(seed)
    model = models.LinearModel(rng.standard_normal((4, 5)) * 0.7, rng.standard_normal(4) * 0.3)
    return ds, model, models.LossSpec(mu=0.03), rng


def test_hessian_vector_product_matches_dense_hessian():
    for seed in range(5):
        ds, model, spec, rng = _hvp_case(seed)
        h = models.hessian(model, ds, spec)
        for _ in range(4):
            v = rng.standard_normal(len(h))
            hv = models.hessian_operator(model, ds, spec)(v)
            assert np.max(np.abs(hv - h @ v)) <= 1e-10


@pytest.mark.parametrize(
    "n, d, c",
    [(30, 4, 2), (6, 20, 3), (80, 5, 4), (1, 7, 3)],
    ids=["two-classes", "n<d", "n>d", "one-row"],
)
def test_hessian_vector_product_shapes_match_dense_hessian(n, d, c):
    # the class-major product against the dense Hessian, across the shapes
    # that change which side of X the products run along
    rng = np.random.default_rng(n * 100 + d)
    ds = _random_dataset(n=n, d=d, c=c, seed=n + d)
    model = models.LinearModel(rng.standard_normal((c, d)) * 0.7, rng.standard_normal(c) * 0.3)
    spec = models.LossSpec(mu=0.02)
    h = models.hessian(model, ds, spec)
    apply = models.hessian_operator(model, ds, spec)
    for _ in range(3):
        v = rng.standard_normal(len(h))
        before = v.copy()
        hv = apply(v)
        assert hv.shape == v.shape
        assert np.max(np.abs(hv - h @ v)) <= 1e-10
        assert np.array_equal(v, before)  # the input is never written


def test_hessian_vector_product_matches_fd_of_gradient():
    ds, model, spec, rng = _hvp_case(11)
    theta = model.get_params()
    probe = model.copy()
    step = 1e-5
    for _ in range(4):
        v = rng.standard_normal(len(theta))
        probe.set_params(theta + step * v)
        _, gp = probe.loss_and_gradient(ds.features, ds.labels, spec)
        probe.set_params(theta - step * v)
        _, gm = probe.loss_and_gradient(ds.features, ds.labels, spec)
        fd = (gp - gm) / (2 * step)
        assert np.allclose(models.hessian_operator(model, ds, spec)(v), fd, rtol=1e-5, atol=1e-8)


@pytest.mark.parametrize(
    "n, d, c",
    [(30, 4, 2), (6, 20, 3), (80, 5, 4), (1, 7, 3)],
    ids=["two-classes", "n<d", "n>d", "one-row"],
)
def test_hessian_vector_product_from_workspace_probs_is_bit_identical(n, d, c):
    # the class probabilities that loss_and_gradient leaves in its workspace
    # are the bits of the operator's own forward pass, so its products are too
    rng = np.random.default_rng(n * 7 + d)
    ds = _random_dataset(n=n, d=d, c=c, seed=n * d)
    model = models.LinearModel(rng.standard_normal((c, d)) * 0.7, rng.standard_normal(c) * 0.3)
    spec = models.LossSpec(mu=0.02)
    ws = models.GradientWorkspace(model)
    model.loss_and_gradient(ds.features, ds.labels, spec, out=ws)
    assert ws.probs.shape == (n, c)
    assert np.array_equal(ws.probs, models.softmax_probs(model.forward(ds.features)))
    fresh = models.hessian_operator(model, ds, spec)
    reused = models.hessian_operator(model, ds, spec, ws.probs)
    for _ in range(5):
        v = rng.standard_normal(model.layout.total_size)
        assert np.array_equal(reused(v), fresh(v))
    with pytest.raises(ShapeMismatchError):
        models.hessian_operator(model, ds, spec, ws.probs[:, 1:])


def test_hessian_vector_product_unsupported_and_shape():
    mlp = models.MlpModel.initialize([4, 5, 3], seed=0)
    with pytest.raises(UnsupportedModelError):
        models.hessian_operator(mlp, _random_dataset(), models.LossSpec())(np.zeros(mlp.layout.total_size))
    model = models.LinearModel.zeros(4, 3)
    apply = models.hessian_operator(model, _random_dataset(), models.LossSpec())
    for wrong in (np.zeros(7), np.zeros(model.layout.total_size + 1), np.zeros((model.layout.total_size, 1))):
        with pytest.raises(ShapeMismatchError):
            apply(wrong)


def test_mlp_forward_backward_contract():
    ds = _random_dataset(n=4, d=4, c=3, seed=12)
    model = models.MlpModel.initialize([4, 8, 3], seed=12)
    value, grad = model.loss_and_gradient(ds.features, ds.labels, models.LossSpec(mu=0.01))
    _, activations = model.forward_with_activations(ds.features)
    assert np.isfinite(value)
    assert grad.shape == (model.layout.total_size,)
    assert len(activations) == 2  # one entry per weighted layer
    assert all(a.shape[0] == 4 for a in activations)


def test_mlp_dead_network_uniform():
    d, c = 5, 4
    model = models.MlpModel.initialize([d, 6, c], seed=0)
    model.set_params(np.zeros(model.layout.total_size))
    ds = _random_dataset(n=10, d=d, c=c, seed=1)
    assert models.loss(model, ds, models.LossSpec()) == pytest.approx(np.log(c), abs=1e-12)


def test_param_vector_roundtrip():
    model = models.MlpModel.initialize([3, 5, 2], seed=6)
    flat = model.get_params()
    assert model.layout.total_size == len(flat) == len(model.params)
    arrays = [a for pair in zip(model.weights, model.biases) for a in pair]
    for shape, offset, array in zip(model.layout.shapes, model.layout.offsets, arrays):
        assert np.shares_memory(array, model.params)
        assert array.shape == shape
        assert np.array_equal(array.ravel(), flat[offset : offset + array.size])
    assert np.array_equal(np.concatenate([a.ravel() for a in arrays]), flat)


def _both_kinds():
    rng = np.random.default_rng(3)
    return (
        models.LinearModel(rng.standard_normal((3, 4)), rng.standard_normal(3)),
        models.MlpModel.initialize([4, 5, 3], seed=3),
    )


def test_gradient_workspace_views_are_the_layout_views_of_its_gradient():
    for model in _both_kinds():
        workspace = models.GradientWorkspace(model)
        assert workspace.grad.shape == workspace.scratch.shape == model.params.shape
        assert not np.shares_memory(workspace.grad, model.params)
        assert not np.shares_memory(workspace.scratch, workspace.grad)
        workspace.grad[:] = np.arange(model.layout.total_size)
        assert len(workspace.views) == len(model.layout.shapes)
        for view, shape, offset in zip(workspace.views, model.layout.shapes, model.layout.offsets):
            assert view.base is workspace.grad and view.shape == shape
            assert np.array_equal(view.ravel(), np.arange(offset, offset + view.size))


def test_get_params_returns_a_copy():
    for model in _both_kinds():
        before = model.params.copy()
        flat = model.get_params()
        assert np.array_equal(flat, before) and not np.shares_memory(flat, model.params)
        flat[:] = 0.0
        assert np.array_equal(model.params, before)


def test_set_params_copies_and_never_aliases():
    for model in _both_kinds():
        buffer = model.params
        new = np.arange(model.layout.total_size, dtype=np.float64)
        model.set_params(new)
        assert model.params is buffer and not np.shares_memory(new, model.params)
        new[0] = -99.0
        assert np.array_equal(model.params, np.arange(model.layout.total_size))
        with pytest.raises(ShapeMismatchError):
            model.set_params(np.zeros(model.layout.total_size + 1))


def test_copy_owns_a_new_buffer():
    for model in _both_kinds():
        clone = model.copy()
        assert np.array_equal(clone.params, model.params)
        assert not np.shares_memory(clone.params, model.params)
        clone.params[:] = 0.0
        assert model.params.any()


def test_weights_and_biases_are_read_only_views():
    for model in _both_kinds():
        model.params[:] = 0.0
        assert not model.final_weights.any()
        model.params[:] = 2.0
        assert np.all(model.final_weights == 2.0)
        with pytest.raises(AttributeError):
            model.weights = model.weights
        with pytest.raises(AttributeError):
            model.biases = model.biases
        with pytest.raises(AttributeError):
            model.params = np.zeros(model.layout.total_size)


def test_checkpoint_roundtrip(tmp_path):
    for model in (
        models.LinearModel(np.random.default_rng(0).standard_normal((3, 4)), np.ones(3)),
        models.MlpModel.initialize([4, 6, 3], seed=2),
    ):
        path = tmp_path / f"{type(model).__name__}.ckpt"
        models.save_checkpoint(model, path)
        loaded = models.load_checkpoint(path)
        assert type(loaded) is type(model)
        assert loaded.layer_sizes == model.layer_sizes
        assert np.array_equal(loaded.get_params(), model.get_params())


def test_checkpoint_byte_layout(tmp_path):
    import struct

    model = models.LinearModel(np.array([[1.5, -2.0]]), np.array([0.25]))
    path = tmp_path / "m.ckpt"
    models.save_checkpoint(model, path)
    data = path.read_bytes()
    assert data[:4] == b"LTCP"
    version, kind, n_sizes = struct.unpack("<III", data[4:16])
    assert (version, kind, n_sizes) == (1, 0, 2)
    assert struct.unpack("<II", data[16:24]) == (2, 1)  # [d, C]
    params = struct.unpack("<3d", data[24:])
    assert params == (1.5, -2.0, 0.25)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + bytes(32))
    with pytest.raises(CheckpointError):
        models.load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    model = models.LinearModel.zeros(3, 2)
    path = tmp_path / "m.ckpt"
    models.save_checkpoint(model, path)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(CheckpointError):
        models.load_checkpoint(path)


def test_checkpoint_short_header(tmp_path):
    path = tmp_path / "short.ckpt"
    path.write_bytes(b"LTCP" + bytes(6))  # 10 bytes: cut inside the header
    with pytest.raises(CheckpointError, match="header"):
        models.load_checkpoint(path)


def test_checkpoint_oversized_layer_count(tmp_path):
    import struct

    path = tmp_path / "many.ckpt"
    path.write_bytes(b"LTCP" + struct.pack("<III", 1, 1, 2**31) + bytes(16))
    with pytest.raises(CheckpointError, match="layer sizes"):
        models.load_checkpoint(path)


def test_checkpoint_trailing_partial_float(tmp_path):
    model = models.LinearModel.zeros(3, 2)
    path = tmp_path / "m.ckpt"
    models.save_checkpoint(model, path)
    path.write_bytes(path.read_bytes() + b"\x00\x01\x02")
    with pytest.raises(CheckpointError, match="partial"):
        models.load_checkpoint(path)


def test_checkpoint_huge_layer_sizes_rejected_before_allocation(tmp_path):
    import struct

    path = tmp_path / "huge.ckpt"
    path.write_bytes(b"LTCP" + struct.pack("<III", 1, 1, 3) + struct.pack("<3I", 2**31, 2**31, 10) + bytes(8))
    with pytest.raises(CheckpointError, match="expected"):
        models.load_checkpoint(path)


@pytest.mark.parametrize("kind, sizes", [(0, (0, 0)), (0, (3, 0)), (1, (3, 0, 2)), (1, (0, 4, 2))])
def test_checkpoint_zero_layer_size_rejected(tmp_path, kind, sizes):
    n_params = sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))
    path = tmp_path / "zero.ckpt"
    path.write_bytes(
        b"LTCP" + struct.pack(f"<III{len(sizes)}I", 1, kind, len(sizes), *sizes) + bytes(8 * n_params)
    )
    with pytest.raises(CheckpointError, match=">= 1"):
        models.load_checkpoint(path)


def _checkpoint_bytes(model) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        models.save_checkpoint(model, path)
        return path.read_bytes()


_VALID_LINEAR = _checkpoint_bytes(random_linear(3, 2, seed=0))
_VALID_MLP = _checkpoint_bytes(models.MlpModel.initialize([2, 3, 2], seed=0))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=parser_inputs(_VALID_LINEAR) | parser_inputs(_VALID_MLP))
def test_load_checkpoint_fuzz(tmp_path, data):
    # any byte string loads as a model with sizes >= 1 or fails with CheckpointError
    path = tmp_path / "fuzz.ckpt"
    path.write_bytes(data)
    try:
        model = models.load_checkpoint(path)
    except CheckpointError:
        return
    assert min(model.layer_sizes) >= 1
    assert len(model.get_params()) * 8 < len(data)
