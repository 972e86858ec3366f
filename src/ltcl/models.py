"""Differentiable classifiers with closed-form gradients.

Two model kinds: multinomial logistic regression (supports an exact
dense Hessian) and a small rectifier MLP (gradient only); the linear
model is the one-layer case of the same network code. Both keep every
parameter in one flat float64 buffer, `params`, so optimizers,
penalties, and distance measurements can treat them uniformly. The
regularized cross-entropy loss is (mean CE) + (mu/2)*||theta||^2 over
all weights and biases; an `ObjectiveTerm` extends it.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .datasets import LabeledDataset
from .errors import (
    COUNT, FINITE_AT_LEAST_0, CapacityError, CheckpointError, EmptyClassError, ShapeMismatchError, UnsupportedModelError,
    check, list_of, seeded_rng,
)

HESSIAN_PARAM_GUARD = 5000
HESSIAN_CHUNK = 2048  # rows per pass of the dense Hessian
CHECKPOINT_MAGIC = b"LTCP"
CHECKPOINT_VERSION = 1
_KIND_LINEAR = 0
_KIND_MLP = 1


class ParamLayout:
    """Maps a list of array shapes to consecutive slices of one flat vector;
    offsets holds each slice's start and, last, the total size."""

    def __init__(self, shapes):
        self.shapes = [tuple(shape) for shape in shapes]
        self.offsets = np.cumsum([0] + [int(np.prod(shape)) for shape in self.shapes]).tolist()
        self.total_size = self.offsets[-1]

    def views(self, flat: np.ndarray) -> list:
        """Reshaped views of flat, one per shape, in layout order."""
        if flat.shape != (self.total_size,):
            raise ShapeMismatchError(
                f"expected flat vector of length {self.total_size}, got {flat.shape}"
            )
        slices = zip(self.offsets, self.offsets[1:])
        return [flat[start:end].reshape(shape) for shape, (start, end) in zip(self.shapes, slices)]


@dataclass(frozen=True)
class LossSpec:
    """Regularized cross-entropy settings; reduction is mean over samples."""

    mu: float = 0.0

    def __post_init__(self):
        check("mu", self.mu, FINITE_AT_LEAST_0)


def log_softmax(logits):
    # the ufunc reductions that ndarray.max and .sum wrap, called directly
    shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    shifted -= np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))
    return shifted


def softmax_probs(logits):
    return np.exp(log_softmax(logits))


class ObjectiveTerm:
    """Extends the objective of `loss_and_gradient`: `logit_term` before
    back-propagation, `param_term` on the filled gradient, and
    `enter`/`leave` around a training run. Each hook is a no-op until a
    subclass overrides it, so `NO_TERM`, a plain instance, adds nothing."""

    def enter(self, model, dataset):
        """`training.train` calls this on its copy of the model before the
        first step; returns the model and the dataset the steps run on."""
        return model, dataset

    def leave(self, model):
        """`training.train` calls this after the last step; returns the
        model it returns."""
        return model

    def logit_term(self, logits, inputs, delta) -> float:
        """Adds the term's logit derivative / n to delta in place; returns the term."""
        return 0.0

    def param_term(self, params, out) -> float:
        """Adjusts out.grad, the flat gradient, in place once the model has
        filled it (out.views are its layout views); returns the term. The
        model has already used out.scratch for mu * theta, so the term may
        overwrite it."""
        return 0.0


NO_TERM = ObjectiveTerm()


class GradientWorkspace:
    """The buffers one training run reuses at every step, made for a
    model: the flat gradient `grad`, `views`, the model's layout views of
    `grad`, and a parameter-sized `scratch` vector. `probs` holds the
    class probabilities (batch, classes) of the last `loss_and_gradient`
    call that filled it."""

    def __init__(self, model):
        self.grad = np.empty_like(model.params)
        self.scratch = np.empty_like(model.params)
        self.views = model.layout.views(self.grad)
        self.probs = None


class _Network:
    """Affine layers with rectifiers between them and an identity output.

    Every parameter lives in one float64 vector, `params`, laid out as
    w0, b0, w1, b1, ... with each weight row-major. `weights` and
    `biases` are read-only attributes holding reshaped views into that
    buffer, so they cannot be rebound away from it; training updates
    `params` in place. `get_params` returns a copy, `set_params` copies
    into the buffer (never aliasing its argument), and `copy` owns a new
    buffer.
    """

    def _bind(self, weights, biases) -> None:
        arrays = []
        for w, b in zip(weights, biases):
            w = np.asarray(w, dtype=np.float64)
            b = np.asarray(b, dtype=np.float64)
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise ShapeMismatchError("each layer needs (out, in) weights and an (out,) bias")
            arrays += [w, b]
        self.layout = ParamLayout(a.shape for a in arrays)
        self._params = np.empty(self.layout.total_size)
        views = self.layout.views(self._params)
        for view, array in zip(views, arrays):
            view[...] = array
        self._weights = tuple(views[0::2])
        self._biases = tuple(views[1::2])

    @property
    def params(self) -> np.ndarray:
        return self._params

    @property
    def layer_sizes(self):
        return [self._weights[0].shape[1]] + [w.shape[0] for w in self._weights]

    @property
    def n_features(self) -> int:
        return self._weights[0].shape[1]

    @property
    def n_classes(self) -> int:
        return self._weights[-1].shape[0]

    @property
    def final_weights(self) -> np.ndarray:
        return self._weights[-1]

    def copy(self):
        return type(self)(self.weights, self.biases)

    def get_params(self) -> np.ndarray:
        return self._params.copy()

    def set_params(self, flat) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != self._params.shape:
            raise ShapeMismatchError(
                f"expected flat vector of length {len(self._params)}, got {flat.shape}"
            )
        self._params[...] = flat

    def forward_with_activations(self, features):
        """Logits and the input to each weighted layer."""
        a = np.asarray(features, dtype=np.float64)
        if a.shape[1] != self.n_features:
            raise ShapeMismatchError(
                f"model expects {self.n_features} features, got {a.shape[1]}"
            )
        activations = []
        last = len(self._weights) - 1
        for i, (w, b) in enumerate(zip(self._weights, self._biases)):
            activations.append(a)
            a = a @ w.T
            a += b
            if i < last:
                np.maximum(a, 0.0, out=a)
        return a, activations

    def forward(self, features) -> np.ndarray:
        return self.forward_with_activations(features)[0]

    def backward(self, delta, activations, square: bool = False, out=None) -> np.ndarray:
        """Back-propagate per-sample logit derivatives through the layers.

        delta has one row per sample. Returns the flat layout-order sum over
        samples of each sample's gradient: delta_l^T a_l per weight and the
        column sums of delta_l per bias, with delta_l the derivative at
        layer l's output and a_l its input. With square=True every
        per-sample gradient is squared before the sum, (delta_l**2)^T a_l**2.
        The sum fills `out.grad`, of a new `GradientWorkspace` by default.
        """
        if out is None:
            out = GradientWorkspace(self)
        views = out.views
        for i in range(len(self._weights) - 1, -1, -1):
            a = activations[i]
            d = delta * delta if square else delta
            np.matmul(d.T, a * a if square else a, out=views[2 * i])
            np.add.reduce(d, axis=0, out=views[2 * i + 1])
            if i > 0:
                # a = relu(previous pre-activation): a > 0 is the rectifier's mask
                delta = (delta @ self._weights[i]) * (a > 0)
        return out.grad

    def loss_and_gradient(self, features, labels, spec: LossSpec, term: ObjectiveTerm = NO_TERM, out=None):
        """Mean CE + (mu/2)||theta||^2 and its exact gradient, flat. The
        gradient fills `out`, a `GradientWorkspace`, and is its `grad`; by
        default it is a new array. The softmax class probabilities of the
        batch are left in `out.probs`. `term` extends both; `NO_TERM` adds 0."""
        if out is None:
            out = GradientWorkspace(self)
        n = len(labels)
        rows = np.arange(n)
        logits, activations = self.forward_with_activations(features)
        logp = log_softmax(logits)
        loss = -(np.add.reduce(logp[rows, labels]) / n)  # the mean, without its wrapper
        loss += 0.5 * spec.mu * float(self._params @ self._params)
        out.probs = np.exp(logp)
        delta = out.probs.copy()
        delta[rows, labels] -= 1.0
        delta /= n
        loss += term.logit_term(logits, activations, delta)
        grad = self.backward(delta, activations, out=out)
        grad += np.multiply(self._params, spec.mu, out=out.scratch)
        loss += term.param_term(self._params, out)
        return loss, grad


class LinearModel(_Network):
    """Multinomial logistic regression: logits = X W^T + b."""

    # each kind holds its own attribute, so calls can be patched per kind
    loss_and_gradient = _Network.loss_and_gradient

    def __init__(self, weights, biases):
        self._bind([weights], [biases])

    @classmethod
    def zeros(cls, n_features: int, n_classes: int) -> "LinearModel":
        return cls(np.zeros((n_classes, n_features)), np.zeros(n_classes))

    @property
    def weights(self) -> np.ndarray:
        return self._weights[0]

    @property
    def biases(self) -> np.ndarray:
        return self._biases[0]


class MlpModel(_Network):
    """Fully connected rectifier network; identity output layer."""

    loss_and_gradient = _Network.loss_and_gradient

    def __init__(self, weights, biases):
        if len(weights) != len(biases) or not len(weights):
            raise ShapeMismatchError("need matching weight/bias lists")
        self._bind(weights, biases)

    @classmethod
    def initialize(cls, layer_sizes, seed: int) -> "MlpModel":
        """Scaled-uniform fan-in weights, zero biases."""
        check("layer_sizes", layer_sizes, list_of(COUNT))
        if len(layer_sizes) < 2:
            raise ValueError(f"layer_sizes must hold an input and an output size, got {layer_sizes!r}")
        rng = seeded_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
            biases.append(np.zeros(fan_out))
        return cls(weights, biases)

    @property
    def weights(self) -> tuple:
        return self._weights

    @property
    def biases(self) -> tuple:
        return self._biases


def loss(model, dataset: LabeledDataset, spec: LossSpec) -> float:
    if dataset.n_samples == 0:
        raise EmptyClassError("loss of an empty dataset is undefined")
    n = dataset.n_samples
    logp = log_softmax(model.forward(dataset.features))
    value = -logp[np.arange(n), dataset.labels].mean()
    theta = model.params
    return float(value + 0.5 * spec.mu * (theta @ theta))


def hessian(model, dataset: LabeledDataset, spec: LossSpec) -> np.ndarray:
    """Exact Hessian of the regularized CE loss for the linear model.

    Ordering follows the model layout: all weight coordinates row-major,
    then biases. Dense, so guarded to at most HESSIAN_PARAM_GUARD
    parameters.
    """
    if not isinstance(model, LinearModel):
        raise UnsupportedModelError("exact Hessian is only available for the linear model")
    if dataset.n_samples == 0:
        raise EmptyClassError("hessian of an empty dataset is undefined")
    n, d = dataset.features.shape
    c = model.n_classes
    n_params = model.layout.total_size
    if n_params > HESSIAN_PARAM_GUARD:
        raise CapacityError(
            f"{n_params} parameters exceed the dense-Hessian guard of {HESSIAN_PARAM_GUARD}"
        )
    aug = d + 1
    probs = softmax_probs(model.forward(dataset.features))
    h_aug = np.zeros((c * aug, c * aug))
    for start in range(0, n, HESSIAN_CHUNK):
        x = np.hstack(
            [
                dataset.features[start : start + HESSIAN_CHUNK],
                np.ones((min(HESSIAN_CHUNK, n - start), 1)),
            ]
        )
        p = probs[start : start + HESSIAN_CHUNK]
        for a in range(c):
            block = x.T @ (p[:, a : a + 1] * x)
            h_aug[a * aug : (a + 1) * aug, a * aug : (a + 1) * aug] += block
        v = (p[:, :, None] * x[:, None, :]).reshape(len(x), c * aug)
        h_aug -= v.T @ v
    h_aug /= n

    # permute from per-class [w_a, b_a] blocks to layout order (weights, bias)
    perm = np.empty(n_params, dtype=np.intp)
    for a in range(c):
        perm[a * d : (a + 1) * d] = np.arange(a * aug, a * aug + d)
        perm[c * d + a] = a * aug + d
    h = h_aug[np.ix_(perm, perm)]
    h[np.diag_indices_from(h)] += spec.mu
    return 0.5 * (h + h.T)


def hessian_operator(model, dataset: LabeledDataset, spec: LossSpec, probs=None):
    """The map v -> H v for the regularized CE Hessian H of the linear model
    at its current parameters, in the layout order of `hessian`.

    Pearlmutter's R-operator: with R = V_w X^T + v_b the directional
    derivative of the logits, class-major (c, n), each sample's softmax
    curvature diag(p) - p p^T maps its column of R to
    S = P*R - P*colsum(P*R), and S X carries it back to the weights. The
    class probabilities P are `probs`, (n, c), when given: those that
    `loss_and_gradient` left in its workspace at the same parameters and
    data, the same bits as a fresh forward pass. Otherwise one forward
    pass computes them here. They are transposed to (c, n) once, so each
    product costs two matmuls on views of X, no copy of it, and no dense
    Hessian is formed.
    """
    if not isinstance(model, LinearModel):
        raise UnsupportedModelError("Hessian-vector products are only available for the linear model")
    if dataset.n_samples == 0:
        raise EmptyClassError("hessian of an empty dataset is undefined")
    x = dataset.features
    n = len(x)
    layout = model.layout
    if probs is None:
        probs = softmax_probs(model.forward(x))
    elif probs.shape != (n, model.n_classes):
        raise ShapeMismatchError(f"expected ({n}, {model.n_classes}) class probabilities, got {probs.shape}")
    probs_t = np.ascontiguousarray(probs.T)

    def apply(v) -> np.ndarray:
        v_w, v_b = layout.views(np.asarray(v, dtype=np.float64))
        s = v_w @ x.T
        s += v_b[:, None]
        s *= probs_t
        s -= probs_t * s.sum(axis=0)
        s /= n
        out = np.empty(layout.total_size)
        out_w, out_b = layout.views(out)
        np.matmul(s, x, out=out_w)
        out_w += spec.mu * v_w
        np.add(s.sum(axis=1), spec.mu * v_b, out=out_b)
        return out

    return apply


def softmax_smoothness_bound(dataset: LabeledDataset, mu: float, iters: int = 200) -> float:
    """Estimate of the largest Hessian eigenvalue of the regularized CE loss.

    Combines the multinomial curvature bound diag(p) - pp^T <= I/2 with a
    power-iteration estimate of lambda_max(X~^T X~ / n), times 1.01. Power
    iteration approaches lambda_max from below and the 1.01 margin is not
    derived from its error, so this is an estimate, not a certified upper
    bound.
    """
    x = dataset.features
    n = len(x)
    rng = seeded_rng(0)
    v = rng.standard_normal(x.shape[1] + 1)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        xv = x @ v[:-1] + v[-1]
        w = np.empty_like(v)
        w[:-1] = x.T @ xv / n
        w[-1] = xv.sum() / n
        new_lam = float(v @ w)
        v = w / np.linalg.norm(w)
        if abs(new_lam - lam) <= 1e-12 * max(1.0, abs(new_lam)):
            lam = new_lam
            break
        lam = new_lam
    return 0.5 * lam * 1.01 + mu


def save_checkpoint(model, path) -> None:
    """Write a model to the versioned binary checkpoint format.

    Layout (little-endian): magic "LTCP", u32 version, u32 kind
    (0 linear / 1 mlp), u32 layer count, u32 layer sizes, then all
    parameters as float64 in layout order.
    """
    kind = _KIND_LINEAR if isinstance(model, LinearModel) else _KIND_MLP
    sizes = model.layer_sizes
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<III", CHECKPOINT_VERSION, kind, len(sizes)))
        fh.write(struct.pack(f"<{len(sizes)}I", *sizes))
        fh.write(model.get_params().astype("<f8").tobytes())


def load_checkpoint(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic {data[:4]!r}")
    if len(data) < 16:
        raise CheckpointError(f"{path}: header truncated at {len(data)} bytes")
    version, kind, n_sizes = struct.unpack("<III", data[4:16])
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    if kind not in (_KIND_LINEAR, _KIND_MLP):
        raise CheckpointError(f"{path}: unknown model kind {kind}")
    offset = 16 + 4 * n_sizes
    if len(data) < offset:
        raise CheckpointError(
            f"{path}: {n_sizes} layer sizes need {offset} header bytes, file has {len(data)}"
        )
    sizes = struct.unpack(f"<{n_sizes}I", data[16:offset])
    if kind == _KIND_LINEAR and n_sizes != 2:
        raise CheckpointError(f"{path}: linear checkpoint needs 2 layer sizes")
    if n_sizes < 2:
        raise CheckpointError(f"{path}: need at least input and output sizes")
    if min(sizes) < 1:
        raise CheckpointError(f"{path}: layer sizes must all be >= 1, found {min(sizes)}")
    # checked before any model is built, so a corrupt size field cannot
    # trigger a huge allocation
    expected = sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))
    if (len(data) - offset) % 8:
        raise CheckpointError(f"{path}: parameter block ends in a partial float64")
    found = (len(data) - offset) // 8
    if found != expected:
        raise CheckpointError(f"{path}: expected {expected} parameters, found {found}")
    weights = [np.zeros((b, a)) for a, b in zip(sizes[:-1], sizes[1:])]
    biases = [np.zeros(b) for b in sizes[1:]]
    model = LinearModel(weights[0], biases[0]) if kind == _KIND_LINEAR else MlpModel(weights, biases)
    model.set_params(np.frombuffer(data, dtype="<f8", offset=offset).astype(np.float64))
    return model
