"""Differentiable classifiers with closed-form gradients.

Two model kinds: multinomial logistic regression (supports an exact
dense Hessian) and a small rectifier MLP (gradient only). Both expose a
flat parameter vector so optimizers, penalties, and distance
measurements can treat them uniformly. The regularized cross-entropy
loss is (mean CE) + (mu/2)*||theta||^2 over all weights and biases.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .datasets import LabeledDataset
from .errors import (
    CapacityError,
    CheckpointError,
    ShapeMismatchError,
    UnsupportedModelError,
)

HESSIAN_PARAM_GUARD = 5000
CHECKPOINT_MAGIC = b"LTCP"
CHECKPOINT_VERSION = 1
_KIND_LINEAR = 0
_KIND_MLP = 1


@dataclass(frozen=True)
class ParamSegment:
    name: str
    shape: tuple
    offset: int

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))


class ParamLayout:
    """Maps named parameter arrays to slices of one flat vector."""

    def __init__(self, spec):
        self.segments = []
        offset = 0
        for name, shape in spec:
            seg = ParamSegment(name, tuple(shape), offset)
            self.segments.append(seg)
            offset += seg.size
        self.total_size = offset

    def pack(self, arrays) -> np.ndarray:
        return np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays])

    def unpack(self, flat: np.ndarray) -> dict:
        flat = np.asarray(flat)
        if flat.shape != (self.total_size,):
            raise ShapeMismatchError(
                f"expected flat vector of length {self.total_size}, got {flat.shape}"
            )
        return {
            s.name: flat[s.offset : s.offset + s.size].reshape(s.shape)
            for s in self.segments
        }

    def __eq__(self, other):
        return isinstance(other, ParamLayout) and [
            (s.name, s.shape) for s in self.segments
        ] == [(s.name, s.shape) for s in other.segments]


@dataclass
class ParamVector:
    """Flat view of all trainable parameters of a model."""

    values: np.ndarray
    layout: ParamLayout

    def __post_init__(self):
        if self.values.shape != (self.layout.total_size,):
            raise ShapeMismatchError("parameter vector length disagrees with layout")


@dataclass(frozen=True)
class LossSpec:
    """Regularized cross-entropy settings; reduction is mean over samples."""

    mu: float = 0.0

    def __post_init__(self):
        if self.mu < 0:
            raise ValueError(f"mu must be >= 0, got {self.mu}")


def log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softmax_probs(logits):
    return np.exp(log_softmax(logits))


class LinearModel:
    """Multinomial logistic regression: logits = X W^T + b."""

    kind = "linear"

    def __init__(self, weights, biases):
        self.weights = np.array(weights, dtype=np.float64)
        self.biases = np.array(biases, dtype=np.float64)
        if self.weights.ndim != 2 or self.biases.shape != (self.weights.shape[0],):
            raise ShapeMismatchError("weights must be (C, d) with a length-C bias")
        self.layout = ParamLayout(
            [("weights", self.weights.shape), ("bias", self.biases.shape)]
        )

    @classmethod
    def zeros(cls, n_features: int, n_classes: int) -> "LinearModel":
        return cls(np.zeros((n_classes, n_features)), np.zeros(n_classes))

    @classmethod
    def initialize(cls, n_features: int, n_classes: int, seed: int) -> "LinearModel":
        rng = np.random.default_rng(seed)
        bound = 1.0 / np.sqrt(n_features)
        return cls(
            rng.uniform(-bound, bound, size=(n_classes, n_features)),
            np.zeros(n_classes),
        )

    @property
    def n_features(self) -> int:
        return self.weights.shape[1]

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def layer_sizes(self):
        return [self.n_features, self.n_classes]

    @property
    def final_weights(self) -> np.ndarray:
        return self.weights

    def weight_segment_names(self):
        return ["weights"]

    def copy(self) -> "LinearModel":
        return LinearModel(self.weights, self.biases)

    def get_params(self) -> np.ndarray:
        return self.layout.pack([self.weights, self.biases])

    def set_params(self, flat) -> None:
        parts = self.layout.unpack(np.asarray(flat, dtype=np.float64))
        self.weights = parts["weights"].copy()
        self.biases = parts["bias"].copy()

    def forward(self, features) -> np.ndarray:
        features = np.asarray(features)
        if features.shape[1] != self.n_features:
            raise ShapeMismatchError(
                f"model expects {self.n_features} features, got {features.shape[1]}"
            )
        return features @ self.weights.T + self.biases

    def forward_with_activations(self, features):
        return self.forward(features), [np.asarray(features)]

    def loss_and_gradient(self, features, labels, spec: LossSpec, extra_logit_grad=None):
        """Mean CE + (mu/2)||theta||^2 and its exact gradient, flat."""
        n = len(labels)
        logits = self.forward(features)
        logp = log_softmax(logits)
        loss = -logp[np.arange(n), labels].mean()
        theta = self.get_params()
        loss += 0.5 * spec.mu * float(theta @ theta)
        dlogits = np.exp(logp)
        dlogits[np.arange(n), labels] -= 1.0
        dlogits /= n
        if extra_logit_grad is not None:
            extra_loss, extra_dlogits = extra_logit_grad(logits)
            loss += extra_loss
            dlogits = dlogits + extra_dlogits
        grad_w = dlogits.T @ features + spec.mu * self.weights
        grad_b = dlogits.sum(axis=0) + spec.mu * self.biases
        return loss, self.layout.pack([grad_w, grad_b])


class MlpModel:
    """Fully connected rectifier network; identity output layer."""

    kind = "mlp"

    def __init__(self, weights, biases):
        self.weights = [np.array(w, dtype=np.float64) for w in weights]
        self.biases = [np.array(b, dtype=np.float64) for b in biases]
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ShapeMismatchError("need matching weight/bias lists")
        for w, b in zip(self.weights, self.biases):
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise ShapeMismatchError("each layer needs (out, in) weights and (out,) bias")
        spec = []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            spec.append((f"w{i}", w.shape))
            spec.append((f"b{i}", b.shape))
        self.layout = ParamLayout(spec)

    @classmethod
    def initialize(cls, layer_sizes, seed: int) -> "MlpModel":
        """Scaled-uniform fan-in weights, zero biases."""
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
            biases.append(np.zeros(fan_out))
        return cls(weights, biases)

    @property
    def layer_sizes(self):
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    @property
    def n_features(self) -> int:
        return self.weights[0].shape[1]

    @property
    def n_classes(self) -> int:
        return self.weights[-1].shape[0]

    @property
    def final_weights(self) -> np.ndarray:
        return self.weights[-1]

    def weight_segment_names(self):
        return [f"w{i}" for i in range(len(self.weights))]

    def copy(self) -> "MlpModel":
        return MlpModel(self.weights, self.biases)

    def get_params(self) -> np.ndarray:
        arrays = []
        for w, b in zip(self.weights, self.biases):
            arrays.extend([w, b])
        return self.layout.pack(arrays)

    def set_params(self, flat) -> None:
        parts = self.layout.unpack(np.asarray(flat, dtype=np.float64))
        self.weights = [parts[f"w{i}"].copy() for i in range(len(self.weights))]
        self.biases = [parts[f"b{i}"].copy() for i in range(len(self.biases))]

    def _forward_full(self, features):
        a = np.asarray(features, dtype=np.float64)
        if a.shape[1] != self.n_features:
            raise ShapeMismatchError(
                f"model expects {self.n_features} features, got {a.shape[1]}"
            )
        activations = []  # input to each weighted layer
        pre = []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            activations.append(a)
            z = a @ w.T + b
            pre.append(z)
            a = np.maximum(z, 0.0) if i < len(self.weights) - 1 else z
        return a, activations, pre

    def forward(self, features) -> np.ndarray:
        return self._forward_full(features)[0]

    def forward_with_activations(self, features):
        logits, activations, _ = self._forward_full(features)
        return logits, activations

    def loss_and_gradient(self, features, labels, spec: LossSpec, extra_logit_grad=None):
        n = len(labels)
        logits, activations, pre = self._forward_full(features)
        logp = log_softmax(logits)
        loss = -logp[np.arange(n), labels].mean()
        theta = self.get_params()
        loss += 0.5 * spec.mu * float(theta @ theta)
        delta = np.exp(logp)
        delta[np.arange(n), labels] -= 1.0
        delta /= n
        if extra_logit_grad is not None:
            extra_loss, extra_dlogits = extra_logit_grad(logits)
            loss += extra_loss
            delta = delta + extra_dlogits
        grads = {}
        for i in range(len(self.weights) - 1, -1, -1):
            grads[f"w{i}"] = delta.T @ activations[i] + spec.mu * self.weights[i]
            grads[f"b{i}"] = delta.sum(axis=0) + spec.mu * self.biases[i]
            if i > 0:
                delta = (delta @ self.weights[i]) * (pre[i - 1] > 0)
        arrays = []
        for i in range(len(self.weights)):
            arrays.extend([grads[f"w{i}"], grads[f"b{i}"]])
        return loss, self.layout.pack(arrays)


def softmax_forward(model, features) -> np.ndarray:
    """Class-probability matrix; rows sum to one."""
    return softmax_probs(model.forward(features))


def loss(model, dataset: LabeledDataset, spec: LossSpec) -> float:
    if dataset.n_samples == 0:
        raise ValueError("loss of an empty dataset is undefined")
    n = dataset.n_samples
    logp = log_softmax(model.forward(dataset.features))
    value = -logp[np.arange(n), dataset.labels].mean()
    theta = model.get_params()
    return float(value + 0.5 * spec.mu * (theta @ theta))


def gradient(model, dataset: LabeledDataset, spec: LossSpec) -> ParamVector:
    if dataset.n_samples == 0:
        raise ValueError("gradient of an empty dataset is undefined")
    _, flat = model.loss_and_gradient(dataset.features, dataset.labels, spec)
    return ParamVector(flat, model.layout)


def hessian(model, dataset: LabeledDataset, spec: LossSpec, chunk: int = 2048) -> np.ndarray:
    """Exact Hessian of the regularized CE loss for the linear model.

    Ordering follows the model layout: all weight coordinates row-major,
    then biases. Dense, so guarded to at most HESSIAN_PARAM_GUARD
    parameters.
    """
    if not isinstance(model, LinearModel):
        raise UnsupportedModelError("exact Hessian is only available for the linear model")
    if dataset.n_samples == 0:
        raise ValueError("hessian of an empty dataset is undefined")
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
    for start in range(0, n, chunk):
        x = np.hstack(
            [
                dataset.features[start : start + chunk],
                np.ones((min(chunk, n - start), 1)),
            ]
        )
        p = probs[start : start + chunk]
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


def hessian_operator(model, dataset: LabeledDataset, spec: LossSpec):
    """The map v -> H v for the regularized CE Hessian H of the linear model
    at its current parameters, in the layout order of `hessian`.

    Pearlmutter's R-operator: with R = X V_w^T + v_b the directional
    derivative of the logits, each sample's softmax curvature
    diag(p) - p p^T maps its row of R to S = P*R - P*rowsum(P*R), and
    X^T carries S back to the weights. The class probabilities are
    computed once here, so each product costs two matmuls and no dense
    Hessian is formed.
    """
    if not isinstance(model, LinearModel):
        raise UnsupportedModelError("Hessian-vector products are only available for the linear model")
    if dataset.n_samples == 0:
        raise ValueError("hessian of an empty dataset is undefined")
    x = dataset.features
    n = len(x)
    c, d = model.n_classes, model.n_features
    probs = softmax_probs(model.forward(x))

    def apply(v) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (model.layout.total_size,):
            raise ShapeMismatchError(
                f"expected a vector of length {model.layout.total_size}, got {v.shape}"
            )
        v_w, v_b = v[: c * d].reshape(c, d), v[c * d :]
        s = probs * (x @ v_w.T + v_b)
        s -= probs * s.sum(axis=1, keepdims=True)
        s /= n
        return np.concatenate(
            [(s.T @ x + spec.mu * v_w).ravel(), s.sum(axis=0) + spec.mu * v_b]
        )

    return apply


def hessian_vector_product(model, dataset: LabeledDataset, spec: LossSpec, v) -> np.ndarray:
    """Exact product H v of the regularized CE Hessian of the linear model
    with a flat vector v; equals `hessian(model, dataset, spec) @ v`."""
    return hessian_operator(model, dataset, spec)(v)


def mlp_forward_backward(model: MlpModel, batch: LabeledDataset, spec: LossSpec):
    """Loss, flat gradient, and per-layer input activations for one batch."""
    if batch.n_samples == 0:
        raise ValueError("empty batch")
    _, activations = model.forward_with_activations(batch.features)
    value, flat = model.loss_and_gradient(batch.features, batch.labels, spec)
    return value, ParamVector(flat, model.layout), activations


def softmax_smoothness_bound(dataset: LabeledDataset, mu: float, iters: int = 200) -> float:
    """Upper bound on the largest Hessian eigenvalue of the CE loss.

    Uses the multinomial curvature bound diag(p) - pp^T <= I/2 combined
    with a power-iteration estimate of lambda_max(X~^T X~ / n).
    """
    x = dataset.features
    n = len(x)
    rng = np.random.default_rng(0)
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
    # checked before any model is built, so a corrupt size field cannot
    # trigger a huge allocation
    expected = sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))
    if (len(data) - offset) % 8:
        raise CheckpointError(f"{path}: parameter block ends in a partial float64")
    found = (len(data) - offset) // 8
    if found != expected:
        raise CheckpointError(f"{path}: expected {expected} parameters, found {found}")
    if kind == _KIND_LINEAR:
        model = LinearModel.zeros(sizes[0], sizes[1])
    else:
        model = MlpModel.initialize(list(sizes), seed=0)
    model.set_params(np.frombuffer(data, dtype="<f8", offset=offset).astype(np.float64))
    return model
