"""Two-phase Head-to-Tail training with continual-learning strategies.

Phase 1 fits the head classes only, once for any number of strategies.
Phase 2 fits the tail while a strategy's `models.ObjectiveTerm`, the one
object that holds what the strategy kept of the Phase-1 model, fights
forgetting: a Fisher-weighted pull toward the Phase-1 weights (EWC, with
the Fisher taken either at sampled labels or at the true labels),
distillation against the frozen Phase-1 model on head logits (LwF), or
weight gradients projected out of the span of the Phase-1 layer inputs
(GPM, whose first layer trains in the eigenbasis of its head inputs).
The naive variant, the catastrophic-forgetting baseline, has the term
`models.NO_TERM`, which adds nothing.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .datasets import HeadTailSplit, LabeledDataset
from .errors import (
    COUNT, FINITE_AT_LEAST_0, FINITE_POSITIVE, FRACTION, SEED, EmptyClassError, ShapeMismatchError, check, one_of,
    seeded_rng,
)
from .metrics import MetricsReport, evaluate
from .models import NO_TERM, LossSpec, ObjectiveTerm, log_softmax, softmax_probs
from .training import TrainConfig, train

FISHER_MODES = ("model_sampled", "true_loss")


class Strategy(NamedTuple):
    """One strategy: its Phase-2 TrainConfig fields, and the settings
    strategy_term reads, each a (default, rule) pair of an `errors` rule."""

    phase2: dict
    settings: dict


_EWC_BUDGET = dict(learning_rate=0.01, momentum=0.9, schedule="constant", epochs=90)
_HEAD_SAMPLES = (2000, COUNT)  # head samples drawn for the Fisher or the bases
# The one table of the strategies, in the order of VARIANTS. The naive
# baseline gets the EWC optimization budget.
STRATEGIES = {
    "naive": Strategy(_EWC_BUDGET, {}),
    "ewc": Strategy(_EWC_BUDGET, {"cl_weight": (10.0, FINITE_AT_LEAST_0), "fisher_max_samples": _HEAD_SAMPLES}),
    "modified_ewc": Strategy(_EWC_BUDGET,
                             {"cl_weight": (1000.0, FINITE_AT_LEAST_0), "fisher_max_samples": _HEAD_SAMPLES}),
    "lwf": Strategy(dict(learning_rate=0.001, momentum=0.9, schedule="constant", epochs=5),
                    {"cl_weight": (0.01, FINITE_AT_LEAST_0), "temperature": (2.0, FINITE_POSITIVE)}),
    "gpm": Strategy(dict(learning_rate=0.001, momentum=0.0, schedule="cosine", epochs=100),
                    {"energy_threshold": (0.97, FRACTION), "fisher_max_samples": _HEAD_SAMPLES}),
}
VARIANTS = tuple(STRATEGIES)
_LOG_FLOOR = 1e-30  # floors distillation targets only, never the primary loss


@dataclass
class PhaseResult:
    """Phase 1 fills the head fields; a tail phase returns a copy with the
    tail fields set and `state`, the strategy's term (`NO_TERM` for naive)."""

    model_after_head: object
    metrics_before: MetricsReport
    phase1_losses: np.ndarray  # per epoch
    model_after_tail: object = None
    metrics_after: MetricsReport | None = None
    state: ObjectiveTerm | None = None
    phase2_losses: np.ndarray | None = None
    # per step: ||update component inside the bases|| / ||update||
    gpm_projection_ratios: list = field(default_factory=list)


def default_phase2_config(variant: str, seed: int = 0, batch_size: int = TrainConfig.batch_size) -> TrainConfig:
    check("variant", variant, one_of(*VARIANTS))
    return TrainConfig(batch_size=batch_size, seed=seed, **STRATEGIES[variant].phase2)


def fisher_diagonal(model, dataset: LabeledDataset, mode: str, max_samples: int, seed: int = 0) -> np.ndarray:
    """Diagonal Fisher estimate from per-sample squared CE gradients.

    model_sampled draws the label from the model's own predictive
    distribution (the classic EWC estimate); true_loss uses the training
    label instead. One batched forward and backward pass gives every
    per-sample square, (delta**2).T @ a**2 per layer.
    """
    check("mode", mode, one_of(*FISHER_MODES))
    rng = seeded_rng(seed)
    rows = _sample_rows(dataset, max_samples, rng)
    n = len(rows)
    logits, activations = model.forward_with_activations(dataset.features[rows])
    delta = softmax_probs(logits)
    if mode == "model_sampled":
        labels = _sample_labels(delta, rng)
    else:
        labels = dataset.labels[rows]
    delta[np.arange(n), labels] -= 1.0
    return model.backward(delta, activations, square=True) / n


def _sample_rows(dataset: LabeledDataset, max_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Every row of `dataset`, or `max_samples` distinct rows drawn with
    `rng` in ascending order when it holds more."""
    check("max_samples", max_samples, COUNT)
    if dataset.n_samples == 0:
        raise EmptyClassError("cannot sample rows of an empty dataset")
    rows = np.arange(dataset.n_samples)
    if dataset.n_samples > max_samples:
        rows = np.sort(rng.choice(rows, size=max_samples, replace=False))
    return rows


def _sample_labels(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One label per row of probs, drawn as `rng.choice(c, p=row)` row by
    row would draw them: one uniform u per row, and the label is the count
    of entries of the row's normalised cdf that are <= u."""
    cdf = np.cumsum(probs, axis=1)
    cdf /= cdf[:, -1:]
    return np.count_nonzero(cdf <= rng.random(len(probs))[:, None], axis=1)


def ewc_penalty(theta, anchor, fisher, cl_weight) -> float:
    """Quadratic pull (w/2) * sum_i F_i (theta_i - anchor_i)^2."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != anchor.shape:
        raise ShapeMismatchError(
            f"parameter vector {theta.shape} does not match anchor {anchor.shape}"
        )
    diff = theta - anchor
    return 0.5 * float(((cl_weight * fisher) * diff) @ diff)


def gpm_collect_bases(
    model,
    head_dataset: LabeledDataset,
    energy_threshold: float,
    max_samples: int,
    seed: int = 0,
) -> list:
    """Orthonormal bases of the dominant layer-input subspaces.

    Per weighted layer, one `np.linalg.eigh` of the Gram matrix act^T act
    of its input activations over head samples gives the eigenvalues
    (the squared singular values of act) and the eigenvectors (its right
    singular vectors), ordered by decreasing eigenvalue. Eigenvalues at
    or below d * eps * lambda_0 (d the layer's input width, eps the
    float64 epsilon: 1.7e-13 lambda_0 at d = 784) lie within the rounding
    of a Gram matrix and are dropped, so at energy_threshold 1.0 the basis
    spans the singular values above sqrt(d * eps) s_0. The basis is the
    smallest leading set of the rest that reaches the energy threshold.

    Each basis is a view of the leading columns of its layer's full
    eigenvector matrix, `basis.base`: an orthonormal frame of the layer's
    inputs whose first columns span the basis.
    """
    check("energy_threshold", energy_threshold, FRACTION)
    rows = _sample_rows(head_dataset, max_samples, seeded_rng(seed))
    _, activations = model.forward_with_activations(head_dataset.features[rows])
    bases = []
    for act in activations:
        eigenvalues, eigenvectors = np.linalg.eigh(act.T @ act)
        eigenvalues, frame = eigenvalues[::-1], eigenvectors[:, ::-1].copy()
        kept = eigenvalues[eigenvalues > len(eigenvalues) * np.finfo(np.float64).eps * eigenvalues[0]]
        energy = np.cumsum(kept)
        k = int(np.searchsorted(energy, energy_threshold * energy[-1])) + 1 if len(kept) else 0
        bases.append(frame[:, :k])
    return bases


def gpm_project(gradient_for_layer: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Remove the gradient component inside span(basis) along layer inputs;
    a basis with no columns removes nothing."""
    g = np.asarray(gradient_for_layer, dtype=np.float64)
    if basis.ndim != 2 or g.shape[-1] != basis.shape[0]:
        raise ShapeMismatchError(
            f"gradient input dim {g.shape[-1]} does not match basis dim {basis.shape}"
        )
    return g - (g @ basis) @ basis.T


class _EwcTerm(ObjectiveTerm):
    """ewc_penalty's value, and (w F) * (theta - anchor) added to the
    gradient, with w F formed once and theta - anchor once per step in a
    buffer made once, so one term serves one training run at a time. A
    step makes four passes: the difference, its product with w F (in the
    workspace's scratch), the gradient update, and the value as that
    product's dot with the difference."""

    def __init__(self, anchor, fisher, cl_weight: float):
        self.anchor, self.fisher = anchor, fisher
        self.weighted_fisher = cl_weight * fisher
        self._diff = np.empty_like(anchor)

    def param_term(self, params, out) -> float:
        diff, pull = self._diff, out.scratch
        np.subtract(params, self.anchor, out=diff)
        np.multiply(self.weighted_fisher, diff, out=pull)
        out.grad += pull
        return 0.5 * float(pull @ diff)


class _LwfTerm(ObjectiveTerm):
    """Distillation against the frozen teacher on the head logits."""

    def __init__(self, teacher, head_classes, temperature: float, cl_weight: float):
        self.teacher, self.temperature, self.cl_weight = teacher, temperature, cl_weight
        self.head_cols = np.array(sorted(int(c) for c in head_classes), dtype=np.intp)

    def logit_term(self, logits, inputs, delta) -> float:
        cols, temperature, cl_weight = self.head_cols, self.temperature, self.cl_weight
        targets = softmax_probs(self.teacher.forward(inputs[0])[:, cols] / temperature)
        logq = log_softmax(logits[:, cols] / temperature)
        kl = (targets * (np.log(np.maximum(targets, _LOG_FLOOR)) - logq)).sum(axis=1)
        delta[:, cols] += cl_weight * temperature * (np.exp(logq) - targets) / len(logits)
        return cl_weight * (temperature * temperature) * kl.mean()


class _GpmTerm(ObjectiveTerm):
    """GPM on weight gradients: each layer's applied gradient G, the plain
    delta^T a + mu W, becomes G - (G B)B^T, so updates stay orthogonal to
    span(B) and W B stays at its Phase-1 value.

    The first layer trains in `frame`, an orthonormal Q whose first k
    columns are bases[0]: `enter` turns W into WQ and the features X into
    XQ, where the projection zeroes the first k columns of the layer's
    gradient; `leave` turns WQ back into W. Deeper layers use gpm_project.
    Every step appends ||G_w B|| / ||G|| of the full applied gradient G to
    `ratios`; the first layer's in-span part is zero by construction (the
    step has just zeroed those k columns), so only deeper layers add to it.
    `bases` stay in the original frame."""

    def __init__(self, frame, bases):
        self.frame, self.bases, self.k = frame, bases, bases[0].shape[1]
        self.ratios = []

    def enter(self, model, dataset):
        w = model.layout.views(model.params)[0]
        w[...] = w @ self.frame
        return model, replace(dataset, features=dataset.features @ self.frame)

    def leave(self, model):
        w = model.layout.views(model.params)[0]
        w[...] = w @ self.frame.T
        return model

    def param_term(self, params, out) -> float:
        views = out.views[0::2]
        views[0][:, : self.k] = 0.0
        inside_sq = 0.0
        for g, basis in zip(views[1:], self.bases[1:]):
            g[...] = gpm_project(g, basis)
            inside_sq += float(np.add.reduce((g @ basis) ** 2, axis=None))
        grad = out.grad
        norm = float(np.sqrt(grad @ grad))  # np.linalg.norm's own sum, without its wrapper
        self.ratios.append(np.sqrt(inside_sq) / norm if norm > 0 else 0.0)
        return 0.0


def strategy_term(
    variant: str, model, head_dataset: LabeledDataset, head_classes, *, seed: int = 0, **settings
) -> ObjectiveTerm:
    """The variant's Phase-2 term, holding what it keeps of the Phase-1
    `model`; naive keeps nothing, and its term is `NO_TERM`. `settings`
    override the defaults of the variant's STRATEGIES entry, and one that
    it does not read or whose check fails raises ValueError. Fisher and GPM
    subsample head_dataset with `seed`; the term copies what it keeps, so
    `model` may change later."""
    check("variant", variant, one_of(*VARIANTS))
    check("seed", seed, SEED)
    table = STRATEGIES[variant].settings
    unread = sorted(set(settings) - set(table))
    if unread:
        raise ValueError(f"strategy {variant!r} does not read {', '.join(unread)}")
    for key, value in settings.items():
        check(key, value, table[key][1])
    settings = {**{key: default for key, (default, _) in table.items()}, **settings}
    if variant in ("ewc", "modified_ewc"):
        mode = "model_sampled" if variant == "ewc" else "true_loss"
        fisher = fisher_diagonal(model, head_dataset, mode, settings["fisher_max_samples"], seed=seed)
        return _EwcTerm(model.get_params(), fisher, settings["cl_weight"])
    if variant == "lwf":
        return _LwfTerm(model.copy(), head_classes, settings["temperature"], settings["cl_weight"])
    if variant == "gpm":
        bases = gpm_collect_bases(
            model, head_dataset, settings["energy_threshold"], settings["fisher_max_samples"], seed=seed
        )
        return _GpmTerm(bases[0].base, bases)
    return NO_TERM


def run_head_phase(
    split: HeadTailSplit, phase1_config: TrainConfig, spec: LossSpec, model, eval_dataset: LabeledDataset
) -> PhaseResult:
    """Phase 1: train a copy of `model` on the head and evaluate it. Any
    number of tail phases may start from the result; none changes it."""
    if split.tail.n_samples == 0:
        raise EmptyClassError("tail dataset is empty; nothing to learn in phase 2")
    model_head, phase1_losses = train(model, split.head, spec, phase1_config)
    return PhaseResult(model_head, evaluate(model_head, eval_dataset), phase1_losses)


def run_tail_phase(
    variant: str, head: PhaseResult, split: HeadTailSplit, phase2_config: TrainConfig, spec: LossSpec,
    eval_dataset: LabeledDataset, seed: int, **settings,
) -> PhaseResult:
    """Phase 2: train a copy of the head model on the tail under the
    strategy_term built with `seed` and `settings` (its keywords), and
    return a copy of `head` with the tail fields set."""
    model_head = head.model_after_head
    term = strategy_term(variant, model_head, split.head, split.head_classes, seed=seed, **settings)
    model_tail, phase2_losses = train(model_head, split.tail, spec, phase2_config, term)
    return replace(
        head,
        model_after_tail=model_tail,
        metrics_after=evaluate(model_tail, eval_dataset),
        state=term,
        phase2_losses=phase2_losses,
        gpm_projection_ratios=term.ratios if isinstance(term, _GpmTerm) else [],
    )


def run_two_phase(
    strategy_variant: str,
    dataset: LabeledDataset,
    split: HeadTailSplit,
    phase1_config: TrainConfig,
    phase2_config: TrainConfig,
    loss_spec: LossSpec,
    model,
    test_dataset: LabeledDataset | None = None,
    **settings,
) -> PhaseResult:
    """Train Phase 1 on the head, then Phase 2 on the tail with the
    strategy's mechanism active; `settings` are strategy_term's keywords.
    Metrics are taken on test_dataset when given, otherwise on the full
    training dataset."""
    eval_dataset = test_dataset if test_dataset is not None else dataset
    head = run_head_phase(split, phase1_config, loss_spec, model, eval_dataset)
    return run_tail_phase(
        strategy_variant, head, split, phase2_config, loss_spec, eval_dataset, phase1_config.seed, **settings
    )
