"""In-memory span tracer installed around ltcl's public functions.

Nothing inside the package is instrumented. The tracer replaces each
function at the attribute through which its caller resolves it (the
modules import each other's functions by name, so `ltcl.bounds.train`
and `ltcl.continual.train` are separate attributes), records one span
(name, start, end, parent) per call, and restores the originals on
`uninstall`.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict

from ltcl import bounds, cli, continual, datasets, models


def _loss_and_gradient_cost(args, kwargs, result):
    """Computed matmul FLOPs and minimum bytes moved by one call."""
    model, features = args[0], args[1]
    n = features.shape[0]
    sizes = model.layer_sizes
    pairs = sum(a * b for a, b in zip(sizes[:-1], sizes[1:]))
    # forward and weight gradient per layer, plus delta back-propagation
    # through every layer but the first
    flops = 4 * n * pairs + 2 * n * (pairs - sizes[0] * sizes[1])
    n_params = model.layout.total_size
    return flops, 8 * (n * sizes[0] + 2 * n_params)


def _hessian_cost(args, kwargs, result):
    """Computed FLOPs of `models.hessian`: the forward pass, one general
    product x.T @ (p_a * x) per class, and v.T @ v, which numpy hands to
    BLAS syrk (one triangle, half a general product's work)."""
    model, dataset = args[0], args[1]
    n, d = dataset.features.shape
    c = model.n_classes
    aug = d + 1
    m = c * aug
    flops = 2 * n * d * c + 2 * n * c * aug * aug + n * m * (m + 1)
    return flops, 8 * (n * d + m * m)


def _cell_epochs(args, kwargs, result):
    return result.epochs_full + result.epochs_head, 0


def _variant_name(args, kwargs):
    variant = args[0] if args else kwargs["strategy_variant"]
    return f"continual.run_two_phase.{variant}"


# (owner, attribute, span name or a function of the call's arguments,
#  hook returning two numbers to add to the name's totals)
PATCHES = [
    (cli, "main", "cli.main", None),
    (cli, "load_idx", "datasets.load_idx", None),
    (cli, "mean_pool_images", "datasets.mean_pool_images", None),
    (cli, "make_longtail", "datasets.make_longtail", None),
    (datasets, "make_longtail", "datasets.make_longtail", None),
    (cli, "head_tail_split", "datasets.head_tail_split", None),
    (bounds, "head_tail_split", "datasets.head_tail_split", None),
    (datasets, "head_tail_split", "datasets.head_tail_split", None),
    (models.LinearModel, "loss_and_gradient", "models.loss_and_gradient", _loss_and_gradient_cost),
    (models.MlpModel, "loss_and_gradient", "models.loss_and_gradient", _loss_and_gradient_cost),
    (bounds, "loss", "models.loss", None),
    (bounds, "hessian", "models.hessian", _hessian_cost),
    (bounds, "train", "training.train", None),
    (continual, "train", "training.train", None),
    (cli, "bound_grid", "bounds.bound_grid", None),
    (bounds, "bound_grid", "bounds.bound_grid", None),
    (bounds, "evaluate_cell", "bounds.evaluate_cell", _cell_epochs),
    (bounds, "loss_gap_surrogate", "bounds.loss_gap_surrogate", None),
    (bounds, "min_eigenvalue", "bounds.min_eigenvalue", None),
    (bounds, "softmax_smoothness_bound", "bounds.softmax_smoothness_bound", None),
    (continual, "run_two_phase", _variant_name, None),
    (continual, "fisher_diagonal", "continual.fisher_diagonal", None),
    (continual, "gpm_collect_bases", "continual.gpm_collect_bases", None),
    (continual, "gpm_project", "continual.gpm_project", None),
    (continual, "ewc_penalty", "continual.ewc_penalty", None),
    (continual, "evaluate", "metrics.evaluate", None),
]


class Tracer:
    """Records spans while installed; `spans` rows are [name, start, end, parent]
    and `hook_totals` maps a span name to the summed hook results."""

    def __init__(self):
        self.spans: list = []
        self.hook_totals: dict = defaultdict(lambda: [0, 0])
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, fn, name, hook):
        spans, stack, totals = self.spans, self._stack, self.hook_totals
        clock = time.perf_counter

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            index = len(spans)
            spans.append([label, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if hook is not None:
                first, second = hook(args, kwargs, result)
                entry = totals[label]
                entry[0] += first
                entry[1] += second
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, hook in PATCHES:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


# Spans that wrap a whole pass. Coverage leaves them out, so it measures
# how much of a pass the layers beneath them account for.
WRAPPERS = ("cli.main", "bounds.bound_grid", "continual.run_two_phase.")


def is_wrapper(name: str) -> bool:
    return name.startswith(WRAPPERS)


def summarize(spans, hook_totals, wall_s: float) -> dict:
    """Per-name busy time, self time and call counts, plus derived counts.

    Busy time counts a span only when no ancestor has the same name, so
    nested calls of one function are not counted twice. Self time is a
    span's duration minus the durations of its direct children. Coverage
    is the time inside layer spans that are not nested in another layer
    span, with the pass wrappers (WRAPPERS) not counted as layers, over
    the pass's wall time.
    """
    busy = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    max_s = defaultdict(float)
    in_layer = []
    covered = 0.0
    steps = 0
    for name, start, end, parent in spans:
        duration = end - start
        calls[name] += 1
        max_s[name] = max(max_s[name], duration)
        self_s[name] += duration
        if parent >= 0:
            self_s[spans[parent][0]] -= duration
            if name == "models.loss_and_gradient" and spans[parent][0] == "training.train":
                steps += 1
        layer = not is_wrapper(name)
        if layer and not (parent >= 0 and in_layer[parent]):
            covered += duration
        in_layer.append(layer or (parent >= 0 and in_layer[parent]))
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            busy[name] += duration
    return {
        "busy": busy,
        "self": self_s,
        "calls": calls,
        "max": max_s,
        "hooks": {k: tuple(v) for k, v in hook_totals.items()},
        "train_steps": steps,
        "coverage": covered / wall_s if wall_s > 0 else 0.0,
    }
