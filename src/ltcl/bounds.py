"""Upper bounds on the distance between full-data and head-only minimizers.

Three bounds are computed for a pair of strongly convex objectives f
(full dataset) and g (head only):

* loose: sqrt(4*delta / (mu_f + mu_g)) with delta a sampled surrogate
  for the global loss-gap maximum,
* tight: the pre-maximization inequality evaluated exactly at the two
  minimizers, needing no global delta,
* lemma2: like loose but with measured minimum Hessian eigenvalues in
  place of the regularization constants.

Each minimum eigenvalue is computed matrix-free: Lanczos with full
reorthogonalisation on the exact Hessian-vector product
(`models.hessian_operator`), so no dense Hessian is formed and Lemma 2
has no parameter-count limit. The Ritz values come from `np.linalg.eigh`
of the small Lanczos tridiagonal. The smallest Ritz value theta_1 is at
or above the true lambda_min (Cauchy interlacing), and mu, the
regularization constant, is at or below it, since the cross-entropy
Hessian is positive semidefinite. A grid's solve is handed mu as its
lower bound, so it stops at the first Ritz check where that bracket
[mu, theta_1] is at most LANCZOS_TOL * |largest Ritz value| wide, and
reports mu, unless the residual rule stops it first. Every solve of the
pooled acceptance grid (18) and of perfbench's lemma2_cli workload
(seed 0, 4) stopped on the bracket, with theta_1 - mu at most 3.9e-9 and
1.5e-7.

The grid experiment certifies both minimizers per (imbalance factor,
mu) cell by truncated Newton-CG (Nocedal & Wright, Numerical
Optimization, Alg. 7.1): conjugate gradients on exact Hessian-vector
products (`models.hessian_operator`) with the forcing term
min(0.5, sqrt(||g||))*||g||, floored at grad_tolerance/2, and an Armijo
backtracking line search. A minimizer is certified only when the
full-batch gradient from `LinearModel.loss_and_gradient` has norm at
most `grad_tolerance`, which `BoundGridConfig` requires to be positive
and finite; by mu-strong convexity the minimizer then lies within
grad_tolerance/mu of the true one. The floor stops CG at half the
tolerance that the certificate checks: a smaller residual costs
Hessian-vector products and cannot strengthen the certificate, and a
step that leaves ||g|| above the tolerance costs one more Newton
iteration. The products of each Newton step, and the Lemma-2 eigensolves
at the certified minimizers, read the class probabilities that the
gradient evaluation at the same point left in its workspace, so each
point costs one forward pass over the data. Both solves start from
zeros, and they are independent, so a cell runs them on two threads at
once: a helper thread solves the head problem while the calling thread
solves the full one, and with Lemma 2 the two eigensolves are split the
same way. Neither solve reads the other's state, so the results depend
only on the inputs. The second thread gains only where a core would
otherwise be idle (BLAS on one thread, as the CLI pins it, and fewer
grid workers than cores); elsewhere the head solve's extra iterations
from zeros make a grid slower (README, `--workers`).

For multinomial logistic regression lambda_min(H) = mu exactly, so the
lemma2 bound equals the loose one. Softmax is invariant to adding one
vector to every class's weight row and one constant to every bias, so
the cross-entropy term is constant along those d+1 directions and its
Hessian has a (d+1)-dimensional null space; adding (mu/2)||theta||^2
puts the eigenvalue mu on that space and shifts the rest of the
positive semidefinite spectrum above it. That is why every cell of
acceptance criterion 4 shows lam=(mu,mu) and l2 == l1.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .datasets import LabeledDataset, head_tail_split
from .errors import (
    AT_LEAST_0, AT_LEAST_1, BOOL, COUNT, FINITE_AT_LEAST_0, FINITE_POSITIVE, FRACTION, SEED, DegenerateConvexityError,
    EigensolverError, EmptyClassError, MinimizerCertificationError, ShapeMismatchError, StrictConvexityError, check,
    list_of, seeded_rng,
)
from .models import GradientWorkspace, LinearModel, LossSpec, hessian_operator

# Unused here, but perfbench/tracer.py patches all four by name in this module.
from .models import hessian, loss, softmax_smoothness_bound  # noqa: F401
from .training import train  # noqa: F401

BOUND_SLACK = 1e-9


@dataclass
class TrainTrace:
    """One Newton-CG solve: the final full-batch gradient norm, the
    Newton iterations run, and whether it met the certificate."""

    final_grad_norm: float
    epochs_run: int
    converged: bool


@dataclass
class BoundReport:
    """Measured minimizer distance and its upper bounds for one grid cell.
    The bounds keep their defaults, NaN and None, unless both minimizers
    are certified."""

    imbalance_factor: float
    mu_full: float
    measured_distance: float
    delta: float = math.nan
    loose_bound: float = math.nan
    tight_bound: float = math.nan
    lemma2_bound: float | None = None
    lambda_min_full: float | None = None
    lambda_min_head: float | None = None
    converged_full: bool = True
    converged_head: bool = True
    epochs_full: int = 0
    epochs_head: int = 0

    @property
    def holds(self) -> dict:
        out = {
            "tight": bool(self.measured_distance <= self.tight_bound + BOUND_SLACK),
            "loose": bool(self.measured_distance <= self.loose_bound + BOUND_SLACK),
        }
        if self.lemma2_bound is not None:
            out["lemma2"] = bool(
                self.measured_distance <= self.lemma2_bound + BOUND_SLACK
            )
        return out

    @property
    def failed(self) -> bool:
        return not (self.converged_full and self.converged_head)


def lemma1_bound(delta: float, mu_f: float, mu_g: float) -> float:
    """Squared-distance bound 4*delta/(mu_f + mu_g) between the minimizers
    of two strongly convex functions whose values differ by at most delta."""
    check("delta", delta, AT_LEAST_0)
    check("mu_f", mu_f, FINITE_AT_LEAST_0)
    check("mu_g", mu_g, FINITE_AT_LEAST_0)
    if mu_f + mu_g == 0:
        raise DegenerateConvexityError("mu_f + mu_g = 0; bound is undefined")
    return 4.0 * delta / (mu_f + mu_g)


def tight_bound(theta_full, theta_head, losses, mu_f, mu_g) -> float:
    """Distance bound from exact loss-gap evaluations at the two minimizers.

    losses(stack) maps a stack of parameter vectors, one per row, to the
    arrays (loss_full, loss_head) of their values; both minimizers go in
    one 2-row stack. Requires theta_full and theta_head to be certified
    minimizers of loss_full and loss_head; the bracketed gap sum is then
    non-negative. Both mu are checked before `losses` is called.
    """
    check("mu_f", mu_f, FINITE_AT_LEAST_0)
    check("mu_g", mu_g, FINITE_AT_LEAST_0)
    if mu_f + mu_g == 0:
        raise DegenerateConvexityError("mu_f + mu_g must be positive")
    full, head = losses(np.stack([theta_full, theta_head]))
    bracket = (head[0] - full[0]) + (full[1] - head[1])
    if bracket < -BOUND_SLACK:
        raise MinimizerCertificationError(
            f"gap sum {bracket} is negative; inputs are not minimizers of their objectives"
        )
    return float(np.sqrt(2.0 * max(bracket, 0.0) / (mu_f + mu_g)))


def lemma2_bound(delta: float, lam_f: float, lam_g: float) -> float:
    """Squared-distance bound 4*delta/(lam_f + lam_g) from the minimum
    Hessian eigenvalues at the respective minimizers (`min_eigenvalue`)."""
    check("delta", delta, AT_LEAST_0)
    if not (0 < lam_f < math.inf and 0 < lam_g < math.inf):  # NaN fails too
        raise StrictConvexityError(
            f"minimum eigenvalues {lam_f}, {lam_g} must be positive and finite"
        )
    return 4.0 * delta / (lam_f + lam_g)


# Lanczos settings. The start vector comes from a fixed seed, so the
# result never depends on the worker count or the call order.
LANCZOS_SEED = 0
# The smallest Ritz pair has converged when its residual is at most
# LANCZOS_TOL times the largest Ritz value in magnitude.
LANCZOS_TOL = 1e-8
LANCZOS_CHECK_EVERY = 10  # steps between Ritz checks of the tridiagonal T
LANCZOS_MAX_ITERS = 1000
LANCZOS_ROWS = 64  # basis rows allocated first; the basis doubles when full

_EPS = float(np.finfo(np.float64).eps)


def min_eigenvalue(apply, dim: int, lower: float | None = None) -> float:
    """Smallest eigenvalue of a symmetric linear map v -> A v of dimension
    `dim` (e.g. `models.hessian_operator`): the smallest Ritz value of
    Lanczos (1950) with full reorthogonalisation. Each step subtracts the
    three-term recurrence, w = A q_k - alpha_k q_k - beta_{k-1} q_{k-1},
    and then makes one classical Gram-Schmidt pass over the basis: the
    recurrence removes the large components, so the pass is left with
    rounding error only, and one pass keeps the basis orthonormal.

    T is eigensolved (`np.linalg.eigh`) every LANCZOS_CHECK_EVERY steps,
    at the dimension and on breakdown (an off-diagonal below the
    tolerance); the run ends when the residual beta_k*|s_k| of the
    smallest Ritz pair (s_k the last entry of its eigenvector of T) is at
    most LANCZOS_TOL times the largest Ritz value in magnitude, or at the
    dimension, where T holds the whole spectrum. By interlacing the value
    is at or above the true lambda_min, and an eigenvalue lies within
    that residual of it (Lanczos finds the extreme eigenvalues first, so
    in practice that is lambda_min). A Ritz value within
    dim * eps * |largest Ritz value| of zero is returned as 0.0. The basis
    is one array of LANCZOS_ROWS rows that doubles when full, so memory
    follows the steps taken. Raises EigensolverError rather than return an
    unconverged value after LANCZOS_MAX_ITERS steps.

    `lower`, when given, must be a proven lower bound of lambda_min (mu for
    a Hessian of mu-regularized cross-entropy). Then a Ritz check also
    ends the run, returning `lower`, once the smallest Ritz value is at
    most LANCZOS_TOL times the largest Ritz value in magnitude above it and
    no more than the rounding level dim * eps * that scale below it:
    lambda_min lies in that bracket. A Ritz value further below `lower`
    shows that it is no bound; the residual rule then ends the run as
    without it. A false bound that the Ritz value never drops below is not
    detected, and is returned.
    """
    if dim < 1:
        raise ShapeMismatchError("the smallest eigenvalue of an empty matrix is undefined")
    q = seeded_rng(LANCZOS_SEED).standard_normal(dim)
    basis = np.empty((min(LANCZOS_ROWS, dim), dim))
    basis[0] = q / np.linalg.norm(q)
    alphas: list = []
    betas: list = []
    alpha_max = 0.0
    for k in range(1, min(dim, LANCZOS_MAX_ITERS) + 1):
        rows = basis[:k]
        current = basis[k - 1]
        w = np.array(apply(current), dtype=np.float64)  # a copy: w is updated in place
        alpha = float(current @ w)
        alphas.append(alpha)
        alpha_max = max(alpha_max, abs(alpha))
        w -= alpha * current
        if betas:
            w -= betas[-1] * basis[k - 2]
        w -= (rows @ w) @ rows
        beta = float(np.linalg.norm(w))
        if not math.isfinite(beta):
            raise EigensolverError(f"non-finite Lanczos vector at step {k}")
        if k % LANCZOS_CHECK_EVERY == 0 or k == dim or beta <= LANCZOS_TOL * alpha_max:
            ritz, vectors = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
            theta_1 = float(ritz[0])
            scale = max(abs(theta_1), abs(ritz[-1]))
            if lower is not None:
                gap = theta_1 - lower
                if -dim * _EPS * scale <= gap <= LANCZOS_TOL * scale:
                    return float(lower)  # lambda_min lies in [lower, theta_1]
                if gap < -dim * _EPS * scale:
                    lower = None  # not a lower bound: the residual rule decides
            if beta * abs(vectors[-1, 0]) <= LANCZOS_TOL * scale or k == dim:
                # below the rounding error of the products the sign is not
                # determined, so a singular matrix is reported as such
                zero = abs(theta_1) <= dim * _EPS * scale
                return 0.0 if zero else theta_1
        if k == len(basis):
            grown = np.empty((min(2 * k, dim), dim))
            grown[:k] = basis
            basis = grown
        basis[k] = w / beta
        betas.append(beta)
    raise EigensolverError(
        f"Lanczos did not converge in {LANCZOS_MAX_ITERS} steps on a {dim}-dimensional operator"
    )


LOSS_GAP_PROBES = 64  # seeded probes of loss_gap_surrogate, besides the two minimizers


def loss_gap_surrogate(losses, theta_full: np.ndarray, theta_head: np.ndarray, seed: int = 0) -> float:
    """Sampled stand-in for the global max of |loss_full - loss_head|.

    losses(stack) maps a stack of parameter vectors, one per row, to the
    arrays (loss_full, loss_head) of their values. Evaluates the gap at
    both minimizers plus LOSS_GAP_PROBES seeded interpolates and
    perturbations of the segment between them. The true global maximum
    is unbounded for cross-entropy, so this surrogate only feeds the
    loose and lemma2 bounds; the tight bound needs no delta.
    """
    rng = seeded_rng(seed)
    segment = theta_head - theta_full
    scale = 0.05 * float(np.linalg.norm(segment))
    probes = np.empty((LOSS_GAP_PROBES + 2, len(segment)))
    probes[0], probes[1] = theta_full, theta_head
    for point in probes[2:]:
        t = rng.uniform(0.0, 1.0)
        point[...] = theta_full + t * segment
        if scale > 0:
            direction = rng.standard_normal(len(segment))
            point += scale * direction / np.linalg.norm(direction)
    full, head = losses(probes)
    return float(np.max(np.abs(full - head)))


# Entries (512 KB) of each temporary of the probe losses: probes go
# through the data in blocks whose logits and copied weights both stay
# below this, so the probes hold little more memory than their stack.
PROBE_BLOCK = 1 << 16


def _mean_cross_entropy(dataset: LabeledDataset, weights: np.ndarray, biases: np.ndarray) -> np.ndarray:
    """Mean cross-entropy of the dataset under each linear model of a
    stack, weights (m, c, d) and biases (m, c). Each block of models takes
    one product with the features, class-major: (block * c, n) logits."""
    m, c, d = weights.shape
    x, labels = dataset.features, dataset.labels
    n = len(x)
    samples = np.arange(n)
    out = np.empty(m)
    block = max(1, PROBE_BLOCK // (c * max(n, d)))
    for start in range(0, m, block):
        stop = min(start + block, m)
        logits = (weights[start:stop].reshape(-1, d) @ x.T).reshape(stop - start, c, n)
        logits += biases[start:stop, :, None]
        logits -= logits.max(axis=1, keepdims=True)
        picked = logits[:, labels, samples]
        np.exp(logits, out=logits)
        out[start:stop] = (np.log(logits.sum(axis=1)) - picked).mean(axis=1)
    return out


def _probe_losses(split, mu: float):
    """The `losses` of the bound functions for a head/tail split: each
    stack row's regularized CE loss on the full data and on the head.
    Head and tail rows each go through the stack once; both losses carry
    the same regulariser, so their weighted mean is the full loss."""
    c, d = split.head.n_classes, split.head.n_features
    n_head, n_tail = split.head.n_samples, split.tail.n_samples

    def losses(stack):
        weights, biases = stack[:, : c * d].reshape(-1, c, d), stack[:, c * d :]
        penalty = 0.5 * mu * np.einsum("ij,ij->i", stack, stack)
        head = _mean_cross_entropy(split.head, weights, biases) + penalty
        if n_tail == 0:
            return head, head
        tail = _mean_cross_entropy(split.tail, weights, biases) + penalty
        return (n_head * head + n_tail * tail) / (n_head + n_tail), head

    return losses


@dataclass(frozen=True)
class BoundGridConfig:
    head_fraction: float = 0.6
    grad_tolerance: float = 1e-8
    compute_lemma2: bool = False

    def __post_init__(self):
        check("head_fraction", self.head_fraction, FRACTION)
        # 0 would never certify and inf would certify any start
        check("grad_tolerance", self.grad_tolerance, FINITE_POSITIVE)
        check("compute_lemma2", self.compute_lemma2, BOOL)


NEWTON_MAX_ITERS = 200_000  # cap on Newton iterations per minimizer
ARMIJO_C1 = 1e-4
MAX_BACKTRACKS = 60
# Relative rounding level of a loss value. A step whose decrease is below
# it cannot be judged by comparing loss values, so it is judged by the
# slope at the trial point instead: the approximate Armijo condition of
# Hager & Zhang (SIAM J. Optim. 16, 2005), exact for quadratics.
LOSS_ROUNDING = 1e-12


def _truncated_cg(hvp, grad: np.ndarray, tol: float) -> np.ndarray:
    """Approximate Newton step: conjugate gradients on H p = -grad from
    p = 0, stopped once the residual norm is at most tol, or at the first
    direction of non-positive curvature (then -grad if no step was taken)."""
    step = np.zeros_like(grad)
    residual = grad.copy()
    direction = -residual
    rr = float(residual @ residual)
    for _ in range(len(grad)):
        h_dir = hvp(direction)
        curvature = float(direction @ h_dir)
        if curvature <= 0:
            return step if step.any() else -grad
        alpha = rr / curvature
        step += alpha * direction
        residual += alpha * h_dir
        rr_next = float(residual @ residual)
        if math.sqrt(rr_next) <= tol:
            break
        direction = -residual + (rr_next / rr) * direction
        rr = rr_next
    return step


def _armijo_step(model: LinearModel, x, y, spec: LossSpec, value: float, grad, step):
    """Backtracking line search along step from model; returns the accepted
    (model, loss, gradient, class probabilities), or None when
    MAX_BACKTRACKS halvings find no acceptable point (a non-finite
    objective never gives one)."""
    theta = model.get_params()
    slope = float(grad @ step)
    trial = model.copy()
    out = GradientWorkspace(trial)
    t = 1.0
    for _ in range(MAX_BACKTRACKS):
        trial.set_params(theta + t * step)
        trial_value, trial_grad = trial.loss_and_gradient(x, y, spec, out=out)
        if trial_value <= value + ARMIJO_C1 * t * slope or (
            trial_value <= value + LOSS_ROUNDING * abs(value)
            and float(trial_grad @ step) <= (2.0 * ARMIJO_C1 - 1.0) * slope
        ):
            return trial, trial_value, trial_grad, out.probs
        t *= 0.5
    return None


def _train_to_stationarity(dataset: LabeledDataset, mu: float, config: BoundGridConfig):
    """Certified minimizer of the mu-regularized CE loss by truncated Newton-CG.

    Starts from zeros and runs at most NEWTON_MAX_ITERS Newton
    iterations. Returns (model, trace, probs); the trace counts Newton
    iterations in epochs_run and is converged exactly when
    the full-batch gradient norm is at most config.grad_tolerance, and
    probs are the model's class probabilities on the dataset. A
    stalled line search, a non-finite loss, or an accepted step that
    lowers neither the loss nor the gradient norm (the tolerance is below
    what rounding lets the gradient reach) ends the solve unconverged.
    CG stops at the residual min(0.5, sqrt(||g||))*||g||, but never below
    config.grad_tolerance/2: the certificate checks nothing finer, and a
    step that still leaves ||g|| above the tolerance just costs one more
    Newton iteration, so the certificate is unchanged.

    Each pass over the data serves twice: the gradient evaluation at the
    current iterate (the first one, then the line search's at each
    accepted trial point) leaves its class probabilities in its
    workspace, and the Hessian-vector products of the next Newton step
    read them instead of making their own forward pass.
    """
    model = LinearModel.zeros(dataset.n_features, dataset.n_classes)
    spec = LossSpec(mu=mu)
    x, y = dataset.features, dataset.labels
    out = GradientWorkspace(model)
    value, grad = model.loss_and_gradient(x, y, spec, out=out)
    probs = out.probs
    grad_norm = float(np.linalg.norm(grad))
    iterations = 0
    while (
        iterations < NEWTON_MAX_ITERS
        and grad_norm > config.grad_tolerance
        and math.isfinite(value)
    ):
        hvp = hessian_operator(model, dataset, spec, probs)
        forcing = min(0.5, math.sqrt(grad_norm)) * grad_norm
        step = _truncated_cg(hvp, grad, max(forcing, 0.5 * config.grad_tolerance))
        accepted = _armijo_step(model, x, y, spec, value, grad, step)
        if accepted is None:
            break
        model, next_value, grad, probs = accepted
        next_norm = float(np.linalg.norm(grad))
        iterations += 1
        stalled = next_value >= value and next_norm >= grad_norm
        value, grad_norm = next_value, next_norm
        if stalled:
            break
    return model, TrainTrace(
        final_grad_norm=grad_norm,
        epochs_run=iterations,
        converged=grad_norm <= config.grad_tolerance,
    ), probs


def evaluate_cell(
    full_dataset: LabeledDataset,
    imbalance: float,
    mu: float,
    config: BoundGridConfig,
    cell_seed: int = 0,
) -> BoundReport:
    """Certify both minimizers for one (IF, mu) cell and score every bound;
    cell_seed seeds the loss-gap probes.

    Both solves start from zeros, on two threads: one helper thread solves
    the head problem while the calling thread solves the full one, and
    with compute_lemma2 it runs the head eigensolve while the calling
    thread runs the full one. The calling thread keeps the split, the
    probes and the tight bound, so the large allocations stay with it. An
    error on either side propagates with its own type, and the helper is
    joined before the call returns or raises.
    """
    check("mu", mu, FINITE_POSITIVE)
    check("cell_seed", cell_seed, SEED)
    if full_dataset.n_samples == 0:  # zeros would pass as both minimizers, at a NaN loss
        raise EmptyClassError("cannot certify minimizers of an empty dataset")
    split = head_tail_split(full_dataset, config.head_fraction)
    spec = LossSpec(mu=mu)

    with ThreadPoolExecutor(max_workers=1) as helper:
        head_solve = helper.submit(_train_to_stationarity, split.head, mu, config)
        model_full, trace_full, probs_full = _train_to_stationarity(full_dataset, mu, config)
        model_head, trace_head, probs_head = head_solve.result()

        theta_full = model_full.get_params()
        theta_head = model_head.get_params()
        report = BoundReport(
            imbalance_factor=float(imbalance),
            mu_full=float(mu),
            measured_distance=float(np.linalg.norm(theta_full - theta_head)),
            converged_full=trace_full.converged,
            converged_head=trace_head.converged,
            epochs_full=trace_full.epochs_run,
            epochs_head=trace_head.epochs_run,
        )
        if report.failed:
            return report

        losses = _probe_losses(split, mu)
        delta = report.delta = loss_gap_surrogate(losses, theta_full, theta_head, seed=cell_seed)
        report.loose_bound = float(np.sqrt(lemma1_bound(delta, mu, mu)))
        report.tight_bound = tight_bound(theta_full, theta_head, losses, mu, mu)
        if config.compute_lemma2:
            n_params = model_full.layout.total_size
            # H = H_CE + mu*I with H_CE positive semidefinite, so mu is a proven lower bound
            head_eigensolve = helper.submit(
                min_eigenvalue, hessian_operator(model_head, split.head, spec, probs_head), n_params, lower=mu
            )
            report.lambda_min_full = min_eigenvalue(
                hessian_operator(model_full, full_dataset, spec, probs_full), n_params, lower=mu
            )
            report.lambda_min_head = head_eigensolve.result()
            report.lemma2_bound = float(np.sqrt(lemma2_bound(delta, report.lambda_min_full, report.lambda_min_head)))
    return report


def bound_grid(
    dataset_builder,
    if_values,
    mu_values,
    config: BoundGridConfig,
    workers: int = 1,
) -> list[BoundReport]:
    """Run the full (IF, mu) grid; reports are sorted by (IF, mu).

    dataset_builder maps an imbalance factor to the long-tailed training
    dataset for that grid column. Up to `workers` cells run at once, each
    on two threads (`evaluate_cell`). Failed (non-converged) cells are
    kept in the output with their converged flags cleared. Both value
    lists and `workers` are checked before any dataset is built.
    """
    check("if_values", if_values, list_of(AT_LEAST_1, distinct=True))
    check("mu_values", mu_values, list_of(FINITE_POSITIVE, distinct=True))
    check("workers", workers, COUNT)
    cells = [
        (i_if, i_mu, float(iv), float(mv))
        for i_if, iv in enumerate(if_values)
        for i_mu, mv in enumerate(mu_values)
    ]
    datasets = {float(iv): dataset_builder(iv) for iv in if_values}

    def run(cell):
        i_if, i_mu, iv, mv = cell
        return evaluate_cell(
            datasets[iv], iv, mv, config, cell_seed=1000 * i_if + i_mu
        )

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(run, cells))
    else:
        reports = [run(cell) for cell in cells]
    reports.sort(key=lambda r: (r.imbalance_factor, r.mu_full))
    return reports
