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
has no parameter-count limit. The Ritz values come from the Lanczos
tridiagonal by Sturm-count bisection, not by a dense eigensolve. The
reported lambda is the smallest Ritz value. It is at or above the true
lambda_min (Cauchy interlacing), and it lies within the stopping
residual LANCZOS_TOL * |largest Ritz value| of an eigenvalue. It exceeds
lambda_min = mu by at most 4.3e-12 over the 18 eigensolves of the pooled
acceptance grid, and by at most 2.5e-8 on the smaller pooled grid of
perfbench's lemma2_cli workload.

The grid experiment certifies both minimizers per (imbalance factor,
mu) cell by truncated Newton-CG (Nocedal & Wright, Numerical
Optimization, Alg. 7.1): conjugate gradients on exact Hessian-vector
products (`models.hessian_operator`) with the forcing term
min(0.5, sqrt(||g||))*||g||, floored at grad_tolerance/2, and an Armijo
backtracking line search. A minimizer is certified only when the
full-batch gradient from `LinearModel.loss_and_gradient` has norm at
most `grad_tolerance`; by mu-strong convexity it then lies within
grad_tolerance/mu of the true minimizer. The floor stops CG at half the
tolerance that the certificate checks: a smaller residual costs
Hessian-vector products and cannot strengthen the certificate, and a
step that leaves ||g|| above the tolerance costs one more Newton
iteration. The head solve starts from the full minimizer with the
weight rows and biases of the tail classes set to zero: those rows were
fitted to tail samples, which the head objective does not contain. On
perfbench's grid784 at seeds 0 and 1 this start cut the mu = 1e-3 head
solve from 77 to 59 and from 71 to 62 Hessian-vector products.

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
from dataclasses import dataclass

import numpy as np

from .datasets import LabeledDataset, head_tail_split
from .errors import (
    DegenerateConvexityError,
    EigensolverError,
    MinimizerCertificationError,
    ShapeMismatchError,
    StrictConvexityError,
)
from .models import LinearModel, LossSpec, hessian_operator

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
    """Measured minimizer distance and its upper bounds for one grid cell."""

    imbalance_factor: float
    mu_full: float
    measured_distance: float
    delta: float
    loose_bound: float
    tight_bound: float
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
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if mu_f < 0 or mu_g < 0:
        raise ValueError("strong convexity parameters must be >= 0")
    if mu_f + mu_g == 0:
        raise DegenerateConvexityError("mu_f + mu_g = 0; bound is undefined")
    return 4.0 * delta / (mu_f + mu_g)


def tight_bound(theta_full, theta_head, losses, mu_f, mu_g) -> float:
    """Distance bound from exact loss-gap evaluations at the two minimizers.

    losses(stack) maps a stack of parameter vectors, one per row, to the
    arrays (loss_full, loss_head) of their values; both minimizers go in
    one 2-row stack. Requires theta_full and theta_head to be certified
    minimizers of loss_full and loss_head; the bracketed gap sum is then
    non-negative.
    """
    if mu_f + mu_g <= 0:
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
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if lam_f <= 0 or lam_g <= 0:
        raise StrictConvexityError(
            f"minimum eigenvalues {lam_f}, {lam_g} must be positive"
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
_TINY = float(np.finfo(np.float64).tiny)


def _sturm_count(alphas, beta_sq, x: float, pivmin: float) -> int:
    """Number of eigenvalues below x of the symmetric tridiagonal with
    diagonal `alphas` and squared off-diagonal `beta_sq[1:]` (beta_sq[0]
    is 0): the negative pivots of the LDL^T factorisation of T - x I,
    with pivots smaller than pivmin in magnitude taken as -pivmin."""
    count = 0
    d = 1.0
    for a, b2 in zip(alphas, beta_sq):
        d = (a - x) - b2 / d
        if d < pivmin:
            if d > -pivmin:
                d = -pivmin
            count += 1
    return count


def _ritz_bracket(alphas, beta_sq, index: int, near: float, far: float, tol: float, pivmin: float):
    """Bracket (lo, hi) of width at most tol of T's index-th smallest
    eigenvalue (from 0), which lies between near and far. Steps of tol,
    16 tol, 256 tol, ... walk from near towards far until one passes the
    eigenvalue, and the last step is bisected: a bracket end holds at most
    index eigenvalues below lo and more than index below hi. The cost grows
    with the log of the distance from near, so a near end from an earlier
    check makes it small."""
    side = 1.0 if far > near else -1.0
    step = tol
    while True:
        x = near + side * step
        if side * (far - x) <= 0:
            x = far
            break
        if (_sturm_count(alphas, beta_sq, x, pivmin) > index) == (side > 0):
            break
        near, step = x, 16.0 * step
    lo, hi = min(near, x), max(near, x)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if _sturm_count(alphas, beta_sq, mid, pivmin) > index:
            hi = mid
        else:
            lo = mid
    return lo, hi


def _last_component(alphas, betas, theta: float, norm: float) -> float:
    """|last component| of the unit eigenvector of T for the eigenvalue
    theta: one step of inverse iteration, U z = (1, ..., 1) after
    Gaussian elimination with partial pivoting of (T - theta I) / norm
    (Wilkinson's start, as in EISPACK's tinvit). Scaled by norm = ||T||,
    the pivots are O(1), and a zero pivot is replaced by eps."""
    k = len(alphas)
    if norm == 0.0:
        return 1.0  # T = 0 is 1 x 1: a zero off-diagonal ends Lanczos
    shifted = [(a - theta) / norm for a in alphas]
    offdiag = [b / norm for b in betas] + [0.0]
    diag, sup1, sup2 = [0.0] * k, [0.0] * k, [0.0] * k
    d, e = shifted[0], offdiag[0]
    for i in range(k - 1):
        sub, next_d, next_e = offdiag[i], shifted[i + 1], offdiag[i + 1]
        if abs(d) >= abs(sub):
            diag[i], sup1[i] = d or _EPS, e
            d, e = next_d - (sub / diag[i]) * e, next_e
        else:
            ratio = d / sub
            diag[i], sup1[i], sup2[i] = sub, next_d, next_e
            d, e = e - ratio * next_d, -ratio * next_e
    diag[k - 1] = d or _EPS
    z = [0.0] * (k + 2)
    for i in range(k - 1, -1, -1):
        z[i] = (1.0 - sup1[i] * z[i + 1] - sup2[i] * z[i + 2]) / diag[i]
    return abs(z[k - 1]) / math.hypot(*z)


def _ritz_check(alphas, betas, hints):
    """The smallest Ritz value theta_1, the largest theta_k, and the last
    component s_k of theta_1's unit eigenvector, for the Lanczos
    tridiagonal T with diagonal `alphas` and off-diagonal `betas`.

    Both values come by Sturm-count bisection (Parlett, The Symmetric
    Eigenvalue Problem, 1998) to within 2 eps ||T||, from the Gershgorin
    interval. `hints` holds an upper bound on theta_1 and a lower bound
    on theta_k from an earlier check: by interlacing theta_1 never rises
    and theta_k never falls as T grows, so each is a tighter bracket end.
    Returns (theta_1, theta_k, s_k, hints for the next check).
    """
    k = len(alphas)
    beta_sq = [0.0] + [b * b for b in betas]
    a, b = np.array(alphas), np.array(betas)
    radius = np.zeros(k)
    radius[1:] += b
    radius[:-1] += b
    lo, hi = float((a - radius).min()), float((a + radius).max())
    norm = max(abs(lo), abs(hi))
    pivmin = _TINY * max(1.0, max(beta_sq))
    # a zero T keeps the bracket [0, 0] and gives 0.0; the floor on tol
    # keeps the steps of `_ritz_bracket` growing when ||T|| is subnormal
    slack = 2.0 * k * _EPS * norm
    lo, hi = lo - slack, hi + slack
    tol = 2.0 * _EPS * norm + _TINY
    low_hint, high_hint = hints
    if not (lo < low_hint < hi and _sturm_count(alphas, beta_sq, low_hint, pivmin) >= 1):
        low_hint = hi
    if not (lo < high_hint < hi and _sturm_count(alphas, beta_sq, high_hint, pivmin) <= k - 1):
        high_hint = lo
    low = _ritz_bracket(alphas, beta_sq, 0, low_hint, lo, tol, pivmin)
    high = _ritz_bracket(alphas, beta_sq, k - 1, high_hint, hi, tol, pivmin)
    theta_1, theta_k = 0.5 * (low[0] + low[1]), 0.5 * (high[0] + high[1])
    s_k = _last_component(alphas, betas, theta_1, norm)
    return theta_1, theta_k, s_k, (low[1], high[0])


def min_eigenvalue(apply, dim: int) -> float:
    """Smallest eigenvalue of a symmetric linear map v -> A v of dimension
    `dim` (e.g. `models.hessian_operator`): the smallest Ritz value of
    Lanczos (1950) with full reorthogonalisation (classical Gram-Schmidt,
    applied twice).

    T is checked (`_ritz_check`) every LANCZOS_CHECK_EVERY steps, at the
    dimension and on breakdown (an off-diagonal below the tolerance); the
    run ends when the residual beta_k*|s_k| of the smallest Ritz pair is
    at most LANCZOS_TOL times the largest Ritz value in magnitude, or at
    the dimension, where T holds the whole spectrum. By interlacing the
    value is at or above the true lambda_min, and an eigenvalue lies
    within that residual of it (Lanczos finds the extreme eigenvalues
    first, so in practice that is lambda_min). A Ritz value within
    dim * eps * |largest Ritz value| of zero is returned as 0.0. The basis
    is one array of LANCZOS_ROWS rows that doubles when full, so memory
    follows the steps taken. Raises EigensolverError rather than return an
    unconverged value after LANCZOS_MAX_ITERS steps.
    """
    if dim < 1:
        raise ShapeMismatchError("the smallest eigenvalue of an empty matrix is undefined")
    q = np.random.default_rng(LANCZOS_SEED).standard_normal(dim)
    basis = np.empty((min(LANCZOS_ROWS, dim), dim))
    basis[0] = q / np.linalg.norm(q)
    alphas: list = []
    betas: list = []
    hints = (math.inf, -math.inf)
    alpha_max = 0.0
    for k in range(1, min(dim, LANCZOS_MAX_ITERS) + 1):
        rows = basis[:k]
        current = basis[k - 1]
        w = np.array(apply(current), dtype=np.float64)  # a copy: w is updated in place
        alphas.append(float(current @ w))
        alpha_max = max(alpha_max, abs(alphas[-1]))
        for _ in range(2):
            w -= (rows @ w) @ rows
        beta = float(np.linalg.norm(w))
        if not math.isfinite(beta):
            raise EigensolverError(f"non-finite Lanczos vector at step {k}")
        if k % LANCZOS_CHECK_EVERY == 0 or k == dim or beta <= LANCZOS_TOL * alpha_max:
            theta_1, theta_k, s_k, hints = _ritz_check(alphas, betas, hints)
            scale = max(abs(theta_1), abs(theta_k))
            if beta * s_k <= LANCZOS_TOL * scale or k == dim:
                # below the rounding error of the products the sign is not
                # determined, so a singular matrix is reported as such
                zero = abs(theta_1) <= dim * _EPS * scale
                return 0.0 if zero else float(theta_1)
        if k == len(basis):
            grown = np.empty((min(2 * k, dim), dim))
            grown[:k] = basis
            basis = grown
        basis[k] = w / beta
        betas.append(beta)
    raise EigensolverError(
        f"Lanczos did not converge in {LANCZOS_MAX_ITERS} steps on a {dim}-dimensional operator"
    )


def loss_gap_surrogate(
    losses,
    theta_full: np.ndarray,
    theta_head: np.ndarray,
    n_probes: int = 64,
    seed: int = 0,
) -> float:
    """Sampled stand-in for the global max of |loss_full - loss_head|.

    losses(stack) maps a stack of parameter vectors, one per row, to the
    arrays (loss_full, loss_head) of their values. Evaluates the gap at both minimizers plus seeded interpolates and
    perturbations of the segment between them. The true global maximum
    is unbounded for cross-entropy, so this surrogate only feeds the
    loose and lemma2 bounds; the tight bound needs no delta.
    """
    rng = np.random.default_rng(seed)
    segment = theta_head - theta_full
    scale = 0.05 * float(np.linalg.norm(segment))
    probes = np.empty((n_probes + 2, len(segment)))
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
    max_epochs: int = 200_000  # cap on Newton iterations per minimizer
    delta_probes: int = 64
    compute_lemma2: bool = False


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
    (model, loss, gradient), or None when MAX_BACKTRACKS halvings find no
    acceptable point (a non-finite objective never gives one)."""
    theta = model.get_params()
    slope = float(grad @ step)
    trial = model.copy()
    t = 1.0
    for _ in range(MAX_BACKTRACKS):
        trial.set_params(theta + t * step)
        trial_value, trial_grad = trial.loss_and_gradient(x, y, spec)
        if trial_value <= value + ARMIJO_C1 * t * slope or (
            trial_value <= value + LOSS_ROUNDING * abs(value)
            and float(trial_grad @ step) <= (2.0 * ARMIJO_C1 - 1.0) * slope
        ):
            return trial, trial_value, trial_grad
        t *= 0.5
    return None


def _train_to_stationarity(
    dataset: LabeledDataset, mu: float, config: BoundGridConfig, start: LinearModel | None = None
):
    """Certified minimizer of the mu-regularized CE loss by truncated Newton-CG.

    Starts from `start` (zeros when None) and runs at most
    config.max_epochs Newton iterations. Returns (model, trace); the trace
    counts Newton iterations in epochs_run and is converged exactly when
    the full-batch gradient norm is at most config.grad_tolerance. A
    stalled line search or a non-finite loss ends the solve unconverged.
    CG stops at the residual min(0.5, sqrt(||g||))*||g||, but never below
    config.grad_tolerance/2: the certificate checks nothing finer, and a
    step that still leaves ||g|| above the tolerance just costs one more
    Newton iteration, so the certificate is unchanged.
    """
    model = LinearModel.zeros(dataset.n_features, dataset.n_classes) if start is None else start.copy()
    spec = LossSpec(mu=mu)
    x, y = dataset.features, dataset.labels
    value, grad = model.loss_and_gradient(x, y, spec)
    grad_norm = float(np.linalg.norm(grad))
    iterations = 0
    while (
        iterations < config.max_epochs
        and grad_norm > config.grad_tolerance
        and math.isfinite(value)
    ):
        hvp = hessian_operator(model, dataset, spec)
        forcing = min(0.5, math.sqrt(grad_norm)) * grad_norm
        step = _truncated_cg(hvp, grad, max(forcing, 0.5 * config.grad_tolerance))
        accepted = _armijo_step(model, x, y, spec, value, grad, step)
        if accepted is None:
            break
        model, value, grad = accepted
        grad_norm = float(np.linalg.norm(grad))
        iterations += 1
    return model, TrainTrace(
        final_grad_norm=grad_norm,
        epochs_run=iterations,
        converged=grad_norm <= config.grad_tolerance,
    )


def evaluate_cell(
    full_dataset: LabeledDataset,
    imbalance: float,
    mu: float,
    config: BoundGridConfig,
    cell_seed: int = 0,
) -> BoundReport:
    """Certify both minimizers for one (IF, mu) cell and score every bound;
    cell_seed seeds the loss-gap probes.

    The full solve starts from zeros. The head solve starts from the full
    minimizer with the tail classes' weight rows and biases set to zero:
    those rows were fitted to tail samples, which the head objective does
    not contain, while the head rows start near their head optimum.
    """
    split = head_tail_split(full_dataset, config.head_fraction)
    spec = LossSpec(mu=mu)

    model_full, trace_full = _train_to_stationarity(full_dataset, mu, config)
    head_start = model_full.copy()
    tail = sorted(split.tail_classes)
    head_start.weights[tail] = 0.0
    head_start.biases[tail] = 0.0
    model_head, trace_head = _train_to_stationarity(split.head, mu, config, start=head_start)

    theta_full = model_full.get_params()
    theta_head = model_head.get_params()
    measured = float(np.linalg.norm(theta_full - theta_head))

    losses = _probe_losses(split, mu)
    if trace_full.converged and trace_head.converged:
        delta_hat = loss_gap_surrogate(
            losses,
            theta_full,
            theta_head,
            n_probes=config.delta_probes,
            seed=cell_seed,
        )
        loose = float(np.sqrt(lemma1_bound(delta_hat, mu, mu)))
        tight = tight_bound(theta_full, theta_head, losses, mu, mu)
        lemma2 = lam_full = lam_head = None
        if config.compute_lemma2:
            n_params = model_full.layout.total_size
            lam_full = min_eigenvalue(hessian_operator(model_full, full_dataset, spec), n_params)
            lam_head = min_eigenvalue(hessian_operator(model_head, split.head, spec), n_params)
            lemma2 = float(np.sqrt(lemma2_bound(delta_hat, lam_full, lam_head)))
    else:
        delta_hat = float("nan")
        loose = float("nan")
        tight = float("nan")
        lemma2 = lam_full = lam_head = None

    return BoundReport(
        imbalance_factor=float(imbalance),
        mu_full=float(mu),
        measured_distance=measured,
        delta=delta_hat,
        loose_bound=loose,
        tight_bound=tight,
        lemma2_bound=lemma2,
        lambda_min_full=lam_full,
        lambda_min_head=lam_head,
        converged_full=trace_full.converged,
        converged_head=trace_head.converged,
        epochs_full=trace_full.epochs_run,
        epochs_head=trace_head.epochs_run,
    )


def bound_grid(
    dataset_builder,
    if_values,
    mu_values,
    config: BoundGridConfig | None = None,
    workers: int = 1,
) -> list[BoundReport]:
    """Run the full (IF, mu) grid; reports are sorted by (IF, mu).

    dataset_builder maps an imbalance factor to the long-tailed training
    dataset for that grid column. Failed (non-converged) cells are kept
    in the output with their converged flags cleared.
    """
    config = config or BoundGridConfig()
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
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(run, cells))
    else:
        reports = [run(cell) for cell in cells]
    reports.sort(key=lambda r: (r.imbalance_factor, r.mu_full))
    return reports
