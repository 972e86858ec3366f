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
has no parameter-count limit. The reported lambda is the smallest Ritz
value. It is at or above the true lambda_min (Cauchy interlacing), and
it lies within the stopping residual LANCZOS_TOL * |largest Ritz value|
of an eigenvalue. It exceeds lambda_min = mu by at most 4.3e-12 over the
18 eigensolves of the pooled acceptance grid, and by at most 2.6e-8 on
the smaller pooled grid of perfbench's lemma2_cli workload.

The grid experiment certifies both minimizers per (imbalance factor,
mu) cell by truncated Newton-CG (Nocedal & Wright, Numerical
Optimization, Alg. 7.1): conjugate gradients on exact Hessian-vector
products (`models.hessian_operator`) with the forcing term
min(0.5, sqrt(||g||))*||g||, and an Armijo backtracking line search. A
minimizer is certified only when the full-batch gradient from
`LinearModel.loss_and_gradient` has norm at most `grad_tolerance`; by
mu-strong convexity it then lies within grad_tolerance/mu of the true
minimizer. The head solve starts from the full minimizer.

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
    SymmetryError,
)
from .models import LinearModel, LossSpec, hessian_operator, loss
from .training import TrainTrace

# Unused here, but perfbench/tracer.py patches all three by name in this module.
from .models import hessian, softmax_smoothness_bound  # noqa: F401
from .training import train  # noqa: F401

BOUND_SLACK = 1e-9


@dataclass
class BoundReport:
    """Measured minimizer distance and its upper bounds for one grid cell."""

    imbalance_factor: float
    mu_full: float
    mu_head: float
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

    losses(theta) returns the pair (loss_full(theta), loss_head(theta)).
    Requires theta_full and theta_head to be certified minimizers of
    loss_full and loss_head; the bracketed gap sum is then non-negative.
    """
    if mu_f + mu_g <= 0:
        raise DegenerateConvexityError("mu_f + mu_g must be positive")
    full_at_full, head_at_full = losses(theta_full)
    full_at_head, head_at_head = losses(theta_head)
    bracket = (head_at_full - full_at_full) + (full_at_head - head_at_head)
    if bracket < -BOUND_SLACK:
        raise MinimizerCertificationError(
            f"gap sum {bracket} is negative; inputs are not minimizers of their objectives"
        )
    return float(np.sqrt(2.0 * max(bracket, 0.0) / (mu_f + mu_g)))


def _lemma2_from_eigenvalues(delta: float, lam_f: float, lam_g: float) -> float:
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if lam_f <= 0 or lam_g <= 0:
        raise StrictConvexityError(
            f"minimum eigenvalues {lam_f}, {lam_g} must be positive"
        )
    return 4.0 * delta / (lam_f + lam_g)


def lemma2_bound(delta: float, hessian_f_at_min, hessian_g_at_min) -> float:
    """Squared-distance bound 4*delta/(lambda_f + lambda_g) from minimum
    Hessian eigenvalues at the respective minimizers."""
    return _lemma2_from_eigenvalues(
        delta, min_eigenvalue(hessian_f_at_min), min_eigenvalue(hessian_g_at_min)
    )


def _check_symmetric(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise SymmetryError("matrix must be square")
    if matrix.size and np.max(np.abs(matrix - matrix.T)) > 1e-8:
        raise SymmetryError("matrix is not symmetric within 1e-8")
    return matrix


# Lanczos settings. The start vector comes from a fixed seed, so the
# result never depends on the worker count or the call order.
LANCZOS_SEED = 0
# The smallest Ritz pair has converged when its residual is at most
# LANCZOS_TOL times the largest Ritz value in magnitude.
LANCZOS_TOL = 1e-8
LANCZOS_CHECK_EVERY = 10  # steps between eigensolves of the tridiagonal T
LANCZOS_MAX_ITERS = 1000
LANCZOS_BLOCK = 64  # basis rows allocated at a time


def _basis_rows(blocks: list, k: int) -> list:
    full, rest = divmod(k, LANCZOS_BLOCK)
    return blocks[:full] + ([blocks[full][:rest]] if rest else [])


def _lanczos_min(apply, dim: int) -> float:
    """Smallest Ritz value of Lanczos (1950) with full reorthogonalisation
    (classical Gram-Schmidt, applied twice) on the symmetric map `apply`.

    T is eigensolved every LANCZOS_CHECK_EVERY steps, at the dimension
    and on breakdown (an off-diagonal below the tolerance); the run ends
    when the residual beta_k*|s_k| of the smallest Ritz pair is at most
    LANCZOS_TOL times the largest Ritz value in magnitude, or at the
    dimension, where T holds the whole spectrum. A Ritz value within
    dim * eps * |largest Ritz value| of zero is returned as 0.0. The
    basis grows in blocks of LANCZOS_BLOCK rows, so memory follows the
    steps taken.
    """
    if dim < 1:
        raise ShapeMismatchError("the smallest eigenvalue of an empty matrix is undefined")
    q = np.random.default_rng(LANCZOS_SEED).standard_normal(dim)
    blocks = [np.empty((LANCZOS_BLOCK, dim))]
    blocks[0][0] = q / np.linalg.norm(q)
    alphas: list = []
    betas: list = []
    alpha_max = 0.0
    for k in range(1, min(dim, LANCZOS_MAX_ITERS) + 1):
        rows = _basis_rows(blocks, k)
        current = rows[-1][-1]
        w = np.array(apply(current), dtype=np.float64)  # a copy: w is updated in place
        alphas.append(float(current @ w))
        alpha_max = max(alpha_max, abs(alphas[-1]))
        for _ in range(2):
            coeffs = [block @ w for block in rows]
            for block, c in zip(rows, coeffs):
                w -= c @ block
        beta = float(np.linalg.norm(w))
        if not math.isfinite(beta):
            raise EigensolverError(f"non-finite Lanczos vector at step {k}")
        if k % LANCZOS_CHECK_EVERY == 0 or k == dim or beta <= LANCZOS_TOL * alpha_max:
            ritz, vectors = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
            scale = max(abs(ritz[0]), abs(ritz[-1]))
            if beta * abs(vectors[-1, 0]) <= LANCZOS_TOL * scale or k == dim:
                # below the rounding error of the products the sign is not
                # determined, so a singular matrix is reported as such
                zero = abs(ritz[0]) <= dim * np.finfo(np.float64).eps * scale
                return 0.0 if zero else float(ritz[0])
        if k % LANCZOS_BLOCK == 0:
            blocks.append(np.empty((LANCZOS_BLOCK, dim)))
        blocks[k // LANCZOS_BLOCK][k % LANCZOS_BLOCK] = w / beta
        betas.append(beta)
    raise EigensolverError(
        f"Lanczos did not converge in {LANCZOS_MAX_ITERS} steps on a {dim}-dimensional operator"
    )


def min_eigenvalue(matrix, dim: int | None = None) -> float:
    """Smallest eigenvalue of a symmetric matrix, or of a symmetric linear
    map v -> A v of dimension `dim` (e.g. `models.hessian_operator`).

    The value is the smallest Lanczos Ritz value. By interlacing it is at
    or above the true lambda_min, and on convergence an eigenvalue lies
    within the stopping residual LANCZOS_TOL * |largest Ritz value| of it
    (Lanczos finds the extreme eigenvalues first, so in practice that is
    lambda_min). A value within rounding of zero is returned as 0.0.
    Raises EigensolverError rather than return an unconverged value
    after LANCZOS_MAX_ITERS steps.
    """
    if callable(matrix):
        if dim is None:
            raise ShapeMismatchError("an operator needs its dimension")
        return _lanczos_min(matrix, dim)
    matrix = _check_symmetric(matrix)
    return _lanczos_min(matrix.__matmul__, matrix.shape[0])


def loss_gap_surrogate(
    losses,
    theta_full: np.ndarray,
    theta_head: np.ndarray,
    n_probes: int = 64,
    seed: int = 0,
) -> float:
    """Sampled stand-in for the global max of |loss_full - loss_head|.

    losses(theta) returns the pair (loss_full(theta), loss_head(theta)).
    Evaluates the gap at both minimizers plus seeded interpolates and
    perturbations of the segment between them. The true global maximum
    is unbounded for cross-entropy, so this surrogate only feeds the
    loose and lemma2 bounds; the tight bound needs no delta.
    """
    rng = np.random.default_rng(seed)
    segment = theta_head - theta_full
    scale = 0.05 * float(np.linalg.norm(segment))
    probes = [theta_full, theta_head]
    for _ in range(n_probes):
        t = rng.uniform(0.0, 1.0)
        point = theta_full + t * segment
        if scale > 0:
            direction = rng.standard_normal(len(segment))
            point = point + scale * direction / np.linalg.norm(direction)
        probes.append(point)
    return max(abs(full - head) for full, head in map(losses, probes))


@dataclass(frozen=True)
class BoundGridConfig:
    head_fraction: float = 0.6
    grad_tolerance: float = 1e-8
    max_epochs: int = 200_000  # cap on Newton iterations per minimizer
    delta_probes: int = 64
    probe_seed: int = 0
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
    """
    model = LinearModel.zeros(dataset.n_features, dataset.n_classes) if start is None else start.copy()
    spec = LossSpec(mu=mu)
    x, y = dataset.features, dataset.labels
    value, grad = model.loss_and_gradient(x, y, spec)
    grad_norm = float(np.linalg.norm(grad))
    losses = [value]
    iterations = 0
    while (
        iterations < config.max_epochs
        and grad_norm > config.grad_tolerance
        and math.isfinite(value)
    ):
        hvp = hessian_operator(model, dataset, spec)
        step = _truncated_cg(hvp, grad, min(0.5, math.sqrt(grad_norm)) * grad_norm)
        accepted = _armijo_step(model, x, y, spec, value, grad, step)
        if accepted is None:
            break
        model, value, grad = accepted
        grad_norm = float(np.linalg.norm(grad))
        losses.append(value)
        iterations += 1
    return model, TrainTrace(
        epoch_losses=np.array(losses),
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
    """Certify both minimizers for one (IF, mu) cell and score every bound."""
    split = head_tail_split(full_dataset, config.head_fraction)
    spec = LossSpec(mu=mu)

    model_full, trace_full = _train_to_stationarity(full_dataset, mu, config)
    model_head, trace_head = _train_to_stationarity(split.head, mu, config, start=model_full)

    theta_full = model_full.get_params()
    theta_head = model_head.get_params()
    measured = float(np.linalg.norm(theta_full - theta_head))

    probe = model_full.copy()
    n_head, n_tail = split.head.n_samples, split.tail.n_samples

    def losses(theta):
        # Head and tail rows each pass through the model once; both losses
        # carry the same regulariser, so their weighted mean is loss_full.
        probe.set_params(theta)
        head = loss(probe, split.head, spec)
        if n_tail == 0:
            return head, head
        tail = loss(probe, split.tail, spec)
        return (n_head * head + n_tail * tail) / (n_head + n_tail), head

    if trace_full.converged and trace_head.converged:
        delta_hat = loss_gap_surrogate(
            losses,
            theta_full,
            theta_head,
            n_probes=config.delta_probes,
            seed=cell_seed + config.probe_seed,
        )
        loose = float(np.sqrt(lemma1_bound(delta_hat, mu, mu)))
        tight = tight_bound(theta_full, theta_head, losses, mu, mu)
        lemma2 = lam_full = lam_head = None
        if config.compute_lemma2:
            n_params = model_full.layout.total_size
            lam_full = min_eigenvalue(hessian_operator(model_full, full_dataset, spec), n_params)
            lam_head = min_eigenvalue(hessian_operator(model_head, split.head, spec), n_params)
            lemma2 = float(np.sqrt(_lemma2_from_eigenvalues(delta_hat, lam_full, lam_head)))
    else:
        delta_hat = float("nan")
        loose = float("nan")
        tight = float("nan")
        lemma2 = lam_full = lam_head = None

    return BoundReport(
        imbalance_factor=float(imbalance),
        mu_full=float(mu),
        mu_head=float(mu),
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
