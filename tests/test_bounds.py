import threading
import time

import numpy as np
import pytest

from _fixtures import heavy_ball_minimizer, random_linear
from ltcl import bounds, datasets, models
from ltcl.errors import (
    CapacityError,
    DegenerateConvexityError,
    EigensolverError,
    EmptyClassError,
    MinimizerCertificationError,
    ShapeMismatchError,
    StrictConvexityError,
)


def _quadratic_pair(gamma):
    """f(x)=x^2 and g(x)=gamma*x^2+(1-gamma)*(x-1)^2; both have curvature 2."""
    f = lambda x: x * x
    g = lambda x: gamma * x * x + (1 - gamma) * (x - 1) ** 2
    x_f = 0.0
    x_g = 1.0 - gamma
    return f, g, x_f, x_g


def _pair(f, g):
    """The losses callable that the bound functions take: a stack of
    points, one per row, to the arrays (loss_full, loss_head)."""
    return lambda stack: (np.array([f(x) for x in stack]), np.array([g(x) for x in stack]))


def _grid_delta(f, g, lo=-2.0, hi=2.0, step=1e-4):
    xs = np.arange(lo, hi + step, step)
    return float(np.max(np.abs(f(xs) - g(xs))))


def test_lemma1_zero_gap():
    assert bounds.lemma1_bound(0.0, 1.0, 1.0) == 0.0


def test_lemma1_constant_shift():
    f = lambda x: x * x
    g = lambda x: x * x + 0.3
    delta = _grid_delta(f, g)
    bound = bounds.lemma1_bound(delta, 2.0, 2.0)
    assert bound == pytest.approx(0.3)
    assert 0.0 <= bound  # shared minimizer at distance 0


def test_lemma1_quadratic_family():
    f, g, x_f, x_g = _quadratic_pair(0.9)
    delta = _grid_delta(f, g)
    assert delta == pytest.approx(0.5, abs=1e-3)
    bound = bounds.lemma1_bound(delta, 2.0, 2.0)
    assert (x_g - x_f) ** 2 <= bound
    assert bound == pytest.approx(0.5, abs=1e-3)


def test_lemma1_degenerate():
    with pytest.raises(DegenerateConvexityError):
        bounds.lemma1_bound(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        bounds.lemma1_bound(-1.0, 1.0, 1.0)


def test_lemma1_identity_guard():
    # 4d/(2m) must equal 2d/m bitwise; guards formula regressions
    for delta, mu in [(0.3, 0.007), (1.7, 2.0), (1e-9, 3e-4)]:
        assert bounds.lemma1_bound(delta, mu, mu) == 2.0 * delta / mu


@pytest.mark.parametrize("gamma", [0.5, 0.7, 0.9, 0.99])
def test_tight_bound_exact_for_quadratics(gamma):
    f, g, x_f, x_g = _quadratic_pair(gamma)
    bound = bounds.tight_bound(x_f, x_g, _pair(f, g), 2.0, 2.0)
    true_distance = abs(x_g - x_f)
    assert bound == pytest.approx(true_distance, abs=1e-10)


def test_tight_bound_identical_objectives():
    f = lambda x: (x - 1.0) ** 2
    assert bounds.tight_bound(1.0, 1.0, _pair(f, f), 2.0, 2.0) == 0.0


def test_tight_bound_degenerate_before_any_loss():
    def unprobed(stack):
        raise AssertionError("no loss is evaluated before the curvature is checked")

    with pytest.raises(DegenerateConvexityError):
        bounds.tight_bound(0.0, 0.0, unprobed, 0.0, 0.0)


def test_tight_bound_rejects_non_minimizers():
    f, g, _, _ = _quadratic_pair(0.9)
    with pytest.raises(MinimizerCertificationError):
        bounds.tight_bound(0.7, -0.4, _pair(f, g), 2.0, 2.0)


def _dense_min(m):
    """min_eigenvalue of a dense symmetric matrix, through its product."""
    return bounds.min_eigenvalue(m.__matmul__, len(m))


def test_lemma2_reduces_to_lemma1_for_equal_curvature():
    h = 2.0 * np.eye(3)
    lam = _dense_min(h)
    assert bounds.lemma2_bound(0.4, lam, lam) == pytest.approx(
        bounds.lemma1_bound(0.4, 2.0, 2.0)
    )


def test_lemma2_diagonal_example():
    hf = np.diag([3.0, 5.0])
    hg = np.diag([4.0, 4.0])
    lam_f, lam_g = _dense_min(hf), _dense_min(hg)
    assert bounds.lemma2_bound(0.1, lam_f, lam_g) == pytest.approx(4 * 0.1 / 7.0)


def test_lemma2_strict_convexity_violation():
    hf = np.diag([0.0, 1.0])
    with pytest.raises(StrictConvexityError):
        bounds.lemma2_bound(0.1, _dense_min(hf), _dense_min(np.eye(2)))


def test_lemma2_never_exceeds_lemma1_with_regularized_hessians():
    ds = datasets.synthetic_gaussian(3, 4, 30, 2.0, seed=0)
    mu = 0.01
    spec = models.LossSpec(mu=mu)
    rng = np.random.default_rng(0)
    model = models.LinearModel(rng.standard_normal((3, 4)) * 0.3, np.zeros(3))
    h = models.hessian(model, ds, spec)
    lam = _dense_min(h)
    assert lam >= mu - 1e-10
    delta = 0.25
    # lambda_min equals mu exactly when the data term has a null direction,
    # so allow fp slack at the equality boundary
    assert bounds.lemma2_bound(delta, lam, lam) <= bounds.lemma1_bound(delta, mu, mu) * (1 + 1e-9)


def test_min_eigenvalue_examples():
    assert _dense_min(np.eye(5)) == pytest.approx(1.0)
    assert _dense_min(np.diag([0.2, 7.0, 3.0])) == pytest.approx(0.2)
    assert _dense_min(np.zeros((3, 3))) == 0.0
    assert _dense_min(np.diag([0.0, 1.0, 2.0])) == 0.0


def test_min_eigenvalue_dual_method_crosscheck():
    # Lanczos against the dense eigendecomposition
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = rng.standard_normal((50, 50))
        sym = 0.5 * (a + a.T)
        dense = float(np.linalg.eigvalsh(sym)[0])
        assert abs(_dense_min(sym) - dense) <= 1e-6 * max(1.0, abs(dense))


def test_min_eigenvalue_shift_property():
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        a = rng.standard_normal((n, n))
        sym = 0.5 * (a + a.T)
        c = float(rng.uniform(-2, 2))
        base = _dense_min(sym)
        shifted = _dense_min(sym + c * np.eye(n))
        assert abs(shifted - (base + c)) <= 1e-8


def test_min_eigenvalue_lanczos_at_scale():
    rng = np.random.default_rng(2)
    diag = rng.uniform(0.5, 5.0, 600)
    diag[17] = 0.1
    m = np.diag(diag)
    assert _dense_min(m) == pytest.approx(0.1, rel=1e-12)
    assert bounds.min_eigenvalue(lambda v: diag * v, 600) == pytest.approx(0.1, rel=1e-12)


def test_min_eigenvalue_operator_matches_matrix_on_hessian():
    ds = datasets.synthetic_gaussian(3, 4, 30, 2.0, seed=0)
    spec = models.LossSpec(mu=0.01)
    rng = np.random.default_rng(0)
    model = models.LinearModel(rng.standard_normal((3, 4)) * 0.3, np.zeros(3))
    h = models.hessian(model, ds, spec)
    from_matrix = _dense_min(h)
    from_operator = bounds.min_eigenvalue(models.hessian_operator(model, ds, spec), model.layout.total_size)
    assert from_operator == pytest.approx(from_matrix, abs=1e-12)
    assert from_matrix == pytest.approx(float(np.linalg.eigvalsh(h)[0]), abs=1e-12)


def test_min_eigenvalue_cap_hit_raises(monkeypatch):
    # eigenvalues 1/j^2 crowd near 0, so 5 steps cannot resolve the smallest
    m = np.diag(1.0 / np.arange(1, 401) ** 2)
    monkeypatch.setattr(bounds, "LANCZOS_MAX_ITERS", 5)
    with pytest.raises(EigensolverError):
        _dense_min(m)
    with pytest.raises(ShapeMismatchError):
        bounds.min_eigenvalue(lambda v: v, 0)


def test_min_eigenvalue_crowded_spectrum():
    # eigenvalues 1/j^2 crowd towards the minimum 1/400^2 = 6.25e-6, where
    # a basis that loses orthogonality gives ghost or stalled Ritz values;
    # the result must lie within the stopping residual LANCZOS_TOL * 1
    m = np.diag(1.0 / np.arange(1, 401) ** 2)
    assert abs(_dense_min(m) - 6.25e-6) <= bounds.LANCZOS_TOL


def _tridiagonal(kind, k, rng):
    if kind == "random":
        alphas, betas = rng.standard_normal(k), np.abs(rng.standard_normal(k - 1))
    elif kind == "clustered":  # every eigenvalue within about 5e-3 of 1
        alphas, betas = 1.0 + 1e-3 * rng.standard_normal(k), 1e-3 * rng.uniform(0.1, 1.0, k - 1)
    else:  # negative spectrum
        alphas, betas = -5.0 - rng.random(k), rng.uniform(0.1, 1.0, k - 1)
    return np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)


@pytest.mark.parametrize("kind", ["random", "clustered", "negative"])
@pytest.mark.parametrize("k", [1, 2, 3, 10, 57, 340])
def test_min_eigenvalue_tridiagonal_matches_eigh(kind, k):
    # Lanczos on the operator of a k x k tridiagonal against LAPACK, within
    # the stopping residual LANCZOS_TOL times the largest eigenvalue in magnitude
    rng = np.random.default_rng(1000 * k + len(kind))
    for _ in range(3):
        m = _tridiagonal(kind, k, rng)
        exact = np.linalg.eigvalsh(m)
        scale = max(abs(exact[0]), abs(exact[-1]))
        assert abs(_dense_min(m) - exact[0]) <= bounds.LANCZOS_TOL * scale


def test_lanczos_eigensolves_only_its_tridiagonal(monkeypatch):
    # the Ritz checks decompose the small Lanczos tridiagonal, never the operator
    shapes = []
    eigh = np.linalg.eigh

    def recording(m):
        assert not np.triu(m, 2).any() and not np.tril(m, -2).any()
        shapes.append(m.shape)
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    diag = np.random.default_rng(2).uniform(0.5, 5.0, 600)
    diag[17] = 0.1
    assert bounds.min_eigenvalue(lambda v: diag * v, 600) == pytest.approx(0.1, rel=1e-12)
    assert shapes and all(k == j < 600 for k, j in shapes)


def _counted(apply):
    """apply, and a one-item list that counts its calls."""
    calls = [0]

    def counted(v):
        calls[0] += 1
        return apply(v)

    return counted, calls


def _small_longtail(if_value=50.0):
    src = datasets.synthetic_gaussian(6, 8, 80, 2.5, seed=1)
    return datasets.make_longtail(src, if_value, seed=2)


def _cell_hessian(mu):
    """The Hessian-vector product of a small cell's regularized CE loss:
    mu*I plus a PSD operator with a (d+1)-dimensional null space."""
    lt = _small_longtail()
    model = models.LinearModel(np.random.default_rng(0).standard_normal((6, 8)) * 0.3, np.zeros(6))
    return models.hessian_operator(model, lt, models.LossSpec(mu=mu)), model.layout.total_size


def test_min_eigenvalue_stops_when_the_bracket_closes():
    # mu is a proven lower bound, so the solve may stop once its Ritz value
    # is within the stopping tolerance of mu, and then returns mu itself
    mu = 0.05
    hvp, dim = _cell_hessian(mu)
    plain, plain_calls = _counted(hvp)
    ritz = bounds.min_eigenvalue(plain, dim)
    bracketed, bracketed_calls = _counted(hvp)
    assert bounds.min_eigenvalue(bracketed, dim, lower=mu) == mu
    assert ritz == pytest.approx(mu, abs=bounds.LANCZOS_TOL)
    assert bracketed_calls[0] < plain_calls[0]


@pytest.mark.parametrize("operator", ["cell", "diagonal"])
def test_min_eigenvalue_lower_far_below_changes_nothing(operator):
    # a bracket that never closes leaves the residual rule to stop the solve
    if operator == "cell":
        apply, dim = _cell_hessian(0.05)
    else:
        diag = np.random.default_rng(2).uniform(0.5, 5.0, 600)
        apply, dim = (lambda v: diag * v), 600
    plain, plain_calls = _counted(apply)
    bracketed, bracketed_calls = _counted(apply)
    assert bounds.min_eigenvalue(bracketed, dim, lower=-1.0) == bounds.min_eigenvalue(plain, dim)
    assert bracketed_calls[0] == plain_calls[0]


def test_min_eigenvalue_ritz_value_below_lower_is_kept():
    # lower = 0.5 is no lower bound of diag(0.1, 1, 2, ...): once the Ritz
    # value drops below it, the residual rule decides and 0.1 comes back
    diag = np.arange(200.0)
    diag[0] = 0.1
    plain = bounds.min_eigenvalue(lambda v: diag * v, 200)
    bracketed = bounds.min_eigenvalue(lambda v: diag * v, 200, lower=0.5)
    assert bracketed == plain
    assert abs(bracketed - 0.1) <= bounds.LANCZOS_TOL * 199.0


def _small_cell(if_value=50.0, mu=0.05, compute_lemma2=False):
    cfg = bounds.BoundGridConfig(head_fraction=0.5, compute_lemma2=compute_lemma2)
    return bounds.evaluate_cell(_small_longtail(if_value), if_value, mu, cfg)


def test_evaluate_cell_bounds_hold():
    report = _small_cell(compute_lemma2=True)
    assert report.converged_full and report.converged_head
    assert report.holds["tight"]
    assert report.holds["loose"]
    assert report.tight_bound <= report.loose_bound + 1e-12
    assert report.lemma2_bound <= report.loose_bound + 1e-12


def test_lemma2_above_dense_hessian_guard():
    # 5 classes x 1001 parameters: too large for the dense Hessian, but the
    # matrix-free spectrum needs no dense Hessian
    lt = datasets.make_longtail(datasets.synthetic_gaussian(5, 1000, 40, 2.5, seed=1), 10.0, seed=2)
    mu = 0.05
    cfg = bounds.BoundGridConfig(head_fraction=0.6, compute_lemma2=True)
    report = bounds.evaluate_cell(lt, 10.0, mu, cfg)
    n_params = 5 * 1001
    assert n_params > models.HESSIAN_PARAM_GUARD
    with pytest.raises(CapacityError):
        models.hessian(models.LinearModel.zeros(1000, 5), lt, models.LossSpec(mu=mu))
    assert report.converged_full and report.converged_head
    assert report.lambda_min_full == pytest.approx(mu, abs=1e-12)
    assert report.lambda_min_head == pytest.approx(mu, abs=1e-12)
    assert report.holds == {"tight": True, "loose": True, "lemma2": True}


def test_bound_grid_sorted_and_monotone_in_mu():
    src = datasets.synthetic_gaussian(6, 8, 80, 2.5, seed=1)
    builder = lambda if_value: datasets.make_longtail(src, if_value, seed=2)
    cfg = bounds.BoundGridConfig(head_fraction=0.5)
    reports = bounds.bound_grid(builder, [5.0, 50.0], [0.01, 0.1], cfg)
    keys = [(r.imbalance_factor, r.mu_full) for r in reports]
    assert keys == sorted(keys)
    assert all(r.holds["tight"] for r in reports)
    # distance shrinks with mu at fixed IF
    by_if = {}
    for r in reports:
        by_if.setdefault(r.imbalance_factor, []).append(r.measured_distance)
    for distances in by_if.values():
        assert distances[1] <= distances[0] + 1e-3


def test_bound_grid_workers_match_sequential():
    src = datasets.synthetic_gaussian(5, 6, 60, 2.5, seed=3)
    builder = lambda if_value: datasets.make_longtail(src, if_value, seed=4)
    cfg = bounds.BoundGridConfig(head_fraction=0.6)
    seq = bounds.bound_grid(builder, [10.0, 30.0], [0.05], cfg, workers=1)
    par = bounds.bound_grid(builder, [10.0, 30.0], [0.05], cfg, workers=2)
    for a, b in zip(seq, par):
        assert a.measured_distance == b.measured_distance
        assert a.tight_bound == b.tight_bound


def test_evaluate_cell_degenerate_if_one():
    src = datasets.synthetic_gaussian(4, 6, 50, 2.5, seed=6)
    lt = datasets.make_longtail(src, 1.0, seed=7)  # balanced: keeps everything
    cfg = bounds.BoundGridConfig(head_fraction=0.5)
    report = bounds.evaluate_cell(lt, 1.0, 0.05, cfg)
    assert report.converged_full and report.converged_head
    assert report.holds["tight"]
    assert np.isfinite(report.measured_distance)


def _record_solves(monkeypatch, full_dataset):
    """Record the model of every minimizer solve under "full" or "head":
    the two solves of a cell run at once, so either may finish first."""
    solves = {}
    solve = bounds._train_to_stationarity

    def recorded(dataset, mu, config):
        model, trace, probs = solve(dataset, mu, config)
        solves["full" if dataset is full_dataset else "head"] = model
        return model, trace, probs

    monkeypatch.setattr(bounds, "_train_to_stationarity", recorded)
    return solves


def test_evaluate_cell_probe_losses_match_direct_evaluation(monkeypatch):
    # each probe passes head and tail rows through the model once; their
    # weighted mean must be the full-data loss
    lt = _small_longtail()
    mu = 0.05
    cfg = bounds.BoundGridConfig(head_fraction=0.5)
    solves = _record_solves(monkeypatch, lt)
    report = bounds.evaluate_cell(lt, 50.0, mu, cfg)
    head = datasets.head_tail_split(lt, 0.5).head
    full_model, head_model = solves["full"], solves["head"]
    spec = models.LossSpec(mu=mu)
    probe = full_model.copy()

    def direct(stack):
        full, head_losses = [], []
        for theta in stack:
            probe.set_params(theta)
            full.append(models.loss(probe, lt, spec))
            head_losses.append(models.loss(probe, head, spec))
        return np.array(full), np.array(head_losses)

    theta_f, theta_h = full_model.get_params(), head_model.get_params()
    tight = bounds.tight_bound(theta_f, theta_h, direct, mu, mu)
    delta = bounds.loss_gap_surrogate(direct, theta_f, theta_h, seed=0)
    assert report.tight_bound == pytest.approx(tight, rel=1e-9)
    assert report.delta == pytest.approx(delta, rel=1e-9)


@pytest.mark.parametrize("head_fraction", [0.5, 1.0], ids=["split", "empty-tail"])
def test_probe_losses_match_per_probe_loss(head_fraction, monkeypatch):
    # the stacked products against models.loss on one parameter vector at
    # a time; 37 probes in blocks of 5 leave a partial last block
    lt = _small_longtail()
    split = datasets.head_tail_split(lt, head_fraction)
    monkeypatch.setattr(bounds, "PROBE_BLOCK", 5 * lt.n_classes * split.head.n_samples)
    mu = 0.05
    spec = models.LossSpec(mu=mu)
    model = models.LinearModel.zeros(lt.n_features, lt.n_classes)
    stack = np.random.default_rng(4).standard_normal((37, model.layout.total_size))
    full, head = bounds._probe_losses(split, mu)(stack)
    for theta, f, h in zip(stack, full, head):
        model.set_params(theta)
        assert f == pytest.approx(models.loss(model, lt, spec), rel=1e-12)
        assert h == pytest.approx(models.loss(model, split.head, spec), rel=1e-12)
    if head_fraction == 1.0:
        assert np.array_equal(full, head)


def test_evaluate_cell_empty_head_raises():
    # 10 classes at head_fraction 0.05 give floor(0.5) = 0 head classes;
    # the cell used to come back unconverged with NaN bounds and no reason
    lt = datasets.make_longtail(datasets.synthetic_gaussian(10, 4, 30, 2.5, seed=6), 5.0, seed=7)
    cfg = bounds.BoundGridConfig(head_fraction=0.05)
    with pytest.raises(EmptyClassError, match="head fraction 0.05 of 10 classes"):
        bounds.evaluate_cell(lt, 5.0, 0.05, cfg)


def test_evaluate_cell_empty_tail():
    # head_fraction 1 puts every class in the head: both objectives coincide
    lt = datasets.make_longtail(datasets.synthetic_gaussian(4, 6, 50, 2.5, seed=6), 10.0, seed=7)
    cfg = bounds.BoundGridConfig(head_fraction=1.0, compute_lemma2=True)
    report = bounds.evaluate_cell(lt, 10.0, 0.05, cfg)
    assert report.converged_full and report.converged_head
    assert report.measured_distance == report.delta == report.tight_bound == 0.0
    assert report.lambda_min_full == pytest.approx(0.05, abs=1e-12)


def test_evaluate_cell_marks_non_converged_as_failed(monkeypatch):
    src = datasets.synthetic_gaussian(5, 6, 60, 2.5, seed=3)
    lt = datasets.make_longtail(src, 10.0, seed=4)
    monkeypatch.setattr(bounds, "NEWTON_MAX_ITERS", 2)
    cfg = bounds.BoundGridConfig(head_fraction=0.6, compute_lemma2=True)
    report = bounds.evaluate_cell(lt, 10.0, 0.001, cfg)
    assert report.failed
    assert not (report.converged_full and report.converged_head)
    # no bound is scored for an uncertified cell, so none holds
    assert np.isnan(report.delta) and np.isnan(report.loose_bound) and np.isnan(report.tight_bound)
    assert report.lemma2_bound is None and report.lambda_min_full is None and report.lambda_min_head is None
    assert report.holds == {"tight": False, "loose": False}
    assert np.isfinite(report.measured_distance)
    # grid keeps going past the failed cell
    builder = lambda iv: datasets.make_longtail(src, iv, seed=4)
    reports = bounds.bound_grid(builder, [10.0, 20.0], [0.001], cfg)
    assert len(reports) == 2
    assert all(r.failed for r in reports)


def test_rounding_stall_ends_the_solve_unconverged():
    # The 3-class cell of the CLI smoke grid: at grad_tolerance 1e-8 each
    # solve takes 7 Newton iterations or fewer, but 1e-300 is below the
    # gradient norm's rounding floor (about 5e-17). Without the stall rule
    # the full solve runs all NEWTON_MAX_ITERS (200 000) iterations.
    lt = datasets.make_longtail(datasets.synthetic_gaussian(3, 4, 40, 3.0, seed=0), 10.0, seed=0)
    cfg = bounds.BoundGridConfig(grad_tolerance=1e-300, compute_lemma2=True)
    start = time.perf_counter()
    report = bounds.evaluate_cell(lt, 10.0, 0.1, cfg)
    assert time.perf_counter() - start < 10.0
    assert not report.converged_full and not report.converged_head
    assert 0 < report.epochs_full <= 50 and 0 < report.epochs_head <= 50
    assert report.holds == {"tight": False, "loose": False}


def test_loss_gap_surrogate_dominates_endpoint_gaps():
    f = lambda theta: float(np.sum(np.square(theta)))
    g = lambda theta: float(np.sum(np.square(theta - 0.1))) + 0.05
    t_f = np.zeros(3)
    t_g = np.full(3, 0.1)
    delta = bounds.loss_gap_surrogate(_pair(f, g), t_f, t_g, seed=0)
    assert delta >= abs(f(t_f) - g(t_f)) - 1e-12
    assert delta >= abs(f(t_g) - g(t_g)) - 1e-12


@pytest.mark.parametrize(
    "start_seed", [None, 0, 1, 2, 3, 4], ids=lambda seed: "zeros" if seed is None else f"random{seed}"
)
def test_newton_minimizer_matches_heavy_ball(start_seed):
    # each certified minimizer lies within tol/mu of the one true minimizer,
    # so heavy ball from any start lands within 2 tol/mu of Newton from zeros
    lt = _small_longtail()
    mu = 0.05
    cfg = bounds.BoundGridConfig(head_fraction=0.5)
    newton, trace, _ = bounds._train_to_stationarity(lt, mu, cfg)
    assert trace.converged and trace.final_grad_norm <= cfg.grad_tolerance
    start = None if start_seed is None else random_linear(lt.n_features, lt.n_classes, seed=start_seed)
    heavy, heavy_steps = heavy_ball_minimizer(lt, mu, cfg.grad_tolerance, 100_000, start=start)
    assert trace.epochs_run < heavy_steps
    gap = np.linalg.norm(newton.get_params() - heavy.get_params())
    assert gap <= 2 * cfg.grad_tolerance / mu


def test_concurrent_cell_matches_serial_solves_from_zeros(monkeypatch):
    # the cell solves full and head on two threads at once; each minimizer
    # must be the bits of a serial solve from zeros, and reruns must agree
    lt = _small_longtail()
    mu = 0.05
    cfg = bounds.BoundGridConfig(head_fraction=0.5, compute_lemma2=True)
    full, _, _ = bounds._train_to_stationarity(lt, mu, cfg)
    head, _, _ = bounds._train_to_stationarity(datasets.head_tail_split(lt, 0.5).head, mu, cfg)
    solves = _record_solves(monkeypatch, lt)
    reports = [bounds.evaluate_cell(lt, 50.0, mu, cfg) for _ in range(5)]
    assert np.array_equal(solves["full"].get_params(), full.get_params())
    assert np.array_equal(solves["head"].get_params(), head.get_params())
    assert reports[0].measured_distance == float(np.linalg.norm(full.get_params() - head.get_params()))
    assert not reports[0].failed and reports[0].lemma2_bound is not None
    assert all(report == reports[0] for report in reports[1:])


class _HelperFailure(RuntimeError):
    pass


@pytest.mark.parametrize("stage", ["head solve", "head eigensolve"])
def test_helper_error_propagates_and_joins_the_helper(stage, monkeypatch):
    lt = _small_longtail()
    cfg = bounds.BoundGridConfig(head_fraction=0.5, compute_lemma2=True)
    if stage == "head solve":
        solve = bounds._train_to_stationarity

        def failing(dataset, mu, config):
            if dataset is not lt:
                raise _HelperFailure(stage)
            return solve(dataset, mu, config)

        monkeypatch.setattr(bounds, "_train_to_stationarity", failing)
    else:
        eigensolve, caller = bounds.min_eigenvalue, threading.get_ident()

        def failing(apply, dim, lower=None):
            if threading.get_ident() != caller:
                raise _HelperFailure(stage)
            return eigensolve(apply, dim, lower)

        monkeypatch.setattr(bounds, "min_eigenvalue", failing)
    threads = threading.active_count()
    with pytest.raises(_HelperFailure, match=stage):
        bounds.evaluate_cell(lt, 50.0, 0.05, cfg)
    assert threading.active_count() == threads


def test_cg_never_solves_below_half_the_certificate(monkeypatch):
    # the certificate checks ||grad|| <= grad_tolerance, so a CG residual
    # far below it is wasted Hessian-vector products
    tolerances = []
    cg = bounds._truncated_cg

    def recorded(hvp, grad, tol):
        tolerances.append(tol)
        return cg(hvp, grad, tol)

    monkeypatch.setattr(bounds, "_truncated_cg", recorded)
    cfg = bounds.BoundGridConfig(head_fraction=0.5)
    for mu in (1e-3, 0.05):
        report = bounds.evaluate_cell(_small_longtail(), 50.0, mu, cfg)
        assert report.converged_full and report.converged_head
    assert tolerances and min(tolerances) >= 0.5 * cfg.grad_tolerance


def test_newton_solve_makes_one_forward_pass_per_gradient_evaluation(monkeypatch):
    # every Newton step's Hessian-vector products, and the Lemma-2 operators
    # at the minimizers, read the class probabilities of the gradient
    # evaluation at the same point instead of a forward pass of their own
    counts = {"forward": 0, "gradient": 0}
    forward, gradient = models.LinearModel.forward_with_activations, models.LinearModel.loss_and_gradient

    def counted_forward(self, features):
        counts["forward"] += 1
        return forward(self, features)

    def counted_gradient(self, *args, **kwargs):
        counts["gradient"] += 1
        return gradient(self, *args, **kwargs)

    monkeypatch.setattr(models.LinearModel, "forward_with_activations", counted_forward)
    monkeypatch.setattr(models.LinearModel, "loss_and_gradient", counted_gradient)
    lt = _small_longtail()
    mu = 0.05
    model, trace, probs = bounds._train_to_stationarity(lt, mu, bounds.BoundGridConfig(head_fraction=0.5))
    assert trace.converged and trace.epochs_run >= 2
    assert counts["gradient"] > trace.epochs_run
    assert counts["forward"] == counts["gradient"]
    # the probabilities returned are those at the returned model
    assert np.array_equal(probs, models.softmax_probs(forward(model, lt.features)[0]))
    counts.update(forward=0, gradient=0)
    report = bounds.evaluate_cell(lt, 50.0, mu, bounds.BoundGridConfig(head_fraction=0.5, compute_lemma2=True))
    assert report.lemma2_bound is not None
    assert counts["forward"] == counts["gradient"]


def test_line_search_stall_ends_unconverged(monkeypatch):
    original = models.LinearModel.loss_and_gradient

    def non_finite_away_from_origin(self, features, labels, spec, term=models.NO_TERM, out=None):
        value, grad = original(self, features, labels, spec, term, out)
        return (value if not self.get_params().any() else float("nan")), grad

    monkeypatch.setattr(models.LinearModel, "loss_and_gradient", non_finite_away_from_origin)
    monkeypatch.setattr(bounds, "NEWTON_MAX_ITERS", 1000)
    cfg = bounds.BoundGridConfig(head_fraction=0.5)
    report = bounds.evaluate_cell(_small_longtail(), 50.0, 0.05, cfg)
    assert report.failed and not report.converged_full
    assert report.epochs_full < bounds.NEWTON_MAX_ITERS and report.epochs_head < bounds.NEWTON_MAX_ITERS
    assert np.isnan(report.tight_bound)


def test_line_search_accepts_step_below_loss_rounding():
    # Near a certified minimizer a Newton step lowers the loss by less than
    # its rounding error. Rounding the current loss a few ulps low makes the
    # value comparison reject every trial point; the slope test accepts.
    lt = _small_longtail()
    mu = 0.05
    spec = models.LossSpec(mu=mu)
    model, _, _ = bounds._train_to_stationarity(lt, mu, bounds.BoundGridConfig(head_fraction=0.5))
    value, grad = model.loss_and_gradient(lt.features, lt.labels, spec)
    step = bounds._truncated_cg(models.hessian_operator(model, lt, spec), grad, 1e-3 * np.linalg.norm(grad))
    rounded_low = value - 4 * np.spacing(value)
    probe = model.copy()
    for t in (1.0, 0.5, 0.25):
        probe.set_params(model.get_params() + t * step)
        trial_value, _ = probe.loss_and_gradient(lt.features, lt.labels, spec)
        assert trial_value > rounded_low + bounds.ARMIJO_C1 * t * float(grad @ step)
    accepted = bounds._armijo_step(model, lt.features, lt.labels, spec, rounded_low, grad, step)
    assert accepted is not None
    assert np.linalg.norm(accepted[2]) < np.linalg.norm(grad)
