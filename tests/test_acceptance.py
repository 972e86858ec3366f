"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s or -rA to see them).

The heavy criteria run on the shared MNIST-scale corpus from _fixtures
(real MNIST IDX files when available, deterministic surrogate
otherwise) and reuse module-scoped experiment results.
"""
import numpy as np
import pytest
import yaml

from _fixtures import corpus
from ltcl import bounds, cli, continual, datasets, metrics, models, training

IF_GRID = [10.0, 100.0, 1000.0]
MU_GRID = [1e-3, 1e-2, 1e-1]
HEAD_FRACTION = 0.6
LT_SEED = 13
TWO_PHASE_SEED = 21
MU_TWO_PHASE = 1e-4


def _report(criterion: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"{status} {criterion}" + (f": {detail}" if detail else ""))
    assert passed, f"{criterion} failed ({detail})"


@pytest.fixture(scope="module")
def mnist_scale_corpus():
    train, test, source = corpus()
    print(f"[acceptance corpus: {source}, train={train.n_samples}x{train.n_features}]")
    return train, test


@pytest.fixture(scope="module")
def full_grid(mnist_scale_corpus):
    train, _ = mnist_scale_corpus
    builder = lambda iv: datasets.make_longtail(train, iv, seed=LT_SEED)
    config = bounds.BoundGridConfig(head_fraction=HEAD_FRACTION, grad_tolerance=1e-8)
    return bounds.bound_grid(builder, IF_GRID, MU_GRID, config)


@pytest.fixture(scope="module")
def pooled_grid(mnist_scale_corpus):
    train, _ = mnist_scale_corpus
    pooled = datasets.mean_pool_images(train, 2)
    builder = lambda iv: datasets.make_longtail(pooled, iv, seed=LT_SEED)
    config = bounds.BoundGridConfig(
        head_fraction=HEAD_FRACTION, grad_tolerance=1e-8, compute_lemma2=True
    )
    return bounds.bound_grid(builder, IF_GRID, MU_GRID, config)


@pytest.fixture(scope="module")
def two_phase_runs(mnist_scale_corpus):
    train, test = mnist_scale_corpus
    lt = datasets.make_longtail(train, 100.0, seed=LT_SEED)
    split = datasets.head_tail_split(lt, HEAD_FRACTION)
    spec = models.LossSpec(mu=MU_TWO_PHASE)
    phase1 = training.TrainConfig(
        learning_rate=0.01, momentum=0.9, epochs=8, batch_size=64, seed=TWO_PHASE_SEED
    )
    model = models.MlpModel.initialize([lt.n_features, 64, lt.n_classes], seed=TWO_PHASE_SEED)
    head = continual.run_head_phase(split, phase1, spec, model, test)
    results = {}
    for variant in continual.VARIANTS:
        batch = 2 if variant == "gpm" else 8
        phase2 = continual.default_phase2_config(variant, seed=TWO_PHASE_SEED + 1, batch_size=batch)
        results[variant] = continual.run_tail_phase(variant, head, split, phase2, spec, test, phase1.seed)
    single_phase, _ = training.train(
        models.MlpModel.initialize([lt.n_features, 64, lt.n_classes], seed=TWO_PHASE_SEED),
        lt,
        spec,
        training.TrainConfig(
            learning_rate=0.01, momentum=0.9, epochs=45, batch_size=64, seed=TWO_PHASE_SEED
        ),
    )
    return lt, split, results, single_phase


def _head_drop(result, head):
    return (
        result.metrics_before.per_class_accuracy[head].mean()
        - result.metrics_after.per_class_accuracy[head].mean()
    )


def test_criterion_1_tight_bound_holds_on_grid(full_grid):
    converged = all(r.converged_full and r.converged_head for r in full_grid)
    holds = all(r.holds["tight"] for r in full_grid)
    _report(
        "criterion 1 (tight bound holds on the 3x3 grid)",
        converged and holds and len(full_grid) == 9,
        "; ".join(
            f"IF={r.imbalance_factor:g},mu={r.mu_full:g}: d={r.measured_distance:.4f}"
            f"<=B={r.tight_bound:.4f}" for r in full_grid
        ),
    )


def test_criterion_2_monotone_trends(full_grid):
    distance = {(r.imbalance_factor, r.mu_full): r.measured_distance for r in full_grid}
    over_if = all(
        distance[(IF_GRID[i + 1], mu)] <= distance[(IF_GRID[i], mu)] + 1e-3
        for mu in MU_GRID
        for i in range(len(IF_GRID) - 1)
    )
    over_mu = all(
        distance[(iv, MU_GRID[j + 1])] <= distance[(iv, MU_GRID[j])] + 1e-3
        for iv in IF_GRID
        for j in range(len(MU_GRID) - 1)
    )
    _report(
        "criterion 2 (distance non-increasing in IF and in mu)",
        over_if and over_mu,
        f"over_if={over_if}, over_mu={over_mu}",
    )


def test_criterion_3_lemma_oracles_quadratic_family():
    ok = True
    details = []
    for gamma in (0.5, 0.7, 0.9, 0.99):
        f = lambda x: x * x
        g = lambda x: gamma * x * x + (1 - gamma) * (x - 1) ** 2
        xs = np.arange(-2.0, 2.0 + 1e-4, 1e-4)
        delta = float(np.max(np.abs(f(xs) - g(xs))))
        true_sq = (1 - gamma) ** 2
        lemma1 = bounds.lemma1_bound(delta, 2.0, 2.0)
        tight = bounds.tight_bound(0.0, 1.0 - gamma, lambda x: (f(x), g(x)), 2.0, 2.0)
        ok = ok and (true_sq <= lemma1) and abs(tight - (1 - gamma)) <= 1e-10
        details.append(f"gamma={gamma}: sq={true_sq:.4g}<=l1={lemma1:.4g}, |tight-true|={abs(tight-(1-gamma)):.1e}")
    _report("criterion 3 (lemma oracles on the quadratic family)", ok, "; ".join(details))


def test_criterion_4_lemma2_consistency(pooled_grid):
    ok = True
    details = []
    for r in pooled_grid:
        mu = r.mu_full
        lam_ok = r.lambda_min_full >= mu - 1e-8 and r.lambda_min_head >= mu - 1e-8
        lemma1 = float(np.sqrt(bounds.lemma1_bound(r.delta, mu, mu)))
        order_ok = r.lemma2_bound <= lemma1 * (1 + 1e-9)
        ok = ok and lam_ok and order_ok and r.converged_full and r.converged_head
        details.append(
            f"IF={r.imbalance_factor:g},mu={mu:g}: lam=({r.lambda_min_full:.4g},"
            f"{r.lambda_min_head:.4g}), l2={r.lemma2_bound:.4g}<=l1={lemma1:.4g}"
        )
    _report("criterion 4 (lambda_min >= mu and lemma2 <= lemma1 per cell)", ok, "; ".join(details))


def test_criterion_5_finite_difference_checks():
    worst_grad = 0.0
    worst_hess = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        c = int(rng.integers(2, 5))
        d = int(rng.integers(2, 6))
        n = int(rng.integers(5, 12))
        ds = datasets.LabeledDataset.from_arrays(
            rng.standard_normal((n, d)), rng.integers(0, c, n), n_classes=c
        )
        spec = models.LossSpec(mu=float(rng.uniform(0.01, 0.3)))
        if seed % 2 == 0:
            model = models.LinearModel(
                rng.standard_normal((c, d)) * 0.5, rng.standard_normal(c) * 0.2
            )
        else:
            model = models.MlpModel.initialize([d, int(rng.integers(3, 8)), c], seed=seed)
        theta = model.get_params()
        _, grad = model.loss_and_gradient(ds.features, ds.labels, spec)
        probe = model.copy()
        step = 1e-5
        fd = np.zeros_like(theta)
        for i in range(len(theta)):
            up = theta.copy()
            up[i] += step
            probe.set_params(up)
            hi = models.loss(probe, ds, spec)
            down = theta.copy()
            down[i] -= step
            probe.set_params(down)
            lo = models.loss(probe, ds, spec)
            fd[i] = (hi - lo) / (2 * step)
        err = np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-3))
        worst_grad = max(worst_grad, float(err))

        if isinstance(model, models.LinearModel):
            h = models.hessian(model, ds, spec)
            fd_h = np.zeros_like(h)
            for i in range(len(theta)):
                up = theta.copy()
                up[i] += step
                probe.set_params(up)
                _, gp = probe.loss_and_gradient(ds.features, ds.labels, spec)
                down = theta.copy()
                down[i] -= step
                probe.set_params(down)
                _, gm = probe.loss_and_gradient(ds.features, ds.labels, spec)
                fd_h[:, i] = (gp - gm) / (2 * step)
            err_h = np.max(np.abs(h - fd_h) / np.maximum(np.abs(fd_h), 1e-3))
            worst_hess = max(worst_hess, float(err_h))
    _report(
        "criterion 5 (finite-difference gradient/Hessian checks, 20 seeds)",
        worst_grad <= 1e-5 and worst_hess <= 1e-4,
        f"worst grad rel err {worst_grad:.2e} (<=1e-5), worst hessian rel err {worst_hess:.2e} (<=1e-4)",
    )


def test_criterion_6_cl_beats_naive(two_phase_runs):
    lt, split, results, _ = two_phase_runs
    head = sorted(split.head_classes)
    naive = results["naive"]
    naive_drop = _head_drop(naive, head)
    ok = True
    details = [
        f"naive: avg={naive.metrics_after.avg_class_accuracy:.3f} drop={naive_drop:.3f}"
    ]
    for variant in ("ewc", "modified_ewc", "lwf", "gpm"):
        res = results[variant]
        drop = _head_drop(res, head)
        higher_avg = (
            res.metrics_after.avg_class_accuracy > naive.metrics_after.avg_class_accuracy
        )
        smaller_drop = drop < naive_drop
        ok = ok and higher_avg and smaller_drop
        details.append(
            f"{variant}: avg={res.metrics_after.avg_class_accuracy:.3f} drop={drop:.3f}"
        )
    _report(
        "criterion 6 (every CL strategy beats naive on avg accuracy and head drop)",
        ok,
        "; ".join(details),
    )


def test_criterion_7_gpm_projection_invariant(two_phase_runs):
    _, _, results, _ = two_phase_runs
    res = results["gpm"]
    max_ratio = max(res.gpm_projection_ratios)
    ortho = max(
        float(np.max(np.abs(basis.T @ basis - np.eye(basis.shape[1]))))
        for basis in res.state.bases
    )
    # the in-span ratio sums the deeper layers, as the first layer's in-span
    # part is zero by construction; the drift of W B covers every layer, the
    # first included, measured in the original frame after training
    layout = res.model_after_tail.layout
    drift = max(
        float(np.max(np.abs(w @ basis - w0 @ basis)) / np.max(np.abs(w0 @ basis)))
        for w, w0, basis in zip(
            layout.views(res.model_after_tail.params)[0::2],
            layout.views(res.model_after_head.params)[0::2],
            res.state.bases,
        )
    )
    _report(
        "criterion 7 (GPM updates orthogonal to stored bases)",
        max_ratio <= 1e-6 and ortho <= 1e-8 and drift <= 1e-12,
        f"max in-span update ratio {max_ratio:.2e} (<=1e-6), basis orthonormality {ortho:.2e} (<=1e-8), "
        f"in-span weight drift {drift:.2e} (<=1e-12)",
    )


def test_criterion_8_weight_norm_rebalancing(two_phase_runs):
    _, _, results, single_phase = two_phase_runs
    std_gpm = float(metrics.per_class_weight_norms(results["gpm"].model_after_tail).std())
    std_naive = float(metrics.per_class_weight_norms(single_phase).std())
    _report(
        "criterion 8 (GPM final-layer norm spread below naive single-phase)",
        std_gpm < std_naive,
        f"gpm std {std_gpm:.4f} < naive std {std_naive:.4f}",
    )


def test_criterion_9_transfer_decomposition_fixtures():
    before = [0.9, 0.8, 0.7, 0.1, 0.0, 0.2]
    after = [0.85, 0.8, 0.75, 0.5, 0.0, 0.1]
    head = {0, 1, 2}
    decomp = metrics.transfer_decomposition(before, after, head)
    expected = [
        metrics.FORGETTING,
        metrics.UNCHANGED,
        metrics.BACKWARD_TRANSFER,
        metrics.FORWARD_TRANSFER,
        metrics.UNCHANGED,
        metrics.UNCHANGED,
    ]
    regions_ok = decomp.per_class_region == expected
    regression_ok = decomp.tail_regressions == [5]
    counts = {region: decomp.per_class_region.count(region) for region in metrics.REGIONS}
    partition_ok = sum(counts.values()) == len(before)
    _report(
        "criterion 9 (transfer decomposition regions and partition)",
        regions_ok and regression_ok and partition_ok,
        f"regions={decomp.per_class_region}, counts={counts}",
    )


def test_criterion_10_manifest_reruns_byte_identical(tmp_path):
    bound_cfg = {
        "schema_version": 1,
        "kind": "bound_grid",
        "seed": 5,
        "output_dir": str(tmp_path / "bg"),
        "dataset": {
            "source": "synthetic",
            "n_classes": 5,
            "n_features": 6,
            "n_per_class": 60,
            "class_separation": 2.5,
        },
        "longtail": {"imbalance_factors": [5, 20], "head_fraction": 0.6},
        "bound_grid": {"mu_values": [0.05, 0.1]},
    }
    two_cfg = {
        "schema_version": 1,
        "kind": "ltr_two_phase",
        "seed": 5,
        "output_dir": str(tmp_path / "tp"),
        "dataset": {
            "source": "synthetic",
            "n_classes": 5,
            "n_features": 8,
            "n_per_class": 80,
            "class_separation": 2.5,
            "test_n_per_class": 40,
        },
        "longtail": {"imbalance_factor": 20, "head_fraction": 0.6},
        "loss": {"mu": 0.0001},
        "model": {"kind": "mlp", "hidden_sizes": [16]},
        "phase1": {"epochs": 10},
        "strategies": ["naive", "ewc", "lwf"],
        "strategy_overrides": {
            "naive": {"epochs": 15},
            "ewc": {"epochs": 15},
            "lwf": {"epochs": 5},
        },
    }
    ok = True
    details = []
    for name, cfg, command in (("bound_grid", bound_cfg, "bound-grid"), ("two_phase", two_cfg, "two-phase")):
        cfg_path = tmp_path / f"{name}.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / ("bg" if name == "bound_grid" else "tp")
        code = cli.main([command, "--config", str(cfg_path)])
        rerun_out = tmp_path / f"{name}_rerun"
        code2 = cli.main(
            [command, "--config", str(out / "manifest.json"), "--out", str(rerun_out)]
        )
        identical = all(
            (rerun_out / p.name).read_bytes() == p.read_bytes()
            for p in sorted(out.glob("*.csv"))
        )
        ok = ok and code == 0 and code2 == 0 and identical
        details.append(f"{name}: exit={code}/{code2}, byte_identical={identical}")
    _report("criterion 10 (manifest reruns reproduce CSVs byte for byte)", ok, "; ".join(details))
