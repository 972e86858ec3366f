import re
import tracemalloc

import numpy as np
import pytest

from _fixtures import lwf_loss, random_linear
from ltcl import continual, datasets, metrics, models, training
from ltcl.errors import ShapeMismatchError


@pytest.fixture(scope="module")
def lt_fixture():
    src = datasets.synthetic_gaussian(6, 12, 250, 2.5, seed=1)
    test = datasets.synthetic_gaussian(6, 12, 80, 2.5, seed=77)
    lt = datasets.make_longtail(src, 50.0, seed=2)
    split = datasets.head_tail_split(lt, 0.5)
    return lt, split, test


SPEC = models.LossSpec(mu=1e-4)
PHASE1 = training.TrainConfig(learning_rate=0.01, momentum=0.9, epochs=30, batch_size=64, seed=5)


def _fresh_model(seed=5):
    return models.MlpModel.initialize([12, 24, 6], seed=seed)


def _run(variant, lt, split, test, phase2=None, **kwargs):
    phase2 = phase2 or continual.default_phase2_config(variant, seed=6)
    return continual.run_two_phase(
        variant, lt, split, PHASE1, phase2, SPEC,
        model=_fresh_model(), test_dataset=test, **kwargs,
    )


# ---------------------------------------------------------------- fisher

def test_fisher_zero_for_perfectly_fit_model():
    # exact one-hot features and huge weights force probability-1 targets
    features = np.eye(3).repeat(4, axis=0)
    labels = np.repeat(np.arange(3), 4)
    ds = datasets.LabeledDataset.from_arrays(features, labels, n_classes=3)
    model = models.LinearModel(2000.0 * np.eye(3), np.zeros(3))
    for mode in ("true_loss", "model_sampled"):
        fisher = continual.fisher_diagonal(model, ds, mode, 2000, seed=0)
        assert fisher.max() < 1e-10


def test_fisher_modes_agree_at_probability_one():
    ds = datasets.LabeledDataset.from_arrays(np.array([[1.0, 0.0]]), np.array([0]), n_classes=2)
    model = models.LinearModel(np.array([[2000.0, 0.0], [-2000.0, 0.0]]), np.zeros(2))
    f_sampled = continual.fisher_diagonal(model, ds, "model_sampled", 10, seed=3)
    f_true = continual.fisher_diagonal(model, ds, "true_loss", 10, seed=3)
    assert np.array_equal(f_sampled, f_true)


def test_fisher_true_loss_matches_loop_oracle():
    rng = np.random.default_rng(4)
    ds = datasets.LabeledDataset.from_arrays(
        rng.standard_normal((20, 5)), rng.integers(0, 3, 20), n_classes=3
    )
    model = models.LinearModel(rng.standard_normal((3, 5)) * 0.4, rng.standard_normal(3) * 0.1)
    fisher = continual.fisher_diagonal(model, ds, "true_loss", 2000, seed=0)
    spec = models.LossSpec(mu=0.0)
    oracle = np.zeros_like(fisher)
    for i in range(20):
        _, g = model.loss_and_gradient(ds.features[i : i + 1], ds.labels[i : i + 1], spec)
        oracle += g * g
    oracle /= 20
    assert np.allclose(fisher, oracle, atol=1e-10)


def _fisher_loop(model, dataset, mode, max_samples, seed):
    """Per-sample oracle: one single-row gradient per kept row, labels
    drawn by rng.choice from the row's predictive distribution."""
    rng = np.random.default_rng(seed)
    rows = np.arange(dataset.n_samples)
    if dataset.n_samples > max_samples:
        rows = np.sort(rng.choice(rows, size=max_samples, replace=False))
    fisher = np.zeros(model.layout.total_size)
    for i in rows:
        x = dataset.features[i : i + 1]
        if mode == "model_sampled":
            p = models.softmax_probs(model.forward(x))[0]
            label = int(rng.choice(len(p), p=p))
        else:
            label = int(dataset.labels[i])
        _, grad = model.loss_and_gradient(x, np.array([label]), models.LossSpec(mu=0.0))
        fisher += grad * grad
    return fisher / len(rows)


@pytest.mark.parametrize("mode", continual.FISHER_MODES)
@pytest.mark.parametrize("kind", ["linear", "mlp"])
@pytest.mark.parametrize("max_samples", [2000, 37])
def test_fisher_batched_matches_per_sample_loop(lt_fixture, mode, kind, max_samples):
    lt, split, _ = lt_fixture
    model = random_linear(12, 6, seed=3) if kind == "linear" else _fresh_model()
    fisher = continual.fisher_diagonal(model, split.head, mode, max_samples, seed=8)
    oracle = _fisher_loop(model, split.head, mode, max_samples, seed=8)
    assert fisher.any()
    assert np.allclose(fisher, oracle, rtol=1e-12, atol=0.0)


def test_sampled_labels_match_generator_choice():
    rng = np.random.default_rng(11)
    probs = models.softmax_probs(3.0 * rng.standard_normal((500, 7)))
    labels = continual._sample_labels(probs, np.random.default_rng(5))
    draws = np.random.default_rng(5)
    assert labels.tolist() == [int(draws.choice(7, p=p)) for p in probs]


def test_fisher_nonnegative_and_subsampled(lt_fixture):
    lt, split, _ = lt_fixture
    model = _fresh_model()
    fisher = continual.fisher_diagonal(model, split.head, "model_sampled", 50, seed=1)
    assert np.all(fisher >= 0)
    with pytest.raises(ValueError):
        continual.fisher_diagonal(model, split.head, "model_sampled", 0)
    with pytest.raises(ValueError):
        continual.fisher_diagonal(model, split.head, "bogus", 10)


def test_fisher_seeded_subsample_deterministic(lt_fixture):
    lt, split, _ = lt_fixture
    model = _fresh_model()
    a = continual.fisher_diagonal(model, split.head, "model_sampled", 40, seed=9)
    b = continual.fisher_diagonal(model, split.head, "model_sampled", 40, seed=9)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------- ewc penalty

def _ewc_args(n=4, cl_weight=2.0, fisher=None, anchor=None):
    """(anchor, fisher, cl_weight) for ewc_penalty and _EwcTerm."""
    return np.zeros(n) if anchor is None else anchor, np.ones(n) if fisher is None else fisher, cl_weight


def test_ewc_penalty_zero_at_anchor():
    anchor, fisher, cl_weight = _ewc_args()
    assert continual.ewc_penalty(anchor, anchor, fisher, cl_weight) == 0.0


def test_ewc_penalty_direct_value():
    theta = np.array([1.0, 1.0, 1.0])  # ||theta - 0||^2 = 3
    assert continual.ewc_penalty(theta, *_ewc_args(n=3, cl_weight=2.0)) == pytest.approx(3.0)


def test_ewc_penalty_linear_in_weight():
    theta = np.array([0.3, -0.2, 0.9, 0.1])
    assert continual.ewc_penalty(theta, *_ewc_args(cl_weight=3.0)) == pytest.approx(
        2 * continual.ewc_penalty(theta, *_ewc_args(cl_weight=1.5))
    )


def test_ewc_penalty_gradient():
    # the EWC term adds (w F) * (theta - anchor) to the gradient and ewc_penalty to the value
    model = models.LinearModel(np.array([[1.0, -1.0]]), np.array([0.5]))
    args = _ewc_args(n=3, cl_weight=4.0, fisher=np.array([0.5, 2.0, 1.0]), anchor=np.array([0.0, 0.0, 1.0]))
    x, y = np.array([[0.3, 0.7]]), np.array([0])
    plain_value, plain = model.loss_and_gradient(x, y, SPEC)
    value, penalized = model.loss_and_gradient(x, y, SPEC, continual._EwcTerm(*args))
    assert penalized - plain == pytest.approx([4.0 * 0.5 * 1.0, 4.0 * 2.0 * -1.0, 4.0 * 1.0 * -0.5])
    assert value == plain_value + continual.ewc_penalty(model.params, *args)


def test_ewc_term_value_equals_penalty_exactly():
    rng = np.random.default_rng(4)
    anchor, fisher, theta = rng.standard_normal(50), rng.random(50), rng.standard_normal(50)
    workspace = models.GradientWorkspace(models.LinearModel.zeros(9, 5))  # 50 parameters
    workspace.grad[...] = 0.0
    value = continual._EwcTerm(anchor, fisher, 3.0).param_term(theta, workspace)
    assert value == continual.ewc_penalty(theta, anchor, fisher, 3.0)
    assert np.array_equal(workspace.grad, 3.0 * fisher * (theta - anchor))


def test_ewc_penalty_shape_error():
    with pytest.raises(ShapeMismatchError):
        continual.ewc_penalty(np.zeros(5), *_ewc_args(n=3))


def test_ewc_phase2_objective_equals_tail_loss_at_anchor(lt_fixture):
    lt, split, _ = lt_fixture
    model, _ = training.train(_fresh_model(), split.head, SPEC, PHASE1)
    term = continual.strategy_term("ewc", model, split.head, split.head_classes)
    value, grad = model.loss_and_gradient(split.tail.features, split.tail.labels, SPEC, term)
    _, plain = model.loss_and_gradient(split.tail.features, split.tail.labels, SPEC)
    assert value == pytest.approx(models.loss(model, split.tail, SPEC), abs=1e-12)
    assert np.array_equal(grad, plain)


# ---------------------------------------------------------------- lwf

def test_lwf_loss_identical_logits_is_plain_ce():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((6, 4))
    labels = rng.integers(0, 4, 6)
    full = lwf_loss(logits, logits, labels, temperature=2.0, cl_weight=0.7)
    plain = lwf_loss(logits, logits, labels, temperature=2.0, cl_weight=0.0)
    assert full == pytest.approx(plain, abs=1e-12)


def test_lwf_loss_hand_value():
    student = np.array([[np.log(3.0), 0.0]])
    teacher = np.array([[0.0, 0.0]])
    labels = np.array([0])
    total = lwf_loss(student, teacher, labels, temperature=1.0, cl_weight=1.0)
    ce = -np.log(0.75)
    kl = 0.5 * np.log(0.5 / 0.75) + 0.5 * np.log(0.5 / 0.25)
    assert kl == pytest.approx(0.14384, abs=1e-5)
    assert total == pytest.approx(ce + kl, abs=1e-10)


@pytest.mark.parametrize("variant", ["ewc", "lwf"])
def test_term_gradient_matches_finite_differences(lt_fixture, variant):
    lt, split, _ = lt_fixture
    head_model, _ = training.train(_fresh_model(), split.head, SPEC, PHASE1)
    term = continual.strategy_term(variant, head_model, split.head, split.head_classes, cl_weight=3.0)
    model = head_model.copy()
    model.set_params(head_model.params + 0.05 * np.random.default_rng(2).standard_normal(len(head_model.params)))
    x, y = split.tail.features[:7], split.tail.labels[:7]
    _, grad = model.loss_and_gradient(x, y, SPEC, term)
    theta = model.get_params()
    rng = np.random.default_rng(4)
    for i in rng.choice(len(theta), size=25, replace=False):
        values = []
        for h in (1e-5, -1e-5):
            probe = theta.copy()
            probe[i] += h
            model.set_params(probe)
            values.append(model.loss_and_gradient(x, y, SPEC, term)[0])
        model.set_params(theta)
        assert (values[0] - values[1]) / 2e-5 == pytest.approx(grad[i], rel=1e-5, abs=1e-8)


def test_lwf_term_value_is_distillation_against_teacher(lt_fixture):
    lt, split, _ = lt_fixture
    teacher, _ = training.train(_fresh_model(), split.head, SPEC, PHASE1)
    term = continual.strategy_term("lwf", teacher, split.head, split.head_classes, cl_weight=3.0)
    student = _fresh_model(seed=9)
    x, y = split.tail.features[:7], split.tail.labels[:7]
    plain, _ = student.loss_and_gradient(x, y, SPEC)
    value, _ = student.loss_and_gradient(x, y, SPEC, term)
    head = sorted(split.head_classes)
    s_head, t_head = student.forward(x)[:, head], teacher.forward(x)[:, head]
    labels = np.zeros(len(y), dtype=int)
    kl = lwf_loss(s_head, t_head, labels, 2.0, 3.0) - lwf_loss(s_head, t_head, labels, 2.0, 0.0)
    assert kl > 1e-3
    assert value - plain == pytest.approx(kl, rel=1e-10)


def test_lwf_zero_weight_matches_naive_trajectory(lt_fixture):
    lt, split, test = lt_fixture
    phase2 = training.TrainConfig(learning_rate=0.01, momentum=0.9, epochs=7, batch_size=32, seed=11)
    res_lwf = _run("lwf", lt, split, test, phase2=phase2, cl_weight=0.0)
    res_naive = _run("naive", lt, split, test, phase2=phase2)
    assert np.array_equal(
        res_lwf.model_after_tail.get_params(), res_naive.model_after_tail.get_params()
    )


# ---------------------------------------------------------------- gpm

def test_gpm_bases_rank_one():
    v = np.array([3.0, 4.0])
    acts = np.tile(v, (50, 1))
    ds = datasets.LabeledDataset.from_arrays(acts, np.zeros(50, dtype=int), n_classes=1)
    model = models.LinearModel.zeros(2, 1)
    (basis,) = continual.gpm_collect_bases(model, ds, 0.9, 100)
    assert basis.shape == (2, 1)
    assert np.allclose(np.abs(basis[:, 0]), v / 5.0)


def test_gpm_bases_full_energy_gives_rank():
    rng = np.random.default_rng(1)
    low_rank = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 6))
    ds = datasets.LabeledDataset.from_arrays(low_rank, np.zeros(40, dtype=int), n_classes=1)
    model = models.LinearModel.zeros(6, 1)
    (basis,) = continual.gpm_collect_bases(model, ds, 1.0, 100)
    assert basis.shape[1] == 3


def test_gpm_bases_prefix_oracle():
    rng = np.random.default_rng(2)
    acts = rng.standard_normal((100, 8))
    ds = datasets.LabeledDataset.from_arrays(acts, np.zeros(100, dtype=int), n_classes=1)
    model = models.LinearModel.zeros(8, 1)
    (basis,) = continual.gpm_collect_bases(model, ds, 0.9, 200)
    s = np.linalg.svd(acts, compute_uv=False)
    energy = np.cumsum(s**2) / np.sum(s**2)
    k_oracle = int(np.argmax(energy >= 0.9)) + 1
    assert basis.shape[1] == k_oracle


def _svd_oracle_basis(acts, threshold):
    """The thin-SVD basis: right singular vectors of the singular values
    above 1e-12 s_0, cut by the energy rule."""
    _, s, vt = np.linalg.svd(acts, full_matrices=False)
    s = s[s > 1e-12 * s[0]]
    energy = np.cumsum(s**2)
    k = min(int(np.searchsorted(energy, threshold * energy[-1])) + 1, len(s))
    return vt[:k].T


def test_gpm_eigh_basis_spans_svd_basis():
    # one eigh of act^T act keeps the SVD's k, and its span wherever the
    # eigengap at k is clear, with more columns than rows too
    rng = np.random.default_rng(8)
    checked = cases = 0
    for n, d, rank in [(60, 10, None), (200, 30, None), (8, 20, None), (40, 6, 3), (50, 12, 4), (6, 15, 3)]:
        for _ in range(3):
            acts = rng.standard_normal((n, d)) if rank is None else (
                rng.standard_normal((n, rank)) @ rng.standard_normal((rank, d)))
            acts *= rng.uniform(0.1, 3.0, size=d)  # an uneven spectrum
            ds = datasets.LabeledDataset.from_arrays(acts, np.zeros(n, dtype=int), n_classes=1)
            lam = np.linalg.svd(acts, compute_uv=False) ** 2
            for threshold in (0.5, 0.9, 0.97, 1.0):
                (basis,) = continual.gpm_collect_bases(models.LinearModel.zeros(d, 1), ds, threshold, n)
                oracle = _svd_oracle_basis(acts, threshold)
                assert basis.shape == oracle.shape, (n, d, rank, threshold)
                k = basis.shape[1]
                cases += 1
                if lam[k - 1] - (lam[k] if k < len(lam) else 0.0) > 1e-4 * lam[0]:
                    checked += 1
                    assert np.linalg.norm(basis @ basis.T - oracle @ oracle.T, 2) <= 1e-10
    assert checked >= 0.9 * cases


def test_gpm_frame_round_trip(lt_fixture):
    # leave(enter(model)) restores the parameters, and the framed model's
    # loss on the framed tail is the original's
    _, split, _ = lt_fixture
    tail = split.tail
    for model in (_fresh_model(), random_linear(12, 6, seed=3)):
        term = continual.strategy_term("gpm", model, split.head, split.head_classes)
        framed, framed_tail = term.enter(model.copy(), tail)
        assert not np.array_equal(framed.params, model.params)
        for rows in (slice(0, 2), slice(None)):
            value, _ = model.loss_and_gradient(tail.features[rows], tail.labels[rows], SPEC)
            framed_value, _ = framed.loss_and_gradient(framed_tail.features[rows], tail.labels[rows], SPEC)
            assert abs(framed_value - value) <= 1e-12 * abs(value)
        back = term.leave(framed)
        assert np.linalg.norm(back.params - model.params) <= 1e-14 * np.linalg.norm(model.params)


def test_gpm_on_linear_model_trains_all_in_frame(lt_fixture, monkeypatch):
    lt, split, test = lt_fixture
    calls = []
    project = continual.gpm_project
    monkeypatch.setattr(continual, "gpm_project", lambda *args: calls.append(1) or project(*args))
    phase2 = continual.default_phase2_config("gpm", seed=6)
    res = continual.run_two_phase(
        "gpm", lt, split, PHASE1, phase2, SPEC, model=models.LinearModel.zeros(12, 6), test_dataset=test
    )
    assert calls == []
    assert len(res.gpm_projection_ratios) == phase2.epochs * -(-split.tail.n_samples // phase2.batch_size)
    assert max(res.gpm_projection_ratios) <= 1e-6


def test_gpm_bases_orthonormal(lt_fixture):
    lt, split, _ = lt_fixture
    model, _ = training.train(_fresh_model(), split.head, SPEC, PHASE1)
    bases = continual.gpm_collect_bases(model, split.head, 0.97, 500, seed=3)
    assert len(bases) == 2
    for basis in bases:
        gram = basis.T @ basis
        assert np.max(np.abs(gram - np.eye(basis.shape[1]))) <= 1e-8


def test_gpm_bases_threshold_validation(lt_fixture):
    lt, split, _ = lt_fixture
    with pytest.raises(ValueError):
        continual.gpm_collect_bases(_fresh_model(), split.head, 0.0, 10)
    empty = datasets.LabeledDataset.from_arrays(np.zeros((0, 12)), np.zeros(0, dtype=int), n_classes=6)
    with pytest.raises(ValueError):
        continual.gpm_collect_bases(_fresh_model(), empty, 0.9, 10)


def test_gpm_bases_reject_zero_samples(lt_fixture):
    # no sampled row would give empty bases, and GPM would train as naive
    _, split, _ = lt_fixture
    with pytest.raises(ValueError, match="max_samples"):
        continual.gpm_collect_bases(_fresh_model(), split.head, 0.97, 0)


@pytest.mark.parametrize("temperature", [0.0, -1.0])
def test_strategy_term_rejects_non_positive_temperature(lt_fixture, temperature):
    # a zero temperature divides the logits by zero: a NaN loss at the first step
    _, split, _ = lt_fixture
    with pytest.raises(ValueError, match="temperature"):
        continual.strategy_term("lwf", _fresh_model(), split.head, split.head_classes, temperature=temperature)


@pytest.mark.parametrize("variant", ["ewc", "modified_ewc", "lwf"])
def test_strategy_term_rejects_negative_cl_weight(lt_fixture, variant):
    _, split, _ = lt_fixture
    with pytest.raises(ValueError, match="cl_weight"):
        continual.strategy_term(variant, _fresh_model(), split.head, split.head_classes, cl_weight=-5.0)


UNREAD_SETTINGS = [
    (variant, key)
    for variant in continual.VARIANTS
    for key in ("cl_weight", "temperature", "energy_threshold", "fisher_max_samples")
    if key not in continual.STRATEGIES[variant].settings
]


INVALID_SETTINGS = {"cl_weight": -5.0, "temperature": 0.0, "energy_threshold": 1.5, "fisher_max_samples": 0}


@pytest.mark.parametrize("variant, key", [
    (name, key) for name, strategy in continual.STRATEGIES.items() for key in strategy.settings
])
def test_strategy_term_checks_each_setting_from_the_table(lt_fixture, variant, key):
    # the check the CLI runs at validation is the one strategy_term runs
    _, split, _ = lt_fixture
    value = INVALID_SETTINGS[key]
    _, (test, message) = continual.STRATEGIES[variant].settings[key]
    assert not test(value)
    with pytest.raises(ValueError, match=re.escape(f"{key} {message}")):
        continual.strategy_term(variant, _fresh_model(), split.head, split.head_classes, **{key: value})


@pytest.mark.parametrize("variant, key", UNREAD_SETTINGS)
def test_strategy_term_rejects_a_setting_its_variant_does_not_read(lt_fixture, variant, key):
    # a setting the variant ignores would reach the manifest and change nothing
    _, split, _ = lt_fixture
    with pytest.raises(ValueError, match=f"'{variant}' does not read {key}"):
        continual.strategy_term(variant, _fresh_model(), split.head, split.head_classes, **{key: 1})


def test_gpm_project_empty_basis():
    g = np.arange(6.0).reshape(2, 3)
    out = continual.gpm_project(g, np.zeros((3, 0)))
    assert np.array_equal(out, g)


@pytest.mark.parametrize("value", [0.0, -0.0, np.nan, np.inf, -np.inf])
def test_gpm_project_empty_basis_keeps_bits(value):
    # a (d, 0) basis subtracts exact zeros: the gradient comes back bit for
    # bit, signed zeros and non-finite entries included, in a new array
    for shape in ((3,), (2, 3)):
        g = np.full(shape, value)
        g.flat[0] = 1.5
        out = continual.gpm_project(g, np.zeros((3, 0)))
        assert out.shape == g.shape and not np.shares_memory(out, g)
        assert out.tobytes() == g.tobytes()


def test_gpm_project_absorbs_span():
    basis = np.array([[1.0], [0.0]])
    g = np.array([[2.0, 0.0], [5.0, 0.0]])
    out = continual.gpm_project(g, basis)
    assert np.allclose(out, 0.0)


def test_gpm_project_pythagoras():
    rng = np.random.default_rng(7)
    raw = rng.standard_normal((5, 3))
    basis = np.linalg.qr(raw)[0]  # orthonormal 5x3
    g = rng.standard_normal(5)
    out = continual.gpm_project(g, basis)
    assert np.linalg.norm(basis.T @ out) <= 1e-10
    inside = basis @ (basis.T @ g)
    assert np.linalg.norm(g) ** 2 == pytest.approx(
        np.linalg.norm(inside) ** 2 + np.linalg.norm(out) ** 2, abs=1e-8
    )


def test_gpm_project_shape_error():
    with pytest.raises(ShapeMismatchError):
        continual.gpm_project(np.zeros((2, 3)), np.zeros((4, 1)))


# ---------------------------------------------------------------- two phase

def test_naive_forgets_head(lt_fixture):
    lt, split, test = lt_fixture
    res = _run("naive", lt, split, test)
    head = sorted(split.head_classes)
    drop = (
        res.metrics_before.per_class_accuracy[head].mean()
        - res.metrics_after.per_class_accuracy[head].mean()
    )
    assert drop > 0.20


def test_cl_variants_forget_less_than_naive(lt_fixture):
    lt, split, test = lt_fixture
    head = sorted(split.head_classes)

    def head_drop(res):
        return (
            res.metrics_before.per_class_accuracy[head].mean()
            - res.metrics_after.per_class_accuracy[head].mean()
        )

    naive_drop = head_drop(_run("naive", lt, split, test))
    for variant in ("ewc", "modified_ewc", "lwf", "gpm"):
        assert head_drop(_run(variant, lt, split, test)) < naive_drop


def test_gpm_updates_stay_out_of_bases(lt_fixture):
    lt, split, test = lt_fixture
    res = _run("gpm", lt, split, test)
    assert res.gpm_projection_ratios
    assert max(res.gpm_projection_ratios) <= 1e-6
    for basis in res.state.bases:
        gram = basis.T @ basis
        assert np.max(np.abs(gram - np.eye(basis.shape[1]))) <= 1e-8


def test_gpm_term_projects_weight_gradients(lt_fixture):
    # the term's gradient, taken in the first layer's frame Q, is
    # gpm_project of the plain gradient's weight views once the first
    # layer's G~ is turned back by Q^T, both at the Phase-1 weights W0 and
    # at weights moved inside the span (W B != W0 B); bias entries are
    # those of the framed model's plain gradient
    lt, split, _ = lt_fixture
    rng = np.random.default_rng(3)
    tail = split.tail
    for model in (_fresh_model(), random_linear(12, 6, seed=3)):
        collected = continual.gpm_collect_bases(model, split.head, 0.97, 500)
        dims = [w.shape[1] for w in model.layout.views(model.params)[0::2]]
        random_frames = [np.linalg.qr(rng.standard_normal((d, d)))[0] for d in dims]
        for frame, bases in (
            (collected[0].base, collected),
            (random_frames[0], [np.zeros((d, 0)) for d in dims]),
            (random_frames[0], random_frames),
        ):
            bases = [frame[:, : bases[0].shape[1]]] + bases[1:]
            term = continual._GpmTerm(frame, bases)
            moved = model.copy()
            for w, basis in zip(moved.layout.views(moved.params)[0::2], bases):
                w += 0.1 * rng.standard_normal((w.shape[0], basis.shape[1])) @ basis.T
            for at in (model, moved):
                framed, framed_tail = term.enter(at.copy(), tail)
                for rows in (slice(0, 1), slice(3, 5), slice(None)):
                    x, y = tail.features[rows], tail.labels[rows]
                    _, plain = at.loss_and_gradient(x, y, SPEC)
                    _, framed_plain = framed.loss_and_gradient(framed_tail.features[rows], y, SPEC)
                    term.ratios.clear()
                    _, grad = framed.loss_and_gradient(framed_tail.features[rows], y, SPEC, term)
                    assert len(term.ratios) == 1 and term.ratios[0] <= 1e-12
                    if isinstance(model, models.LinearModel):
                        # the one layer is wholly in the frame: the term zeroes the
                        # first k columns of the framed plain gradient, and no more
                        expected = framed_plain.copy()
                        model.layout.views(expected)[0][:, : bases[0].shape[1]] = 0.0
                        assert np.array_equal(grad, expected)
                    views = model.layout.views(grad)[0::2]
                    views[0] = views[0] @ frame.T
                    for g, g0, basis in zip(views, model.layout.views(plain)[0::2], bases):
                        scale = np.max(np.abs(g0))
                        assert np.max(np.abs(g @ basis), initial=0.0) <= 1e-12 * scale
                        np.testing.assert_allclose(
                            g, continual.gpm_project(g0, basis), rtol=1e-12, atol=1e-12 * scale
                        )
                    weight_mask = np.zeros(len(grad), dtype=bool)
                    for view in model.layout.views(weight_mask)[0::2]:
                        view[...] = True
                    assert np.array_equal(grad[~weight_mask], framed_plain[~weight_mask])


def test_gpm_phase2_keeps_weights_on_bases(lt_fixture):
    lt, split, test = lt_fixture
    res = _run("gpm", lt, split, test)
    after = res.model_after_tail.layout.views(res.model_after_tail.params)[0::2]
    before = res.model_after_head.layout.views(res.model_after_head.params)[0::2]
    moved = False
    for w, w0, basis in zip(after, before, res.state.bases):
        assert basis.shape[1] > 0
        on_basis = w0 @ basis
        assert np.max(np.abs(w @ basis - on_basis)) <= 1e-12 * np.max(np.abs(on_basis))
        moved = moved or not np.array_equal(w, w0)
    assert moved


def test_ewc_anchor_unchanged_by_run(lt_fixture):
    lt, split, test = lt_fixture
    phase2 = training.TrainConfig(learning_rate=0.01, momentum=0.9, epochs=3, batch_size=8, seed=6)
    res = _run("ewc", lt, split, test, phase2=phase2)
    head_model, _ = training.train(_fresh_model(), split.head, SPEC, PHASE1)
    assert np.array_equal(res.state.anchor, head_model.params)
    assert np.array_equal(res.model_after_head.params, head_model.params)
    assert not np.shares_memory(res.state.anchor, res.model_after_head.params)
    assert not np.shares_memory(res.state.anchor, res.model_after_tail.params)
    assert not np.array_equal(res.model_after_tail.params, res.state.anchor)


def test_ewc_huge_weight_pins_anchor(lt_fixture):
    lt, split, test = lt_fixture
    model, _ = training.train(_fresh_model(), split.head, SPEC, PHASE1)
    fisher = continual.fisher_diagonal(model, split.head, "model_sampled", 2000, seed=5)
    cl_weight = 1e6
    lr = 0.5 / (cl_weight * fisher.max() + 100.0)
    phase2 = training.TrainConfig(learning_rate=lr, momentum=0.0, epochs=10_000, seed=6)
    res = _run("ewc", lt, split, test, phase2=phase2, cl_weight=cl_weight)
    important = res.state.fisher > 1e-3
    assert important.any()
    moved = np.abs(res.model_after_tail.get_params() - res.state.anchor)
    assert moved[important].max() <= 1e-2
    res_naive = _run("naive", lt, split, test, phase2=phase2)
    naive_moved = np.abs(res_naive.model_after_tail.get_params() - res.state.anchor)
    assert naive_moved[important].max() > moved[important].max()


def test_two_phase_deterministic(lt_fixture):
    lt, split, test = lt_fixture
    for variant in continual.VARIANTS:
        a = _run(variant, lt, split, test)
        b = _run(variant, lt, split, test)
        assert np.array_equal(
            a.model_after_tail.get_params(), b.model_after_tail.get_params()
        ), variant
        assert np.array_equal(
            a.metrics_after.per_class_accuracy, b.metrics_after.per_class_accuracy
        )


def test_tail_phases_share_one_head_phase(lt_fixture):
    lt, split, test = lt_fixture
    head = continual.run_head_phase(split, PHASE1, SPEC, _fresh_model(), test)
    head_params = head.model_after_head.get_params()
    for variant in continual.VARIANTS:
        phase2 = continual.default_phase2_config(variant, seed=6)
        shared = continual.run_tail_phase(variant, head, split, phase2, SPEC, test, PHASE1.seed)
        alone = _run(variant, lt, split, test, phase2=phase2)
        assert np.array_equal(shared.model_after_tail.params, alone.model_after_tail.params), variant
        assert np.array_equal(shared.metrics_after.per_class_accuracy, alone.metrics_after.per_class_accuracy)
        assert shared.metrics_after.avg_class_accuracy == alone.metrics_after.avg_class_accuracy
        assert np.array_equal(shared.gpm_projection_ratios, alone.gpm_projection_ratios)
        assert bool(shared.gpm_projection_ratios) == (variant == "gpm")
        assert shared.model_after_head is head.model_after_head
        assert not np.shares_memory(shared.model_after_tail.params, head_params)
    # no tail phase trained, anchored to or distilled from the shared head in place
    assert np.array_equal(head.model_after_head.params, head_params)
    assert head.model_after_tail is None and head.state is None and head.gpm_projection_ratios == []


def test_two_phase_empty_tail_rejected(lt_fixture):
    lt, _, test = lt_fixture
    split_all_head = datasets.head_tail_split(lt, 1.0)
    with pytest.raises(ValueError):
        _run("naive", lt, split_all_head, test)


def test_two_phase_unknown_variant(lt_fixture):
    lt, split, test = lt_fixture
    with pytest.raises(ValueError):
        _run("dreaming", lt, split, test)


def test_gpm_runs_on_linear_model(lt_fixture):
    lt, split, test = lt_fixture
    model = models.LinearModel.zeros(12, 6)
    phase2 = continual.default_phase2_config("gpm", seed=6)
    res = continual.run_two_phase(
        "gpm", lt, split, PHASE1, phase2, SPEC, model=model, test_dataset=test
    )
    assert len(res.state.bases) == 1
    assert max(res.gpm_projection_ratios) <= 1e-6


def test_strategy_term_is_an_objective_term_for_every_variant(lt_fixture):
    # one way to extend the objective: naive too gets a term, the no-op one
    lt, split, _ = lt_fixture
    model = _fresh_model()
    terms = {v: continual.strategy_term(v, model, split.head, split.head_classes) for v in continual.VARIANTS}
    assert all(isinstance(term, models.ObjectiveTerm) for term in terms.values())
    assert terms["naive"] is models.NO_TERM
    assert all(term is not models.NO_TERM for v, term in terms.items() if v != "naive")


def test_default_configs_follow_hyperparameter_table():
    lwf = continual.default_phase2_config("lwf")
    assert (lwf.learning_rate, lwf.momentum, lwf.epochs) == (0.001, 0.9, 5)
    ewc = continual.default_phase2_config("ewc")
    assert (ewc.learning_rate, ewc.momentum, ewc.epochs) == (0.01, 0.9, 90)
    mewc = continual.default_phase2_config("modified_ewc")
    assert (mewc.learning_rate, mewc.momentum, mewc.epochs) == (0.01, 0.9, 90)
    gpm = continual.default_phase2_config("gpm")
    assert (gpm.learning_rate, gpm.momentum, gpm.epochs, gpm.schedule) == (0.001, 0.0, 100, "cosine")
    # the CLI derives each strategy's Phase-2 seed from this order
    assert continual.VARIANTS == ("naive", "ewc", "modified_ewc", "lwf", "gpm")
    defaults = {
        name: {key: default for key, (default, _) in strategy.settings.items()}
        for name, strategy in continual.STRATEGIES.items()
    }
    assert defaults == {
        "naive": {},
        "ewc": {"cl_weight": 10.0, "fisher_max_samples": 2000},
        "modified_ewc": {"cl_weight": 1000.0, "fisher_max_samples": 2000},
        "lwf": {"cl_weight": 0.01, "temperature": 2.0},
        "gpm": {"energy_threshold": 0.97, "fisher_max_samples": 2000},
    }


def test_head_weight_norms_exceed_tail_after_naive_lt_training(lt_fixture):
    lt, split, _ = lt_fixture
    spec = models.LossSpec(mu=1e-4)
    cfg = training.TrainConfig(learning_rate=0.01, momentum=0.9, epochs=60, batch_size=64, seed=3)
    trained, _ = training.train(models.LinearModel.zeros(12, 6), lt, spec, cfg)
    norms = metrics.per_class_weight_norms(trained)
    head = sorted(split.head_classes)
    tail = sorted(split.tail_classes)
    assert norms[head].mean() > norms[tail].mean()


# ---------------------------------------------------------- gradient workspace

def _model_and_term(kind, variant, ds):
    """A model moved off the Phase-1 point its term keeps, and the term."""
    if kind == "linear":
        model = random_linear(ds.n_features, ds.n_classes, seed=1)
    else:
        model = models.MlpModel.initialize([ds.n_features, 9, ds.n_classes], seed=1)
    settings = {"cl_weight": 2.0} if variant in ("ewc", "lwf") else {}  # naive and GPM read no weight
    term = continual.strategy_term(variant, model, ds, range(2), **settings)
    rng = np.random.default_rng(2)
    model.set_params(model.params + 0.05 * rng.standard_normal(model.params.shape))
    return model, term


@pytest.mark.parametrize("variant", ["naive", "ewc", "lwf", "gpm"])
@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_workspace_gradient_bit_identical_to_allocating_call(kind, variant):
    ds = datasets.synthetic_gaussian(4, 6, 30, 2.0, seed=3)
    model, term = _model_and_term(kind, variant, ds)
    workspace = models.GradientWorkspace(model)
    for rows in (slice(0, 8), slice(8, 10), slice(None)):
        x, y = ds.features[rows], ds.labels[rows]
        # every entry must be written, whatever the previous step left
        workspace.grad[...] = np.nan
        workspace.scratch[...] = np.nan
        value, grad = model.loss_and_gradient(x, y, SPEC, term, out=workspace)
        assert grad is workspace.grad
        ref_value, ref_grad = model.loss_and_gradient(x, y, SPEC, term)
        assert value == ref_value
        assert np.array_equal(grad, ref_grad)
        _, again = model.loss_and_gradient(x, y, SPEC, term)
        assert not np.shares_memory(ref_grad, again)
        if variant == "gpm":
            assert term.ratios[-3] == term.ratios[-2] == term.ratios[-1]


@pytest.mark.parametrize("variant", ["naive", "ewc", "gpm"])
def test_workspace_step_allocates_less_than_one_parameter_vector(variant):
    # 25 731 parameters (206 KB) against 3.2 KB of batch-2 input
    ds = datasets.synthetic_gaussian(3, 200, 10, 2.0, seed=0)
    model = models.MlpModel.initialize([200, 128, 3], seed=0)
    term = continual.strategy_term(variant, model, ds, range(2))
    workspace = models.GradientWorkspace(model)
    x, y = ds.features[:2], ds.labels[:2]
    model.loss_and_gradient(x, y, SPEC, term, out=workspace)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        model.loss_and_gradient(x, y, SPEC, term, out=workspace)
        growth = tracemalloc.get_traced_memory()[1] - start
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        model.loss_and_gradient(x, y, SPEC, term)
        allocating_growth = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    assert growth < model.params.nbytes
    # the allocating call makes a new gradient, so tracing sees numpy's arrays
    assert allocating_growth >= model.params.nbytes
