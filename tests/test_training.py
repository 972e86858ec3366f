import numpy as np
import pytest

from _fixtures import random_linear
from ltcl import continual, datasets, models, training
from ltcl.errors import DivergenceError


class QuadraticSurrogate:
    """1-D objective (x - target)^2 on the flat buffer `params`, laid out
    by `layout`; ignores the dataset and fills the gradient workspace that
    `train` passes."""

    def __init__(self, x0=0.0, target=3.0):
        self.params = np.array([x0], dtype=np.float64)
        self.layout = models.ParamLayout([(1,)])
        self.target = target

    def copy(self):
        return QuadraticSurrogate(self.params[0], self.target)

    def get_params(self):
        return self.params.copy()

    def loss_and_gradient(self, features, labels, spec, term, out):
        diff = self.params[0] - self.target
        out.grad[0] = 2.0 * diff
        return diff * diff, out.grad


def _dummy_dataset(n=1):
    return datasets.LabeledDataset.from_arrays(
        np.zeros((n, 1)), np.zeros(n, dtype=int), n_classes=1
    )


def _lt_dataset(seed=0):
    src = datasets.synthetic_gaussian(5, 4, 60, 2.0, seed=seed)
    return datasets.make_longtail(src, 5.0, seed=seed)


def test_quadratic_surrogate_convergence():
    cfg = training.TrainConfig(learning_rate=0.1, epochs=200)
    trained, losses = training.train(QuadraticSurrogate(), _dummy_dataset(), models.LossSpec(), cfg)
    assert abs(trained.get_params()[0] - 3.0) <= 1e-6
    assert len(losses) == 200


def test_same_seed_bitwise_identical():
    ds = _lt_dataset()
    spec = models.LossSpec(mu=0.01)
    cfg = training.TrainConfig(learning_rate=0.05, momentum=0.9, epochs=12, batch_size=16, seed=33)
    model = models.MlpModel.initialize([4, 6, 5], seed=1)
    a, _ = training.train(model, ds, spec, cfg)
    b, _ = training.train(model, ds, spec, cfg)
    assert np.array_equal(a.get_params(), b.get_params())


def test_different_seed_differs():
    ds = _lt_dataset()
    spec = models.LossSpec(mu=0.01)
    model = models.MlpModel.initialize([4, 6, 5], seed=1)
    a, _ = training.train(
        model, ds, spec, training.TrainConfig(learning_rate=0.05, epochs=5, batch_size=16, seed=1)
    )
    b, _ = training.train(
        model, ds, spec, training.TrainConfig(learning_rate=0.05, epochs=5, batch_size=16, seed=2)
    )
    assert not np.array_equal(a.get_params(), b.get_params())


def test_train_does_not_mutate_input_model():
    ds = _lt_dataset()
    model = models.LinearModel.zeros(4, 5)
    before = model.get_params()
    training.train(model, ds, models.LossSpec(mu=0.01), training.TrainConfig(learning_rate=0.1, epochs=3))
    assert np.array_equal(model.get_params(), before)


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_divergence_error_carries_epoch():
    ds = _lt_dataset()
    cfg = training.TrainConfig(learning_rate=1e6, epochs=500)
    with pytest.raises(DivergenceError) as excinfo:
        training.train(models.LinearModel.zeros(4, 5), ds, models.LossSpec(mu=0.01), cfg)
    assert excinfo.value.epoch > 0


def test_monotone_loss_full_batch():
    ds = _lt_dataset()
    mu = 0.05
    spec = models.LossSpec(mu=mu)
    smooth = models.softmax_smoothness_bound(ds, mu)
    cfg = training.TrainConfig(learning_rate=0.5 / smooth, epochs=300, batch_size=ds.n_samples)
    _, losses = training.train(models.LinearModel.zeros(4, 5), ds, spec, cfg)
    diffs = np.diff(losses)
    assert np.all(diffs <= 1e-12)


def test_cosine_anneal_endpoints():
    def cosine(lr0):  # 11 epochs: a period of 10
        return training.TrainConfig(learning_rate=lr0, epochs=11, schedule="cosine")

    assert training._lr_at(cosine(0.1), 0) == 0.1
    assert training._lr_at(cosine(0.1), 10) == 0.0
    assert training._lr_at(cosine(0.001), 5) == pytest.approx(0.0005)


def test_cosine_schedule_in_train():
    # lr at the last epoch reaches 0; loss stays finite
    ds = _lt_dataset()
    cfg = training.TrainConfig(learning_rate=0.1, epochs=10, schedule="cosine")
    _, losses = training.train(models.LinearModel.zeros(4, 5), ds, models.LossSpec(mu=0.01), cfg)
    assert len(losses) == 10
    assert np.all(np.isfinite(losses))


def _reference_train(model, dataset, spec, config, term=models.NO_TERM):
    """The out-of-place heavy-ball loop: velocity = m * velocity - lr * grad,
    theta = theta + velocity, then set_params(theta), between the term's
    enter and leave hooks. Returns the final parameters and the epoch
    losses."""
    model, dataset = term.enter(model.copy(), dataset)
    x, y = dataset.features, dataset.labels
    theta = model.get_params()
    velocity = np.zeros_like(theta)
    rng = np.random.default_rng(config.seed)
    losses = []
    for epoch in range(config.epochs):
        lr = training._lr_at(config, epoch)
        order = rng.permutation(dataset.n_samples)
        batch_losses = []
        for start in range(0, dataset.n_samples, config.batch_size):
            rows = order[start : start + config.batch_size]
            value, grad = model.loss_and_gradient(x[rows], y[rows], spec, term)
            batch_losses.append(value)
            velocity = config.momentum * velocity - lr * grad
            theta = theta + velocity
            model.set_params(theta)
        losses.append(float(np.mean(batch_losses)))
    return term.leave(model).get_params(), np.array(losses)


def _assert_train_matches_reference(model, dataset, spec, config, make_term=lambda: models.NO_TERM):
    trained, losses = training.train(model, dataset, spec, config, make_term())
    params, ref_losses = _reference_train(model, dataset, spec, config, make_term())
    assert np.array_equal(trained.params, params)
    assert np.array_equal(losses, ref_losses)


def test_in_place_step_bit_identical_mlp_momentum_minibatch():
    cfg = training.TrainConfig(learning_rate=0.05, momentum=0.9, epochs=6, batch_size=8, seed=4)
    model = models.MlpModel.initialize([4, 7, 5], seed=2)
    _assert_train_matches_reference(model, _lt_dataset(), models.LossSpec(mu=0.01), cfg)


def test_in_place_step_bit_identical_gpm_term():
    ds = _lt_dataset(seed=1)
    model = models.MlpModel.initialize([4, 7, 5], seed=3)
    spec = models.LossSpec(mu=1e-4)
    cfg = training.TrainConfig(learning_rate=0.01, momentum=0.0, epochs=5, batch_size=2, schedule="cosine", seed=6)
    _assert_train_matches_reference(
        model, ds, spec, cfg,
        lambda: continual.strategy_term("gpm", model, ds, energy_threshold=0.9, fisher_max_samples=100),
    )


def test_in_place_step_bit_identical_naive_term():
    # naive's term is NO_TERM: the plain objective, through the same hooks
    ds = _lt_dataset(seed=5)
    model = models.MlpModel.initialize([4, 7, 5], seed=6)
    cfg = training.TrainConfig(learning_rate=0.02, momentum=0.9, epochs=4, batch_size=8, seed=8)
    term = continual.strategy_term("naive", model, ds)
    assert term is models.NO_TERM
    _assert_train_matches_reference(model, ds, models.LossSpec(mu=1e-4), cfg, lambda: term)


@pytest.mark.parametrize("variant", ["ewc", "lwf"])
def test_in_place_step_bit_identical_with_term(variant):
    ds = _lt_dataset(seed=5)
    model = models.MlpModel.initialize([4, 7, 5], seed=6)
    spec = models.LossSpec(mu=1e-4)
    cfg = training.TrainConfig(learning_rate=0.02, momentum=0.9, epochs=4, batch_size=8, seed=8)
    # LwF distills on the classes of its head data: classes 0 to 2 of the 5
    head = ds.subset(np.flatnonzero(ds.labels < 3)) if variant == "lwf" else ds
    _assert_train_matches_reference(
        model, ds, spec, cfg, lambda: continual.strategy_term(variant, model, head, cl_weight=2.0)
    )


def test_in_place_step_bit_identical_linear():
    ds = _lt_dataset(seed=3)
    model = random_linear(4, 5, seed=5)
    spec = models.LossSpec(mu=0.01)
    for batch_size in (ds.n_samples, 16):
        cfg = training.TrainConfig(learning_rate=0.1, momentum=0.5, epochs=20, batch_size=batch_size, seed=7)
        _assert_train_matches_reference(model, ds, spec, cfg)


@pytest.mark.parametrize("momentum", [0.0, 0.9])
def test_step_matches_out_of_place_update(momentum):
    rng = np.random.default_rng(9)
    theta, velocity = rng.standard_normal(50), np.zeros(50)
    ref_theta, ref_velocity = theta.copy(), velocity.copy()
    for _ in range(100):
        grad, lr = rng.standard_normal(50), rng.uniform(1e-4, 1.0)
        ref_velocity = momentum * ref_velocity - lr * grad
        ref_theta = ref_theta + ref_velocity
        training._step(theta, velocity, grad, lr, momentum)
        assert np.array_equal(theta, ref_theta)

