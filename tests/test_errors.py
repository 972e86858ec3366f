"""Every range and membership rule of the package goes through `errors.check`."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltcl import bounds, continual, datasets, models, training
from ltcl.errors import FRACTION, EmptyClassError, LtclError, StrictConvexityError, check, list_of, one_of

NAN, INF = math.nan, math.inf
DATASET = datasets.synthetic_gaussian(3, 4, 10, 2.0, seed=0)
MODEL = models.MlpModel.initialize([4, 5, 3], seed=0)
ZEROS = np.zeros(2)
_LOSSES = lambda stack: (np.zeros(len(stack)), np.zeros(len(stack)))  # noqa: E731
SPEC = models.LossSpec(mu=1e-4)
EMPTY = datasets.LabeledDataset.from_arrays(np.zeros((0, 4)), np.zeros(0, dtype=int), n_classes=3)
BAD_COUNTS = [0, 2.5, True, NAN, INF, -INF]  # a count is an integer >= 1 and no bool
BAD_SEEDS = [-1, 1.5, "x", True, NAN, INF]  # a seed is an integer >= 0 and no bool
# an array where a scalar belongs gives no single bool, whatever its length
PAIR = np.array([0.1, 0.2])


def _unbuilt(imbalance_factor):
    raise AssertionError("no dataset is built before the arguments are checked")


def _unprobed(stack):
    raise AssertionError("no loss is evaluated before the arguments are checked")


def _strategy_cases():
    for variant, strategy in continual.STRATEGIES.items():
        for key in strategy.settings:
            bad = [1.5 if key == "energy_threshold" else -1.0, NAN, INF, -INF]
            bad = [*bad, 0.0] if key == "temperature" else bad
            bad = BAD_COUNTS if key == "fisher_max_samples" else bad
            yield (f"strategy_term.{variant}.{key}", key, bad,
                   lambda v, variant=variant, key=key: continual.strategy_term(
                       variant, MODEL, DATASET, {0, 1}, **{key: v}))
        yield (f"strategy_term.{variant}", "seed", BAD_SEEDS,
               lambda v, variant=variant: continual.strategy_term(variant, MODEL, DATASET, {0, 1}, seed=v))


def _seed_cases():
    """Every public seed, each checked before any work starts."""
    yield "fisher_diagonal", lambda v: continual.fisher_diagonal(MODEL, DATASET, "true_loss", 10, seed=v)
    yield "gpm_collect_bases", lambda v: continual.gpm_collect_bases(MODEL, DATASET, 0.9, 10, seed=v)
    yield "make_longtail", lambda v: datasets.make_longtail(DATASET, 2.0, seed=v)
    yield "synthetic_gaussian", lambda v: datasets.synthetic_gaussian(3, 4, 10, 2.0, seed=v)
    yield "MlpModel.initialize", lambda v: models.MlpModel.initialize([4, 5, 3], seed=v)
    yield "loss_gap_surrogate", lambda v: bounds.loss_gap_surrogate(_LOSSES, np.zeros(2), np.ones(2), seed=v)


# (site, parameter, rejected values, call with the value); a rule that
# needs a finite value rejects both infinities as well
CASES = [
    ("LossSpec", "mu", [-0.1, NAN, INF, -INF, PAIR, np.array([0.1])], lambda v: models.LossSpec(mu=v)),
    ("TrainConfig", "learning_rate", [0.0, NAN, INF, -INF, PAIR], lambda v: training.TrainConfig(learning_rate=v)),
    ("TrainConfig", "momentum", [1.0, -0.1, NAN, INF, -INF], lambda v: training.TrainConfig(0.1, momentum=v)),
    ("TrainConfig", "epochs", BAD_COUNTS, lambda v: training.TrainConfig(0.1, epochs=v)),
    # None is no batch size: training is always minibatch, 64 rows by default
    ("TrainConfig", "batch_size", [*BAD_COUNTS, None], lambda v: training.TrainConfig(0.1, batch_size=v)),
    ("TrainConfig", "schedule", ["linear", NAN, np.array(["constant", "cosine"])],
     lambda v: training.TrainConfig(0.1, schedule=v)),
    ("TrainConfig", "seed", BAD_SEEDS, lambda v: training.TrainConfig(0.1, seed=v)),
    ("longtail_profile", "n_classes", BAD_COUNTS, lambda v: datasets.longtail_profile(v, 100, 10.0)),
    ("longtail_profile", "n_max", BAD_COUNTS, lambda v: datasets.longtail_profile(4, v, 10.0)),
    ("longtail_profile", "imbalance_factor", [0.5, NAN, -INF], lambda v: datasets.longtail_profile(4, 100, v)),
    ("head_tail_split", "head_class_fraction", [0.0, 1.5, NAN, INF, -INF],
     lambda v: datasets.head_tail_split(DATASET, v)),
    ("synthetic_gaussian", "n_classes", BAD_COUNTS, lambda v: datasets.synthetic_gaussian(v, 4, 10, 2.0, 0)),
    ("synthetic_gaussian", "n_features", BAD_COUNTS, lambda v: datasets.synthetic_gaussian(3, v, 10, 2.0, 0)),
    ("synthetic_gaussian", "n_per_class", BAD_COUNTS, lambda v: datasets.synthetic_gaussian(3, 4, v, 2.0, 0)),
    ("synthetic_gaussian", "class_separation", [0.0, NAN, -INF],
     lambda v: datasets.synthetic_gaussian(3, 4, 10, v, 0)),
    ("mean_pool_images", "factor", [*BAD_COUNTS, -2], lambda v: datasets.mean_pool_images(DATASET, v)),
    # checked before either file is read
    ("load_idx", "pool_factor", [*BAD_COUNTS, -2], lambda v: datasets.load_idx("missing", "missing", v)),
    ("MlpModel.initialize", "layer_sizes", [*([4, v, 3] for v in BAD_COUNTS), [4], [], 4],
     lambda v: models.MlpModel.initialize(v, 0)),
    ("default_phase2_config", "variant", ["dropout", NAN], continual.default_phase2_config),
    ("fisher_diagonal", "mode", ["fisher", NAN], lambda v: continual.fisher_diagonal(MODEL, DATASET, v, 10)),
    ("_sample_rows", "max_samples", BAD_COUNTS,
     lambda v: continual._sample_rows(DATASET, v, np.random.default_rng(0))),
    ("gpm_collect_bases", "energy_threshold", [0.0, 1.5, NAN, INF, -INF],
     lambda v: continual.gpm_collect_bases(MODEL, DATASET, v, 10)),
    ("strategy_term", "variant", ["dropout", NAN],
     lambda v: continual.strategy_term(v, MODEL, DATASET, {0, 1})),
    *_strategy_cases(),
    ("lemma1_bound", "delta", [-1.0, NAN, -INF], lambda v: bounds.lemma1_bound(v, 1.0, 1.0)),
    ("lemma1_bound", "mu_f", [-1.0, NAN, INF, -INF], lambda v: bounds.lemma1_bound(1.0, v, 1.0)),
    ("lemma1_bound", "mu_g", [-1.0, NAN, INF, -INF], lambda v: bounds.lemma1_bound(1.0, 1.0, v)),
    # checked before the two minimizers' losses are evaluated
    ("tight_bound", "mu_f", [-1.0, NAN, INF, -INF], lambda v: bounds.tight_bound(ZEROS, ZEROS, _unprobed, v, 1.0)),
    ("tight_bound", "mu_g", [-1.0, NAN, INF, -INF], lambda v: bounds.tight_bound(ZEROS, ZEROS, _unprobed, 1.0, v)),
    ("lemma2_bound", "delta", [-1.0, NAN, -INF], lambda v: bounds.lemma2_bound(v, 1.0, 1.0)),
    ("BoundGridConfig", "grad_tolerance", [0.0, -1.0, NAN, INF, -INF],
     lambda v: bounds.BoundGridConfig(grad_tolerance=v)),
    ("BoundGridConfig", "head_fraction", [0, 2.0, -0.5, NAN, INF, -INF, np.array([0.5, 0.6])],
     lambda v: bounds.BoundGridConfig(head_fraction=v)),
    ("BoundGridConfig", "compute_lemma2", ["no", "", 1, 0, NAN, None],
     lambda v: bounds.BoundGridConfig(compute_lemma2=v)),
    # a mu or cell seed that fails only after both Newton solves wastes them;
    # mu is checked before the dataset is read, so an empty one does not raise first
    ("evaluate_cell", "mu", [0.0, -0.1, NAN, INF, -INF],
     lambda v: bounds.evaluate_cell(EMPTY, 1.0, v, bounds.BoundGridConfig())),
    ("evaluate_cell", "cell_seed", BAD_SEEDS,
     lambda v: bounds.evaluate_cell(DATASET, 1.0, 0.1, bounds.BoundGridConfig(), cell_seed=v)),
    # checked before the builder makes any dataset
    ("bound_grid", "workers", [*BAD_COUNTS, -3, "x"],
     lambda v: bounds.bound_grid(_unbuilt, [1.0], [0.1], bounds.BoundGridConfig(), workers=v)),
    ("bound_grid", "if_values", [[10.0, 0.5], [10.0, NAN], [10.0, 10.0], [], 10.0],
     lambda v: bounds.bound_grid(_unbuilt, v, [0.1], bounds.BoundGridConfig())),
    ("bound_grid", "mu_values", [[0.1, 0.0], [0.1, -0.1], [0.1, NAN], [0.1, INF], [0.1, 0.1], [], 0.1],
     lambda v: bounds.bound_grid(_unbuilt, [10.0, 20.0], v, bounds.BoundGridConfig())),
    *((site, "seed", BAD_SEEDS, call) for site, call in _seed_cases()),
]


@pytest.mark.parametrize(
    "name, value, call",
    [pytest.param(name, value, call, id=f"{site}.{name}={value!r}")
     for site, name, values, call in CASES for value in values],
)
def test_each_check_rejects_bad_values_and_names_the_parameter(name, value, call):
    # a plain ValueError from check, not a later domain error, and never a result
    with pytest.raises(ValueError) as excinfo:
        call(value)
    assert not isinstance(excinfo.value, LtclError)
    message = str(excinfo.value)
    assert message.startswith(f"{name} ") and message.endswith(f", got {value!r}")


def test_rules_accept_their_bounds_and_list_rules_check_each_item():
    for value in (1.0, 1e-300):
        check("f", value, FRACTION)
    check("mode", "a", one_of("a", "b"))
    distinct_fractions = list_of(FRACTION, distinct=True)
    check("fs", [0.5, 1.0], distinct_fractions)
    for bad in ([], [0.5, 0.5], [0.5, 2.0], [NAN]):
        with pytest.raises(ValueError, match="fs must be a non-empty list of distinct values, each of which"):
            check("fs", bad, distinct_fractions)
    check("sizes", [4, 4], list_of(one_of(4)))  # repeats pass without distinct
    check("sizes", np.array([4, 5]), list_of(one_of(4, 5)))  # an array is a list here


def test_lemma2_bound_rejects_a_nan_eigenvalue():
    # NaN is no positive eigenvalue: it used to pass and give a NaN bound;
    # an infinite one used to give a bound of 0
    for lam in [(NAN, 1.0), (1.0, NAN), (INF, 1.0), (1.0, INF)]:
        with pytest.raises(StrictConvexityError):
            bounds.lemma2_bound(1.0, *lam)


LINEAR = models.LinearModel.zeros(4, 3)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: bounds.evaluate_cell(EMPTY, 1.0, 0.1, bounds.BoundGridConfig()), id="evaluate_cell"),
    pytest.param(lambda: continual._sample_rows(EMPTY, 10, np.random.default_rng(0)), id="_sample_rows"),
    pytest.param(lambda: models.loss(LINEAR, EMPTY, SPEC), id="loss"),
    pytest.param(lambda: models.hessian(LINEAR, EMPTY, SPEC), id="hessian"),
    pytest.param(lambda: models.hessian_operator(LINEAR, EMPTY, SPEC), id="hessian_operator"),
])
def test_an_empty_dataset_raises_empty_class_error(call):
    # at zeros the gradient of no rows is 0, so a cell would "certify" both
    # minimizers and fail later on a NaN loss gap
    with pytest.raises(EmptyClassError, match="empty dataset"):
        call()


def _train(config, term=models.NO_TERM):
    training.train(MODEL, DATASET, SPEC, config, term)


def _strategy_constructors():
    for variant, strategy in continual.STRATEGIES.items():
        if strategy.settings:
            yield (f"strategy_term.{variant}",
                   {"seed": 0, **{key: default for key, (default, _) in strategy.settings.items()}},
                   lambda kw, variant=variant: continual.strategy_term(variant, MODEL, DATASET, {0, 1}, **kw),
                   lambda term: _train(training.TrainConfig(0.01), term))


def _train_own_sizes(model):
    # a dataset of the model's own feature and class counts
    sizes = model.layer_sizes
    training.train(model, datasets.synthetic_gaussian(sizes[-1], sizes[0], 10, 2.0, seed=0), SPEC,
                   training.TrainConfig(0.1))


def _score_cell(config):
    # the flag says whether the cell's record holds a Lemma-2 bound
    report = bounds.evaluate_cell(DATASET, 1.0, 0.1, config)
    assert report.failed or (report.lemma2_bound is not None) == config.compute_lemma2


# (name, valid keywords, build from keywords, use of what was built)
PUBLIC_CONSTRUCTORS = [
    ("TrainConfig", dict(learning_rate=0.1, momentum=0.5, epochs=1, batch_size=4, schedule="cosine", seed=0),
     lambda kw: training.TrainConfig(**kw), _train),
    ("LossSpec", dict(mu=1e-4), lambda kw: models.LossSpec(**kw),
     lambda spec: training.train(MODEL, DATASET, spec, training.TrainConfig(0.1))),
    ("BoundGridConfig", dict(head_fraction=0.6, grad_tolerance=1e-8, compute_lemma2=True),
     lambda kw: bounds.BoundGridConfig(**kw), _score_cell),
    ("longtail_profile", dict(n_classes=4, n_max=100, imbalance_factor=10.0),
     lambda kw: datasets.longtail_profile(**kw), lambda profile: None),
    ("synthetic_gaussian", dict(n_classes=3, n_features=4, n_per_class=10, class_separation=2.0, seed=0),
     lambda kw: datasets.synthetic_gaussian(**kw), lambda dataset: None),
    ("make_longtail", dict(imbalance_factor=2.0, seed=0, n_max=5),
     lambda kw: datasets.make_longtail(DATASET, **kw), lambda dataset: None),
    ("MlpModel.initialize", dict(layer_sizes=[4, 5, 3], seed=0),
     lambda kw: models.MlpModel.initialize(**kw), _train_own_sizes),
    ("fisher_diagonal", dict(max_samples=10, seed=0),
     lambda kw: continual.fisher_diagonal(MODEL, DATASET, "true_loss", **kw), lambda fisher: None),
    ("gpm_collect_bases", dict(energy_threshold=0.9, max_samples=10, seed=0),
     lambda kw: continual.gpm_collect_bases(MODEL, DATASET, **kw), lambda bases: None),
    ("loss_gap_surrogate", dict(seed=0),
     lambda kw: bounds.loss_gap_surrogate(_LOSSES, np.zeros(2), np.ones(2), **kw), lambda delta: None),
    ("evaluate_cell", dict(cell_seed=0),
     lambda kw: bounds.evaluate_cell(DATASET, 1.0, 0.1, bounds.BoundGridConfig(), **kw), lambda report: None),
    *_strategy_constructors(),
]
# what a caller may pass where a number belongs
ANY_VALUE = st.one_of(
    st.integers(-2, 3), st.floats(), st.sampled_from([NAN, INF, -INF, 2.5]), st.booleans(), st.text(max_size=3),
)


@pytest.mark.parametrize("valid, build, use", [pytest.param(*entry[1:], id=entry[0]) for entry in PUBLIC_CONSTRUCTORS])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_public_constructors_construct_or_raise_value_error(valid, build, use, data):
    # one keyword at a time gets any value: the call raises ValueError, or
    # what it builds works, failing at most with the package's own errors
    # (an empty head class, a loss that an infinite weight makes diverge),
    # never a TypeError later
    key = data.draw(st.sampled_from(sorted(valid)))
    try:
        built = build({**valid, key: data.draw(ANY_VALUE)})
    except ValueError:
        return
    try:
        with np.errstate(all="ignore"):
            use(built)
    except LtclError:
        pass
