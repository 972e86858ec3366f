"""Every range and membership rule of the package goes through `errors.check`."""
import math

import numpy as np
import pytest

from ltcl import bounds, continual, datasets, models, training
from ltcl.errors import FRACTION, LtclError, StrictConvexityError, check, list_of, one_of

NAN, INF = math.nan, math.inf
DATASET = datasets.synthetic_gaussian(3, 4, 10, 2.0, seed=0)
MODEL = models.MlpModel.initialize([4, 5, 3], seed=0)
LOGITS = np.zeros((2, 3))
SPEC = models.LossSpec(mu=1e-4)
BAD_COUNTS = [0, 2.5, True, NAN, INF, -INF]  # a count is an integer >= 1 and no bool


def _strategy_cases():
    for variant, strategy in continual.STRATEGIES.items():
        for key in strategy.settings:
            bad = [1.5 if key == "energy_threshold" else -1.0, NAN, -INF]
            bad = BAD_COUNTS if key == "fisher_max_samples" else bad
            yield (f"strategy_term.{variant}.{key}", key, bad,
                   lambda v, variant=variant, key=key: continual.strategy_term(
                       variant, MODEL, DATASET, {0, 1}, SPEC, **{key: v}))


# (site, parameter, rejected values, call with the value); a rule that
# needs a finite value rejects both infinities as well
CASES = [
    ("LossSpec", "mu", [-0.1, NAN, INF, -INF], lambda v: models.LossSpec(mu=v)),
    ("TrainConfig", "learning_rate", [0.0, NAN, INF, -INF], lambda v: training.TrainConfig(learning_rate=v)),
    ("TrainConfig", "momentum", [1.0, -0.1, NAN, INF, -INF], lambda v: training.TrainConfig(0.1, momentum=v)),
    ("TrainConfig", "epochs", BAD_COUNTS, lambda v: training.TrainConfig(0.1, epochs=v)),
    ("TrainConfig", "batch_size", BAD_COUNTS, lambda v: training.TrainConfig(0.1, batch_size=v)),
    ("TrainConfig", "schedule", ["linear", NAN], lambda v: training.TrainConfig(0.1, schedule=v)),
    ("gamma", "imbalance_factor", [0.5, NAN, -INF], datasets.gamma),
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
    ("default_phase2_config", "variant", ["dropout", NAN], continual.default_phase2_config),
    ("fisher_diagonal", "mode", ["fisher", NAN], lambda v: continual.fisher_diagonal(MODEL, DATASET, v, 10)),
    ("_sample_rows", "max_samples", BAD_COUNTS,
     lambda v: continual._sample_rows(DATASET, v, np.random.default_rng(0))),
    ("lwf_loss", "temperature", [0.0, NAN, -INF], lambda v: continual.lwf_loss(LOGITS, LOGITS, [0, 1], v, 1.0)),
    ("gpm_collect_bases", "energy_threshold", [0.0, 1.5, NAN, INF, -INF],
     lambda v: continual.gpm_collect_bases(MODEL, DATASET, v, 10)),
    ("strategy_term", "variant", ["dropout", NAN],
     lambda v: continual.strategy_term(v, MODEL, DATASET, {0, 1}, SPEC)),
    *_strategy_cases(),
    ("lemma1_bound", "delta", [-1.0, NAN, -INF], lambda v: bounds.lemma1_bound(v, 1.0, 1.0)),
    ("lemma1_bound", "mu_f", [-1.0, NAN, -INF], lambda v: bounds.lemma1_bound(1.0, v, 1.0)),
    ("lemma1_bound", "mu_g", [-1.0, NAN, -INF], lambda v: bounds.lemma1_bound(1.0, 1.0, v)),
    ("lemma2_bound", "delta", [-1.0, NAN, -INF], lambda v: bounds.lemma2_bound(v, 1.0, 1.0)),
    ("BoundGridConfig", "grad_tolerance", [0.0, -1.0, NAN, INF, -INF],
     lambda v: bounds.BoundGridConfig(grad_tolerance=v)),
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


def test_lemma2_bound_rejects_a_nan_eigenvalue():
    # NaN is no positive eigenvalue: it used to pass and give a NaN bound
    for lam in [(NAN, 1.0), (1.0, NAN)]:
        with pytest.raises(StrictConvexityError):
            bounds.lemma2_bound(1.0, *lam)
