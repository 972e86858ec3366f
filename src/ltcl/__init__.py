"""Long-tailed recognition treated as two-phase continual learning.

Build long-tailed datasets, train strongly convex classifiers, verify
minimizer-distance bounds, and run head-then-tail training under
forgetting-mitigation strategies with a full LTR metrics suite.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundGridConfig,
    BoundReport,
    TrainTrace,
    bound_grid,
    lemma1_bound,
    lemma2_bound,
    min_eigenvalue,
    tight_bound,
)
from .continual import (
    PhaseResult,
    default_phase2_config,
    ewc_penalty,
    fisher_diagonal,
    gpm_collect_bases,
    gpm_project,
    lwf_loss,
    run_head_phase,
    run_tail_phase,
    run_two_phase,
    strategy_term,
)
from .datasets import (
    HeadTailSplit,
    LabeledDataset,
    LongTailProfile,
    gamma,
    head_tail_split,
    imbalance_factor,
    load_idx,
    longtail_profile,
    make_longtail,
    mean_pool_images,
    synthetic_gaussian,
)
from .metrics import (
    MetricsReport,
    TransferDecomposition,
    accuracy_diff,
    avg_class_accuracy,
    evaluate,
    per_class_accuracy,
    per_class_weight_norms,
    transfer_decomposition,
)
from .models import (
    LinearModel,
    LossSpec,
    MlpModel,
    ObjectiveTerm,
    hessian,
    load_checkpoint,
    loss,
    save_checkpoint,
    softmax_forward,
)
from .training import TrainConfig, cosine_anneal, train
