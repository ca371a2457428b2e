"""Hard-class identification and boosting for zero-shot learning on
precomputed feature vectors."""

from .data import (
    ClassSplit,
    DatasetBundle,
    FeatureTable,
    SemanticTable,
    UNLABELED,
    load_bundle,
    load_feature_table,
    validate_bundle,
    write_bundle,
    write_feature_table,
)
from .hardness import (
    HardnessReport,
    cosine_distance,
    estimate_class_priors,
    normalize_by_prior,
    pseudo_label_histogram,
    rank_hard,
    semantic_similarity_matrix,
    ss_scores,
)
from .models import (
    Classifier,
    ClassifierConfig,
    EmbeddingModel,
    GenerativeModel,
    fit_classifier,
    fit_generator,
    sample_generator,
    sample_per_class,
)
from .evaluation import (
    EvalReport,
    HardEasyOracle,
    amr,
    apr,
    contrastive_analysis,
    evaluate,
    evaluate_if_labeled,
    harmonic_mean,
    identification_quality,
)
from .config import RunConfig
from .hars import SynthSet, run_generative_baseline, run_hars, synthesize_hard_seen, synthesize_unseen, support_seen_classes
from .harst import (
    IterationTrace,
    random_selection_baseline,
    run_harst,
    select_cfbs,
    selection_quota,
)
from .benchmark import BenchmarkSpec, make_benchmark, standard_benchmark_spec, unbalanced_benchmark_spec

__version__ = "0.1.0"
