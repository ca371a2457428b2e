"""Inductive hardness-based synthesizing pipeline.

Hard unseen classes are identified from semantic margins, then boosted on
two fronts: the generator is trained with extra virtual classes built by
interpolating sample/semantic pairs between each hard class's two most
similar seen classes, and the classifier is trained with proportionally
more generated samples for hard classes than for easy ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import (
    ClassSplit,
    DatasetBundle,
    FeatureTable,
    SemanticTable,
    validate_bundle,
)
from .evaluation import EvalReport, evaluate_if_labeled
from .hardness import HardnessReport, cosine_distance, ss_scores
from .models import (
    ClassifierConfig,
    fit_classifier,
    fit_generator,
    predict_classifier_batch,
    sample_per_class,
)
from .rng import child_seed, substream


class PipelineError(RuntimeError):
    """A pipeline stage failed; the message names the stage."""


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(f"stage {name!r} failed: {exc}") from exc


@dataclass(frozen=True)
class HarsConfig:
    hard_count: int
    support_count: int = 2
    alpha: float = 2.0  # interpolated rows per support training sample
    beta: float = 2.0  # hard-class oversampling factor for generated rows
    n_unseen: int = 300  # generated rows per easy unseen class
    seed: int = 0
    ridge: float = 0.1
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)

    def __post_init__(self):
        if self.hard_count < 1:
            raise ValueError("hard_count must be >= 1")
        if self.support_count < 1:
            raise ValueError("support_count must be >= 1")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.beta < 1:
            raise ValueError("beta must be >= 1")
        if self.n_unseen < 1:
            raise ValueError("n_unseen must be >= 1")


@dataclass(frozen=True)
class Provenance:
    """How one synthesized row was produced (enough to recompute it)."""

    gamma: float | None
    source_classes: tuple[str, ...]
    source_rows: tuple[int, ...]  # training-table row indices; empty for generated rows


@dataclass(frozen=True)
class SynthSet:
    """Synthesized (feature, semantic) rows with provenance tags."""

    features: np.ndarray  # (n, v) float64
    semantics: np.ndarray  # (n, s) float64
    labels: tuple[str | None, ...]  # class label for generated rows, None otherwise
    tags: tuple[str, ...]  # "hard-seen-interp" or "unseen-gen"
    provenance: tuple[Provenance, ...]

    def __post_init__(self):
        n = self.features.shape[0]
        if not (
            self.semantics.shape[0] == n
            and len(self.labels) == n
            and len(self.tags) == n
            and len(self.provenance) == n
        ):
            raise ValueError("synth set fields disagree on row count")

    def __len__(self) -> int:
        return self.features.shape[0]

    @classmethod
    def empty(cls, v: int, s: int) -> "SynthSet":
        return cls(
            features=np.empty((0, v)),
            semantics=np.empty((0, s)),
            labels=(),
            tags=(),
            provenance=(),
        )


def _round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


def support_seen_classes(
    hard_class: str, semantics: SemanticTable, split: ClassSplit, count: int
) -> list[str]:
    """The ``count`` seen classes most semantically similar to ``hard_class``."""
    seen = sorted(split.seen)
    if count > len(seen):
        raise ValueError(f"requested {count} support classes, only {len(seen)} seen")
    target = semantics[hard_class]
    ranked = sorted(seen, key=lambda cls: (cosine_distance(target, semantics[cls]), cls))
    return ranked[:count]


def synthesize_hard_seen(
    train: FeatureTable,
    semantics: SemanticTable,
    split: ClassSplit,
    hard,
    alpha: float,
    support_count: int,
    seed: int,
) -> SynthSet:
    """Interpolate virtual classes around each hard class's support classes.

    Per hard class, round(alpha * N_s) rows are emitted, where N_s is the
    total training-sample count of its support seen classes.  Each row draws
    its two endpoints from two distinct support classes and a single mixing
    weight gamma ~ U(0,1) shared by the feature and semantic interpolation,
    so every row lies on one recorded segment.  Deterministic given ``seed``
    (each hard class owns an index-derived substream).
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    feats = train.features.astype(np.float64)
    rows_by_class = {}
    out_feats, out_sems, provenance = [], [], []
    for hard_idx, hard_cls in enumerate(hard):
        support = support_seen_classes(hard_cls, semantics, split, support_count)
        for cls in support:
            if cls not in rows_by_class:
                rows_by_class[cls] = train.rows_for(cls)
            if rows_by_class[cls].size == 0:
                raise ValueError(
                    f"support class {cls!r} of {hard_cls!r} has no training samples"
                )
        n_support_samples = sum(rows_by_class[cls].size for cls in support)
        n_rows = _round_half_away(alpha * n_support_samples)
        rng = substream(seed, "hard-seen-interp", hard_idx)
        for _ in range(n_rows):
            i_cls, j_cls = rng.choice(len(support), size=2, replace=False)
            cls_i, cls_j = support[i_cls], support[j_cls]
            row_i = int(rng.choice(rows_by_class[cls_i]))
            row_j = int(rng.choice(rows_by_class[cls_j]))
            gamma = float(rng.uniform(0.0, 1.0))
            out_feats.append(gamma * feats[row_i] + (1.0 - gamma) * feats[row_j])
            out_sems.append(
                gamma * semantics[cls_i] + (1.0 - gamma) * semantics[cls_j]
            )
            provenance.append(
                Provenance(
                    gamma=gamma,
                    source_classes=(cls_i, cls_j),
                    source_rows=(row_i, row_j),
                )
            )
    if not out_feats:
        return SynthSet.empty(train.dim, semantics.dim)
    return SynthSet(
        features=np.stack(out_feats),
        semantics=np.stack(out_sems),
        labels=(None,) * len(out_feats),
        tags=("hard-seen-interp",) * len(out_feats),
        provenance=tuple(provenance),
    )


def synthesize_unseen(
    gen,
    semantics: SemanticTable,
    split: ClassSplit,
    hard,
    n_unseen: int,
    beta: float,
    seed: int,
) -> SynthSet:
    """Generate class-conditioned rows: n_unseen per easy unseen class,
    round(beta * n_unseen) per hard one.  Deterministic given ``seed``."""
    if n_unseen < 1:
        raise ValueError("n_unseen must be >= 1")
    hard = set(hard)
    counts = {
        cls: _round_half_away(beta * n_unseen) if cls in hard else n_unseen
        for cls in sorted(split.unseen)
    }
    features, labels = sample_per_class(gen, semantics, counts, seed, "unseen-gen")
    return SynthSet(
        features=features,
        semantics=np.repeat(semantics.matrix(counts), list(counts.values()), axis=0),
        labels=tuple(labels),
        tags=("unseen-gen",) * len(labels),
        provenance=tuple(
            Provenance(gamma=None, source_classes=(cls,), source_rows=()) for cls in labels
        ),
    )


def _generate_and_classify(
    bundle: DatasetBundle, config: HarsConfig, hard, interp: SynthSet | None
) -> tuple[list[str], EvalReport | None]:
    """Fit the generator on seen plus ``interp`` rows, oversample ``hard``, classify."""
    gen = _stage(
        "fit-generator",
        fit_generator,
        bundle.train_seen,
        bundle.semantics,
        config.ridge,
        interp,
    )
    synth = _stage(
        "synthesize-unseen",
        synthesize_unseen,
        gen,
        bundle.semantics,
        bundle.split,
        hard,
        config.n_unseen,
        config.beta,
        config.seed,
    )
    clf = _stage(
        "fit-classifier",
        fit_classifier,
        synth.features,
        list(synth.labels),
        bundle.split.unseen,
        replace(config.classifier, seed=child_seed(config.seed, "classifier")),
    )
    preds = _stage("predict", predict_classifier_batch, clf, bundle.test_unseen.features)
    report = _stage("evaluate", evaluate_if_labeled, bundle, preds)
    return preds, report


def run_generative_baseline(
    bundle: DatasetBundle, config: HarsConfig
) -> tuple[list[str], EvalReport | None]:
    """Vanilla generate-then-classify pipeline: :func:`run_hars` without the
    hard-class stages, so ``hard_count``, ``support_count``, ``alpha`` and ``beta`` go unused."""
    bundle = _stage("validate", validate_bundle, bundle)
    return _generate_and_classify(bundle, config, (), None)


def run_hars(
    bundle: DatasetBundle, config: HarsConfig
) -> tuple[list[str], HardnessReport, EvalReport | None]:
    """Full inductive pipeline: identify hard classes, synthesize virtual
    classes for the generator, oversample hard classes for the classifier,
    predict on the unseen test rows.

    Returns (predictions keyed by test row index, hardness report,
    evaluation report or None when the test rows are unlabeled).
    """
    bundle = _stage("validate", validate_bundle, bundle)
    if config.hard_count > bundle.split.num_unseen:
        raise ValueError(
            f"hard_count {config.hard_count} exceeds {bundle.split.num_unseen} unseen classes"
        )
    scores = _stage("identify", ss_scores, bundle.semantics, bundle.split)
    report = HardnessReport.from_scores("ss", scores, config.hard_count)

    interp = _stage(
        "synthesize-hard-seen",
        synthesize_hard_seen,
        bundle.train_seen,
        bundle.semantics,
        bundle.split,
        report.hard,
        config.alpha,
        config.support_count,
        config.seed,
    )
    preds, eval_report = _generate_and_classify(bundle, config, report.hard, interp)
    return preds, report, eval_report
