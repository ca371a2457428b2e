"""Inductive hardness-based synthesizing pipeline.

Hard unseen classes are identified from semantic margins, then boosted on
two fronts: the generator is trained with extra virtual classes built by
interpolating sample/semantic pairs between each hard class's most similar
seen classes (its support classes, two by default), and the classifier is
trained with proportionally more generated samples for hard classes than
for easy ones.  The virtual classes come back as a :class:`SynthSet`, the
recipe of each row, which the generator fit interpolates straight into its
design; the generated unseen rows as plain (features, labels), the features
float32, the dtype the classifier trains in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import RunConfig, require_hard_count_within
from .data import (
    ClassSplit,
    DatasetBundle,
    FeatureTable,
    SemanticTable,
    validate_bundle,
)
from .evaluation import EvalReport, evaluate_if_labeled
from .hardness import HardnessReport, cosine_distances, ss_scores
from .models import (
    GenerativeModel,
    fit_classifier,
    fit_generator,
    predict_classifier_batch,
    sample_per_class,
)
from .rng import substream


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
class SynthSet:
    """How each interpolated (feature, semantic) row is mixed, and the tables
    it is mixed from; the rows themselves are not held.

    Row ``i`` is ``gamma[i]`` times the training row ``source_rows[i, 0]`` of
    class ``source_classes[i, 0]`` plus ``1 - gamma[i]`` times the row
    ``source_rows[i, 1]`` of class ``source_classes[i, 1]``, features and
    semantic vectors alike, in float64.  :meth:`interpolate_into` writes the
    rows into a caller's arrays; :attr:`features` and :attr:`semantics`
    interpolate them afresh on each access.
    """

    gamma: np.ndarray  # (n,) float64
    source_rows: np.ndarray  # (n, 2) training-table row indices
    source_classes: np.ndarray  # (n, 2) class ids
    train_features: np.ndarray  # (rows, v) the training table's rows, not copied
    support_semantics: np.ndarray  # (k, s) the support classes' semantic rows
    support_rows: np.ndarray  # (n, 2) rows of support_semantics, per source class

    def __post_init__(self):
        n = self.gamma.shape[0]
        if not (
            self.source_rows.shape == self.source_classes.shape
            == self.support_rows.shape == (n, 2)
        ):
            raise ValueError("synth set fields disagree on row count")

    def __len__(self) -> int:
        return self.gamma.shape[0]

    def interpolate_into(self, features: np.ndarray, semantics: np.ndarray) -> None:
        """Write the (n, v) feature rows and (n, s) semantic rows."""
        _interpolate(self.gamma, self.train_features, self.source_rows, features)
        _interpolate(self.gamma, self.support_semantics, self.support_rows, semantics)

    @property
    def features(self) -> np.ndarray:
        return _interpolate(self.gamma, self.train_features, self.source_rows)

    @property
    def semantics(self) -> np.ndarray:
        return _interpolate(self.gamma, self.support_semantics, self.support_rows)


def _round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


def support_seen_classes(
    hard_class: str, semantics: SemanticTable, split: ClassSplit, count: int
) -> list[str]:
    """The ``count`` seen classes most semantically similar to ``hard_class``."""
    seen = sorted(split.seen)
    if count > len(seen):
        raise ValueError(f"requested {count} support classes, only {len(seen)} seen")
    distances = cosine_distances(semantics[hard_class], [semantics[cls] for cls in seen])
    return [cls for _, cls in sorted(zip(distances, seen))[:count]]


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
    (each hard class owns an index-derived substream).  Returns the recipe:
    the rows are interpolated from the float32 training rows, which it
    references, only where they are written (:meth:`SynthSet.interpolate_into`).
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    rows_by_class = {}
    gammas, row_pairs, class_pairs = [], [], []
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
        if n_rows and len(support) < 2:
            raise ValueError(
                f"interpolation needs at least two support classes, got {len(support)}"
            )
        rng = substream(seed, "hard-seen-interp", hard_idx)
        for _ in range(n_rows):
            i_cls, j_cls = rng.choice(len(support), size=2, replace=False)
            pair = (support[i_cls], support[j_cls])
            class_pairs.append(pair)
            # rng.choice(rows)'s value and stream state, without its per-call overhead
            ends = [rows_by_class[cls] for cls in pair]
            row_pairs.append([int(rows[rng.integers(rows.size)]) for rows in ends])
            gammas.append(float(rng.uniform(0.0, 1.0)))
    support = list(rows_by_class)
    at = {cls: k for k, cls in enumerate(support)}
    return SynthSet(
        gamma=np.array(gammas, dtype=np.float64),
        source_rows=np.array(row_pairs, dtype=np.intp).reshape(-1, 2),
        source_classes=np.array(class_pairs, dtype=str).reshape(-1, 2),
        train_features=train.features,
        support_semantics=semantics.matrix(support) if support else np.empty((0, semantics.dim)),
        support_rows=np.array([[at[a], at[b]] for a, b in class_pairs], np.intp).reshape(-1, 2),
    )


_INTERP_ELEMENTS = 1 << 17  # per block of rows that _interpolate gathers (1 MiB in float64)


def _interpolate(
    gamma: np.ndarray, table: np.ndarray, pairs: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Float64 ``gamma * table[pairs[:, 0]] + (1 - gamma) * table[pairs[:, 1]]``,
    bit for bit that form on ``table`` widened to float64, written into
    ``out`` (a new array by default).  The endpoints are gathered a row block
    at a time in ``table``'s dtype and widened (exactly) inside each product:
    no (n, 2, dim) float64 gather is held."""
    if out is None:
        out = np.empty((pairs.shape[0], table.shape[1]))
    step = max(1, _INTERP_ELEMENTS // table.shape[1])
    for start in range(0, out.shape[0], step):
        block = slice(start, start + step)
        g = gamma[block, None]
        np.multiply(g, table[pairs[block, 0]], out=out[block])
        out[block] += (1.0 - g) * table[pairs[block, 1]]
    return out


def synthesize_unseen(
    gen,
    semantics: SemanticTable,
    split: ClassSplit,
    hard,
    n_unseen: int,
    beta: float,
    seed: int,
) -> tuple[np.ndarray, list[str]]:
    """Generate class-conditioned rows: n_unseen per easy unseen class,
    round(beta * n_unseen) per hard one.  Returns the float32 rows (see
    :func:`~hardboost.models.sample_per_class`) and one label per row, unseen
    classes in id order.  Deterministic given ``seed``."""
    if n_unseen < 1:
        raise ValueError("n_unseen must be >= 1")
    hard = set(hard)
    counts = {
        cls: _round_half_away(beta * n_unseen) if cls in hard else n_unseen
        for cls in sorted(split.unseen)
    }
    return sample_per_class(gen, semantics, counts, seed, "unseen-gen")


def fit_hard_generator(
    bundle: DatasetBundle, config: RunConfig
) -> tuple[HardnessReport, GenerativeModel]:
    """Front half of :func:`run_hars`: identify the hard classes and fit the
    generator on the seen rows plus their interpolated virtual classes.

    Reads only ``hard_count``, ``alpha``, ``support_count``, ``seed`` and
    ``ridge`` of the config.  The virtual rows are held once, in the
    generator fit's design and targets, and dropped once it is fit.
    """
    bundle = _stage("validate", validate_bundle, bundle)
    require_hard_count_within(config, bundle.split)
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
    gen = _stage(
        "fit-generator", fit_generator, bundle.train_seen, bundle.semantics, config.ridge, interp
    )
    return report, gen


def generate_and_classify(
    bundle: DatasetBundle, config: RunConfig, gen: GenerativeModel, hard
) -> tuple[list[str], EvalReport | None]:
    """Back half of :func:`run_hars`: oversample ``hard`` from ``gen``, train
    the classifier, predict and evaluate the unseen test rows.

    Reads only ``n_unseen``, ``beta``, ``seed`` and ``classifier`` of the
    config; the bundle must already be validated.
    """
    features, labels = _stage(
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
        features,
        labels,
        bundle.split.unseen,
        config.classifier,
    )
    preds = _stage("predict", predict_classifier_batch, clf, bundle.test_unseen.features)
    report = _stage("evaluate", evaluate_if_labeled, bundle, preds)
    return preds, report


def run_generative_baseline(
    bundle: DatasetBundle, config: RunConfig
) -> tuple[list[str], EvalReport | None]:
    """Vanilla generate-then-classify pipeline: :func:`run_hars` without the
    hard-class stages, so of the :class:`~hardboost.config.RunConfig` it reads
    only ``n_unseen``, ``seed``, ``ridge`` and ``classifier``."""
    bundle = _stage("validate", validate_bundle, bundle)
    gen = _stage("fit-generator", fit_generator, bundle.train_seen, bundle.semantics, config.ridge)
    return generate_and_classify(bundle, config, gen, ())


def run_hars(
    bundle: DatasetBundle, config: RunConfig
) -> tuple[list[str], HardnessReport, EvalReport | None]:
    """Full inductive pipeline: :func:`fit_hard_generator` (identify hard
    classes, synthesize virtual classes, fit the generator), then
    :func:`generate_and_classify` (oversample hard classes, train the
    classifier, predict on the unseen test rows).

    Returns (predictions keyed by test row index, hardness report,
    evaluation report or None when the test rows are unlabeled).
    """
    hardness, gen = fit_hard_generator(bundle, config)
    preds, report = generate_and_classify(bundle, config, gen, hardness.hard)
    return preds, hardness, report
