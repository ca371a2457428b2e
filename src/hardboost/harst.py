"""Transductive hardness-based selecting pipeline (iterative self-training).

Each iteration re-fits the base model from scratch on the seen training set
plus a selected subset of pseudo-labeled unseen rows.  Selection identifies
the lowest-frequency (optionally prior-normalized) pseudo-label classes as
hard and draws the same number of rows from each with replacement, under a
step-wise growing quota so that early, noisier pseudo labels contribute
less.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .data import DatasetBundle, FeatureTable, validate_bundle
from .evaluation import EvalReport, evaluate_if_labeled
from .hardness import (
    HardnessReport,
    estimate_class_priors,
    normalize_by_prior,
    pseudo_label_histogram,
)
from .hars import _stage
from .models import (
    ClassifierConfig,
    classify_embedding_batch,
    fit_classifier,
    fit_embedding_means,
    fit_generator,
    predict_classifier_batch,
    sample_per_class,
)
from .rng import child_seed, substream

METRICS = ("cf", "pncf")
BASE_MODELS = ("embedding", "generative")
SELECTIONS = ("cfbs", "rs")  # "rs" is the size-matched random baseline
LABEL_SPACES = ("unseen", "all")  # "all" is the compound generalized setting


@dataclass(frozen=True)
class HarstConfig:
    iterations: int
    hard_count: int
    metric: str = "cf"  # one of METRICS
    base: str = "embedding"  # one of BASE_MODELS
    selection: str = "cfbs"  # one of SELECTIONS
    label_space: str = "unseen"  # one of LABEL_SPACES
    n_unseen: int = 100  # generated rows per class for the generative base
    seed: int = 0
    ridge: float = 0.1
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.hard_count < 1:
            raise ValueError("hard_count must be >= 1")
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.base not in BASE_MODELS:
            raise ValueError(f"unknown base model {self.base!r}")
        if self.selection not in SELECTIONS:
            raise ValueError(f"unknown selection {self.selection!r}")
        if self.label_space not in LABEL_SPACES:
            raise ValueError(f"unknown label space {self.label_space!r}")


def selection_quota(t: int, m: int, total_iterations: int, hard_count: int) -> int:
    """Per-hard-class sample budget at iteration ``t``: floor(t*m/(T*K))."""
    if t < 1 or t > total_iterations:
        raise ValueError(f"iteration {t} outside [1, {total_iterations}]")
    if m < 1 or total_iterations < 1 or hard_count < 1:
        raise ValueError("m, total_iterations, and hard_count must be >= 1")
    return (t * m) // (total_iterations * hard_count)


def select_cfbs(
    pseudo_labels,
    split,
    hard_count: int,
    quota: int,
    priors: dict[str, float] | None = None,
    metric: str = "cf",
    seed: int = 0,
) -> tuple[list[tuple[int, str]], HardnessReport]:
    """Frequency-based hard-class selection with replacement.

    Identifies the ``hard_count`` lowest-frequency pseudo-label classes
    (dividing by priors first when ``metric="pncf"``), then draws ``quota``
    rows uniformly with replacement from each class's pseudo-labeled pool.
    Rows keep their pseudo labels.  A hard class with an empty pool
    contributes nothing and logs a warning.  Returns the selected
    (row index, pseudo label) pairs plus the hardness report.
    """
    if quota < 0:
        raise ValueError("quota must be >= 0")
    pseudo_labels = list(pseudo_labels)
    unseen_only = [l for l in pseudo_labels if l in split.unseen]
    freqs = pseudo_label_histogram(unseen_only, split)
    if metric == "pncf":
        if priors is None:
            raise ValueError("prior-normalized selection needs class priors")
        scores = normalize_by_prior(freqs, priors)
    elif metric == "cf":
        scores = {c: float(v) for c, v in freqs.items()}
    else:
        raise ValueError(f"unknown metric {metric!r}")
    report = HardnessReport.from_scores(metric, scores, hard_count)

    selected: list[tuple[int, str]] = []
    if quota > 0:
        pools: dict[str, list[int]] = {cls: [] for cls in report.hard}
        for i, l in enumerate(pseudo_labels):
            if l in pools:
                pools[l].append(i)
        for idx, cls in enumerate(report.hard):
            pool = pools[cls]
            if not pool:
                warnings.warn(
                    f"hard class {cls!r} has an empty pseudo-label pool; "
                    f"selecting nothing for it",
                    stacklevel=2,
                )
                continue
            rng = substream(seed, "cfbs", idx)
            for j in rng.choice(len(pool), size=quota, replace=True):
                selected.append((pool[j], cls))
    return selected, report


def random_selection_baseline(
    pseudo_labels, total: int, seed: int, split=None
) -> list[tuple[int, str]]:
    """Draw ``total`` rows uniformly with replacement from the whole pool,
    ignoring hardness.  Size-matched ablation arm for the selection step.

    With ``split`` given the pool is the rows pseudo-labeled as unseen; an
    empty pool selects nothing and logs a warning, as an empty hard-class
    pool does in :func:`select_cfbs`."""
    if total < 0:
        raise ValueError("total must be >= 0")
    pseudo_labels = list(pseudo_labels)
    if split is not None:
        pool = [i for i, l in enumerate(pseudo_labels) if l in split.unseen]
    else:
        pool = list(range(len(pseudo_labels)))
    if total == 0:
        return []
    if not pool:
        warnings.warn("the pseudo-label pool is empty; selecting nothing", stacklevel=2)
        return []
    rng = substream(seed, "rs")
    return [(pool[j], pseudo_labels[pool[j]]) for j in rng.choice(len(pool), size=total, replace=True)]


@dataclass(frozen=True)
class IterationRecord:
    t: int
    hardness: HardnessReport  # report that built this iteration's subset
    selected_per_class: dict[str, int]
    quota: int
    pseudo_labels: tuple[str, ...]  # predictions after this iteration's refit
    evaluation: EvalReport | None


@dataclass(frozen=True)
class IterationTrace:
    initial_pseudo_labels: tuple[str, ...]
    initial_evaluation: EvalReport | None
    records: tuple[IterationRecord, ...]


class _BaseModel:
    """Fit/predict facade over the two reference base models."""

    def __init__(self, bundle: DatasetBundle, config: HarstConfig):
        self.bundle = bundle
        self.config = config
        if config.label_space == "all":
            self.candidates = sorted(bundle.split.all_classes)
        else:
            self.candidates = sorted(bundle.split.unseen)

    def fit_predict(self, train: FeatureTable, refit_index: int) -> list[str]:
        bundle, config = self.bundle, self.config
        if config.base == "embedding":
            model = self._fit_embedding_base(train)
            return classify_embedding_batch(
                model, bundle.test_unseen.features, self.candidates, bundle.semantics
            )
        gen = fit_generator(train, bundle.semantics, config.ridge)
        counts = dict.fromkeys(sorted(bundle.split.unseen), config.n_unseen)
        feats, labels = sample_per_class(
            gen, bundle.semantics, counts, config.seed, "refit-gen", refit_index
        )
        if config.label_space == "all":
            feats = np.concatenate([feats, train.features.astype(np.float64)])
            labels.extend(train.labels)
        refit_seed = child_seed(config.seed, "refit", refit_index)
        clf = fit_classifier(
            feats,
            labels,
            self.candidates,
            replace(config.classifier, seed=child_seed(refit_seed, "classifier")),
        )
        return predict_classifier_batch(clf, bundle.test_unseen.features)

    def _fit_embedding_base(self, train: FeatureTable):
        """Every training row counts once: each class enters the regression as
        its mean weighted by its row count, so selection multiplicity weights
        the fit and pseudo-label noise costs what it should."""
        labels = sorted(set(train.labels))
        groups = [train.rows_for(l) for l in labels]
        means = np.stack([train.features[g].astype(np.float64).mean(axis=0) for g in groups])
        counts = np.array([g.size for g in groups], dtype=np.float64)
        return fit_embedding_means(
            self.bundle.semantics.matrix(labels), means, counts, self.config.ridge
        )


def _merge_training(
    bundle: DatasetBundle, selected: list[tuple[int, str]]
) -> FeatureTable:
    if not selected:
        return bundle.train_seen
    rows = [i for i, _ in selected]
    labels = [l for _, l in selected]
    return FeatureTable(
        features=np.concatenate(
            [bundle.train_seen.features, bundle.test_unseen.features[rows]]
        ),
        labels=bundle.train_seen.labels + tuple(labels),
    )


def run_harst(
    bundle: DatasetBundle, config: HarstConfig
) -> tuple[list[str], IterationTrace]:
    """Iterative self-training with hardness-based selection.

    An initial model fitted on the seen training set produces the first
    pseudo labels; each iteration then selects a quota-bounded subset of
    hard-class pseudo-labeled rows, re-fits the base model from scratch on
    the seen rows plus that subset, and re-predicts.  Returns the final
    pseudo labels and the full per-iteration trace.
    """
    bundle = _stage("validate", validate_bundle, bundle)
    if config.hard_count > bundle.split.num_unseen:
        raise ValueError(
            f"hard_count {config.hard_count} exceeds {bundle.split.num_unseen} unseen classes"
        )
    base = _BaseModel(bundle, config)
    m = bundle.test_unseen.n
    if m == 0:
        raise ValueError("transductive training needs unseen test rows")

    priors = None
    if config.metric == "pncf":
        priors = bundle.class_priors

    initial = _stage("initial-fit", base.fit_predict, bundle.train_seen, 0)
    if priors is None and config.metric == "pncf":
        priors = _stage(
            "estimate-priors",
            estimate_class_priors,
            bundle.test_unseen,
            bundle.split,
            child_seed(config.seed, "priors"),
            initial,
        )
    initial_eval = evaluate_if_labeled(bundle, initial)
    current = initial

    records: list[IterationRecord] = []

    def trace() -> IterationTrace:
        return IterationTrace(tuple(initial), initial_eval, tuple(records))

    try:
        for t in range(1, config.iterations + 1):
            quota = selection_quota(t, m, config.iterations, config.hard_count)
            selected, hardness = _stage(
                "select",
                select_cfbs,
                current,
                bundle.split,
                config.hard_count,
                quota,
                priors,
                config.metric,
                child_seed(config.seed, "select", t),
            )
            if config.selection == "rs":
                selected = _stage(
                    "select-random",
                    random_selection_baseline,
                    current,
                    config.hard_count * quota,
                    child_seed(config.seed, "select", t),
                    bundle.split,
                )
            merged = _stage("merge", _merge_training, bundle, selected)
            current = _stage("refit", base.fit_predict, merged, t)
            per_class: dict[str, int] = {}
            for _, label in selected:
                per_class[label] = per_class.get(label, 0) + 1
            records.append(
                IterationRecord(
                    t=t,
                    hardness=hardness,
                    selected_per_class=per_class,
                    quota=quota,
                    pseudo_labels=tuple(current),
                    evaluation=evaluate_if_labeled(bundle, current),
                )
            )
    except Exception as exc:
        # keep the completed iterations inspectable on the exception
        exc.partial_trace = trace()
        raise
    return current, trace()
