"""Transductive hardness-based selecting pipeline (iterative self-training).

Each iteration re-fits the base model from scratch on the seen training set
plus a selected subset of pseudo-labeled unseen rows, through
:func:`~hardboost.models.fit_predict_unseen`.  Selection identifies
the lowest-frequency (optionally prior-normalized) pseudo-label classes as
hard and draws the same number of rows from each with replacement, under a
step-wise growing quota so that early, noisier pseudo labels contribute
less.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .config import RunConfig, require_frequency_metric, require_hard_count_within
from .data import DatasetBundle, validate_bundle
from .evaluation import EvalReport, evaluate_if_labeled
from .hardness import HardnessReport, estimate_class_priors, frequency_hardness
from .hars import _stage
from .models import fit_predict_unseen
from .rng import child_seed, substream


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
    report = frequency_hardness(pseudo_labels, split, metric, hard_count, priors)

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
    pseudo_labels, total: int, seed: int, split
) -> list[tuple[int, str]]:
    """Draw ``total`` rows uniformly with replacement from the rows
    pseudo-labeled as unseen, ignoring hardness.  Size-matched ablation arm
    for the selection step.

    An empty pool selects nothing and logs a warning, as an empty hard-class
    pool does in :func:`select_cfbs`."""
    if total < 0:
        raise ValueError("total must be >= 0")
    pseudo_labels = list(pseudo_labels)
    pool = [i for i, l in enumerate(pseudo_labels) if l in split.unseen]
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


def run_harst(
    bundle: DatasetBundle, config: RunConfig
) -> tuple[list[str], IterationTrace]:
    """Iterative self-training with hardness-based selection.

    An initial model fitted on the seen training set produces the first
    pseudo labels; each iteration then selects a quota-bounded subset of
    hard-class pseudo-labeled rows, re-fits the base model from scratch on
    the seen rows plus that subset, and re-predicts.  Returns the final
    pseudo labels and the full per-iteration trace.
    """
    require_frequency_metric(config)
    bundle = _stage("validate", validate_bundle, bundle)
    require_hard_count_within(config, bundle.split)
    m = bundle.test_unseen.n
    if m == 0:
        raise ValueError("transductive training needs unseen test rows")
    split = bundle.split

    def fit_predict(selected, t):
        return fit_predict_unseen(
            bundle, selected, config.base_model, config.ridge, config.n_unseen,
            config.classifier, config.seed, "refit-gen", t,
        )

    priors = None
    if config.metric == "pncf":
        priors = bundle.class_priors

    initial = _stage("initial-fit", fit_predict, [], 0)
    if priors is None and config.metric == "pncf":
        priors = _stage(
            "estimate-priors", estimate_class_priors, bundle.test_unseen, split, initial
        )
    initial_eval = evaluate_if_labeled(bundle, initial)
    current = initial

    records: list[IterationRecord] = []

    def trace() -> IterationTrace:
        return IterationTrace(tuple(initial), initial_eval, tuple(records))

    try:
        for t in range(1, config.iterations + 1):
            quota = selection_quota(t, m, config.iterations, config.hard_count)
            select_seed = child_seed(config.seed, "select", t)
            if config.selection == "cfbs":
                selected, hardness = _stage(
                    "select", select_cfbs, current, split, config.hard_count, quota,
                    priors, config.metric, select_seed,
                )
            else:
                # the trace records the hardness report the rows ignore
                hardness = _stage(
                    "select", frequency_hardness, current, split, config.metric,
                    config.hard_count, priors,
                )
                selected = _stage(
                    "select-random", random_selection_baseline, current,
                    config.hard_count * quota, select_seed, split,
                )
            current = _stage("refit", fit_predict, selected, t)
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
