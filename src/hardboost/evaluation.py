"""Evaluation protocol and confusion/similarity diagnostics.

Accuracy is always the unweighted mean of per-class top-1 accuracies; the
generalized score is the harmonic mean of the unseen-side and seen-side
means.  The diagnostics quantify how well semantic similarity predicts
misclassification targets, and how well a predicted hard-class set matches
the accuracy-ranked truth.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import ClassSplit, DatasetBundle, UNLABELED
from .models import (
    ClassifierConfig,
    fit_classifier,
    fit_generator,
    fit_predict_unseen,
    predict_classifier_batch,
    sample_per_class,
)
from .rng import child_seed


def harmonic_mean(a: float, b: float) -> float:
    """2ab/(a+b), defined as 0 when either side is 0."""
    if a < 0 or b < 0:
        raise ValueError("harmonic mean arguments must be non-negative")
    if a == 0.0 or b == 0.0:
        return 0.0
    # 2ab underflows long before the mean does; 2lo/(1 + lo/hi) does not,
    # and ordering the arguments keeps the result exactly symmetric
    lo, hi = (a, b) if a <= b else (b, a)
    return lo * (2.0 / (1.0 + lo / hi))


@dataclass(frozen=True)
class EvalReport:
    per_class_accuracy: dict[str, float]
    acc_u: float
    acc_s: float | None
    h: float | None
    confusion: np.ndarray  # rows = true class, columns = predicted
    classes: tuple[str, ...]  # confusion axis order

    def to_json_dict(self) -> dict:
        return {
            "per_class_accuracy": {
                c: float(v) for c, v in sorted(self.per_class_accuracy.items())
            },
            "acc_u": float(self.acc_u),
            "acc_s": None if self.acc_s is None else float(self.acc_s),
            "h": None if self.h is None else float(self.h),
            "confusion": self.confusion.tolist(),
            "classes": list(self.classes),
        }


def _tally(preds, truths, classes) -> np.ndarray:
    index = {cls: i for i, cls in enumerate(classes)}
    matrix = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for pred, true in zip(preds, truths):
        matrix[index[true], index[pred]] += 1
    return matrix


def evaluate(preds, truths, split: ClassSplit) -> EvalReport:
    """Score predictions against truths aligned by row index.

    Classes with no evaluated samples are excluded from the mean with a
    warning.  The seen-side mean and the harmonic score are present only
    when seen-class rows were evaluated.
    """
    preds = list(preds)
    truths = list(truths)
    if len(preds) != len(truths):
        raise ValueError(f"{len(preds)} predictions for {len(truths)} truths")
    known = split.all_classes
    for i, (p, t) in enumerate(zip(preds, truths)):
        if t not in known:
            raise ValueError(f"row {i}: true label {t!r} not in the split")
        if p not in known:
            raise ValueError(f"row {i}: predicted label {p!r} not in the split")

    totals: dict[str, int] = {}
    correct: dict[str, int] = {}
    for p, t in zip(preds, truths):
        totals[t] = totals.get(t, 0) + 1
        if p == t:
            correct[t] = correct.get(t, 0) + 1
    per_class = {cls: correct.get(cls, 0) / n for cls, n in totals.items()}

    unseen_missing = sorted(split.unseen - set(totals))
    if unseen_missing:
        warnings.warn(
            f"classes with no evaluated samples excluded from the mean: "
            f"{unseen_missing}",
            stacklevel=2,
        )
    unseen_accs = [per_class[c] for c in sorted(split.unseen) if c in totals]
    if not unseen_accs:
        raise ValueError("no unseen-class rows were evaluated")
    acc_u = float(np.mean(unseen_accs))

    seen_accs = [per_class[c] for c in sorted(split.seen) if c in totals]
    acc_s = float(np.mean(seen_accs)) if seen_accs else None
    h = harmonic_mean(acc_u, acc_s) if acc_s is not None else None

    in_unseen = split.unseen
    if all(t in in_unseen for t in truths) and all(p in in_unseen for p in preds):
        axis = tuple(sorted(split.unseen))
    else:
        axis = tuple(sorted(split.all_classes))
    confusion = _tally(preds, truths, axis)
    return EvalReport(
        per_class_accuracy=per_class,
        acc_u=acc_u,
        acc_s=acc_s,
        h=h,
        confusion=confusion,
        classes=axis,
    )


def evaluate_if_labeled(bundle: DatasetBundle, preds) -> EvalReport | None:
    """Score predictions on the unseen test rows; None when they are unlabeled."""
    truths = list(bundle.test_unseen.labels)
    if any(t == UNLABELED for t in truths):
        return None
    return evaluate(preds, truths, bundle.split)


def confusion_matrix(
    preds,
    truths,
    split: ClassSplit,
    per_class_cap: int | None = None,
    seed: int = 0,
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Unseen-class confusion counts, optionally balanced per true class.

    With a cap, every class contributes exactly ``per_class_cap`` rows:
    sampled without replacement when it has at least that many, with
    replacement otherwise.  Deterministic given ``seed``.
    """
    preds = list(preds)
    truths = list(truths)
    classes = tuple(sorted(split.unseen))
    for i, (p, t) in enumerate(zip(preds, truths)):
        if t not in split.unseen or p not in split.unseen:
            raise ValueError(f"row {i}: labels must be unseen classes")
    if per_class_cap is None:
        return _tally(preds, truths, classes), classes

    if per_class_cap < 1:
        raise ValueError("per_class_cap must be >= 1")
    rng = np.random.default_rng(seed)
    kept_preds: list[str] = []
    kept_truths: list[str] = []
    for cls in classes:
        rows = [i for i, t in enumerate(truths) if t == cls]
        if not rows:
            continue
        if len(rows) >= per_class_cap:
            chosen = rng.choice(len(rows), size=per_class_cap, replace=False)
        else:
            chosen = rng.choice(len(rows), size=per_class_cap, replace=True)
        for j in chosen:
            kept_preds.append(preds[rows[j]])
            kept_truths.append(cls)
    return _tally(kept_preds, kept_truths, classes), classes


def _top_k_indices(values: np.ndarray, k: int, exclude: int) -> set[int]:
    # descending by value, ascending by index; the excluded index is the class itself
    order = sorted(
        (i for i in range(values.size) if i != exclude),
        key=lambda i: (-values[i], i),
    )
    return set(order[:k])


def apr(confusion: np.ndarray, similarity: np.ndarray, k: int) -> float:
    """Mean recall of each class's top-k misclassification targets among its
    top-k most semantically similar classes.

    Classes with no misclassifications have no target ranking and are
    skipped with a warning.
    """
    confusion = np.asarray(confusion)
    c = confusion.shape[0]
    _check_square(confusion, similarity, k, c)
    recalls = []
    skipped = []
    for i in range(c):
        row = confusion[i].astype(np.float64)
        if row.sum() - row[i] == 0:
            skipped.append(i)
            continue
        true_confusing = _top_k_indices(row, k, exclude=i)
        predicted_confusing = _top_k_indices(similarity[i], k, exclude=i)
        recalls.append(len(true_confusing & predicted_confusing) / k)
    if skipped:
        warnings.warn(
            f"classes with no misclassifications skipped: indices {skipped}",
            stacklevel=2,
        )
    if not recalls:
        raise ValueError("recall undefined: every class is perfectly classified")
    return float(np.mean(recalls))


def amr(confusion: np.ndarray, similarity: np.ndarray, k: int) -> float:
    """Mean fraction of each class's misclassifications that land in its
    top-k most semantically similar classes."""
    confusion = np.asarray(confusion)
    c = confusion.shape[0]
    _check_square(confusion, similarity, k, c)
    rates = []
    for i in range(c):
        row = confusion[i].astype(np.float64)
        n_mis = row.sum() - row[i]
        if n_mis == 0:
            continue
        similar = _top_k_indices(similarity[i], k, exclude=i)
        n_similar = sum(row[j] for j in similar)
        rates.append(n_similar / n_mis)
    if not rates:
        raise ValueError("misclassification rate undefined: no misclassifications")
    return float(np.mean(rates))


def _check_square(confusion, similarity, k, c):
    if confusion.shape != (c, c):
        raise ValueError("confusion matrix must be square")
    if np.asarray(similarity).shape != (c, c):
        raise ValueError("similarity matrix must match the confusion matrix")
    if not 1 <= k <= c - 1:
        raise ValueError(f"k must be in [1, {c - 1}], got {k}")


# ---------------------------------------------------------------------------
# hard-class identification quality


@dataclass(frozen=True)
class HardEasyOracle:
    """Accuracy-ranked halves of the unseen classes (ties break on id).

    With an odd class count the extra class goes to the hard half.
    """

    hard: frozenset[str]
    easy: frozenset[str]

    @classmethod
    def from_accuracies(cls, per_class_accuracy: dict[str, float]) -> "HardEasyOracle":
        ranked = sorted(per_class_accuracy, key=lambda c: (per_class_accuracy[c], c))
        half = (len(ranked) + 1) // 2
        return cls(hard=frozenset(ranked[:half]), easy=frozenset(ranked[half:]))


@dataclass(frozen=True)
class IdentificationQuality:
    recall_of_true_hard: float
    apa_hard: float | None
    apa_easy: float | None
    app_hard: float | None
    app_easy: float | None
    skipped_precision: tuple[str, ...]  # classes never predicted


def identification_quality(
    predicted_hard, report: EvalReport
) -> IdentificationQuality:
    """Compare a predicted hard-class set against the accuracy-ranked truth.

    APA is the mean per-class accuracy inside each predicted group; APP is
    the mean per-class precision (confusion column-wise), skipping classes
    with no predicted positives.
    """
    all_classes = set(report.classes)
    predicted_hard = set(predicted_hard)
    unknown = sorted(predicted_hard - all_classes)
    if unknown:
        raise ValueError(f"predicted hard class {unknown[0]!r} was not evaluated")
    oracle = HardEasyOracle.from_accuracies(
        {c: report.per_class_accuracy.get(c, 0.0) for c in report.classes}
    )
    predicted_easy = all_classes - predicted_hard

    recall = len(predicted_hard & oracle.hard) / len(oracle.hard)

    col_totals = report.confusion.sum(axis=0)
    diag = np.diag(report.confusion)
    precision = {}
    skipped = []
    for i, cls in enumerate(report.classes):
        if col_totals[i] == 0:
            skipped.append(cls)
        else:
            precision[cls] = diag[i] / col_totals[i]

    def group_mean(group, table):
        values = [table[c] for c in sorted(group) if c in table]
        return float(np.mean(values)) if values else None

    acc = {c: report.per_class_accuracy.get(c, 0.0) for c in report.classes}
    return IdentificationQuality(
        recall_of_true_hard=float(recall),
        apa_hard=group_mean(predicted_hard, acc),
        apa_easy=group_mean(predicted_easy, acc),
        app_hard=group_mean(predicted_hard, precision),
        app_easy=group_mean(predicted_easy, precision),
        skipped_precision=tuple(sorted(skipped)),
    )


# ---------------------------------------------------------------------------
# contrastive easy/hard training-emphasis study


GROUP_NAMES = ("easy-weighted", "hard-weighted", "uniform")


def _split_evenly(total: int, classes: list[str]) -> dict[str, int]:
    """``total`` rows over ``classes``: ``total // C`` each, one more for the first ``total % C``."""
    share, extra = divmod(total, len(classes))
    return {c: share + (i < extra) for i, c in enumerate(classes)}


def contrastive_analysis(
    bundle: DatasetBundle,
    setting: str,
    n: int,
    seed: int,
    base: str = "generative",
    ridge: float = 0.1,
    classifier: ClassifierConfig = ClassifierConfig(),
    oracle: HardEasyOracle | None = None,
) -> dict[str, EvalReport]:
    """Train with easy-, hard-, and uniformly-weighted class emphasis.

    ``setting="inductive"`` varies how many samples are *synthesized* per
    class (2n per emphasized-group class, n otherwise, 1.5n uniform) and
    trains one classifier per group; ``base`` must be generative.
    ``setting="transductive"`` adds *real* truth-labeled unseen rows to the
    seen training set (n per emphasized-group class, n/2 uniform) and refits
    the base model with :func:`~hardboost.models.fit_predict_unseen`, the
    refit ``harst`` uses, so each added row counts once for either base.
    The uniform group's total, ``3*n*C // 2`` synthesized or ``n*C // 2`` real
    rows over ``C`` classes, is split evenly, the first ``total % C`` classes
    by id taking one row more, so all three groups have equal sample budgets
    whenever the halves are equal, odd ``n`` included.
    Without ``oracle``, the halves come from the same refit with no added
    rows.
    """
    if n < 1:
        raise ValueError("group size must be >= 1 (no training data otherwise)")
    if setting not in {"inductive", "transductive"}:
        raise ValueError(f"unknown setting {setting!r}")
    if setting == "inductive" and base != "generative":
        raise ValueError("the inductive study varies synthesis counts; base must be generative")
    classes = sorted(bundle.split.unseen)
    truths = list(bundle.test_unseen.labels)
    if UNLABELED in truths:
        raise ValueError("contrastive analysis needs true labels on the test rows")
    if oracle is None:
        preds = fit_predict_unseen(bundle, [], base, classes, ridge, n, classifier, seed, "oracle-gen")
        baseline = evaluate(preds, truths, bundle.split)
        oracle = HardEasyOracle.from_accuracies(
            {c: baseline.per_class_accuracy.get(c, 0.0) for c in classes}
        )

    group_counts = {
        "easy-weighted": {c: 2 * n if c in oracle.easy else n for c in classes},
        "hard-weighted": {c: 2 * n if c in oracle.hard else n for c in classes},
        "uniform": _split_evenly(3 * n * len(classes) // 2, classes),
    }
    reports: dict[str, EvalReport] = {}

    if setting == "inductive":
        gen = fit_generator(bundle.train_seen, bundle.semantics, ridge)
        for name in GROUP_NAMES:
            feats, labels = sample_per_class(
                gen, bundle.semantics, group_counts[name], seed, "group-gen", name
            )
            model = fit_classifier(feats, labels, classes, classifier)
            preds = predict_classifier_batch(model, bundle.test_unseen.features)
            reports[name] = evaluate(preds, truths, bundle.split)
        return reports

    real_counts = {
        "easy-weighted": {c: n if c in oracle.easy else 0 for c in classes},
        "hard-weighted": {c: n if c in oracle.hard else 0 for c in classes},
        "uniform": _split_evenly(n * len(classes) // 2, classes),
    }
    by_class = {c: bundle.test_unseen.rows_for(c) for c in classes}
    for name in GROUP_NAMES:
        selected = []
        for idx, cls in enumerate(classes):
            count = real_counts[name][cls]
            if count == 0:
                continue
            pool = by_class[cls]
            if pool.size == 0:
                raise ValueError(f"class {cls!r} has no test rows to draw from")
            rng = np.random.default_rng(child_seed(seed, "group-real", name, idx))
            if count <= len(pool):
                chosen = rng.choice(len(pool), size=count, replace=False)
            else:
                warnings.warn(
                    f"class {cls!r} has {len(pool)} rows, sampling {count} with replacement",
                    stacklevel=2,
                )
                chosen = rng.choice(len(pool), size=count, replace=True)
            selected.extend((row, cls) for row in pool[chosen])
        preds = fit_predict_unseen(
            bundle, selected, base, classes, ridge, n, classifier, seed, "group-clf", name
        )
        reports[name] = evaluate(preds, truths, bundle.split)
    return reports
