"""Per-class hardness scores and hard-class ranking.

Two families of scores are supported:

* a semantic margin for the inductive setting: the cosine distance from an
  unseen class to its nearest other unseen class, minus the mean of its
  three smallest cosine distances to seen classes.  Classes that sit close
  to another unseen class while far from every seen class score low and are
  ranked hard.
* pseudo-label class frequencies for the transductive setting: classes a
  model rarely predicts are ranked hard, optionally after dividing each
  frequency by the class prior to correct for unbalanced data.  A bundle
  without priors gets them from :func:`estimate_class_priors`: k-means whose
  centers start at the pseudo-label class means, with no random start.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .data import (
    ClassSplit,
    DataError,
    FeatureTable,
    SemanticTable,
    atomic_write_text,
    dump_json,
    is_json_number,
    load_json,
)
from .models import nearest_rows

#: seen-side distances averaged per unseen class
NEAR_SEEN_COUNT = 3


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    """1 - cosine similarity, in [0, 2]."""
    return cosine_distances(a, [b])[0]


def cosine_distances(a: np.ndarray, others) -> list[float]:
    """:func:`cosine_distance` from ``a`` to each vector of ``others``, in
    their order, with each vector's norm computed once."""
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    na = np.linalg.norm(a)
    distances = []
    for b in others:
        b = np.asarray(b, dtype=np.float64).reshape(-1)
        if a.size != b.size:
            raise ValueError(f"dimension mismatch: {a.size} vs {b.size}")
        nb = np.linalg.norm(b)
        if na == 0.0 or nb == 0.0:
            raise ValueError("cosine distance undefined for a zero vector")
        distances.append(float(1.0 - np.dot(a, b) / (na * nb)))
    return distances


def _unit_rows(matrix: np.ndarray, class_ids) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValueError(
            f"cosine distance undefined: class {class_ids[zero[0]]!r} has a zero vector"
        )
    return matrix / norms[:, None]


def semantic_similarity_matrix(semantics: SemanticTable, class_ids) -> np.ndarray:
    """Pairwise cosine similarity of the given classes, in their order."""
    class_ids = list(class_ids)
    units = _unit_rows(semantics.matrix(class_ids), class_ids)
    return units @ units.T


def ss_scores(semantics: SemanticTable, split: ClassSplit) -> dict[str, float]:
    """Semantic hardness margin per unseen class; lower means harder."""
    unseen = sorted(split.unseen)
    seen = sorted(split.seen)
    if len(unseen) < 2:
        raise ValueError("semantic hardness needs at least 2 unseen classes")
    if len(seen) < NEAR_SEEN_COUNT:
        warnings.warn(
            f"only {len(seen)} seen classes; averaging all seen distances "
            f"instead of the {NEAR_SEEN_COUNT} smallest",
            stacklevel=2,
        )
    u_units = _unit_rows(semantics.matrix(unseen), unseen)
    s_units = _unit_rows(semantics.matrix(seen), seen)

    dist_uu = 1.0 - u_units @ u_units.T
    np.fill_diagonal(dist_uu, np.inf)
    nearest_unseen = dist_uu.min(axis=1)

    dist_us = 1.0 - u_units @ s_units.T
    k = min(NEAR_SEEN_COUNT, len(seen))
    near_seen = np.sort(dist_us, axis=1)[:, :k].mean(axis=1)

    margins = nearest_unseen - near_seen
    return {cls: float(margins[i]) for i, cls in enumerate(unseen)}


def rank_hard(scores: dict[str, float], k: int) -> list[str]:
    """The ``k`` lowest-scoring classes, ascending; ties break on class id."""
    if not 1 <= k <= len(scores):
        raise ValueError(f"k must be in [1, {len(scores)}], got {k}")
    ordered = sorted(scores, key=lambda cls: (scores[cls], cls))
    return ordered[:k]


def pseudo_label_histogram(
    pseudo_labels, split: ClassSplit
) -> dict[str, int]:
    """Occurrences of each unseen class among the pseudo labels.

    Classes never predicted get count 0; counts sum to ``len(pseudo_labels)``.
    """
    counts = Counter(pseudo_labels)
    unknown = sorted(set(counts) - split.unseen)
    if unknown:
        raise ValueError(f"pseudo label {unknown[0]!r} is not an unseen class")
    return {cls: counts.get(cls, 0) for cls in sorted(split.unseen)}


def normalize_by_prior(
    freqs: dict[str, int | float], priors: dict[str, float]
) -> dict[str, float]:
    """Divide each class frequency by its prior."""
    if set(freqs) != set(priors):
        missing = sorted(set(freqs) ^ set(priors))
        raise ValueError(f"frequency and prior keys differ on {missing}")
    for cls in sorted(priors):
        if not priors[cls] > 0.0:
            raise ValueError(f"prior for class {cls!r} must be > 0, got {priors[cls]}")
    return {cls: freqs[cls] / priors[cls] for cls in sorted(freqs)}


def frequency_hardness(
    pseudo_labels,
    split: ClassSplit,
    metric: str,
    k: int,
    priors: dict[str, float] | None = None,
) -> HardnessReport:
    """``cf`` hardness scores each unseen class by its pseudo-label count,
    ``pncf`` by that count over its prior.  Seen-class labels, which
    predictions over all classes contain, are dropped; a label outside the
    split raises."""
    pseudo_labels = list(pseudo_labels)
    unknown = sorted(set(pseudo_labels) - split.all_classes)
    if unknown:
        raise ValueError(f"pseudo label {unknown[0]!r} is not a class of the split")
    freqs = pseudo_label_histogram([l for l in pseudo_labels if l in split.unseen], split)
    if metric == "pncf":
        if priors is None:
            raise ValueError("prior-normalized selection needs class priors")
        scores = normalize_by_prior(freqs, priors)
    elif metric == "cf":
        scores = {c: float(v) for c, v in freqs.items()}
    else:
        raise ValueError(f"unknown metric {metric!r}")
    return HardnessReport.from_scores(metric, scores, k)


def estimate_class_priors(
    unlabeled: FeatureTable, split: ClassSplit, pseudo_labels
) -> dict[str, float]:
    """Estimate unseen-class priors from cluster proportions.

    Runs Lloyd's k-means with one center per unseen class, in sorted class
    order, on the unlabeled features.  Center j starts at the mean of the
    rows whose pseudo label (one per row) is class j, so cluster j stands
    for class j throughout; this is the prototype-matched seeding of
    transductive ZSL (Wan et al. 2019, arXiv:1901.01570).  The cost of tying
    the clusters to the labels: a class the pseudo labels never name starts
    at the mean of all rows, with no pull toward its own rows.
    Each row goes to its nearest center through
    :func:`~hardboost.models.nearest_rows`, which returns the exact
    squared-distance argmin with ties broken on the lower center index.  A
    cluster left empty keeps its center.  The loop stops when the
    assignments repeat, or after 100 rounds.  Priors are smoothed
    cluster-size proportions (one phantom sample added per class before
    normalizing).  There is no random start, so the estimate is
    deterministic.
    The clustering runs on the float32 table: each float64 center is
    averaged from its own rows, widened first, and the mean of all rows is
    summed by numpy's buffered reduction, which widens a few rows at a time,
    so no float64 copy of the table is made.
    """
    if unlabeled.n == 0:
        raise ValueError("cannot estimate priors from an empty table")
    classes = sorted(split.unseen)
    c = len(classes)
    if c == 1:
        return {classes[0]: 1.0}
    if len(pseudo_labels) != unlabeled.n:
        raise ValueError("one pseudo label per unlabeled row is required")
    x = unlabeled.features
    if x.shape[0] < c:
        raise ValueError(f"{x.shape[0]} samples cannot form {c} clusters")

    index = {cls: j for j, cls in enumerate(classes)}
    # a row labelled with a seen class (index c) starts in no cluster
    assign = np.array([index.get(l, c) for l in pseudo_labels])
    centers = np.tile(x.mean(axis=0, dtype=np.float64), (c, 1))
    for _ in range(100):
        for j in range(c):
            members = assign == j
            if members.any():
                centers[j] = x[members].astype(np.float64).mean(axis=0)
        new_assign = nearest_rows(x, centers)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    smoothed = np.bincount(assign, minlength=c) + 1.0
    priors = smoothed / smoothed.sum()
    return {cls: float(priors[i]) for i, cls in enumerate(classes)}


@dataclass(frozen=True)
class HardnessReport:
    """Scores plus the ranked hard-class prefix for one metric."""

    metric: str
    scores: dict[str, float]
    hard: tuple[str, ...]
    k: int

    def __post_init__(self):
        if self.metric not in {"ss", "cf", "pncf"}:
            raise ValueError(f"unknown hardness metric {self.metric!r}")
        object.__setattr__(self, "hard", tuple(self.hard))
        if len(self.hard) != self.k or len(set(self.hard)) != self.k:
            raise ValueError(f"hard list must contain exactly {self.k} distinct classes")

    @classmethod
    def from_scores(cls, metric: str, scores: dict[str, float], k: int) -> "HardnessReport":
        return cls(metric=metric, scores=dict(scores), hard=tuple(rank_hard(scores, k)), k=k)

    def to_json_dict(self) -> dict:
        return {
            "metric": self.metric,
            "scores": {c: float(v) for c, v in sorted(self.scores.items())},
            "hard": list(self.hard),
            "K": self.k,
        }

    def write_json(self, path) -> None:
        atomic_write_text(path, dump_json(self.to_json_dict()))

    @classmethod
    def read_json(cls, path) -> "HardnessReport":
        obj = load_json(path)
        for key, kind in {"metric": str, "scores": dict, "hard": list, "K": int}.items():
            value = obj.get(key) if isinstance(obj, dict) else None
            if isinstance(value, bool) or not isinstance(value, kind):
                raise DataError(f"{path}: {key} must be of type {kind.__name__}, got {value!r}")
        if not all(isinstance(c, str) for c in obj["hard"]):
            raise DataError(f"{path}: hard must list class ids, got {obj['hard']!r}")
        if not all(is_json_number(v) for v in obj["scores"].values()):
            raise DataError(f"{path}: scores must be numbers, got {obj['scores']!r}")
        scores = {c: float(v) for c, v in obj["scores"].items()}
        return cls(metric=obj["metric"], scores=scores, hard=tuple(obj["hard"]), k=obj["K"])
