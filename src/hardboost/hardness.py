"""Per-class hardness scores and hard-class ranking.

Two families of scores are supported:

* a semantic margin for the inductive setting: the cosine distance from an
  unseen class to its nearest other unseen class, minus the mean of its
  three smallest cosine distances to seen classes.  Classes that sit close
  to another unseen class while far from every seen class score low and are
  ranked hard.
* pseudo-label class frequencies for the transductive setting: classes a
  model rarely predicts are ranked hard, optionally after dividing each
  frequency by the class prior to correct for unbalanced data.
"""

from __future__ import annotations

import json
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import ClassSplit, FeatureTable, SemanticTable, atomic_write_text, dump_json
from .models import nearest_rows
from .rng import substream

#: seen-side distances averaged per unseen class
NEAR_SEEN_COUNT = 3


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    """1 - cosine similarity, in [0, 2]."""
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if a.size != b.size:
        raise ValueError(f"dimension mismatch: {a.size} vs {b.size}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine distance undefined for a zero vector")
    return float(1.0 - np.dot(a, b) / (na * nb))


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


def estimate_class_priors(
    unlabeled: FeatureTable,
    split: ClassSplit,
    seed: int,
    pseudo_labels=None,
    max_restarts: int = 10,
) -> dict[str, float]:
    """Estimate unseen-class priors from cluster proportions.

    Runs Lloyd's k-means with one center per unseen class on the unlabeled
    features; priors are smoothed cluster-size proportions (one phantom
    sample added per class before normalizing).  When ``pseudo_labels`` is
    given (one per row), each cluster is attributed to its majority pseudo
    label, tying cluster mass to a concrete class; otherwise proportions are
    assigned in descending order to the lexicographically sorted classes.
    Each row goes to its nearest center through
    :func:`~hardboost.models.nearest_rows`, which returns the exact
    squared-distance argmin with ties broken on the lower center index.
    Deterministic given ``seed``; empty clusters trigger a restart.
    """
    if unlabeled.n == 0:
        raise ValueError("cannot estimate priors from an empty table")
    classes = sorted(split.unseen)
    c = len(classes)
    if c == 1:
        return {classes[0]: 1.0}
    if pseudo_labels is not None and len(pseudo_labels) != unlabeled.n:
        raise ValueError("one pseudo label per unlabeled row is required")
    x = unlabeled.features.astype(np.float64)
    m = x.shape[0]
    if m < c:
        raise ValueError(f"{m} samples cannot form {c} clusters")

    rng = substream(seed, "prior-estimation")
    assign = None
    for _ in range(max_restarts):
        centers = x[rng.choice(m, size=c, replace=False)]
        assign = None
        for _ in range(100):
            new_assign = nearest_rows(x, centers)
            if np.unique(new_assign).size < c:
                assign = None
                break
            centers = np.stack([x[new_assign == j].mean(axis=0) for j in range(c)])
            if assign is not None and np.array_equal(new_assign, assign):
                break
            assign = new_assign
        if assign is not None:
            break
    if assign is None:
        raise ValueError(
            f"clustering degenerated to an empty cluster {max_restarts} times"
        )

    sizes = np.bincount(assign, minlength=c)
    if pseudo_labels is not None:
        mass = {cls: 0 for cls in classes}
        labels = list(pseudo_labels)
        for j in range(c):
            members = [labels[i] for i in np.flatnonzero(assign == j)]
            votes = Counter(l for l in members if l in split.unseen)
            if votes:
                winner = sorted(votes, key=lambda cls: (-votes[cls], cls))[0]
                mass[winner] += int(sizes[j])
        smoothed = np.asarray([mass[cls] + 1 for cls in classes], dtype=np.float64)
    else:
        smoothed = np.sort(sizes)[::-1].astype(np.float64) + 1.0
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
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls(
            metric=obj["metric"],
            scores={str(c): float(v) for c, v in obj["scores"].items()},
            hard=tuple(obj["hard"]),
            k=int(obj["K"]),
        )
