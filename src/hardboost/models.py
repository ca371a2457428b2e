"""Reference base models: linear embedder, Gaussian generator, softmax classifier.

The boosting pipelines are model-agnostic; these are the simplest members of
each interface, chosen so every fit is closed-form or plain gradient descent
and therefore exactly reproducible.

* ``EmbeddingModel`` ridge-regresses class-mean visual features onto
  semantic vectors, each class weighted by a row count (one per class in
  :func:`fit_embedding`), and classifies by nearest mapped prototype.
* ``GenerativeModel`` maps a semantic vector to a class mean and samples
  around it with a shared diagonal covariance.
* ``Classifier`` is multinomial logistic regression trained by full-batch
  (optionally mini-batch) gradient descent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import FeatureTable, SemanticTable
from .rng import child_seed

COVARIANCE_FLOOR = 1e-6


class SingularFitError(ValueError):
    """Normal equations were singular; a positive ridge is required."""


def _class_means(
    table: FeatureTable, semantics: SemanticTable
) -> tuple[list[str], np.ndarray, np.ndarray]:
    labels = sorted(set(table.labels))
    if not labels:
        raise ValueError("cannot fit on an empty table")
    feats = table.features.astype(np.float64)
    means = []
    for cls in labels:
        if cls not in semantics:
            raise ValueError(f"training label {cls!r} has no semantic vector")
        rows = table.rows_for(cls)
        means.append(feats[rows].mean(axis=0))
    return labels, np.stack(means), semantics.matrix(labels)


def _ridge_solve(design: np.ndarray, targets: np.ndarray, ridge: float) -> np.ndarray:
    """Least-squares map ``design -> targets``; returns (target_dim, s)."""
    gram = design.T @ design + ridge * np.eye(design.shape[1])
    rhs = design.T @ targets
    try:
        coeff_t = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        raise SingularFitError(
            "normal equations are singular; refit with ridge > 0"
        ) from None
    if not np.isfinite(coeff_t).all():
        raise SingularFitError("normal equations are singular; refit with ridge > 0")
    return coeff_t.T


# ---------------------------------------------------------------------------
# embedding model


@dataclass(frozen=True)
class EmbeddingModel:
    """Linear semantic-to-visual map with bias, fitted on class means."""

    weights: np.ndarray  # (v, s)
    bias: np.ndarray  # (v,)
    ridge: float

    def prototype(self, e: np.ndarray) -> np.ndarray:
        return self.weights @ np.asarray(e, dtype=np.float64) + self.bias


def fit_embedding(
    train: FeatureTable, semantics: SemanticTable, ridge: float = 0.0
) -> EmbeddingModel:
    """Closed-form ridge fit of class-mean features on semantic vectors."""
    _, means, sem = _class_means(train, semantics)
    return fit_embedding_means(sem, means, np.ones(len(means)), ridge)


def fit_embedding_means(
    sem: np.ndarray, means: np.ndarray, counts: np.ndarray, ridge: float = 0.0
) -> EmbeddingModel:
    """Ridge fit of class-mean features on class semantic vectors, class ``k``
    weighted by ``counts[k]``.

    This equals the fit over ``counts[k]`` (semantic vector, row) pairs per
    class whose rows average to ``means[k]``: centred on the count-weighted
    means, each class enters the normal equations ``counts[k]`` times, so
    its centred rows are scaled by ``sqrt(counts[k])`` instead of repeated.
    :func:`fit_embedding` is the case of one count per class.
    """
    if ridge < 0:
        raise ValueError("ridge must be >= 0")
    sem = np.asarray(sem, dtype=np.float64)
    means = np.asarray(means, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 1 or not 0 < counts.size == sem.shape[0] == means.shape[0]:
        raise ValueError("need one semantic row and one count per class mean")
    if not (np.isfinite(counts).all() and (counts > 0).all()):
        raise ValueError("class counts must be finite and > 0")
    weight = counts[:, None]
    total = counts.sum()
    sem_center = (sem * weight).sum(axis=0) / total
    target_center = (means * weight).sum(axis=0) / total
    scale = np.sqrt(weight)
    weights = _ridge_solve(
        (sem - sem_center) * scale, (means - target_center) * scale, ridge
    )
    bias = target_center - weights @ sem_center
    return EmbeddingModel(weights=weights, bias=bias, ridge=float(ridge))


def _prototype_matrix(
    model: EmbeddingModel, candidates, semantics: SemanticTable
) -> tuple[list[str], np.ndarray]:
    cand = sorted(candidates)
    if not cand:
        raise ValueError("candidate set is empty")
    protos = semantics.matrix(cand) @ model.weights.T + model.bias
    return cand, protos


def nearest_rows(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of the nearest center (squared Euclidean) for each row of ``x``.

    The result is exactly the argmin of the direct form
    ``((x[i] - centers) ** 2).sum(axis=1)``, ties included: they break on the
    lower center index.  Distances are screened with the GEMM form
    ``|x|^2 - 2 x.c + |c|^2``.  Both forms err by at most
    ``(v + 2) * eps * (|x| + max|c|)^2`` per entry, so a row whose best and
    second-best screened distances lie within four times that bound is
    re-decided by the direct form.  Memory is one ``(n, c)`` matrix plus one
    ``(c, v)`` block per re-decided row.

    The re-check is a Python loop over rows, and its tolerance grows with the
    squared norms, not with the distances.  Rows far from the origin relative
    to their spread, exact midpoints, and duplicated centers (every row ties
    between the copies) all take the slow per-row path: the answer stays
    exact, but the cost approaches that of a per-row scan.
    """
    x = np.asarray(x, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    if x.ndim != 2 or centers.ndim != 2 or x.shape[1] != centers.shape[1]:
        raise ValueError(
            f"need (n, v) rows and (c, v) centers, got {x.shape} and {centers.shape}"
        )
    if centers.shape[0] == 0:
        raise ValueError("need at least one center")
    if centers.shape[0] == 1:
        return np.zeros(x.shape[0], dtype=np.intp)
    x_sq = np.einsum("ij,ij->i", x, x)
    c_sq = np.einsum("ij,ij->i", centers, centers)
    d2 = np.add.outer(x_sq, c_sq)
    d2 -= 2.0 * (x @ centers.T)
    picks = d2.argmin(axis=1)
    two_best = np.partition(d2, 1, axis=1)
    gap = two_best[:, 1] - two_best[:, 0]
    scale = np.sqrt(x_sq) + np.sqrt(c_sq.max())
    tol = 4.0 * (x.shape[1] + 2) * np.finfo(np.float64).eps * scale**2
    # a screen that may have overflowed has tol = inf; ``not >`` also catches nan
    for i in np.flatnonzero(~(gap > tol)):
        picks[i] = ((x[i] - centers) ** 2).sum(axis=1).argmin()
    return picks


def classify_embedding(
    model: EmbeddingModel, x: np.ndarray, candidates, semantics: SemanticTable
) -> str:
    """Nearest mapped prototype among the candidates; ties break on class id."""
    return classify_embedding_batch(model, np.reshape(x, (1, -1)), candidates, semantics)[0]


def classify_embedding_batch(
    model: EmbeddingModel, features: np.ndarray, candidates, semantics: SemanticTable
) -> list[str]:
    cand, protos = _prototype_matrix(model, candidates, semantics)
    return [cand[i] for i in nearest_rows(features, protos)]


# ---------------------------------------------------------------------------
# generative model


@dataclass(frozen=True)
class GenerativeModel:
    """Semantic-conditioned Gaussian with shared diagonal covariance."""

    coeff: np.ndarray  # (v, s)
    covariance: np.ndarray  # (v,), strictly positive
    ridge: float

    def class_mean(self, e: np.ndarray) -> np.ndarray:
        return self.coeff @ np.asarray(e, dtype=np.float64)


def fit_generator(
    train: FeatureTable,
    semantics: SemanticTable,
    ridge: float = 0.0,
    synth=None,
) -> GenerativeModel:
    """Ridge-regress group means on semantic vectors; pool residual variance.

    Real classes form one group each (their class mean against the class
    semantic vector).  Synthesized rows, which carry continuous interpolated
    semantic vectors, group by exact semantic vector -- typically singleton
    groups that shape the map without contributing scatter.  The shared
    covariance is the within-group variance pooled over all rows with a
    degrees-of-freedom correction, floored at ``COVARIANCE_FLOOR``.
    """
    if ridge < 0:
        raise ValueError("ridge must be >= 0")
    _, means, sem = _class_means(train, semantics)
    group_sems = [sem]
    group_means = [means]
    sq_dev = np.zeros(train.dim, dtype=np.float64)
    n_rows = train.n
    n_groups = sem.shape[0]
    feats = train.features.astype(np.float64)
    for cls_idx, cls in enumerate(sorted(set(train.labels))):
        rows = feats[train.rows_for(cls)]
        sq_dev += ((rows - means[cls_idx]) ** 2).sum(axis=0)

    if synth is not None and len(synth) > 0:
        if synth.semantics.shape[1] != semantics.dim:
            raise ValueError(
                f"synthesized semantic dimension {synth.semantics.shape[1]} "
                f"!= table dimension {semantics.dim}"
            )
        sem_rows = synth.semantics.astype(np.float64)
        feat_rows = synth.features.astype(np.float64)
        groups: dict[bytes, list[int]] = {}
        for i in range(len(synth)):
            groups.setdefault(sem_rows[i].tobytes(), []).append(i)
        for key in groups:
            members = feat_rows[groups[key]]
            mean = members.mean(axis=0)
            group_sems.append(sem_rows[groups[key][0]][None, :])
            group_means.append(mean[None, :])
            sq_dev += ((members - mean) ** 2).sum(axis=0)
        n_rows += len(synth)
        n_groups += len(groups)

    design = np.concatenate(group_sems)
    targets = np.concatenate(group_means)
    coeff = _ridge_solve(design, targets, ridge)
    dof = max(n_rows - n_groups, 1)
    covariance = np.maximum(sq_dev / dof, COVARIANCE_FLOOR)
    return GenerativeModel(coeff=coeff, covariance=covariance, ridge=float(ridge))


def sample_generator(
    model: GenerativeModel, e: np.ndarray, n: int, seed: int
) -> np.ndarray:
    """Draw ``n`` feature vectors conditioned on semantic vector ``e``."""
    if n < 0:
        raise ValueError("sample count must be >= 0")
    v = model.coeff.shape[0]
    if n == 0:
        return np.empty((0, v), dtype=np.float64)
    rng = np.random.default_rng(seed)
    mean = model.class_mean(e)
    return mean + rng.standard_normal((n, v)) * np.sqrt(model.covariance)


def sample_per_class(
    model: GenerativeModel, semantics: SemanticTable, counts: dict[str, int], seed: int, *stream
) -> tuple[np.ndarray, list[str]]:
    """Draw ``counts[cls]`` rows per class, classes in the dict's order.

    Class ``i`` of ``counts`` draws from ``child_seed(seed, *stream, i)``, so
    each class owns a substream.  Returns the stacked rows and one label per row.
    """
    parts = [
        sample_generator(model, semantics[cls], n, child_seed(seed, *stream, i))
        for i, (cls, n) in enumerate(counts.items())
    ]
    labels = [cls for cls, n in counts.items() for _ in range(n)]
    return np.concatenate(parts), labels


# ---------------------------------------------------------------------------
# softmax classifier


@dataclass(frozen=True)
class ClassifierConfig:
    learning_rate: float = 0.1
    epochs: int = 200
    batch_size: int | None = None  # None = full batch
    seed: int = 0


@dataclass(frozen=True)
class Classifier:
    classes: tuple[str, ...]
    weights: np.ndarray  # (n_classes, v)
    bias: np.ndarray  # (n_classes,)
    config: ClassifierConfig
    loss_history: tuple[float, ...] = field(default=(), repr=False)

    def logits(self, features: np.ndarray) -> np.ndarray:
        feats = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if feats.shape[1] != self.weights.shape[1]:
            raise ValueError(
                f"feature dimension {feats.shape[1]} != model dimension "
                f"{self.weights.shape[1]}"
            )
        return feats @ self.weights.T + self.bias


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def cross_entropy_and_grad(
    weights: np.ndarray,
    bias: np.ndarray,
    features: np.ndarray,
    label_idx: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy of softmax(features @ W.T + b) and its gradients."""
    probs = _softmax(features @ weights.T + bias)
    n = features.shape[0]
    picked = probs[np.arange(n), label_idx]
    loss = float(-np.log(np.maximum(picked, 1e-300)).mean())
    probs[np.arange(n), label_idx] -= 1.0
    probs /= n
    return loss, probs.T @ features, probs.sum(axis=0)


def fit_classifier(
    features: np.ndarray,
    labels,
    classes=None,
    config: ClassifierConfig = ClassifierConfig(),
) -> Classifier:
    """Gradient-descent softmax regression; deterministic given the seed."""
    feats = np.asarray(features, dtype=np.float64)
    labels = list(labels)
    if feats.ndim != 2 or feats.shape[0] == 0:
        raise ValueError("training data must be a non-empty 2-D array")
    if len(labels) != feats.shape[0]:
        raise ValueError("one label per training row is required")
    class_list = sorted(set(labels)) if classes is None else sorted(classes)
    index = {cls: i for i, cls in enumerate(class_list)}
    unknown = sorted(set(labels) - set(index))
    if unknown:
        raise ValueError(f"label {unknown[0]!r} is not in the class set")
    y = np.asarray([index[l] for l in labels])

    n, v = feats.shape
    weights = np.zeros((len(class_list), v))
    bias = np.zeros(len(class_list))
    rng = np.random.default_rng(config.seed)
    history = []

    def full_loss() -> float:
        probs = _softmax(feats @ weights.T + bias)
        return float(-np.log(np.maximum(probs[np.arange(n), y], 1e-300)).mean())

    for epoch in range(config.epochs):
        if config.batch_size is None or config.batch_size >= n:
            loss, gw, gb = cross_entropy_and_grad(weights, bias, feats, y)
            history.append(loss)
            weights = weights - config.learning_rate * gw
            bias = bias - config.learning_rate * gb
        else:
            history.append(full_loss())
            order = rng.permutation(n)
            for start in range(0, n, config.batch_size):
                chunk = order[start : start + config.batch_size]
                _, gw, gb = cross_entropy_and_grad(weights, bias, feats[chunk], y[chunk])
                weights = weights - config.learning_rate * gw
                bias = bias - config.learning_rate * gb
        if not (np.isfinite(history[-1]) and np.isfinite(weights).all()):
            raise ValueError(
                f"training diverged at epoch {epoch}; lower the learning rate"
            )
    history.append(full_loss())
    if not np.isfinite(history[-1]):
        raise ValueError(
            f"training diverged at epoch {config.epochs - 1}; lower the learning rate"
        )
    return Classifier(
        classes=tuple(class_list),
        weights=weights,
        bias=bias,
        config=config,
        loss_history=tuple(history),
    )


def predict_proba(model: Classifier, features: np.ndarray) -> np.ndarray:
    return _softmax(model.logits(features))


def predict_classifier(model: Classifier, x: np.ndarray) -> str:
    """Highest-logit class; ties break on class id (classes are sorted)."""
    return predict_classifier_batch(model, np.reshape(x, (1, -1)))[0]


def predict_classifier_batch(model: Classifier, features: np.ndarray) -> list[str]:
    picks = model.logits(features).argmax(axis=1)
    return [model.classes[i] for i in picks]

