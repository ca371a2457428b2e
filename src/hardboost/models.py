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
  (optionally mini-batch) gradient descent.  Every step of a fit runs one
  kernel, :func:`_loss_and_grad_into`, in two softmax buffers allocated once
  per fit, and updates the parameters in place.  Its results are bit-equal
  to the direct form, ``_softmax(feats @ weights.T + bias)`` in fresh arrays.

:func:`fit_predict_unseen` is the transductive refit that ``harst`` and the
contrastive study share: fit either base on the seen training rows plus
selected (test row, label) pairs, then label every unseen test row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import DatasetBundle, FeatureTable, SemanticTable
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
    means = []
    for cls in labels:
        if cls not in semantics:
            raise ValueError(f"training label {cls!r} has no semantic vector")
        means.append(table.features[table.rows_for(cls)].astype(np.float64).mean(axis=0))
    return labels, np.stack(means), semantics.matrix(labels)


def _ridge_solve(
    design: np.ndarray, targets: np.ndarray, ridge: float, rank: int | None = None
) -> np.ndarray:
    """Least-squares map ``design -> targets``; returns (target_dim, s).

    ``rank`` bounds the rank of ``design`` (default: its row count); below
    ``s``, ridge 0 is singular even where rounding hides it from the solver.
    """
    s = design.shape[1]
    if ridge == 0 and (design.shape[0] if rank is None else rank) < s:
        raise SingularFitError("normal equations are singular; refit with ridge > 0")
    try:
        coeff_t = np.linalg.solve(design.T @ design + ridge * np.eye(s), design.T @ targets)
    except np.linalg.LinAlgError:
        raise SingularFitError("normal equations are singular; refit with ridge > 0") from None
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
    # centring removes one dimension: c classes span at most c - 1
    weights = _ridge_solve(
        (sem - sem_center) * scale, (means - target_center) * scale, ridge, len(counts) - 1
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


def classify_embedding_batch(
    model: EmbeddingModel, features: np.ndarray, candidates, semantics: SemanticTable
) -> list[str]:
    """Nearest mapped prototype among the candidates; ties break on class id."""
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

    Every synthesized semantic vector mixes the vectors of its two source
    classes, so the design's rank is at most the number of distinct real
    classes among the training labels and the synthesized rows' sources;
    ridge 0 below the semantic dimension raises ``SingularFitError``.
    """
    if ridge < 0:
        raise ValueError("ridge must be >= 0")
    labels, means, sem = _class_means(train, semantics)
    group_sems = [sem]
    group_means = [means]
    sq_dev = np.zeros(train.dim, dtype=np.float64)
    n_rows = train.n
    n_groups = sem.shape[0]
    classes = set(labels)
    feats = train.features.astype(np.float64)
    for cls_idx, cls in enumerate(labels):
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
        classes.update(synth.source_classes.ravel().tolist())

    design = np.concatenate(group_sems)
    targets = np.concatenate(group_means)
    coeff = _ridge_solve(design, targets, ridge, min(n_groups, len(classes)))
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

    def __post_init__(self):
        # each of these would train nothing, or train away from the labels
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate!r}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs!r}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch_size must be null or >= 1, got {self.batch_size!r}")


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


def _probs_into(
    weights: np.ndarray, bias: np.ndarray, feats: np.ndarray,
    buf: np.ndarray, buf_t: np.ndarray,
) -> np.ndarray:
    """``_softmax(feats @ weights.T + bias)``, bit for bit, in the first rows of ``buf``.

    ``buf`` is a C-ordered (rows, classes) buffer and ``buf_t`` a (classes,
    rows) one, each with room for ``len(feats)`` rows.  The logits GEMM keeps
    the ``feats @ weights.T`` layout: ``weights @ feats.T`` is faster but
    rounds differently for some row counts.  The bias add and the max over
    classes run on a transposed copy, where each is one pass over long rows
    and exact in any order; the exp and the row sums run on ``buf``, since the
    same numbers summed along strided rows round differently.
    """
    n = feats.shape[0]
    probs, logits_t = buf[:n], buf_t[:, :n]
    np.matmul(feats, weights.T, out=probs)
    np.copyto(logits_t, probs.T)
    logits_t += bias[:, None]
    np.subtract(logits_t.T, logits_t.max(axis=0)[:, None], out=probs)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def _loss_and_grad_into(
    weights: np.ndarray, bias: np.ndarray, feats: np.ndarray, label_idx: np.ndarray,
    rows: np.ndarray, buf: np.ndarray, buf_t: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """:func:`cross_entropy_and_grad` in the buffers of :func:`_probs_into`.

    ``rows`` is ``np.arange(k)`` for some ``k >= len(feats)``.
    """
    n = feats.shape[0]
    probs = _probs_into(weights, bias, feats, buf, buf_t)
    picks = (rows[:n], label_idx)
    loss = float(-np.log(np.maximum(probs[picks], 1e-300)).mean())
    probs[picks] -= 1.0
    probs /= n
    return loss, probs.T @ feats, probs.sum(axis=0)


def cross_entropy_and_grad(
    weights: np.ndarray,
    bias: np.ndarray,
    features: np.ndarray,
    label_idx: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy of softmax(features @ W.T + b) and its gradients."""
    n, c = features.shape[0], weights.shape[0]
    return _loss_and_grad_into(
        weights, bias, features, label_idx, np.arange(n), np.empty((n, c)), np.empty((c, n))
    )


def fit_classifier(
    features: np.ndarray,
    labels,
    classes=None,
    config: ClassifierConfig = ClassifierConfig(),
) -> Classifier:
    """Gradient-descent softmax regression; deterministic given the seed.

    Every epoch reuses two softmax buffers and updates the parameters in
    place, so a fit allocates no (rows, classes) array per step.
    """
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
    c = len(class_list)
    weights = np.zeros((c, v))
    bias = np.zeros(c)
    rows, buf, buf_t = np.arange(n), np.empty((n, c)), np.empty((c, n))
    rng = np.random.default_rng(config.seed)
    history = []

    def full_loss() -> float:
        probs = _probs_into(weights, bias, feats, buf, buf_t)
        return float(-np.log(np.maximum(probs[rows, y], 1e-300)).mean())

    def step(x: np.ndarray, label_idx: np.ndarray) -> float:
        nonlocal weights, bias  # updated in place
        loss, gw, gb = _loss_and_grad_into(weights, bias, x, label_idx, rows, buf, buf_t)
        gw *= config.learning_rate
        weights -= gw
        gb *= config.learning_rate
        bias -= gb
        return loss

    for epoch in range(config.epochs):
        if config.batch_size is None or config.batch_size >= n:
            history.append(step(feats, y))
        else:
            history.append(full_loss())
            order = rng.permutation(n)
            for start in range(0, n, config.batch_size):
                chunk = order[start : start + config.batch_size]
                step(feats[chunk], y[chunk])
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


def predict_classifier_batch(model: Classifier, features: np.ndarray) -> list[str]:
    """Highest-logit class; ties break on class id (classes are sorted)."""
    picks = model.logits(features).argmax(axis=1)
    return [model.classes[i] for i in picks]


# ---------------------------------------------------------------------------
# transductive refit


def fit_predict_unseen(
    bundle: DatasetBundle, selected, base: str, candidates, ridge: float,
    n_per_class: int, classifier: ClassifierConfig, seed: int, *stream,
) -> list[str]:
    """Fit ``base`` on the seen training rows plus the ``selected``
    (test row index, label) pairs, then label every unseen test row.

    Every training row counts once, so a pair selected twice counts twice.
    The ``"embedding"`` base fits class means weighted by their row counts,
    so selection multiplicity weights the fit and pseudo-label noise costs
    what it should, and picks the nearest candidate prototype.  The
    ``"generative"`` base draws ``n_per_class`` rows per unseen class from
    ``(seed, *stream)``, adds the training rows when the candidates include
    seen classes, and trains a softmax classifier over the candidates with
    ``classifier``.
    """
    train = bundle.train_seen
    if selected:
        rows, row_labels = zip(*selected)
        train = FeatureTable(
            features=np.concatenate([train.features, bundle.test_unseen.features[list(rows)]]),
            labels=train.labels + row_labels,
        )
    test = bundle.test_unseen.features
    if base == "embedding":
        labels, means, sem = _class_means(train, bundle.semantics)
        counts = [train.rows_for(cls).size for cls in labels]
        model = fit_embedding_means(sem, means, counts, ridge)
        return classify_embedding_batch(model, test, candidates, bundle.semantics)
    if base != "generative":
        raise ValueError(f"unknown base model {base!r}")
    gen = fit_generator(train, bundle.semantics, ridge)
    counts = dict.fromkeys(sorted(bundle.split.unseen), n_per_class)
    feats, labels = sample_per_class(gen, bundle.semantics, counts, seed, *stream)
    if not bundle.split.unseen.issuperset(candidates):
        feats = np.concatenate([feats, train.features.astype(np.float64)])
        labels.extend(train.labels)
    clf = fit_classifier(feats, labels, candidates, classifier)
    return predict_classifier_batch(clf, test)
