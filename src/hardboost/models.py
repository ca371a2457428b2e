"""Reference base models: linear embedder, Gaussian generator, softmax classifier.

The boosting pipelines are model-agnostic; these are the simplest members of
each interface, chosen so every fit is closed-form or plain gradient descent
and therefore exactly reproducible.

* ``EmbeddingModel`` ridge-regresses class-mean visual features onto
  semantic vectors, each class weighted by a row count
  (:func:`fit_embedding_means`), and classifies by nearest mapped prototype
  (:func:`nearest_rows`).
* ``GenerativeModel`` maps a semantic vector to a class mean and samples
  around it with a shared diagonal covariance.  Each class draws from its
  own generator, so a large draw shares its classes among the available
  CPUs with the same bytes (:func:`draw_class_rows`).
* ``Classifier`` is multinomial logistic regression trained by full-batch
  gradient descent.  A fit trains in float32: it casts the features once,
  and its parameters, buffers and updates are float32, while each epoch's
  loss is computed in float64.  The fitted
  weights and bias come back upcast to float64, which is exact, so
  prediction runs in float64.  Every step of a fit runs one kernel,
  :func:`_loss_and_grad_into`, in two buffers allocated once per fit, and
  updates the parameters in place.  After the logits GEMM it runs
  class-major, in one C-ordered (classes, rows) buffer, bit-equal to that
  direct form in fresh arrays of the input dtype.  A large step is cut into
  blocks: the logits GEMM and the softmax into row blocks, and the gradient
  GEMM into column blocks (see :func:`_blocks`), by the array shapes alone.
  A fit that has blocks to share starts one helper thread per further
  available CPU (at most one per block) and joins them before it returns;
  the threads only decide who computes which block, so the bytes do not
  depend on the fit's thread count (OpenBLAS's own threads can change them).

Every fit reads a training table's class means, and a generator fit its
squared-deviation sums, through the per-class statistics the table caches
(:meth:`~hardboost.data.FeatureTable.class_stats` and
:meth:`~hardboost.data.FeatureTable.class_scatters`), so they are computed
once however often the table is fitted.

:func:`fit_predict_unseen` is the transductive refit that ``harst`` and the
contrastive study share: fit either base on the seen training rows plus
selected (test row, unseen label) pairs, then label every unseen test row
with an unseen class.  Seen classes keep their cached statistics, and each
selected class is computed from its selected rows alone
(:func:`_class_means`); no merged table is built.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import queue
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .data import DatasetBundle, FeatureTable, SemanticTable, row_moments
from .rng import child_seed

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

COVARIANCE_FLOOR = 1e-6


def available_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class SingularFitError(ValueError):
    """Normal equations were singular; a positive ridge is required."""


def _class_means(
    table: FeatureTable, semantics: SemanticTable, extra: np.ndarray | None = None,
    selected=(), scatter: bool = False,
) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Sorted class ids, float64 class means, row counts, semantic rows and,
    with ``scatter``, float64 squared-deviation sums of ``table``'s classes
    and of the classes the ``selected`` (row of ``extra``, label) pairs name.

    ``table``'s classes keep the statistics it caches; each selected class
    is computed from its selected rows alone, in selection order, by
    :func:`~hardboost.data.row_moments` as the cache is, so the bits are
    those of one table holding both.  A selected label that is a class of
    ``table`` is a ``ValueError``.
    """
    seen, seen_means, seen_counts = table.class_stats()
    seen_scatters = table.class_scatters() if scatter else None
    picks: dict[str, list[int]] = {}
    for row, label in selected:
        picks.setdefault(label, []).append(row)
    clash = sorted(picks.keys() & seen)
    if clash:
        raise ValueError(f"selected label {clash[0]!r} is a class of the training table")
    labels = sorted(picks.keys() | seen)
    if not labels:
        raise ValueError("cannot fit on an empty table")
    for cls in labels:
        if cls not in semantics:
            raise ValueError(f"training label {cls!r} has no semantic vector")
    if not picks:
        return labels, seen_means, seen_counts, semantics.matrix(labels), seen_scatters
    at = {cls: k for k, cls in enumerate(labels)}
    own = [at[cls] for cls in seen]
    means = np.empty((len(labels), table.dim))
    counts = np.empty(len(labels), dtype=np.intp)
    means[own], counts[own] = seen_means, seen_counts
    scatters = np.empty_like(means) if scatter else None
    if scatter:
        scatters[own] = seen_scatters
    for cls, rows in picks.items():  # one class's rows in float64 at a time
        k = at[cls]
        means[k], counts[k], sq_dev = row_moments(extra[rows], scatter)
        if scatter:
            scatters[k] = sq_dev
    return labels, means, counts, semantics.matrix(labels), scatters


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


def fit_embedding_means(
    sem: np.ndarray, means: np.ndarray, counts: np.ndarray, ridge: float = 0.0
) -> EmbeddingModel:
    """Ridge fit of class-mean features on class semantic vectors, class ``k``
    weighted by ``counts[k]``.

    This equals the fit over ``counts[k]`` (semantic vector, row) pairs per
    class whose rows average to ``means[k]``: centred on the count-weighted
    means, each class enters the normal equations ``counts[k]`` times, so
    its centred rows are scaled by ``sqrt(counts[k])`` instead of repeated.
    With one count per class it is the unweighted fit of the class means.
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


_ROW_ELEMENTS = 1 << 17  # per block of rows that nearest_rows widens and screens (1 MiB)
_RECHECK_ELEMENTS = 1 << 16  # per block of rows that nearest_rows re-decides (512 KiB)


def nearest_rows(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of the nearest center (squared Euclidean) for each row of ``x``.

    The result is exactly the argmin of the float64 direct form
    ``((x[i] - centers) ** 2).sum(axis=1)``, ties included: they break on the
    lower center index.  Distances are screened with the GEMM form
    ``|x|^2 - 2 x.c + |c|^2``.  Both forms err by at most
    ``(v + 2) * eps * (|x| + max|c|)^2`` per entry, whatever order a GEMM
    sums in, plus ``(v + 2)`` smallest subnormals where they underflow, so a
    row whose best and second-best screened distances lie within four times
    the first bound plus eight times the second is re-decided by the direct
    form: each row's sum runs over its own contiguous ``v`` differences.

    ``x`` may be float32.  Its rows are screened in blocks of about
    ``_ROW_ELEMENTS`` values, each widened to float64 on its own, so memory
    is one block's float64 rows and distances plus one re-check block of at
    most ``_RECHECK_ELEMENTS`` differences (or one row's ``(c, v)``), never
    a float64 copy of ``x``; the answer does not depend on the blocking.

    The re-check's tolerance grows with the squared norms, not with the
    distances.  Rows far from the origin relative to their spread, exact
    midpoints, and duplicated centers (every row ties between the copies)
    are all re-decided: the answer stays exact, but the cost approaches that
    of a direct scan.
    """
    x = np.asarray(x)  # each block is widened to float64 below
    centers = np.asarray(centers, dtype=np.float64)
    if x.ndim != 2 or centers.ndim != 2 or x.shape[1] != centers.shape[1]:
        raise ValueError(
            f"need (n, v) rows and (c, v) centers, got {x.shape} and {centers.shape}"
        )
    if centers.shape[0] == 0:
        raise ValueError("need at least one center")
    n, v = x.shape
    picks = np.zeros(n, dtype=np.intp)
    if centers.shape[0] == 1:
        return picks
    c_sq = np.einsum("ij,ij->i", centers, centers)
    c_norm, bound = np.sqrt(c_sq.max()), 4.0 * (v + 2) * np.finfo(np.float64).eps
    underflow = 8.0 * (v + 2) * np.finfo(np.float64).smallest_subnormal
    rows = max(1, _ROW_ELEMENTS // max(v, centers.shape[0]))
    step = max(1, _RECHECK_ELEMENTS // max(centers.size, 1))
    for first in range(0, n, rows):
        xb = np.asarray(x[first : first + rows], dtype=np.float64)
        x_sq = np.einsum("ij,ij->i", xb, xb)
        d2 = np.add.outer(x_sq, c_sq)
        d2 -= 2.0 * (xb @ centers.T)
        out = picks[first : first + rows]
        out[:] = d2.argmin(axis=1)
        two_best = np.partition(d2, 1, axis=1)
        gap = two_best[:, 1] - two_best[:, 0]
        tol = bound * (np.sqrt(x_sq) + c_norm) ** 2 + underflow
        # a screen that may have overflowed has tol = inf; ``not >`` also catches nan
        flagged = np.flatnonzero(~(gap > tol))
        for start in range(0, flagged.size, step):
            block = flagged[start : start + step]
            diff = xb[block, None, :] - centers
            out[block] = np.square(diff, out=diff).sum(axis=2).argmin(axis=1)
    return picks


def classify_embedding_batch(
    model: EmbeddingModel, features: np.ndarray, candidates, semantics: SemanticTable
) -> list[str]:
    """Nearest mapped prototype among the candidates; ties break on class id."""
    cand = sorted(candidates)
    if not cand:
        raise ValueError("candidate set is empty")
    protos = semantics.matrix(cand) @ model.weights.T + model.bias
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


def _byte_groups(rows: np.ndarray) -> list[list[int]]:
    """Indices of the rows of 2-D ``rows`` grouped by exact bytes (so ``-0.0``
    and ``0.0`` differ), groups in order of their first row.

    Rows are bucketed by the hash of their bytes and matched byte for byte
    within a bucket, so no key holds a copy of a row.
    """
    groups: list[list[int]] = []
    buckets: dict[int, list[int]] = {}  # hash of a row's bytes -> indices into groups
    for i, row in enumerate(rows):
        key = row.tobytes()
        bucket = buckets.setdefault(hash(key), [])
        for g in bucket:
            if rows[groups[g][0]].tobytes() == key:
                groups[g].append(i)
                break
        else:
            bucket.append(len(groups))
            groups.append([i])
    return groups


def fit_generator(
    train: FeatureTable,
    semantics: SemanticTable,
    ridge: float = 0.0,
    synth=None,
    extra: np.ndarray | None = None,
    selected=(),
) -> GenerativeModel:
    """Ridge-regress group means on semantic vectors; pool residual variance.

    Real classes form one group each (their class mean against the class
    semantic vector): ``train``'s classes, and the classes the ``selected``
    (row of ``extra``, label) pairs name, none of them a class of ``train``
    (:func:`_class_means`), so the fit is bit for bit the fit on
    one table holding both.  Synthesized rows, which carry continuous
    interpolated semantic vectors, are interpolated straight into the tails
    of the one design and target array, then group by the exact bytes of
    their semantic vector (:func:`_byte_groups`), in order of their first row
    -- typically singleton groups that shape the map without contributing
    scatter.  Each group is compacted in place to one row, and the solve
    reads the arrays' leading rows, C-contiguous as before.  The shared
    covariance is the within-group variance pooled over all rows with a
    degrees-of-freedom correction, floored at ``COVARIANCE_FLOOR``.

    Every synthesized semantic vector mixes the vectors of its two source
    classes, so the design's rank is at most the number of distinct real
    classes among the training labels and the synthesized rows' sources;
    ridge 0 below the semantic dimension raises ``SingularFitError``.
    """
    if ridge < 0:
        raise ValueError("ridge must be >= 0")
    labels, means, counts, sem, scatters = _class_means(
        train, semantics, extra, selected, scatter=True
    )
    sq_dev = np.zeros(train.dim, dtype=np.float64)
    for scatter in scatters:  # one class at a time, in label order: a numpy sum may pair them
        sq_dev += scatter
    n_rows = int(counts.sum())
    classes = set(labels)
    n_real = sem.shape[0]
    n_synth = 0 if synth is None else len(synth)
    design = np.empty((n_real + n_synth, semantics.dim))
    targets = np.empty((n_real + n_synth, train.dim))
    design[:n_real] = sem
    targets[:n_real] = means
    groups: list[list[int]] = []
    if n_synth:
        sem_rows, feat_rows = design[n_real:], targets[n_real:]
        synth.interpolate_into(feat_rows, sem_rows)
        groups = _byte_groups(sem_rows)
        n_rows += n_synth
        classes.update(synth.source_classes.ravel().tolist())
        # group k moves to row k: groups come in order of their first row, so
        # group k's rows all sit at or after row k, and a write to row k
        # overwrites only a row of a group already moved
        for k, rows in enumerate(groups):
            sem_rows[k] = sem_rows[rows[0]]
            if len(rows) == 1:  # a singleton's mean is its row, and it adds no scatter
                feat_rows[k] = feat_rows[rows[0]]
            else:
                members = feat_rows[rows]
                feat_rows[k] = mean = members.mean(axis=0)
                sq_dev += ((members - mean) ** 2).sum(axis=0)
    # real classes first, then one row per synthesized group
    n_groups = n_real + len(groups)
    design, targets = design[:n_groups], targets[:n_groups]
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
    each class owns a substream, and its rows are bit for bit those of
    :func:`sample_generator` cast to float32, as the classifier trains.
    Returns the rows and one label per row.  A large draw runs on every
    available CPU (:func:`draw_class_rows`), with the same bytes.
    """
    if any(n < 0 for n in counts.values()):
        raise ValueError("sample count must be >= 0")
    feats = np.empty((sum(counts.values()), model.coeff.shape[0]), dtype=np.float32)
    rows, labels = [], []
    for cls, n in counts.items():
        rows.append(feats[len(labels) : len(labels) + n])
        labels.extend([cls] * n)
    classes = list(counts)

    def derive(i: int) -> tuple[np.random.Generator, np.ndarray]:
        rng = np.random.default_rng(child_seed(seed, *stream, i))
        return rng, model.class_mean(semantics[classes[i]])

    draw_class_rows(rows, derive, np.sqrt(model.covariance))
    return feats, labels


# A call that draws fewer values than this (a few ms of work) runs on the
# calling thread alone: a desk-sized build or run starts no thread.
_DRAW_VALUES = 1 << 18


def draw_class_rows(rows, derive, scale) -> None:
    """Fill each float32 ``rows[i]`` with ``mean + rng.standard_normal(
    rows[i].shape) * scale``, computed in float64 and cast, where ``(rng,
    mean) = derive(i)``.

    ``derive`` runs on the calling thread, in class order.  A call that
    draws at least ``_DRAW_VALUES`` values, outside a sweep worker, shares
    its classes among one thread per available CPU while this thread derives
    the next ones.  Each class owns its generator and its rows, so the bytes
    do not depend on the thread count.  Each thread draws into one float64
    buffer of the largest class's size, allocated here, and at most a few
    classes are derived ahead of the draws.  A helper's error is raised here.
    """
    count = 1
    if not _one_thread_per_fit and sum(r.size for r in rows) >= _DRAW_VALUES:
        count = min(available_cpus(), len(rows))
    shape = (max((len(r) for r in rows), default=0), rows[0].shape[1] if rows else 0)
    bufs = [np.empty(shape) for _ in range(count)]
    todo = queue.SimpleQueue()  # (class, generator, mean); None stops a helper

    def draw(i: int, rng: np.random.Generator, mean: np.ndarray, buf: np.ndarray) -> None:
        z = buf[: len(rows[i])]
        rng.standard_normal(out=z)
        z *= scale
        z += mean
        rows[i][...] = z

    def helper(buf: np.ndarray) -> None:
        while (job := todo.get()) is not None:
            draw(*job, buf)

    def draw_queued(most: int) -> None:  # on the calling thread
        for _ in range(most):
            try:
                job = todo.get_nowait()
            except queue.Empty:
                return
            draw(*job, bufs[0])

    with _threads(count) as threads:
        helpers = [threads.pool.submit(helper, buf) for buf in bufs[1:]]
        try:
            for i in range(len(rows)):
                todo.put((i, *derive(i)))
                if todo.qsize() >= count:  # enough derived to keep every thread busy
                    draw_queued(1)
            draw_queued(len(rows))
        finally:
            for _ in helpers:
                todo.put(None)
    for future in helpers:
        future.result()


# ---------------------------------------------------------------------------
# softmax classifier


@dataclass(frozen=True)
class ClassifierConfig:
    learning_rate: float = 0.1
    epochs: int = 200

    def __post_init__(self):
        # each of these would train nothing, or train away from the labels
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate!r}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs!r}")


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


# A block holds at least this many multiply-adds.  That keeps a thread's
# share worth its hand-off, and keeps every GEMM block above the 1 M
# multiply-adds at or below which OpenBLAS takes its small-matrix kernels,
# which round differently from the kernels the whole product takes.
_BLOCK_MADDS = 1 << 22
_MAX_BLOCKS = 8

# Set in a sweep's worker processes, whose pool already runs one process per
# CPU: their fits then compute every block, and their per-class draws
# (draw_class_rows) every class, on the calling thread.
_one_thread_per_fit = False


@functools.lru_cache(maxsize=64)
def _blocks(length: int, unit: int, madds_per_item: int) -> tuple[tuple[int, int], ...]:
    """``(start, stop)`` ranges that cover ``range(length)`` in order.

    The ranges are cut at multiples of ``unit``, at most ``_MAX_BLOCKS`` of
    them, each of at least ``_BLOCK_MADDS`` multiply-adds at
    ``madds_per_item`` per item; the last takes the remainder.  A length too
    short to cut stays one range.  The cuts depend on their arguments alone.
    """
    units = length // unit
    count = min(_MAX_BLOCKS, units // -(-_BLOCK_MADDS // max(unit * madds_per_item, 1)))
    if count < 2:
        return ((0, length),)
    bounds = [unit * (i * units // count) for i in range(count)] + [length]
    return tuple(zip(bounds, bounds[1:]))


@dataclass(frozen=True)
class _Threads:
    """The calling thread plus the ``count - 1`` helper threads of ``pool``."""

    pool: ThreadPoolExecutor | None = None
    count: int = 1

    def each(self, fn, blocks: tuple[tuple[int, int], ...]) -> None:
        """``fn(start, stop)`` for every block.  The threads, this one among
        them, take the blocks in turn from one queue, so a thread the OS
        holds back leaves its blocks to the others."""
        helpers = min(self.count, len(blocks)) - 1
        if helpers == 0:  # a desk-scale fit makes thousands of these calls
            for start, stop in blocks:
                fn(start, stop)
            return
        todo = queue.SimpleQueue()
        for block in blocks:
            todo.put(block)
        futures = [self.pool.submit(_drain, fn, todo) for _ in range(helpers)]
        _drain(fn, todo)
        for future in futures:
            future.result()


def _drain(fn, todo: queue.SimpleQueue) -> None:
    while True:
        try:
            start, stop = todo.get_nowait()
        except queue.Empty:
            return
        fn(start, stop)


@contextlib.contextmanager
def _threads(count: int):
    """A :class:`_Threads` of ``count`` threads, whose helper pool is shut
    down, joining them, when the block exits."""
    if count < 2:
        yield _Threads()
        return
    # imported here: concurrent.futures loads logging, 0.6 MiB that a run
    # that never splits its work never needs
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(count - 1) as pool:
        yield _Threads(pool, count)


def _probs_into(
    weights: np.ndarray, bias: np.ndarray, feats: np.ndarray,
    buf: np.ndarray, buf_t: np.ndarray, threads: _Threads = _Threads(),
) -> np.ndarray:
    """The softmax of ``feats @ weights.T + bias``, written into ``buf_t``
    and returned.

    ``buf`` and ``buf_t`` are C-ordered (rows, classes) and (classes, rows)
    buffers of ``len(feats)`` rows.  Every array has one dtype, float64 or
    float32, and every step computes in it.  The logits GEMM keeps the
    ``feats @ weights.T`` layout: ``weights @ feats.T`` is slower here and
    rounds differently for some row counts.  The bias add moves the logits
    into the class-major ``buf_t``, where the max, the exp and the sum over
    classes run, so each row's sum adds its classes in class order: bit for
    bit the direct form on ``np.ascontiguousarray((feats @ weights.T).T)``.

    Every step works on one row, so the rows are cut into blocks of 8-row
    multiples (:func:`_blocks`), which ``threads`` share.  A row's product
    is the same in a block as in the whole GEMM, since every block is above
    OpenBLAS's small-matrix size, the same size for float32 as for float64.
    """
    def block(start: int, stop: int) -> None:
        logits, cols = buf[start:stop], buf_t[:, start:stop]
        np.matmul(feats[start:stop], weights.T, out=logits)
        np.add(logits.T, bias[:, None], out=cols)
        cols -= cols.max(axis=0)
        np.exp(cols, out=cols)
        cols /= cols.sum(axis=0)

    threads.each(block, _blocks(len(feats), 8, weights.size))
    return buf_t


def _loss_and_grad_into(
    weights: np.ndarray, bias: np.ndarray, feats: np.ndarray, picks: np.ndarray,
    buf: np.ndarray, buf_t: np.ndarray, threads: _Threads = _Threads(),
) -> tuple[float, np.ndarray, np.ndarray]:
    """:func:`cross_entropy_and_grad` in the buffers of :func:`_probs_into`.

    ``picks[i]`` is row ``i``'s flat index ``label * len(feats) + i`` into
    the class-major probabilities.  The weight gradient ``probs_t @ feats``
    is cut into blocks of feature columns at multiples of 256, which
    ``threads`` share; every block sums over all rows, in the whole product's
    order.  Only a feature dimension that is a multiple of 8 is cut: with
    OpenBLAS 0.3.31, float64 column cuts of other dimensions measured inexact
    in the last ``v % 8`` columns (float32 cuts measured exact).  The loss
    (:func:`_mean_nll`) and the bias gradient (along rows) are one pass each.
    """
    n, v = feats.shape
    probs = _probs_into(weights, bias, feats, buf, buf_t, threads)
    flat = probs.reshape(-1)
    loss = _mean_nll(flat[picks])
    flat[picks] -= 1.0
    probs /= n
    grad_w = np.empty_like(weights)

    def block(start: int, stop: int) -> None:
        np.matmul(probs, feats[:, start:stop], out=grad_w[:, start:stop])

    threads.each(block, _blocks(v, 256, probs.size) if v % 8 == 0 else ((0, v),))
    return loss, grad_w, probs.sum(axis=1)


def _mean_nll(picked: np.ndarray) -> float:
    """Mean negative log of the true-class probabilities, floored at
    ``1e-300``, in float64 whatever their dtype: in float32 the floor is 0,
    so an underflowed probability would read as a diverged fit."""
    logs = np.log(np.maximum(picked, 1e-300, dtype=np.float64))
    return float(-logs.sum() / logs.size)


def cross_entropy_and_grad(
    weights: np.ndarray,
    bias: np.ndarray,
    features: np.ndarray,
    label_idx: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy of softmax(features @ W.T + b) and its gradients."""
    n, c = features.shape[0], weights.shape[0]
    picks = np.asarray(label_idx) * n + np.arange(n)
    return _loss_and_grad_into(weights, bias, features, picks, np.empty((n, c)), np.empty((c, n)))


def fit_classifier(
    features: np.ndarray,
    labels,
    classes=None,
    config: ClassifierConfig = ClassifierConfig(),
) -> Classifier:
    """Full-batch gradient-descent softmax regression, deterministic.

    The fit trains in float32: the features are cast once, and the weights,
    bias, softmax buffers and in-place updates are float32.  Each epoch's
    loss is computed in float64 (:func:`_mean_nll`), and the returned
    weights and bias are upcast to float64.  A learning rate or weights
    beyond float32's range end in the "training diverged" error.

    Every epoch reuses the two buffers of :func:`_probs_into` and the flat
    label picks computed once, and updates the parameters in place, so a
    fit allocates no (rows, classes) array per epoch.  When the batch has
    more than one row block (:func:`_probs_into`), the fit runs on one
    thread per available CPU, at most one per block: the helpers live in a
    pool that this call shuts down, joining them, before it returns.  The
    bytes do not depend on the fit's thread count.
    """
    feats = np.asarray(features, dtype=np.float32)
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
    weights = np.zeros((c, v), dtype=np.float32)
    bias = np.zeros(c, dtype=np.float32)
    buf, buf_t = np.empty((n, c), dtype=np.float32), np.empty((c, n), dtype=np.float32)
    picks = y * n + np.arange(n)
    history = []
    count = 1 if _one_thread_per_fit else min(available_cpus(), len(_blocks(n, 8, v * c)))

    with _threads(count) as threads:
        for epoch in range(config.epochs):
            loss, gw, gb = _loss_and_grad_into(weights, bias, feats, picks, buf, buf_t, threads)
            history.append(loss)
            gw *= config.learning_rate
            weights -= gw
            gb *= config.learning_rate
            bias -= gb
            if not (np.isfinite(loss) and np.isfinite(weights).all()):
                raise ValueError(
                    f"training diverged at epoch {epoch}; lower the learning rate"
                )
        # the last update's loss, the only check of its logits
        probs = _probs_into(weights, bias, feats, buf, buf_t, threads)
        history.append(_mean_nll(probs.reshape(-1)[picks]))
    if not np.isfinite(history[-1]):
        raise ValueError(
            f"training diverged at epoch {config.epochs - 1}; lower the learning rate"
        )
    return Classifier(
        classes=tuple(class_list),
        weights=weights.astype(np.float64),
        bias=bias.astype(np.float64),
        config=config,
        loss_history=tuple(history),
    )


def predict_classifier_batch(model: Classifier, features: np.ndarray) -> list[str]:
    """Highest-logit class; ties break on class id (classes are sorted).

    The logits are computed in the row cuts of :func:`_blocks` (8-row
    multiples, each above OpenBLAS's small-matrix size), one block widened
    to float64 at a time: every row's logits keep the whole table's bits.
    """
    feats = np.atleast_2d(np.asarray(features))
    picks = np.empty(feats.shape[0], dtype=np.intp)
    for start, stop in _blocks(feats.shape[0], 8, model.weights.size):
        picks[start:stop] = model.logits(feats[start:stop]).argmax(axis=1)
    return [model.classes[i] for i in picks]


# ---------------------------------------------------------------------------
# transductive refit


def fit_predict_unseen(
    bundle: DatasetBundle, selected, base: str, ridge: float,
    n_per_class: int, classifier: ClassifierConfig, seed: int, *stream,
) -> list[str]:
    """Fit ``base`` on the seen training rows plus the ``selected``
    (test row index, label) pairs, then label every unseen test row with
    one of the unseen classes.

    Every training row counts once, so a pair selected twice counts twice.
    The ``"embedding"`` base fits class means weighted by their row counts,
    so selection multiplicity weights the fit and pseudo-label noise costs
    what it should, and picks the nearest unseen prototype.  The
    ``"generative"`` base fits the generator (:func:`fit_generator`), draws
    ``n_per_class`` rows per unseen class from ``(seed, *stream)``, and
    trains a softmax classifier on those rows alone with ``classifier``.

    The selected labels must be unseen classes.  Neither base builds a
    merged table: the seen classes keep their cached statistics, and each
    selected class is computed from its selected rows alone.
    """
    train, test = bundle.train_seen, bundle.test_unseen.features
    unseen = sorted(bundle.split.unseen)
    if base == "embedding":
        _, means, counts, sem, _ = _class_means(train, bundle.semantics, test, selected)
        model = fit_embedding_means(sem, means, counts, ridge)
        return classify_embedding_batch(model, test, unseen, bundle.semantics)
    if base != "generative":
        raise ValueError(f"unknown base model {base!r}")
    gen = fit_generator(train, bundle.semantics, ridge, extra=test, selected=selected)
    counts = dict.fromkeys(unseen, n_per_class)
    feats, labels = sample_per_class(gen, bundle.semantics, counts, seed, *stream)
    clf = fit_classifier(feats, labels, unseen, classifier)
    return predict_classifier_batch(clf, test)
