"""Synthetic benchmark generator with planted hard classes.

Class prototypes are laid out on an orthonormal frame and then randomly
rotated (rotation preserves every cosine distance, so the construction's
guarantees survive the randomization):

* each seen class sits on its own frame axis;
* each planted pair straddles two reserved seen axes at a small mutual
  angle, so the two members are close to each other and to those two seen
  classes but far from everything else;
* every other unseen class leans on one free seen axis plus its own fresh
  axis.

By construction every planted class's semantic hardness margin is strictly
below every non-planted class's margin, so ranking recovers the planted set
exactly.  Visual features are a random linear map of the prototypes plus
isotropic Gaussian noise, which makes the planted pairs visually confusable
as well: the fresh axes they live on are unobservable from seen data alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import (
    ClassSplit,
    DatasetBundle,
    FeatureTable,
    SemanticTable,
    validate_bundle,
)
from .hars import run_generative_baseline, run_hars
from .harst import run_harst
from .models import draw_class_rows
from .rng import substream

# angle between a pair's two seen anchors, inside their span
_PAIR_ETA = math.radians(40.0)
# similarity of an easy class to its anchor when anchors are not shared
_EASY_AFFINITY = 0.995


@dataclass(frozen=True)
class BenchmarkSpec:
    seen_count: int
    unseen_count: int
    semantic_dim: int
    visual_dim: int
    n_per_class: int
    hard_pairs: int
    affinity_gap: float
    noise_scale: float
    seed: int
    unseen_counts: dict[str, int] | None = None  # per-class test row overrides

    def __post_init__(self):
        if min(self.seen_count, self.unseen_count, self.n_per_class) < 1:
            raise ValueError("class and sample counts must be >= 1")
        if self.hard_pairs < 0 or 2 * self.hard_pairs > self.unseen_count:
            raise ValueError("need 2 * hard_pairs <= unseen_count")
        if not self.affinity_gap > 0:
            raise ValueError("affinity_gap must be > 0")
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be >= 0")
        if min(self.semantic_dim, self.visual_dim) < 1:
            raise ValueError("dimensions must be >= 1")


def seen_class_ids(spec: BenchmarkSpec) -> list[str]:
    return [f"s{i:02d}" for i in range(spec.seen_count)]


def unseen_class_ids(spec: BenchmarkSpec) -> list[str]:
    return [f"u{i:02d}" for i in range(spec.unseen_count)]


def _pair_affinity(gap: float) -> float:
    """Anchor-span affinity of a planted pair member for the requested gap.

    The pair's mutual cosine distance undercuts its nearest-seen distance by
    ``c^2 sin(2 eta) - c cos(eta)``; solve that equal to ``gap`` for c.
    """
    sin2 = math.sin(2 * _PAIR_ETA)
    cos_eta = math.cos(_PAIR_ETA)
    c = (cos_eta + math.sqrt(cos_eta**2 + 4 * sin2 * gap)) / (2 * sin2)
    if c >= 0.999:
        raise ValueError(
            f"affinity_gap {gap} is infeasible for the pair geometry "
            f"(maximum is about {0.999**2 * sin2 - 0.999 * cos_eta:.3f})"
        )
    return c


def _build_prototypes(spec: BenchmarkSpec) -> tuple[dict[str, np.ndarray], list[str]]:
    seen = seen_class_ids(spec)
    unseen = unseen_class_ids(spec)
    easy_count = spec.unseen_count - 2 * spec.hard_pairs
    dims_needed = spec.seen_count + spec.unseen_count
    if spec.semantic_dim < dims_needed:
        raise ValueError(
            f"semantic_dim {spec.semantic_dim} too small for "
            f"{spec.seen_count} seen + {spec.unseen_count} unseen classes; "
            f"increase semantic_dim to at least {dims_needed}"
        )
    if spec.hard_pairs and spec.seen_count < 2 * spec.hard_pairs:
        raise ValueError(
            f"{spec.hard_pairs} planted pairs need {2 * spec.hard_pairs} "
            f"anchor seen classes, only {spec.seen_count} available"
        )
    free_anchors = list(range(2 * spec.hard_pairs, spec.seen_count))
    if easy_count and not free_anchors:
        raise ValueError(
            "no free anchor seen classes left for the non-planted unseen classes; "
            "add seen classes or reduce hard_pairs"
        )

    s = spec.semantic_dim
    protos: dict[str, np.ndarray] = {}
    for i, cls in enumerate(seen):
        vec = np.zeros(s)
        vec[i] = 1.0
        protos[cls] = vec

    c_pair = _pair_affinity(spec.affinity_gap)
    tail = math.sqrt(1.0 - c_pair**2)
    cos_eta, sin_eta = math.cos(_PAIR_ETA), math.sin(_PAIR_ETA)
    fresh = spec.seen_count  # next unused frame axis
    planted: list[str] = []
    for j in range(spec.hard_pairs):
        a1, a2 = 2 * j, 2 * j + 1
        for member, (wa, wb) in enumerate(((cos_eta, sin_eta), (sin_eta, cos_eta))):
            cls = unseen[2 * j + member]
            vec = np.zeros(s)
            vec[a1] = c_pair * wa
            vec[a2] = c_pair * wb
            vec[fresh] = tail
            fresh += 1
            protos[cls] = vec
            planted.append(cls)

    anchors_shared = easy_count > len(free_anchors)
    # shared anchors force a weak affinity so two easies on one anchor do not
    # become an unplanted mutually-close pair
    c_easy = (
        1.0 / (2 * min(3, spec.seen_count)) if anchors_shared else _EASY_AFFINITY
    )
    for k in range(easy_count):
        cls = unseen[2 * spec.hard_pairs + k]
        anchor = free_anchors[k % len(free_anchors)]
        vec = np.zeros(s)
        vec[anchor] = c_easy
        vec[fresh] = math.sqrt(1.0 - c_easy**2)
        fresh += 1
        protos[cls] = vec
    return protos, sorted(planted)


def _rotation(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def make_benchmark(
    spec: BenchmarkSpec,
) -> tuple[DatasetBundle, list[str], np.ndarray]:
    """Generate a validated bundle, the planted hard-class ids, and the
    generating semantic-to-visual map.

    The bundle holds two tables, ``train_seen`` and ``test_unseen``; no
    seen-class test rows are drawn, since only unseen rows are scored.
    Class ``idx`` of each table draws its rows, ``w0 @ proto + noise_scale
    * z`` in float64 cast to float32, from ``substream(seed, name, idx)``,
    ``name`` being ``"train-seen"`` or ``"test-unseen"``.  Both tables are
    drawn in one :func:`~hardboost.models.draw_class_rows` call, so a
    CUB-sized build draws on every available CPU and a desk-sized one on
    this thread alone, with the same bytes.
    """
    protos, planted = _build_prototypes(spec)
    rotation = _rotation(substream(spec.seed, "rotation"), spec.semantic_dim)
    protos = {cls: vec @ rotation.T for cls, vec in protos.items()}
    semantics = SemanticTable(vectors=protos)

    w0 = substream(spec.seed, "visual-map").standard_normal(
        (spec.visual_dim, spec.semantic_dim)
    ) / math.sqrt(spec.semantic_dim)

    seen = seen_class_ids(spec)
    unseen = unseen_class_ids(spec)
    split = ClassSplit(seen=frozenset(seen), unseen=frozenset(unseen))

    unseen_counts = {cls: spec.n_per_class for cls in unseen}
    if spec.unseen_counts:
        unknown = sorted(set(spec.unseen_counts) - set(unseen))
        if unknown:
            raise ValueError(f"unseen_counts names unknown class {unknown[0]!r}")
        for cls, count in spec.unseen_counts.items():
            if count < 1:
                raise ValueError(f"unseen_counts[{cls!r}] must be >= 1")
            unseen_counts[cls] = int(count)

    tables, rows, classes = [], [], []  # classes[i]: (stream name, index, class id)
    for class_ids, counts, stream_name in (
        (seen, {cls: spec.n_per_class for cls in seen}, "train-seen"),
        (unseen, unseen_counts, "test-unseen"),
    ):
        feats = np.empty((sum(counts[cls] for cls in class_ids), spec.visual_dim), np.float32)
        labels = []
        for idx, cls in enumerate(class_ids):
            rows.append(feats[len(labels) : len(labels) + counts[cls]])
            classes.append((stream_name, idx, cls))
            labels.extend([cls] * counts[cls])
        tables.append((feats, tuple(labels)))

    def derive(i: int) -> tuple[np.random.Generator, np.ndarray]:
        stream_name, idx, cls = classes[i]
        return substream(spec.seed, stream_name, idx), w0 @ protos[cls]

    draw_class_rows(rows, derive, spec.noise_scale)
    train_seen, test_unseen = (
        FeatureTable(features=feats, labels=labels) for feats, labels in tables
    )

    total = sum(unseen_counts.values())
    priors = {cls: unseen_counts[cls] / total for cls in unseen}

    bundle = DatasetBundle(
        train_seen=train_seen,
        test_unseen=test_unseen,
        semantics=semantics,
        split=split,
        class_priors=priors,
    )
    return validate_bundle(bundle), planted, w0


def standard_benchmark_spec(seed: int = 0, **overrides) -> BenchmarkSpec:
    """The 12-seen / 8-unseen / 2-planted-pair configuration used throughout
    the test and experiment suites.

    Test pools are deliberately unbalanced (15 rows per planted class, 90
    per easy class), mirroring the class-size skew of real unseen-class
    test sets; pool-proportional selection policies starve exactly the
    classes that need data most.
    """
    params = dict(
        seen_count=12,
        unseen_count=8,
        semantic_dim=20,
        visual_dim=24,
        n_per_class=30,
        hard_pairs=2,
        affinity_gap=0.2,
        noise_scale=0.1,
        seed=seed,
        unseen_counts={f"u{i:02d}": (15 if i < 4 else 90) for i in range(8)},
    )
    params.update(overrides)
    return BenchmarkSpec(**params)


def unbalanced_benchmark_spec(seed: int = 0, shrink_factor: float = 0.1) -> BenchmarkSpec:
    """Standard benchmark with one easy class's test rows shrunk, which makes
    raw prediction-frequency hardness misfire while prior-normalized does not."""
    base = standard_benchmark_spec(seed)
    counts = dict(base.unseen_counts)
    shrunk = unseen_class_ids(base)[2 * base.hard_pairs]  # first non-planted class
    counts[shrunk] = max(1, round(shrink_factor * counts[shrunk]))
    return standard_benchmark_spec(seed, unseen_counts=counts)


def paired_seed_study(spec, seeds, runs: dict) -> list[dict]:
    """Unseen-class accuracy of named runs over seeds, paired: each seed's
    runs share one bundle, ``make_benchmark(spec(seed))``.

    ``runs`` maps a name to ``(pipeline, config)``, the pipeline
    ``"baseline"`` (:func:`~hardboost.hars.run_generative_baseline`),
    ``"hars"`` or ``"harst"``, run at ``config.with_seed(seed)``.  Each row
    is ``{"seed": seed, name: acc_u, ...}``; a ``harst`` run gives its last
    iteration's ``acc_u``, and ``name + "_initial"`` its initial fit's.
    Names that share a pipeline and config share one run per seed.
    """
    pipelines = {"baseline": run_generative_baseline, "hars": run_hars, "harst": run_harst}
    # looked up before any build, so an unknown pipeline's KeyError comes first
    calls = {name: (pipelines[pipeline], config) for name, (pipeline, config) in runs.items()}
    rows = []
    for seed in seeds:
        bundle, _, _ = make_benchmark(spec(seed))
        row, results = {"seed": seed}, {}
        for name, (run, config) in calls.items():
            if (run, config) not in results:
                results[run, config] = run(bundle, config.with_seed(seed))[-1]
            result = results[run, config]
            if run is run_harst:  # result is the IterationTrace
                row[f"{name}_initial"] = result.initial_evaluation.acc_u
                result = result.records[-1].evaluation
            row[name] = result.acc_u
        rows.append(row)
    return rows
