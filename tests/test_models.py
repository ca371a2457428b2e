import contextlib
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hardboost import models
from hardboost.benchmark import BenchmarkSpec, make_benchmark
from hardboost.data import ClassSplit, DatasetBundle, FeatureTable, SemanticTable, load_bundle
from hardboost.models import (
    COVARIANCE_FLOOR,
    _BLOCK_MADDS,
    _blocks,
    _loss_and_grad_into,
    _Threads,
    _ridge_solve,
    Classifier,
    ClassifierConfig,
    EmbeddingModel,
    GenerativeModel,
    SingularFitError,
    _class_means,
    classify_embedding_batch,
    cross_entropy_and_grad,
    draw_class_rows,
    fit_classifier,
    fit_embedding_means,
    fit_generator,
    fit_predict_unseen,
    nearest_rows,
    predict_classifier_batch,
    sample_generator,
    sample_per_class,
)
from hardboost.rng import child_seed


def table(features, labels):
    return FeatureTable(features=np.asarray(features, dtype=np.float32), labels=tuple(labels))


def softmax(logits):
    """Row-wise softmax of a (rows, classes) logits array."""
    exp = np.exp(logits - logits.max(axis=1, keepdims=True))
    return exp / exp.sum(axis=1, keepdims=True)


def fit_unit_counts(train, semantics, ridge=0.0):
    """:func:`fit_embedding_means` on ``train``'s class means, one count per class."""
    classes, means, _ = train.class_stats()
    return fit_embedding_means(semantics.matrix(classes), means, np.ones(len(classes)), ridge)


def fit_embedding_rows(sem_rows, targets, ridge=0.0):
    """Row-level reference: one (semantic vector, feature vector) pair per row,
    so repeated rows weight the fit by their multiplicity."""
    sem_rows = np.asarray(sem_rows, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    sem_center = sem_rows.mean(axis=0)
    target_center = targets.mean(axis=0)
    weights = _ridge_solve(sem_rows - sem_center, targets - target_center, ridge)
    bias = target_center - weights @ sem_center
    return EmbeddingModel(weights=weights, bias=bias, ridge=float(ridge))


class TestFitEmbedding:
    def test_exact_one_dimensional_fit(self):
        train = table([[2.0], [2.0], [4.0], [4.0]], ["a", "a", "b", "b"])
        sem = SemanticTable(vectors={"a": [1.0], "b": [2.0]})
        model = fit_unit_counts(train, sem, ridge=0.0)
        assert model.weights[0, 0] == pytest.approx(2.0)
        assert model.bias[0] == pytest.approx(0.0, abs=1e-12)

    def test_large_ridge_shrinks_to_global_mean(self):
        train = table([[2.0], [4.0]], ["a", "b"])
        sem = SemanticTable(vectors={"a": [1.0], "b": [2.0]})
        model = fit_unit_counts(train, sem, ridge=1e9)
        assert abs(model.weights[0, 0]) < 1e-6
        assert model.bias[0] == pytest.approx(3.0, abs=1e-6)

    def test_singular_fit_advises_ridge(self, rng):
        # 2 classes in a 3-dimensional semantic space: rank-deficient at ridge 0
        train = table(rng.normal(size=(4, 2)), ["a", "a", "b", "b"])
        sem = SemanticTable(vectors={"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0]})
        with pytest.raises(SingularFitError, match="ridge"):
            fit_unit_counts(train, sem, ridge=0.0)

    def test_desk_bundle_at_ridge_zero_is_singular(self, data_dir):
        # 12 seen classes span at most 11 centred directions of a 20-d semantic space
        bundle = load_bundle(data_dir)
        with pytest.raises(SingularFitError, match="ridge"):
            fit_unit_counts(bundle.train_seen, bundle.semantics, ridge=0.0)

    def test_refit_is_bit_identical(self, rng):
        train = table(rng.normal(size=(20, 4)), [f"c{i % 5}" for i in range(20)])
        sem = SemanticTable(vectors={f"c{i}": rng.normal(size=3) for i in range(5)})
        first = fit_unit_counts(train, sem, ridge=0.1)
        second = fit_unit_counts(train, sem, ridge=0.1)
        assert np.array_equal(first.weights, second.weights)
        assert np.array_equal(first.bias, second.bias)

    def test_fit_is_locally_optimal(self, rng):
        # the closed form beats 100 random perturbations on the ridge objective
        train = table(rng.normal(size=(25, 4)), [f"c{i % 5}" for i in range(25)])
        sem = SemanticTable(vectors={f"c{i}": rng.normal(size=3) for i in range(5)})
        ridge = 0.05
        model = fit_unit_counts(train, sem, ridge=ridge)
        classes = sorted(set(train.labels))
        means = np.stack(
            [train.features[train.rows_for(c)].astype(float).mean(axis=0) for c in classes]
        )
        sems = sem.matrix(classes)

        def objective(w, b):
            resid = means - sems @ w.T - b
            return (resid**2).sum() + ridge * (w**2).sum()

        best = objective(model.weights, model.bias)
        for _ in range(100):
            w = model.weights + rng.normal(size=model.weights.shape) * 0.05
            b = model.bias + rng.normal(size=model.bias.shape) * 0.05
            assert objective(w, b) >= best


class TestClassifyEmbedding:
    SEM = SemanticTable(vectors={"a": [1.0, 0.0], "b": [0.0, 1.0], "c": [1.0, 1.0]})

    def fitted(self):
        train = table([[1.0, 0.0], [0.0, 2.0], [1.0, 2.0]], ["a", "b", "c"])
        return fit_unit_counts(train, self.SEM, ridge=1e-9)

    def test_exact_prototype_hit(self):
        model = self.fitted()
        proto_b = model.prototype(self.SEM["b"])
        assert classify_embedding_batch(model, [proto_b], {"a", "b", "c"}, self.SEM) == ["b"]

    def test_single_candidate(self):
        model = self.fitted()
        assert classify_embedding_batch(model, [[9.0, 9.0]], {"c"}, self.SEM) == ["c"]

    def test_matches_exhaustive_scan(self, rng):
        model = self.fitted()
        for _ in range(50):
            x = rng.normal(size=2) * 3
            cand = sorted({"a", "b", "c"})
            dists = [np.sum((x - model.prototype(self.SEM[c])) ** 2) for c in cand]
            assert classify_embedding_batch(model, [x], cand, self.SEM) == [cand[int(np.argmin(dists))]]

    def test_batch_agrees_with_single(self, rng):
        model = self.fitted()
        feats = rng.normal(size=(20, 2))
        batch = classify_embedding_batch(model, feats, {"a", "b", "c"}, self.SEM)
        singles = [classify_embedding_batch(model, [x], {"a", "b", "c"}, self.SEM)[0] for x in feats]
        assert batch == singles

    def test_missing_semantic_vector(self):
        model = self.fitted()
        with pytest.raises(KeyError, match="zz"):
            classify_embedding_batch(model, [[0.0, 0.0]], {"zz"}, self.SEM)


def direct_argmin(x, centers):
    """The reference rule: per-row direct squared distance, first minimum."""
    return np.asarray([((row - centers) ** 2).sum(axis=1).argmin() for row in x])


class TestNearestRows:
    @settings(max_examples=200, deadline=None)
    @given(
        v=st.integers(1, 6),
        c=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        # at 1e-160 squared distances are subnormal and the screen underflows
        scale=st.sampled_from([1e-160, 1e-3, 1.0, 1e3]),
        duplicate=st.booleans(),
        repeats=st.integers(1, 4),
        block_rows=st.integers(1, 16),
        float32=st.booleans(),
    )
    def test_equals_direct_argmin_on_planted_ties(
        self, v, c, seed, scale, duplicate, repeats, block_rows, float32
    ):
        """Whatever the row blocking, and for float32 or float64 rows, the
        answer is the float64 direct form's.  The rows are shuffled, so
        midpoints and center hits, and with a duplicated center every row,
        are re-decided in more than one block."""
        rng = np.random.default_rng(seed)
        # small integer grids make exact distance ties common
        centers = rng.integers(-3, 4, size=(c, v)) * scale
        if duplicate and c > 1:
            centers[-1] = centers[0]
        a = rng.integers(0, c, size=8 * repeats)
        b = rng.integers(0, c, size=8 * repeats)
        x = rng.permutation(np.concatenate([
            (centers[a] + centers[b]) / 2,  # midpoints between two centers
            centers[a],  # exact center hits
            rng.integers(-3, 4, size=(8 * repeats, v)) * scale,
            rng.normal(size=(4 * repeats, v)) * scale,
        ]))
        x = x.astype(np.float32 if float32 else np.float64)
        with mock.patch.object(models, "_ROW_ELEMENTS", block_rows * max(v, c)):
            picks = nearest_rows(x, centers)
        np.testing.assert_array_equal(picks, direct_argmin(x.astype(np.float64), centers))

    @pytest.mark.parametrize("v", [2, 3, 17, 312, 512, 2048])
    def test_matches_broadcast_reduction(self, v, rng):
        centers = rng.normal(size=(12, v))
        centers[7] = centers[2]
        x = np.concatenate([
            rng.normal(size=(20, v)),
            (centers[:6] + centers[6:]) / 2,
            centers[[2, 7, 5]],
        ])
        broadcast = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
        np.testing.assert_array_equal(nearest_rows(x, centers), broadcast)

    def test_underflowed_distances_are_re_decided(self):
        # direct distances 1.1156e-320, 2.6418e-320 and 1.1161e-320, all subnormal
        x = np.array([[6.021995195642855e-162, -1.4135877474963004e-161]])
        centers = np.array([
            [-3.832691155413184e-161, 8.173712486535574e-161],
            [1.6044634137268824e-160, -6.484626576193776e-161],
            [1.047949242570283e-160, -5.158388507112697e-161],
        ])
        assert nearest_rows(x, centers).tolist() == direct_argmin(x, centers).tolist() == [0]

    def test_ties_break_on_lower_index(self):
        centers = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]])
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 5.0]])
        assert nearest_rows(x, centers).tolist() == [0, 0, 0]

    def test_single_center_and_no_rows(self):
        assert nearest_rows(np.ones((3, 2)), np.zeros((1, 2))).tolist() == [0, 0, 0]
        assert nearest_rows(np.empty((0, 2)), np.eye(2)).shape == (0,)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="centers"):
            nearest_rows(np.ones((3, 2)), np.ones((2, 3)))
        with pytest.raises(ValueError, match="at least one"):
            nearest_rows(np.ones((3, 2)), np.empty((0, 2)))

    def test_batch_memory_is_not_rows_by_classes_by_dim(self, rng):
        n, c, v, s = 500, 40, 256, 8
        sem = SemanticTable(vectors={f"k{j:02d}": rng.normal(size=s) for j in range(c)})
        model = EmbeddingModel(weights=rng.normal(size=(v, s)), bias=rng.normal(size=v), ridge=0.0)
        feats = rng.normal(size=(n, v))
        tracemalloc.start()
        try:
            classify_embedding_batch(model, feats, set(sem.vectors), sem)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * c * v * 8 / 10  # the old broadcast tensor was 41 MB


@pytest.mark.parametrize("n, v, c", [(300, 40, 20), (50, 4000, 20), (1000, 3, 2)])
def test_duplicated_centers_match_the_per_row_form(n, v, c, rng):
    """Every row ties between the copies, so every row is re-decided: in
    blocks of several rows, of one row (c * v above the block budget), and
    in one block."""
    centers = rng.normal(size=(c, v))
    centers[c // 2 :] = centers[: c - c // 2]
    x = np.concatenate([rng.normal(size=(n - 10, v)), (centers[:5] + centers[-5:]) / 2,
                        centers[:5]])
    np.testing.assert_array_equal(nearest_rows(x, centers), direct_argmin(x, centers))


def test_nearest_rows_holds_no_float64_copy_of_the_rows(rng):
    """3000 float32 rows of 512 values against 50 centers: the float64
    copy of the rows alone would be 11.7 MiB."""
    n, v, c = 3000, 512, 50
    x = rng.normal(size=(n, v)).astype(np.float32)
    centers = rng.normal(size=(c, v))
    expected = nearest_rows(x.astype(np.float64), centers)
    tracemalloc.start()
    try:
        picks = nearest_rows(x, centers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(picks, expected)
    assert peak < n * v * 8


def test_zero_width_rows_take_one_block():
    assert nearest_rows(np.ones((3, 0)), np.ones((2, 0))).tolist() == [0, 0, 0]
    clf = fit_classifier(np.ones((4, 0)), list("abab"), config=ClassifierConfig(epochs=2))
    assert clf.weights.shape == (2, 0) and clf.loss_history == (math.log(2),) * 3


class TestFitGenerator:
    def test_degenerate_single_class(self):
        train = table([[3.0, 5.0]] * 4, ["a"] * 4)
        sem = SemanticTable(vectors={"a": [2.0]})
        model = fit_generator(train, sem, ridge=0.0)
        np.testing.assert_allclose(model.class_mean(sem["a"]), [3.0, 5.0], atol=1e-12)
        np.testing.assert_array_equal(model.covariance, [COVARIANCE_FLOOR] * 2)

    def test_desk_bundle_at_ridge_zero_is_singular(self, data_dir):
        # 12 class groups cannot fix a 20-d semantic map
        bundle = load_bundle(data_dir)
        with pytest.raises(SingularFitError, match="ridge"):
            fit_generator(bundle.train_seen, bundle.semantics, ridge=0.0)

    def test_interpolated_rows_do_not_raise_the_rank_at_ridge_zero(self, standard_benchmark):
        from hardboost.hardness import HardnessReport, ss_scores
        from hardboost.hars import synthesize_hard_seen

        # 12 class groups and 360 virtual ones, each mixing two of the 12 classes
        bundle, _, _ = standard_benchmark
        sem, split = bundle.semantics, bundle.split
        hard = HardnessReport.from_scores("ss", ss_scores(sem, split), 3).hard
        synth = synthesize_hard_seen(bundle.train_seen, sem, split, hard, 2.0, 2, seed=0)
        assert len(synth) == 360
        with pytest.raises(SingularFitError, match="ridge"):
            fit_generator(bundle.train_seen, sem, ridge=0.0, synth=synth)

    def test_recovers_planted_linear_map(self, standard_benchmark):
        bundle, _, w0 = standard_benchmark
        model = fit_generator(bundle.train_seen, bundle.semantics, ridge=1e-6)
        seen = sorted(bundle.split.seen)
        sems = bundle.semantics.matrix(seen)
        predicted = sems @ model.coeff.T
        true = sems @ w0.T
        # class-mean estimates carry noise O(noise_scale / sqrt(n))
        assert np.abs(predicted - true).max() < 0.1

    def test_synth_rows_change_the_fit(self, standard_benchmark):
        from hardboost.hars import synthesize_hard_seen

        bundle, planted, _ = standard_benchmark
        synth = synthesize_hard_seen(
            bundle.train_seen, bundle.semantics, bundle.split, planted, 1.0, 2, seed=0
        )
        without = fit_generator(bundle.train_seen, bundle.semantics, ridge=0.1)
        with_synth = fit_generator(bundle.train_seen, bundle.semantics, ridge=0.1, synth=synth)
        assert not np.array_equal(without.coeff, with_synth.coeff)

    def test_synth_groups_fit_as_one_reduction_per_group(self, rng):
        from hardboost.hars import SynthSet

        # 20 virtual rows on 11 semantic vectors: rows sharing a vector pool
        # into one group, the others stay singletons.  Vectors 9 and 10 differ
        # only in 0.0 against -0.0, so they are two groups, and the groups'
        # first rows come in neither vector order nor byte order.
        train = table(rng.normal(size=(40, 6)), [f"s{i % 4}" for i in range(40)])
        sem = SemanticTable(vectors={f"s{i}": rng.normal(size=3) for i in range(4)})
        vecs = rng.normal(size=(11, 3))
        vecs[9:] = vecs[0]
        vecs[9, 1], vecs[10, 1] = 0.0, -0.0
        picks = [10, 4, 9, 8, 10, 2, 9, 4, 0, 7, 8, 10, 5, 1, 9, 3, 6, 4, 2, 10]
        # gamma 1 with both endpoints on one row reproduces that row, -0.0 too
        feats = rng.normal(size=(20, 6))
        synth = SynthSet(
            gamma=np.ones(20),
            source_rows=np.repeat(np.arange(20)[:, None], 2, axis=1),
            source_classes=np.array([["s0", "s1"]] * 20),
            train_features=feats,
            support_semantics=vecs,
            support_rows=np.repeat(np.array(picks)[:, None], 2, axis=1),
        )
        assert synth.features.tobytes() == feats.tobytes()
        assert synth.semantics.tobytes() == vecs[picks].tobytes()
        groups = {}
        for i, vec in enumerate(synth.semantics):
            groups.setdefault(vec.tobytes(), []).append(i)
        assert [rows[0] for rows in groups.values()] == [0, 1, 2, 3, 5, 8, 9, 12, 13, 15, 16]
        _, means, counts, sems, scatters = _class_means(train, sem, scatter=True)
        sq_dev = np.zeros(6)
        for scatter in scatters:
            sq_dev += scatter
        design, targets = [sems], [means]
        for rows in groups.values():
            members = synth.features[rows]
            mean = members.mean(axis=0)
            design.append(synth.semantics[rows[:1]])
            targets.append(mean[None, :])
            sq_dev += ((members - mean) ** 2).sum(axis=0)
        dof = counts.sum() + len(synth) - len(design[0]) - len(groups)

        coeff = _ridge_solve(np.concatenate(design), np.concatenate(targets), 0.1)
        covariance = np.maximum(sq_dev / dof, COVARIANCE_FLOOR)
        # every row hashing alike puts every group in one bucket
        for hashed in (contextlib.nullcontext(),
                       mock.patch.object(models, "hash", lambda key: 0, create=True)):
            with hashed:
                model = fit_generator(train, sem, 0.1, synth)
            assert model.coeff.tobytes() == coeff.tobytes()
            assert model.covariance.tobytes() == covariance.tobytes()

    def test_singleton_synth_rows_are_copied_once(self, rng):
        # 2400 virtual rows on distinct semantic vectors: one group each
        from hardboost.hars import SynthSet

        train = table(rng.normal(size=(40, 256)), [f"s{i % 4}" for i in range(40)])
        sem = SemanticTable(vectors={f"s{i}": rng.normal(size=64) for i in range(4)})
        synth = SynthSet(
            gamma=np.ones(2400),
            source_rows=np.repeat(np.arange(2400)[:, None], 2, axis=1),
            source_classes=np.array([["s0", "s1"]] * 2400),
            train_features=rng.normal(size=(2400, 256)),
            support_semantics=rng.normal(size=(2400, 64)),
            support_rows=np.repeat(np.arange(2400)[:, None], 2, axis=1),
        )
        fit_generator(train, sem, 0.1)  # caches the class statistics
        tracemalloc.start()
        try:
            fit_generator(train, sem, 0.1, synth)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        design_and_targets = 2404 * (64 + 256) * 8
        assert peak < 1.5 * design_and_targets

    def test_a_cached_refit_holds_no_float64_copy_of_the_table(self, rng):
        # 40 classes of 75 rows, 128-d: one class in float64 is 75 KiB
        labels = [f"s{i % 40:02d}" for i in range(3000)]
        train = table(rng.normal(size=(3000, 128)), labels)
        sem = SemanticTable(vectors={c: rng.normal(size=16) for c in set(labels)})
        fit_generator(train, sem, 0.1)  # caches the class statistics
        tracemalloc.start()
        try:
            fit_generator(train, sem, 0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * train.features.nbytes


class TestFitPredictUnseen:
    @pytest.mark.parametrize("base", ["embedding", "generative"])
    def test_a_row_selected_twice_fits_as_a_table_holding_it_twice(self, standard_benchmark, base):
        bundle, _, _ = standard_benchmark
        train, test = bundle.train_seen, bundle.test_unseen
        row, label = 5, bundle.test_unseen.labels[5]
        holding = replace(bundle, train_seen=FeatureTable(
            features=np.concatenate([train.features, test.features[[row, row]]]),
            labels=train.labels + (label, label),
        ))
        args = (base, 0.1, 5, ClassifierConfig(epochs=5), 0, "s")
        selected = fit_predict_unseen(bundle, [(row, label), (row, label)], *args)
        assert selected == fit_predict_unseen(holding, [], *args)
        assert set(selected) <= bundle.split.unseen

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        order=st.integers(0, 2**32 - 1),
    )
    def test_permuting_test_rows_permutes_embedding_predictions(self, seed, order):
        bundle, _, _ = make_benchmark(BenchmarkSpec(
            seen_count=4, unseen_count=3, semantic_dim=8, visual_dim=4, n_per_class=4,
            hard_pairs=1, affinity_gap=0.2, noise_scale=0.1, seed=seed,
        ))
        test = bundle.test_unseen
        perm = np.random.default_rng(order).permutation(test.n)
        shuffled = replace(bundle, test_unseen=FeatureTable(
            features=test.features[perm], labels=tuple(test.labels[i] for i in perm),
        ))
        args = ([], "embedding", 0.1, 5, ClassifierConfig(), 0)
        preds = fit_predict_unseen(bundle, *args)
        assert fit_predict_unseen(shuffled, *args) == [preds[i] for i in perm]

    # repeated rows and the empty selection
    merges = dict(
        counts=st.lists(st.integers(1, 7), min_size=1, max_size=5),
        unseen=st.integers(1, 4),
        test_rows=st.integers(1, 12),
        picks=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 8)), max_size=25),
        seed=st.integers(0, 2**32 - 1),
    )

    @staticmethod
    def merge(counts, unseen, test_rows, picks, seed):
        """A seen table, test rows, a selection, and the table they merge into."""
        rng = np.random.default_rng(seed)
        seen = [f"s{i}" for i in range(len(counts))]
        space = [f"u{i}" for i in range(unseen)]
        sem = SemanticTable(vectors={c: rng.normal(size=3) for c in seen + space})
        labels = [c for c, n in zip(seen, counts) for _ in range(n)]
        # magnitudes 2**-30..2**30 apart, so float64 sums round and their order shows
        def rows(n):
            return (rng.normal(size=(n, 5)) * 2.0 ** rng.integers(-30, 31, size=(n, 1))).astype(
                np.float32
            )

        train = table(rows(len(labels)), rng.permutation(labels))
        test = rows(test_rows)
        selected = [(row % test_rows, space[k % len(space)]) for row, k in picks]
        merged = FeatureTable(
            features=np.concatenate([train.features, test[[row for row, _ in selected]]]),
            labels=train.labels + tuple(label for _, label in selected),
        )
        return sem, train, test, selected, merged

    @settings(max_examples=60, deadline=None)
    @given(**merges)
    def test_merged_statistics_equal_those_of_the_merged_table(self, **draw):
        sem, train, test, selected, merged = self.merge(**draw)
        cached = [*train.class_stats()[1:], train.class_scatters()]  # in place before the merge
        before = [a.copy() for a in cached]

        got = _class_means(train, sem, test, selected, scatter=True)
        want = _class_means(merged, sem, scatter=True)
        assert got[0] == want[0]
        assert got[1].tobytes() == want[1].tobytes()
        np.testing.assert_array_equal(got[2], want[2])
        assert got[3].tobytes() == want[3].tobytes()
        assert got[4].tobytes() == want[4].tobytes()
        assert _class_means(train, sem, test, selected)[4] is None
        # the table's cached statistics are untouched
        assert all(np.array_equal(a, b) for a, b in zip(cached, before))

    @settings(max_examples=40, deadline=None)
    @given(**merges)
    def test_a_merged_generator_fit_equals_the_fit_on_the_merged_table(self, **draw):
        sem, train, test, selected, merged = self.merge(**draw)
        got = fit_generator(train, sem, 0.1, extra=test, selected=selected)
        want = fit_generator(merged, sem, 0.1)
        assert got.coeff.tobytes() == want.coeff.tobytes()
        assert got.covariance.tobytes() == want.covariance.tobytes()

    @pytest.mark.parametrize("fit", [
        lambda b, sel: fit_predict_unseen(b, sel, "embedding", 0.1, 5, ClassifierConfig(), 0),
        lambda b, sel: fit_predict_unseen(b, sel, "generative", 0.1, 5, ClassifierConfig(), 0),
        lambda b, sel: fit_generator(
            b.train_seen, b.semantics, 0.1, extra=b.test_unseen.features, selected=sel
        ),
    ], ids=["embedding", "generative", "fit_generator"])
    def test_selecting_a_training_class_is_rejected(self, standard_benchmark, fit):
        bundle, _, _ = standard_benchmark
        seen = sorted(bundle.split.seen)[1]
        selected = [(0, sorted(bundle.split.unseen)[0]), (1, seen)]
        with pytest.raises(ValueError, match=f"selected label '{seen}' is a class of the train"):
            fit(bundle, selected)

    def test_the_generative_classifier_trains_on_the_drawn_rows_alone(
        self, standard_benchmark, monkeypatch
    ):
        bundle, _, _ = standard_benchmark
        fits = []

        def recording(feats, labels, classes, config):
            fits.append((len(feats), sorted(set(labels)), classes))
            return fit_classifier(feats, labels, classes, config)

        monkeypatch.setattr(models, "fit_classifier", recording)
        selected = [(0, bundle.test_unseen.labels[0])] * 3
        fit_predict_unseen(bundle, selected, "generative", 0.1, 5, ClassifierConfig(epochs=2), 0)
        unseen = sorted(bundle.split.unseen)
        # neither the seen training rows nor the selected rows join the draws
        assert fits == [(5 * len(unseen), unseen, unseen)]

    def test_a_selected_label_without_a_semantic_vector_raises(self, standard_benchmark):
        bundle, _, _ = standard_benchmark
        args = ("embedding", 0.1, 5, ClassifierConfig(), 0)
        with pytest.raises(ValueError, match="training label 'nowhere' has no semantic vector"):
            fit_predict_unseen(bundle, [(0, "u00"), (1, "nowhere")], *args)

    @pytest.mark.parametrize("base", ["embedding", "generative"])
    def test_a_refit_builds_no_merged_table(self, rng, base):
        # 40 seen classes of 75 rows, 8 unseen classes of 5 test rows, 128-d
        seen = [f"s{i:02d}" for i in range(40)]
        unseen = [f"u{i}" for i in range(8)]
        sem = SemanticTable(vectors={c: rng.normal(size=16) for c in seen + unseen})
        train = table(rng.normal(size=(3000, 128)), [seen[i % 40] for i in range(3000)])
        test = table(rng.normal(size=(40, 128)), [unseen[i % 8] for i in range(40)])
        bundle = DatasetBundle(train_seen=train, test_unseen=test, semantics=sem,
                               split=ClassSplit(seen=frozenset(seen), unseen=frozenset(unseen)))
        args = (base, 0.1, 5, ClassifierConfig(), 0)
        fit_predict_unseen(bundle, [], *args)  # caches the seen statistics
        selected = [(i, unseen[i % 8]) for i in range(40)] * 5
        tracemalloc.start()
        try:
            fit_predict_unseen(bundle, selected, *args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < train.features.nbytes

    def test_unknown_base_rejected(self, standard_benchmark):
        bundle, _, _ = standard_benchmark
        with pytest.raises(ValueError, match="unknown base model"):
            fit_predict_unseen(bundle, [], "knn", 0.1, 5, ClassifierConfig(), 0)


class TestSampleGenerator:
    def model(self):
        train = table([[1.0, 2.0], [1.2, 1.8], [3.0, 0.0], [2.8, 0.4]], ["a", "a", "b", "b"])
        sem = SemanticTable(vectors={"a": [1.0], "b": [3.0]})
        return fit_generator(train, sem, ridge=1e-9), sem

    def test_zero_samples(self):
        model, sem = self.model()
        assert sample_generator(model, sem["a"], 0, seed=0).shape == (0, 2)

    def test_floored_covariance_collapses(self):
        train = table([[5.0, -1.0]] * 3, ["a"] * 3)
        sem = SemanticTable(vectors={"a": [1.0]})
        model = fit_generator(train, sem, ridge=0.0)
        out = sample_generator(model, sem["a"], 3, seed=1)
        np.testing.assert_allclose(out, np.tile([5.0, -1.0], (3, 1)), atol=1e-2)

    def test_deterministic_given_seed(self):
        model, sem = self.model()
        np.testing.assert_array_equal(
            sample_generator(model, sem["b"], 5, seed=42),
            sample_generator(model, sem["b"], 5, seed=42),
        )

    def test_empirical_mean_matches(self):
        model, sem = self.model()
        n = 100_000
        samples = sample_generator(model, sem["a"], n, seed=7)
        bound = 4 * np.sqrt(model.covariance / n)
        assert (np.abs(samples.mean(axis=0) - model.class_mean(sem["a"])) < bound).all()


class TestSamplePerClass:
    def model(self):
        return TestSampleGenerator().model()

    def test_class_i_draws_its_own_substream_in_dict_order(self):
        model, sem = self.model()
        counts = {"b": 3, "a": 2}  # not sorted: the dict's order rules
        feats, labels = sample_per_class(model, sem, counts, 9, "stream", 4)
        assert labels == ["b", "b", "b", "a", "a"]
        expected = [
            sample_generator(model, sem[cls], n, child_seed(9, "stream", 4, i))
            for i, (cls, n) in enumerate(counts.items())
        ]
        # each class is drawn in float64 and cast into the float32 rows
        assert feats.dtype == np.float32
        np.testing.assert_array_equal(feats, np.concatenate(expected).astype(np.float32))

    def test_zero_count_gives_no_rows(self):
        model, sem = self.model()
        feats, labels = sample_per_class(model, sem, {"a": 0, "b": 2}, 1, "s")
        assert labels == ["b", "b"]
        np.testing.assert_array_equal(
            feats, sample_generator(model, sem["b"], 2, child_seed(1, "s", 1)).astype(np.float32)
        )
        feats, labels = sample_per_class(model, sem, {"a": 0}, 1, "s")
        assert feats.shape == (0, 2) and labels == []

    def test_one_class_draw_is_sample_generator_cast(self):
        model, sem = self.model()
        rows = np.empty((7, 2), dtype=np.float32)
        mean = model.class_mean(sem["a"])
        draw_class_rows(
            [rows], lambda i: (np.random.default_rng(5), mean), np.sqrt(model.covariance)
        )
        expected = sample_generator(model, sem["a"], 7, seed=5).astype(np.float32)
        assert rows.tobytes() == expected.tobytes()

    def test_the_calling_thread_derives_every_class_in_order(self, available_cpus):
        available_cpus(2)
        rows = [np.empty((n, 256), dtype=np.float32) for n in range(200, 210)]
        assert sum(r.size for r in rows) >= models._DRAW_VALUES
        derived, drawn = [], []

        class Recording:
            def __init__(self, i):
                self.rng = np.random.default_rng(i)

            def standard_normal(self, out):
                drawn.append(threading.get_ident())
                self.rng.standard_normal(out=out)

        def derive(i):
            derived.append((i, threading.get_ident()))
            return Recording(i), np.full(256, float(i))

        before = threading.active_count()
        draw_class_rows(rows, derive, 0.5)
        me = threading.get_ident()
        assert derived == [(i, me) for i in range(len(rows))]
        assert len(drawn) == len(rows) and len(set(drawn)) <= 2
        assert threading.active_count() == before  # the helper is joined
        for i, out in enumerate(rows):
            z = np.random.default_rng(i).standard_normal(out.shape)
            assert out.tobytes() == (z * 0.5 + np.full(256, float(i))).astype(np.float32).tobytes()

    def test_a_helper_error_is_raised_on_the_calling_thread(self, available_cpus):
        available_cpus(2)
        rows = [np.empty((300, 256), dtype=np.float32) for _ in range(8)]
        rows[5] = np.empty((300, 128), dtype=np.float32)  # its draw cannot be cast into it
        rngs = [np.random.default_rng(i) for i in range(8)]
        with pytest.raises(ValueError, match="broadcast"):
            draw_class_rows(rows, lambda i: (rngs[i], np.zeros(256)), 1.0)

    def test_large_draws_do_not_depend_on_the_thread_count(
        self, available_cpus, thread_counts, monkeypatch
    ):
        rng = np.random.default_rng(3)
        v, s = 512, 6
        model = GenerativeModel(
            coeff=rng.normal(size=(v, s)), covariance=rng.uniform(0.01, 0.1, v), ridge=0.0
        )
        sem = SemanticTable(vectors={f"c{i:02d}": rng.normal(size=s) for i in range(12)})
        counts = {cls: 40 + i for i, cls in enumerate(sem.vectors)}
        assert sum(counts.values()) * v >= models._DRAW_VALUES
        draws = []
        interval = sys.getswitchinterval()
        try:
            # 8 threads, more than the cores, switching as often as they can
            sys.setswitchinterval(1e-6)
            for cpus, sweep_worker in ((1, False), (2, False), (8, False), (2, True)):
                available_cpus(cpus)
                monkeypatch.setattr(models, "_one_thread_per_fit", sweep_worker)
                feats, labels = sample_per_class(model, sem, counts, 8, "stream")
                draws.append(feats.tobytes())
        finally:
            sys.setswitchinterval(interval)
        # the calling thread and its helpers, or no split at all
        assert thread_counts == [1, 2, 8, 1]
        assert draws[0] == draws[1] == draws[2] == draws[3]
        expected = np.concatenate([
            sample_generator(model, sem[cls], n, child_seed(8, "stream", i))
            for i, (cls, n) in enumerate(counts.items())
        ]).astype(np.float32)
        assert draws[0] == expected.tobytes()


class TestClassifier:
    def test_separable_problem_reaches_full_accuracy(self, rng):
        a = rng.normal(size=(20, 2)) + [4.0, 0.0]
        b = rng.normal(size=(20, 2)) + [-4.0, 0.0]
        feats = np.concatenate([a, b])
        labels = ["a"] * 20 + ["b"] * 20
        model = fit_classifier(feats, labels, config=ClassifierConfig(epochs=300))
        assert predict_classifier_batch(model, feats) == labels

    def test_loss_non_increasing(self, rng):
        feats = rng.normal(size=(30, 3))
        labels = [f"c{i % 3}" for i in range(30)]
        model = fit_classifier(feats, labels)
        diffs = np.diff(model.loss_history)
        assert (diffs <= 1e-3).all()
        assert model.loss_history[-1] <= model.loss_history[0]

    def test_probabilities_form_simplex(self, rng):
        feats = rng.normal(size=(12, 3))
        labels = [f"c{i % 4}" for i in range(12)]
        model = fit_classifier(feats, labels)
        probs = softmax(model.logits(rng.normal(size=(50, 3)) * 10))
        assert (probs >= 0).all()
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_gradients_match_finite_differences(self, rng):
        for _ in range(20):
            n, v, c = rng.integers(3, 8), rng.integers(2, 5), rng.integers(2, 5)
            feats = rng.normal(size=(n, v))
            y = rng.integers(0, c, size=n)
            w = rng.normal(size=(c, v)) * 0.5
            b = rng.normal(size=c) * 0.5
            _, gw, gb = cross_entropy_and_grad(w, b, feats, y)
            eps = 1e-6

            def loss_at(w_, b_):
                logits = feats @ w_.T + b_
                shifted = logits - logits.max(axis=1, keepdims=True)
                log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
                return -log_probs[np.arange(n), y].mean()

            for idx in np.ndindex(w.shape):
                bump = np.zeros_like(w)
                bump[idx] = eps
                fd = (loss_at(w + bump, b) - loss_at(w - bump, b)) / (2 * eps)
                assert gw[idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)
            for i in range(c):
                bump = np.zeros_like(b)
                bump[i] = eps
                fd = (loss_at(w, b + bump) - loss_at(w, b - bump)) / (2 * eps)
                assert gb[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_duplicating_data_keeps_decision_function(self, rng):
        feats = rng.normal(size=(15, 3))
        labels = [f"c{i % 3}" for i in range(15)]
        single = fit_classifier(feats, labels)
        doubled = fit_classifier(
            np.concatenate([feats, feats]), labels + labels
        )
        probe = rng.normal(size=(40, 3)) * 2
        np.testing.assert_allclose(
            softmax(single.logits(probe)), softmax(doubled.logits(probe)), atol=1e-6
        )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_epoch(self, rng):
        feats = rng.normal(size=(10, 2))
        labels = ["a", "b"] * 5
        with pytest.raises(ValueError, match="epoch"):
            fit_classifier(feats, labels, config=ClassifierConfig(learning_rate=1e308))

    @staticmethod
    def assert_kernel_is_direct(w, b, feats, y, threads=_Threads()):
        """The buffered kernel against the class-major direct form in fresh
        C-ordered arrays of the inputs' dtype, with the loss in float64.  The
        reference must be C-ordered: an F-ordered ``(feats @ w.T).T`` would
        sum each row's classes pairwise."""
        n, c = len(feats), len(w)
        logits = np.ascontiguousarray((feats @ w.T).T) + b[:, None]
        probs = np.exp(logits - logits.max(axis=0))
        probs /= probs.sum(axis=0)
        picks = (y, np.arange(n))
        loss = float(-np.log(np.maximum(probs[picks], 1e-300, dtype=np.float64)).mean())
        probs[picks] -= 1.0
        probs /= n
        got = _loss_and_grad_into(w, b, feats, y * n + np.arange(n),
                                  np.full((n, c), np.nan, dtype=feats.dtype),
                                  np.full((c, n), np.nan, dtype=feats.dtype), threads)
        assert got[0] == loss
        assert got[1].dtype == got[2].dtype == feats.dtype
        assert got[1].tobytes() == (probs @ feats).tobytes()
        assert got[2].tobytes() == probs.sum(axis=1).tobytes()

    def buffered_kernel_cases(self, rng, dtype):
        """Row counts off every GEMM tile."""
        for n, v, c in [(997, 64, 33), (500, 24, 20), (7, 3, 2), (203, 16, 10), (61, 512, 50)]:
            feats = rng.normal(size=(n, v)).astype(dtype)
            y = rng.integers(0, c, size=n)
            w, b = (rng.normal(size=(c, v)) * 0.3).astype(dtype), rng.normal(size=c).astype(dtype)
            self.assert_kernel_is_direct(w, b, feats, y)

    def test_buffered_kernel_is_bit_equal_to_the_direct_form(self, rng):
        self.buffered_kernel_cases(rng, np.float64)

    def test_float32_buffered_kernel_is_bit_equal_to_the_direct_form(self, rng):
        self.buffered_kernel_cases(rng, np.float32)

    def cub_shape_case(self, rng, dtype):
        n, v, c = 6000, 512, 50
        assert len(_blocks(n, 8, v * c)) == 8 and len(_blocks(v, 256, n * c)) == 2
        feats = rng.normal(size=(n, v)).astype(dtype)
        y = rng.integers(0, c, size=n)
        w, b = (rng.normal(size=(c, v)) * 0.1).astype(dtype), rng.normal(size=c).astype(dtype)
        with ThreadPoolExecutor(1) as pool:
            for threads in (_Threads(), _Threads(pool, 2)):
                self.assert_kernel_is_direct(w, b, feats, y, threads)

    def test_blocked_kernel_is_bit_equal_to_the_direct_form_at_cub_shape(self, rng):
        self.cub_shape_case(rng, np.float64)

    def test_float32_blocked_kernel_is_bit_equal_to_the_direct_form_at_cub_shape(self, rng):
        self.cub_shape_case(rng, np.float32)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 1500).filter(lambda n: n % 8),
        # cut into column blocks (a multiple of 8, at least 512, and enough
        # rows times classes) or not
        v=st.sampled_from([3, 24, 130, 512, 520, 777]),
        c=st.integers(2, 61),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocked_kernel_is_bit_equal_to_the_class_major_form(self, n, v, c, dtype, seed):
        rng = np.random.default_rng(seed)
        feats = rng.normal(size=(n, v)).astype(dtype)
        y = rng.integers(0, c, size=n)
        w, b = (rng.normal(size=(c, v)) * 0.1).astype(dtype), rng.normal(size=c).astype(dtype)
        with ThreadPoolExecutor(1) as pool:
            for threads in (_Threads(), _Threads(pool, 2)):
                self.assert_kernel_is_direct(w, b, feats, y, threads)

    def test_fit_trains_in_float32_and_returns_float64_parameters(self, rng):
        feats = rng.normal(size=(30, 3))
        clf = fit_classifier(feats, [f"c{i % 3}" for i in range(30)])
        assert clf.weights.dtype == clf.bias.dtype == np.float64
        for param in (clf.weights, clf.bias):
            assert param.astype(np.float32).astype(np.float64).tobytes() == param.tobytes()

    def test_float32_fit_tracks_a_float64_reference(self, rng):
        # the same descent in float64; float32 rounding stays within a
        # hundred float32 epsilons of the largest weight
        n, v, c = 203, 16, 10
        y = rng.integers(0, c, size=n)
        feats = (rng.normal(size=(c, v))[y] + rng.normal(size=(n, v))).astype(np.float32)
        config = ClassifierConfig(learning_rate=0.3, epochs=60)
        clf = fit_classifier(feats, [f"c{i}" for i in y], [f"c{i}" for i in range(c)], config)
        feats = feats.astype(np.float64)
        w, b, history = np.zeros((c, v)), np.zeros(c), []
        for _ in range(config.epochs):
            loss, gw, gb = cross_entropy_and_grad(w, b, feats, y)
            history.append(loss)
            w, b = w - config.learning_rate * gw, b - config.learning_rate * gb
        history.append(cross_entropy_and_grad(w, b, feats, y)[0])
        tol = 100 * np.finfo(np.float32).eps
        np.testing.assert_allclose(clf.weights, w, rtol=0, atol=tol * np.abs(w).max())
        np.testing.assert_allclose(clf.bias, b, rtol=0, atol=tol * np.abs(w).max())
        np.testing.assert_allclose(clf.loss_history, history, rtol=tol)

    def test_an_underflowed_probability_keeps_a_finite_float64_loss(self):
        # after the first step the last row's true class "b" has probability
        # 0 in float32; its loss is the 1e-300 floor, not a divergence
        feats = np.array([[10.0]] * 3 + [[-10.0]] * 3 + [[10.0]])
        clf = fit_classifier(feats, list("aaabbbb"),
                             config=ClassifierConfig(learning_rate=10.0, epochs=3))
        w, b = clf.weights.astype(np.float32), clf.bias.astype(np.float32)
        assert softmax(feats.astype(np.float32) @ w.T + b)[-1, 1] == 0
        assert clf.loss_history[1:] == pytest.approx((-math.log(1e-300) / 7,) * 3)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        c=st.integers(4, 15).map(lambda k: 2 * k + 1),
        # dims cut into column blocks (a multiple of 8, at least 512) and not
        v=st.integers(130, 1100).filter(lambda v: v % 8)
        | st.integers(64, 95).map(lambda k: 8 * k).filter(lambda v: v % 64),
        extra=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fit_bytes_do_not_depend_on_the_cpu_count(self, c, v, extra, seed, available_cpus):
        # at least four row blocks, and two column blocks when v is cut
        n = max(32 * -(-_BLOCK_MADDS // (8 * v * c)), -(-(_BLOCK_MADDS // 128) // c)) + extra
        n += n % 64 == 0
        assert len(_blocks(n, 8, v * c)) >= 4
        assert v % 8 or len(_blocks(v, 256, n * c)) >= 2
        rng = np.random.default_rng(seed)
        feats = rng.normal(size=(n, v)) + rng.normal(size=(c, v))[np.arange(n) % c]
        labels = [f"k{i % c:02d}" for i in range(n)]
        fits = []
        for cpus in (1, 2, 3):
            available_cpus(cpus)
            clf = fit_classifier(feats, labels, config=ClassifierConfig(epochs=3))
            fits.append((clf.weights.tobytes(), clf.bias.tobytes(),
                         np.array(clf.loss_history).tobytes()))
        assert fits[0] == fits[1] == fits[2]

    def test_a_split_fit_joins_its_helper_before_it_returns(self, rng, available_cpus, monkeypatch):
        idents = set()

        def drain(fn, todo, _drain=models._drain):
            idents.add(threading.get_ident())
            _drain(fn, todo)

        monkeypatch.setattr(models, "_drain", drain)
        available_cpus(2)
        before = threading.active_count()
        fit_classifier(rng.normal(size=(2000, 100)), [f"c{i % 50:02d}" for i in range(2000)],
                       config=ClassifierConfig(epochs=2))
        assert len(idents) == 2  # the calling thread and one helper
        assert threading.active_count() == before

    @pytest.mark.parametrize(
        "bad",
        [{"learning_rate": 0.0}, {"learning_rate": -0.1}, {"learning_rate": float("nan")},
         {"learning_rate": float("inf")}, {"epochs": 0}, {"learning_rate": float("-inf")},
         {"epochs": -3}],
    )
    def test_config_rejects_settings_that_cannot_train(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            ClassifierConfig(**bad)


class TestPredictClassifier:
    @pytest.mark.parametrize("n, c, v", [(2003, 20, 512), (1000, 51, 312)])
    def test_row_blocks_equal_the_whole_table(self, n, c, v, rng):
        """Prediction computes the logits in several row blocks; each block's
        logits are bit-equal to the whole table's, so the argmax is too."""
        model = Classifier(
            classes=tuple(f"k{i:02d}" for i in range(c)),
            weights=rng.normal(size=(c, v)),
            bias=rng.normal(size=c),
            config=ClassifierConfig(),
        )
        feats = rng.normal(size=(n, v)).astype(np.float32)
        blocks = _blocks(n, 8, model.weights.size)
        assert len(blocks) > 1
        whole = model.logits(feats)
        for start, stop in blocks:
            np.testing.assert_array_equal(model.logits(feats[start:stop]), whole[start:stop])
        assert predict_classifier_batch(model, feats) == [
            model.classes[i] for i in whole.argmax(axis=1)
        ]

    def model(self):
        w = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
        return Classifier(
            classes=("a", "b", "c"),
            weights=w,
            bias=np.zeros(3),
            config=ClassifierConfig(),
        )

    def test_argmax(self):
        assert predict_classifier_batch(self.model(), [[5.0, 0.0]]) == ["a"]

    def test_shift_invariance(self):
        model = self.model()
        shifted = Classifier(
            classes=model.classes,
            weights=model.weights,
            bias=model.bias + 13.0,
            config=model.config,
        )
        for x in np.random.default_rng(0).normal(size=(20, 2)):
            assert predict_classifier_batch(model, [x]) == predict_classifier_batch(shifted, [x])

    def test_matches_max_scan(self, rng):
        model = self.model()
        for x in rng.normal(size=(30, 2)):
            logits = model.logits(x)[0]
            assert predict_classifier_batch(model, [x]) == [model.classes[int(np.argmax(logits))]]

    def test_tie_breaks_lexicographically(self):
        model = Classifier(
            classes=("a", "b"),
            weights=np.zeros((2, 2)),
            bias=np.zeros(2),
            config=ClassifierConfig(),
        )
        assert predict_classifier_batch(model, [[1.0, 1.0]]) == ["a"]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            predict_classifier_batch(self.model(), [[1.0, 2.0, 3.0]])


def test_relabeling_permutation_invariance(rng):
    """Renaming classes maps predictions through the renaming (tie-free)."""
    sem_vectors = {f"c{i}": rng.normal(size=3) for i in range(4)}
    train = table(rng.normal(size=(16, 3)), [f"c{i % 4}" for i in range(16)])
    model = fit_unit_counts(train, SemanticTable(vectors=sem_vectors), ridge=0.1)
    renaming = {"c0": "z3", "c1": "z1", "c2": "z0", "c3": "z2"}
    renamed_sem = SemanticTable(
        vectors={renaming[c]: v for c, v in sem_vectors.items()}
    )
    probes = rng.normal(size=(25, 3))
    base = classify_embedding_batch(
        model, probes, sem_vectors.keys(), SemanticTable(vectors=sem_vectors)
    )
    renamed = classify_embedding_batch(model, probes, renaming.values(), renamed_sem)
    assert renamed == [renaming[c] for c in base]

    clf = fit_classifier(train.features, list(train.labels), config=ClassifierConfig(epochs=50))
    relabeled = fit_classifier(
        train.features, [renaming[l] for l in train.labels],
        config=ClassifierConfig(epochs=50),
    )
    base_preds = predict_classifier_batch(clf, probes)
    renamed_preds = predict_classifier_batch(relabeled, probes)
    assert renamed_preds == [renaming[c] for c in base_preds]


def test_fit_embedding_rows_matches_class_mean_fit(rng):
    # with one row per class and unit counts all three are the same arithmetic
    sems = rng.normal(size=(6, 3))
    targets = rng.normal(size=(6, 4)).astype(np.float32)
    sem_table = SemanticTable(vectors={f"c{i}": sems[i] for i in range(6)})
    train = table(targets, [f"c{i}" for i in range(6)])
    by_class = fit_unit_counts(train, sem_table, ridge=0.1)
    by_means = fit_embedding_means(sems, targets.astype(np.float64), np.ones(6), ridge=0.1)
    by_rows = fit_embedding_rows(sems, targets.astype(np.float64), ridge=0.1)
    for model in (by_means, by_rows):
        np.testing.assert_array_equal(model.weights, by_class.weights)
        np.testing.assert_array_equal(model.bias, by_class.bias)


@settings(max_examples=60, deadline=None)
@given(
    # two or more classes: with one, the slope is exactly zero and only
    # rounding noise is left to compare
    counts=st.lists(st.integers(1, 6), min_size=2, max_size=7),
    s=st.integers(1, 5),
    v=st.integers(1, 4),
    ridge=st.floats(1e-3, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_count_weighted_fit_matches_row_level_fit(counts, s, v, ridge, seed):
    """Class means weighted by row count give the row-level ridge fit."""
    rng = np.random.default_rng(seed)
    sems = rng.normal(size=(len(counts), s))
    rows = [rng.normal(size=(n, v)) + rng.normal(size=v) for n in counts]
    means = np.stack([r.mean(axis=0) for r in rows])
    weighted = fit_embedding_means(sems, means, np.array(counts), ridge)
    reference = fit_embedding_rows(
        np.repeat(sems, counts, axis=0), np.concatenate(rows), ridge
    )
    # the float order differs, so entries near zero are held to 1e-9 of the
    # scale of their terms rather than of themselves
    w_scale = np.abs(reference.weights).max()
    np.testing.assert_allclose(weighted.weights, reference.weights, rtol=1e-9, atol=1e-9 * w_scale)
    b_scale = np.abs(means).max()
    np.testing.assert_allclose(weighted.bias, reference.bias, rtol=1e-9, atol=1e-9 * b_scale)


@pytest.mark.parametrize(
    "counts", [[1.0, 0.0], [1.0, -2.0], [1.0, np.nan], [1.0], [[1.0, 1.0]]]
)
def test_fit_embedding_means_rejects_bad_counts(counts):
    with pytest.raises(ValueError, match="count"):
        fit_embedding_means(np.eye(2), np.ones((2, 3)), np.array(counts), ridge=0.1)
