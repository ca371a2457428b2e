import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardboost.benchmark import BenchmarkSpec, make_benchmark
from hardboost.data import FeatureTable, SemanticTable, load_bundle
from hardboost.models import (
    COVARIANCE_FLOOR,
    _loss_and_grad_into,
    _ridge_solve,
    _softmax,
    Classifier,
    ClassifierConfig,
    EmbeddingModel,
    SingularFitError,
    classify_embedding_batch,
    cross_entropy_and_grad,
    fit_classifier,
    fit_embedding,
    fit_embedding_means,
    fit_generator,
    fit_predict_unseen,
    nearest_rows,
    predict_classifier_batch,
    predict_proba,
    sample_generator,
    sample_per_class,
)
from hardboost.rng import child_seed


def table(features, labels):
    return FeatureTable(features=np.asarray(features, dtype=np.float32), labels=tuple(labels))


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
        model = fit_embedding(train, sem, ridge=0.0)
        assert model.weights[0, 0] == pytest.approx(2.0)
        assert model.bias[0] == pytest.approx(0.0, abs=1e-12)

    def test_large_ridge_shrinks_to_global_mean(self):
        train = table([[2.0], [4.0]], ["a", "b"])
        sem = SemanticTable(vectors={"a": [1.0], "b": [2.0]})
        model = fit_embedding(train, sem, ridge=1e9)
        assert abs(model.weights[0, 0]) < 1e-6
        assert model.bias[0] == pytest.approx(3.0, abs=1e-6)

    def test_singular_fit_advises_ridge(self, rng):
        # 2 classes in a 3-dimensional semantic space: rank-deficient at ridge 0
        train = table(rng.normal(size=(4, 2)), ["a", "a", "b", "b"])
        sem = SemanticTable(vectors={"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0]})
        with pytest.raises(SingularFitError, match="ridge"):
            fit_embedding(train, sem, ridge=0.0)

    def test_desk_bundle_at_ridge_zero_is_singular(self, data_dir):
        # 12 seen classes span at most 11 centred directions of a 20-d semantic space
        bundle = load_bundle(data_dir)
        with pytest.raises(SingularFitError, match="ridge"):
            fit_embedding(bundle.train_seen, bundle.semantics, ridge=0.0)

    def test_refit_is_bit_identical(self, rng):
        train = table(rng.normal(size=(20, 4)), [f"c{i % 5}" for i in range(20)])
        sem = SemanticTable(vectors={f"c{i}": rng.normal(size=3) for i in range(5)})
        first = fit_embedding(train, sem, ridge=0.1)
        second = fit_embedding(train, sem, ridge=0.1)
        assert np.array_equal(first.weights, second.weights)
        assert np.array_equal(first.bias, second.bias)

    def test_fit_is_locally_optimal(self, rng):
        # the closed form beats 100 random perturbations on the ridge objective
        train = table(rng.normal(size=(25, 4)), [f"c{i % 5}" for i in range(25)])
        sem = SemanticTable(vectors={f"c{i}": rng.normal(size=3) for i in range(5)})
        ridge = 0.05
        model = fit_embedding(train, sem, ridge=ridge)
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
        return fit_embedding(train, self.SEM, ridge=1e-9)

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
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        duplicate=st.booleans(),
    )
    def test_equals_direct_argmin_on_planted_ties(self, v, c, seed, scale, duplicate):
        rng = np.random.default_rng(seed)
        # small integer grids make exact distance ties common
        centers = rng.integers(-3, 4, size=(c, v)) * scale
        if duplicate and c > 1:
            centers[-1] = centers[0]
        a = rng.integers(0, c, size=8)
        b = rng.integers(0, c, size=8)
        x = np.concatenate([
            (centers[a] + centers[b]) / 2,  # midpoints between two centers
            centers[a],  # exact center hits
            rng.integers(-3, 4, size=(8, v)) * scale,
            rng.normal(size=(4, v)) * scale,
        ])
        np.testing.assert_array_equal(nearest_rows(x, centers), direct_argmin(x, centers))

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


class TestFitPredictUnseen:
    @pytest.mark.parametrize("base", ["embedding", "generative"])
    @pytest.mark.parametrize("space", ["unseen", "all"])
    def test_a_row_selected_twice_fits_as_a_table_holding_it_twice(
        self, standard_benchmark, base, space
    ):
        bundle, _, _ = standard_benchmark
        train, test = bundle.train_seen, bundle.test_unseen
        row, label = 5, bundle.test_unseen.labels[5]
        holding = replace(bundle, train_seen=FeatureTable(
            features=np.concatenate([train.features, test.features[[row, row]]]),
            labels=train.labels + (label, label),
        ))
        split = bundle.split
        candidates = sorted(split.unseen if space == "unseen" else split.all_classes)
        args = (base, candidates, 0.1, 5, ClassifierConfig(epochs=5), 0, "s")
        selected = fit_predict_unseen(bundle, [(row, label), (row, label)], *args)
        assert selected == fit_predict_unseen(holding, [], *args)
        assert set(selected) <= set(candidates)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        order=st.integers(0, 2**32 - 1),
        all_classes=st.booleans(),
    )
    def test_permuting_test_rows_permutes_embedding_predictions(self, seed, order, all_classes):
        bundle, _, _ = make_benchmark(BenchmarkSpec(
            seen_count=4, unseen_count=3, semantic_dim=8, visual_dim=4, n_per_class=4,
            hard_pairs=1, affinity_gap=0.2, noise_scale=0.1, seed=seed,
        ))
        test = bundle.test_unseen
        perm = np.random.default_rng(order).permutation(test.n)
        shuffled = replace(bundle, test_unseen=FeatureTable(
            features=test.features[perm], labels=tuple(test.labels[i] for i in perm),
        ))
        split = bundle.split
        candidates = sorted(split.all_classes if all_classes else split.unseen)
        args = ([], "embedding", candidates, 0.1, 5, ClassifierConfig(), 0)
        preds = fit_predict_unseen(bundle, *args)
        assert fit_predict_unseen(shuffled, *args) == [preds[i] for i in perm]

    def test_unknown_base_rejected(self, standard_benchmark):
        bundle, _, _ = standard_benchmark
        with pytest.raises(ValueError, match="unknown base model"):
            fit_predict_unseen(bundle, [], "knn", ["u00"], 0.1, 5, ClassifierConfig(), 0)


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
        np.testing.assert_array_equal(feats, np.concatenate(expected))

    def test_zero_count_gives_no_rows(self):
        model, sem = self.model()
        feats, labels = sample_per_class(model, sem, {"a": 0, "b": 2}, 1, "s")
        assert labels == ["b", "b"]
        np.testing.assert_array_equal(
            feats, sample_generator(model, sem["b"], 2, child_seed(1, "s", 1))
        )
        feats, labels = sample_per_class(model, sem, {"a": 0}, 1, "s")
        assert feats.shape == (0, 2) and labels == []


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
        probs = predict_proba(model, rng.normal(size=(50, 3)) * 10)
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
            predict_proba(single, probe), predict_proba(doubled, probe), atol=1e-6
        )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_epoch(self, rng):
        feats = rng.normal(size=(10, 2))
        labels = ["a", "b"] * 5
        with pytest.raises(ValueError, match="epoch"):
            fit_classifier(feats, labels, config=ClassifierConfig(learning_rate=1e308))

    def test_buffered_kernel_is_bit_equal_to_the_direct_form(self, rng):
        """Row counts off every GEMM tile, and batches shorter than the buffers."""
        for n, v, c, rows in [(997, 64, 33, 1000), (500, 24, 20, 500), (7, 3, 2, 40),
                              (203, 16, 10, 216), (61, 512, 50, 61)]:
            feats = rng.normal(size=(n, v))
            y = rng.integers(0, c, size=n)
            w, b = rng.normal(size=(c, v)) * 0.3, rng.normal(size=c)
            probs = _softmax(feats @ w.T + b)
            loss = float(-np.log(np.maximum(probs[np.arange(n), y], 1e-300)).mean())
            probs[np.arange(n), y] -= 1.0
            probs /= n
            got = _loss_and_grad_into(
                w, b, feats, y, np.arange(rows), np.full((rows, c), np.nan), np.empty((c, rows))
            )
            assert got[0] == loss
            assert got[1].tobytes() == (probs.T @ feats).tobytes()
            assert got[2].tobytes() == probs.sum(axis=0).tobytes()

    @pytest.mark.parametrize(
        "bad",
        [{"learning_rate": 0.0}, {"learning_rate": -0.1}, {"learning_rate": float("nan")},
         {"learning_rate": float("inf")}, {"epochs": 0}, {"batch_size": 0}, {"batch_size": -3}],
    )
    def test_config_rejects_settings_that_cannot_train(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            ClassifierConfig(**bad)

    def test_minibatch_deterministic(self, rng):
        feats = rng.normal(size=(30, 3))
        labels = [f"c{i % 3}" for i in range(30)]
        cfg = ClassifierConfig(epochs=20, batch_size=8, seed=5)
        first = fit_classifier(feats, labels, config=cfg)
        second = fit_classifier(feats, labels, config=cfg)
        assert np.array_equal(first.weights, second.weights)


class TestPredictClassifier:
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
    model = fit_embedding(train, SemanticTable(vectors=sem_vectors), ridge=0.1)
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
    by_class = fit_embedding(train, sem_table, ridge=0.1)
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
