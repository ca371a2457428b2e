import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardboost import models
from hardboost.config import RunConfig
from hardboost.data import ClassSplit, FeatureTable, SemanticTable
from hardboost.hardness import (
    HardnessReport,
    cosine_distance,
    cosine_distances,
    estimate_class_priors,
    normalize_by_prior,
    pseudo_label_histogram,
    rank_hard,
    semantic_similarity_matrix,
    ss_scores,
)


class TestCosineDistance:
    def test_identical_direction(self):
        assert cosine_distance([1, 0], [1, 0]) == pytest.approx(0.0)

    def test_orthogonal(self):
        assert cosine_distance([1, 0], [0, 1]) == pytest.approx(1.0)

    def test_opposite_scale_free(self):
        assert cosine_distance([1, 0], [-2, 0]) == pytest.approx(2.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            cosine_distance([0, 0], [1, 0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            cosine_distance([1, 0, 0], [1, 0])

    def test_many_at_once_keep_the_pairwise_bits(self):
        rng = np.random.default_rng(6)
        a, others = rng.normal(size=9), rng.normal(size=(6, 9))
        # the formula as each pairwise call computed it, both norms per call
        expected = [
            float(1.0 - np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))) for b in others
        ]
        assert cosine_distances(a, others) == expected
        assert [cosine_distance(a, b) for b in others] == expected
        with pytest.raises(ValueError, match="zero"):
            cosine_distances(a, [others[0], np.zeros(9)])


def _table(vectors):
    return SemanticTable(vectors={k: np.asarray(v, dtype=float) for k, v in vectors.items()})


class TestSsScores:
    def test_identical_unseen_orthogonal_seen(self):
        # nearest unseen at 0, three seen all orthogonal at 1: margin -1
        table = _table(
            {"u1": [1, 0], "u2": [1, 0], "s1": [0, 1], "s2": [0, 1], "s3": [0, 1]}
        )
        split = ClassSplit(seen=frozenset({"s1", "s2", "s3"}), unseen=frozenset({"u1", "u2"}))
        scores = ss_scores(table, split)
        assert scores["u1"] == pytest.approx(-1.0)

    def test_orthogonal_unseen_aligned_seen(self):
        table = _table(
            {"u1": [1, 0], "u2": [0, 1], "s1": [1, 0], "s2": [1, 0], "s3": [1, 0]}
        )
        split = ClassSplit(seen=frozenset({"s1", "s2", "s3"}), unseen=frozenset({"u1", "u2"}))
        assert ss_scores(table, split)["u1"] == pytest.approx(1.0)

    def test_matches_brute_force(self, rng):
        # independent recomputation with scalar cosine distances
        unseen = [f"u{i}" for i in range(5)]
        seen = [f"s{i}" for i in range(6)]
        vectors = {c: rng.normal(size=7) for c in unseen + seen}
        table = _table(vectors)
        split = ClassSplit(seen=frozenset(seen), unseen=frozenset(unseen))
        scores = ss_scores(table, split)
        for c in unseen:
            nearest = min(cosine_distance(vectors[c], vectors[o]) for o in unseen if o != c)
            seen_d = sorted(cosine_distance(vectors[c], vectors[s]) for s in seen)
            expected = nearest - np.mean(seen_d[:3])
            assert scores[c] == pytest.approx(expected, abs=1e-12)

    def test_fewer_than_two_unseen_rejected(self):
        table = _table({"u1": [1, 0], "s1": [0, 1], "s2": [0, 1], "s3": [1, 1]})
        split = ClassSplit(seen=frozenset({"s1", "s2", "s3"}), unseen=frozenset({"u1"}))
        with pytest.raises(ValueError, match="unseen"):
            ss_scores(table, split)

    def test_small_seen_set_warns(self):
        table = _table({"u1": [1, 0], "u2": [0, 1], "s1": [1, 1]})
        split = ClassSplit(seen=frozenset({"s1"}), unseen=frozenset({"u1", "u2"}))
        with pytest.warns(UserWarning, match="seen classes"):
            ss_scores(table, split)

    @settings(max_examples=30, deadline=None)
    @given(scale=st.floats(1e-3, 1e3), index=st.integers(0, 10))
    def test_scale_invariance(self, scale, index):
        rng = np.random.default_rng(99)
        classes = [f"c{i}" for i in range(11)]
        vectors = {c: rng.normal(size=6) for c in classes}
        split = ClassSplit(seen=frozenset(classes[:6]), unseen=frozenset(classes[6:]))
        base = ss_scores(_table(vectors), split)
        vectors[classes[index]] = vectors[classes[index]] * scale
        scaled = ss_scores(_table(vectors), split)
        for c in base:
            assert scaled[c] == pytest.approx(base[c], abs=1e-9)
        assert rank_hard(scaled, 3) == rank_hard(base, 3)


class TestRankHard:
    def test_basic_sort(self):
        assert rank_hard({"a": 0.5, "b": -0.2, "c": 0.1}, 2) == ["b", "c"]

    def test_tie_breaks_on_class_id(self):
        assert rank_hard({"b": 0.3, "a": 0.3}, 1) == ["a"]

    def test_full_sort(self):
        scores = {"a": 3.0, "b": 1.0, "c": 2.0}
        assert rank_hard(scores, 3) == ["b", "c", "a"]

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            rank_hard({"a": 1.0}, 2)
        with pytest.raises(ValueError):
            rank_hard({"a": 1.0}, 0)

    @settings(max_examples=40, deadline=None)
    @given(st.permutations(list(range(8))), st.integers(1, 8))
    def test_insertion_order_irrelevant(self, order, k):
        rng = np.random.default_rng(5)
        values = rng.normal(size=8)
        scores = {f"c{i}": float(values[i]) for i in range(8)}
        shuffled = {f"c{i}": scores[f"c{i}"] for i in order}
        assert rank_hard(scores, k) == rank_hard(shuffled, k)


class TestHistogram:
    SPLIT = ClassSplit(seen=frozenset({"s"}), unseen=frozenset({"c1", "c2", "c3"}))

    def test_direct_count(self):
        freqs = pseudo_label_histogram(["c1", "c1", "c2", "c3", "c3", "c3"], self.SPLIT)
        assert freqs == {"c1": 2, "c2": 1, "c3": 3}

    def test_empty(self):
        split = ClassSplit(seen=frozenset({"s"}), unseen=frozenset({"c1", "c2"}))
        assert pseudo_label_histogram([], split) == {"c1": 0, "c2": 0}

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="'zz'"):
            pseudo_label_histogram(["c1", "zz"], self.SPLIT)

    def test_matches_independent_recount(self, rng):
        labels = [f"c{rng.integers(1, 4)}" for _ in range(10_000)]
        freqs = pseudo_label_histogram(labels, self.SPLIT)
        manual = {"c1": 0, "c2": 0, "c3": 0}
        for l in labels:
            manual[l] += 1
        assert freqs == manual

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(["c1", "c2", "c3"]), max_size=200))
    def test_conservation(self, labels):
        freqs = pseudo_label_histogram(labels, self.SPLIT)
        assert sum(freqs.values()) == len(labels)


class TestPriorNormalization:
    def test_unbalance_correction(self):
        out = normalize_by_prior({"c1": 10, "c2": 10}, {"c1": 0.8, "c2": 0.2})
        assert out == {"c1": 12.5, "c2": 50.0}
        assert rank_hard(out, 1) == ["c1"]  # the large-prior class ranks harder

    def test_uniform_priors_preserve_ranking(self):
        freqs = {"c1": 7, "c2": 3, "c3": 11}
        uniform = {c: 1 / 3 for c in freqs}
        assert rank_hard(normalize_by_prior(freqs, uniform), 3) == rank_hard(
            {c: float(v) for c, v in freqs.items()}, 3
        )

    def test_zero_count_stays_zero(self):
        assert normalize_by_prior({"c": 0}, {"c": 0.4}) == {"c": 0.0}

    def test_bad_priors_rejected(self):
        with pytest.raises(ValueError, match="> 0"):
            normalize_by_prior({"c": 1}, {"c": 0.0})
        with pytest.raises(ValueError, match="differ"):
            normalize_by_prior({"c": 1}, {"d": 0.5})


class TestPriorEstimation:
    def test_single_class_is_forced(self):
        table = FeatureTable(features=np.ones((4, 2), dtype=np.float32), labels=("?",) * 4)
        split = ClassSplit(seen=frozenset({"s"}), unseen=frozenset({"c"}))
        assert estimate_class_priors(table, split, pseudo_labels=["c"] * 4) == {"c": 1.0}

    def test_planted_mixture_weights(self, rng):
        a = rng.normal(size=(30, 3)) * 0.1 + np.array([5.0, 0.0, 0.0])
        b = rng.normal(size=(70, 3)) * 0.1 + np.array([-5.0, 0.0, 0.0])
        table = FeatureTable(
            features=np.concatenate([a, b]).astype(np.float32), labels=("?",) * 100
        )
        split = ClassSplit(seen=frozenset({"s"}), unseen=frozenset({"c1", "c2"}))
        labels = ["c1"] * 30 + ["c2"] * 70
        priors = estimate_class_priors(table, split, pseudo_labels=labels)
        assert [priors["c1"], priors["c2"]] == pytest.approx([0.3, 0.7], abs=0.05)
        assert sum(priors.values()) == pytest.approx(1.0, abs=1e-9)

    def test_pseudo_label_attribution(self, rng):
        a = rng.normal(size=(30, 3)) * 0.1 + np.array([5.0, 0.0, 0.0])
        b = rng.normal(size=(70, 3)) * 0.1 + np.array([-5.0, 0.0, 0.0])
        table = FeatureTable(
            features=np.concatenate([a, b]).astype(np.float32), labels=("?",) * 100
        )
        split = ClassSplit(seen=frozenset({"s"}), unseen=frozenset({"c1", "c2"}))
        labels = ["c2"] * 30 + ["c1"] * 70  # the big cluster is predicted c1
        priors = estimate_class_priors(table, split, pseudo_labels=labels)
        assert priors["c1"] == pytest.approx(0.7, abs=0.05)
        assert priors["c2"] == pytest.approx(0.3, abs=0.05)

    def test_deterministic_given_seed(self, rng):
        """The estimate takes no seed: repeated calls give the same priors."""
        feats = rng.normal(size=(40, 3)).astype(np.float32)
        table = FeatureTable(features=feats, labels=("?",) * 40)
        split = ClassSplit(seen=frozenset({"s"}), unseen=frozenset({"c1", "c2", "c3"}))
        labels = ["c1", "c2", "c3"] * 13 + ["c1"]
        first = estimate_class_priors(table, split, pseudo_labels=labels)
        second = estimate_class_priors(table, split, pseudo_labels=labels)
        assert first == second

    @pytest.mark.parametrize(
        "labels",
        [
            ["c1"] * 30 + ["c2"] * 70,  # no row is labelled c3
            # c3 starts between the blobs, and its cluster empties
            ["c1"] * 29 + ["c3"] + ["c2"] * 69 + ["c3"],
        ],
        ids=["unnamed-class", "emptied-cluster"],
    )
    def test_a_class_without_rows_keeps_its_smoothing_share(self, rng, labels):
        a = rng.normal(size=(30, 3)) * 0.1 + np.array([5.0, 0.0, 0.0])
        b = rng.normal(size=(70, 3)) * 0.1 + np.array([-5.0, 0.0, 0.0])
        table = FeatureTable(
            features=np.concatenate([a, b]).astype(np.float32), labels=("?",) * 100
        )
        split = ClassSplit(seen=frozenset({"s"}), unseen=frozenset({"c1", "c2", "c3"}))
        priors = estimate_class_priors(table, split, pseudo_labels=labels)
        assert priors == pytest.approx({"c1": 31 / 103, "c2": 71 / 103, "c3": 1 / 103})
        assert np.isfinite(list(priors.values())).all()
        assert sum(priors.values()) == pytest.approx(1.0)

    def test_close_to_the_true_shares_on_the_desk_benchmark(self, standard_benchmark):
        """From the embedding base's initial pseudo labels, the estimate is
        within L1 0.05 of the true shares and gives no class less than half
        its share: ``pncf`` divides by that share."""
        bundle, _, _ = standard_benchmark
        config = RunConfig()
        labels = models.fit_predict_unseen(
            bundle, [], "embedding", sorted(bundle.split.unseen), config.ridge,
            config.n_unseen, config.classifier, config.seed,
        )
        priors = estimate_class_priors(bundle.test_unseen, bundle.split, labels)
        truth = bundle.class_priors
        assert sum(abs(priors[c] - truth[c]) for c in truth) < 0.05
        assert min(priors[c] / truth[c] for c in truth) > 0.5

    def test_memory_is_not_rows_by_clusters_by_dim(self, rng):
        n, c, v = 500, 40, 256
        means = rng.normal(size=(c, v)) * 10
        feats = means[np.arange(n) % c] + rng.normal(size=(n, v))
        table = FeatureTable(features=feats.astype(np.float32), labels=("?",) * n)
        split = ClassSplit(
            seen=frozenset({"s"}), unseen=frozenset(f"c{j:02d}" for j in range(c))
        )
        tracemalloc.start()
        try:
            priors = estimate_class_priors(
                table, split, pseudo_labels=[f"c{j % c:02d}" for j in range(n)]
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(priors) == c
        assert peak < n * c * v * 8 / 10  # the old broadcast tensor was 41 MB

    def test_clusters_the_float32_rows_without_a_float64_copy(self, rng):
        """3000 rows of 512 values in 50 clusters: the float64 copy of the
        table alone would be 11.7 MiB."""
        n, c, v = 3000, 50, 512
        means = rng.normal(size=(c, v)) * 10
        feats = means[np.arange(n) % c] + rng.normal(size=(n, v))
        table = FeatureTable(features=feats.astype(np.float32), labels=("?",) * n)
        split = ClassSplit(
            seen=frozenset({"s"}), unseen=frozenset(f"c{j:02d}" for j in range(c))
        )
        labels = [f"c{j % c:02d}" for j in range(n)]
        tracemalloc.start()
        try:
            priors = estimate_class_priors(table, split, pseudo_labels=labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(priors) == c and sum(priors.values()) == pytest.approx(1.0)
        assert peak < n * v * 8

    def test_too_few_samples(self):
        table = FeatureTable(features=np.ones((1, 2), dtype=np.float32), labels=("?",))
        split = ClassSplit(seen=frozenset({"s"}), unseen=frozenset({"c1", "c2"}))
        with pytest.raises(ValueError):
            estimate_class_priors(table, split, pseudo_labels=["c1"])


class TestHardnessReport:
    def test_json_round_trip(self, tmp_path):
        report = HardnessReport.from_scores("cf", {"a": 3.0, "b": 1.0, "c": 2.0}, 2)
        assert report.hard == ("b", "c")
        path = tmp_path / "hardness.json"
        report.write_json(path)
        loaded = HardnessReport.read_json(path)
        assert loaded == report

    def test_bad_metric_rejected(self):
        with pytest.raises(ValueError, match="metric"):
            HardnessReport(metric="nope", scores={"a": 1.0}, hard=("a",), k=1)


def test_similarity_matrix_is_cosine(rng):
    vectors = {f"c{i}": rng.normal(size=4) for i in range(4)}
    table = _table(vectors)
    classes = sorted(vectors)
    sim = semantic_similarity_matrix(table, classes)
    for i, a in enumerate(classes):
        for j, b in enumerate(classes):
            assert sim[i, j] == pytest.approx(1.0 - cosine_distance(vectors[a], vectors[b]), abs=1e-12)
