import numpy as np
import pytest

from hardboost import hars as hars_module
from hardboost.benchmark import make_benchmark, standard_benchmark_spec
from hardboost.config import RunConfig
from hardboost.data import ClassSplit, FeatureTable, SemanticTable
from hardboost.hars import (
    PipelineError,
    SynthSet,
    run_generative_baseline,
    run_hars,
    support_seen_classes,
    synthesize_hard_seen,
    synthesize_unseen,
)
from hardboost.models import ClassifierConfig, fit_generator


class TestSupportSeenClasses:
    SEM = SemanticTable(
        vectors={
            "u": [1.0, 0.0],
            "s1": [1.0, 0.01],
            "s2": [0.0, 1.0],
            "s3": [0.9, 0.1],
        }
    )
    SPLIT = ClassSplit(seen=frozenset({"s1", "s2", "s3"}), unseen=frozenset({"u"}))

    def test_hand_ranked_by_cosine(self):
        assert support_seen_classes("u", self.SEM, self.SPLIT, 2) == ["s1", "s3"]

    def test_all_seen_sorted_by_similarity(self):
        assert support_seen_classes("u", self.SEM, self.SPLIT, 3) == ["s1", "s3", "s2"]

    def test_duplicate_vectors_break_lexicographically(self):
        sem = SemanticTable(
            vectors={"u": [1.0, 0.0], "sb": [0.5, 0.5], "sa": [0.5, 0.5]}
        )
        split = ClassSplit(seen=frozenset({"sa", "sb"}), unseen=frozenset({"u"}))
        assert support_seen_classes("u", sem, split, 2) == ["sa", "sb"]

    def test_too_many_requested(self):
        with pytest.raises(ValueError, match="support"):
            support_seen_classes("u", self.SEM, self.SPLIT, 4)


def small_world():
    sem = SemanticTable(
        vectors={
            "u1": [1.0, 0.0, 0.0],
            "u2": [0.0, 0.0, 1.0],
            "sa": [0.9, 0.1, 0.0],
            "sb": [0.8, 0.2, 0.0],
            "sc": [0.0, 1.0, 0.0],
        }
    )
    split = ClassSplit(seen=frozenset({"sa", "sb", "sc"}), unseen=frozenset({"u1", "u2"}))
    rng = np.random.default_rng(0)
    feats, labels = [], []
    for cls, count in [("sa", 10), ("sb", 15), ("sc", 5)]:
        feats.append(rng.normal(size=(count, 4)))
        labels.extend([cls] * count)
    train = FeatureTable(features=np.concatenate(feats).astype(np.float32), labels=tuple(labels))
    return train, sem, split


class TestSynthesizeHardSeen:
    def test_row_count_follows_support_sizes(self):
        train, sem, split = small_world()
        # u1's two nearest seen classes hold 10 + 15 samples; alpha 2 -> 50 rows
        synth = synthesize_hard_seen(train, sem, split, ["u1"], 2.0, 2, seed=1)
        assert len(synth) == 50

    def test_alpha_zero_is_empty(self):
        train, sem, split = small_world()
        synth = synthesize_hard_seen(train, sem, split, ["u1"], 0.0, 2, seed=1)
        assert len(synth) == 0

    def test_fractional_counts_round_half_away(self):
        train, sem, split = small_world()
        # 25 support samples, alpha 0.1 -> round(2.5) = 3
        synth = synthesize_hard_seen(train, sem, split, ["u1"], 0.1, 2, seed=1)
        assert len(synth) == 3

    def test_interpolation_midpoint_arithmetic(self):
        gamma, xi, xj = 0.5, np.array([0.0, 0.0]), np.array([2.0, 4.0])
        ei, ej = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        np.testing.assert_array_equal(gamma * xi + (1 - gamma) * xj, [1.0, 2.0])
        np.testing.assert_array_equal(gamma * ei + (1 - gamma) * ej, [0.5, 0.5])

    def test_rows_recompute_from_provenance(self):
        train, sem, split = small_world()
        synth = synthesize_hard_seen(train, sem, split, ["u1", "u2"], 1.5, 2, seed=7)
        feats = train.features.astype(np.float64)
        for row in range(len(synth)):
            gamma = synth.gamma[row]
            assert 0.0 < gamma < 1.0
            cls_i, cls_j = synth.source_classes[row]
            assert cls_i != cls_j
            row_i, row_j = synth.source_rows[row]
            np.testing.assert_allclose(
                synth.features[row],
                gamma * feats[row_i] + (1 - gamma) * feats[row_j],
                atol=1e-12,
            )
            np.testing.assert_allclose(
                synth.semantics[row],
                gamma * sem[cls_i] + (1 - gamma) * sem[cls_j],
                atol=1e-12,
            )

    def test_endpoints_come_from_distinct_support_classes(self):
        train, sem, split = small_world()
        synth = synthesize_hard_seen(train, sem, split, ["u1"], 2.0, 2, seed=3)
        support = set(support_seen_classes("u1", sem, split, 2))
        for pair in synth.source_classes:
            assert set(pair) <= support
            assert pair[0] != pair[1]

    def test_deterministic_given_seed(self):
        train, sem, split = small_world()
        first = synthesize_hard_seen(train, sem, split, ["u1"], 1.0, 2, seed=5)
        second = synthesize_hard_seen(train, sem, split, ["u1"], 1.0, 2, seed=5)
        np.testing.assert_array_equal(first.features, second.features)
        np.testing.assert_array_equal(first.gamma, second.gamma)
        np.testing.assert_array_equal(first.source_rows, second.source_rows)
        np.testing.assert_array_equal(first.source_classes, second.source_classes)

    def test_support_class_without_samples_rejected(self):
        _, sem, split = small_world()
        rng = np.random.default_rng(0)
        only_sc = FeatureTable(
            features=rng.normal(size=(5, 4)).astype(np.float32), labels=("sc",) * 5
        )
        with pytest.raises(ValueError, match="no training samples"):
            synthesize_hard_seen(only_sc, sem, split, ["u1"], 1.0, 2, seed=0)


class TestSynthesizeUnseen:
    def world(self):
        train, sem, split = small_world()
        gen = fit_generator(train, sem, ridge=0.1)
        return gen, sem, split

    def test_count_schedule(self):
        gen, sem, split = self.world()
        features, labels = synthesize_unseen(gen, sem, split, ["u1"], 100, 2.0, seed=0)
        # one hard class at 200, one easy at 100
        assert len(features) == len(labels) == 300
        assert labels.count("u1") == 200
        assert labels.count("u2") == 100

    def test_beta_one_is_uniform(self):
        gen, sem, split = self.world()
        _, labels = synthesize_unseen(gen, sem, split, ["u1"], 50, 1.0, seed=0)
        assert labels.count("u1") == labels.count("u2") == 50

    def test_empirical_means_match_generator(self):
        gen, sem, split = self.world()
        features, labels = synthesize_unseen(gen, sem, split, [], 10_000, 1.0, seed=0)
        for cls in ["u1", "u2"]:
            rows = [i for i, l in enumerate(labels) if l == cls]
            mean = features[rows].mean(axis=0)
            bound = 4 * np.sqrt(gen.covariance / len(rows))
            assert (np.abs(mean - gen.class_mean(sem[cls])) < bound).all()


class TestRunHars:
    def config(self, seed=0, **overrides):
        fields = dict(
            hard_count=4,
            alpha=2.0,
            beta=2.0,
            n_unseen=25,
            seed=seed,
            ridge=0.1,
            classifier=ClassifierConfig(),
        )
        fields.update(overrides)
        return RunConfig(**fields)

    def test_deterministic_per_seed(self, standard_benchmark):
        bundle, _, _ = standard_benchmark
        first = run_hars(bundle, self.config(seed=3))
        second = run_hars(bundle, self.config(seed=3))
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_reduces_to_baseline_when_disabled(self, standard_benchmark):
        bundle, _, _ = standard_benchmark
        cfg = self.config(seed=5, alpha=0.0, beta=1.0)
        hars_preds, _, _ = run_hars(bundle, cfg)
        base_preds, _ = run_generative_baseline(bundle, cfg)
        assert hars_preds == base_preds

    def test_identifies_planted_classes(self, standard_benchmark):
        bundle, planted, _ = standard_benchmark
        _, hardness, _ = run_hars(bundle, self.config())
        assert set(hardness.hard) == set(planted)

    def test_classifier_trains_on_unseen_labels_only(self, standard_benchmark):
        bundle, _, _ = standard_benchmark
        preds, _, _ = run_hars(bundle, self.config())
        assert set(preds) <= bundle.split.unseen
        assert len(preds) == bundle.test_unseen.n

    def test_hard_count_bounded_by_classes(self, standard_benchmark):
        bundle, _, _ = standard_benchmark
        with pytest.raises(ValueError, match="hard_count"):
            run_hars(bundle, self.config(hard_count=9))

    def test_baseline_ignores_hard_count(self, standard_benchmark):
        bundle, _, _ = standard_benchmark
        preds, report = run_generative_baseline(bundle, self.config(hard_count=9))
        assert len(preds) == bundle.test_unseen.n
        assert report is not None

    @pytest.mark.parametrize("run", [run_hars, run_generative_baseline])
    def test_failures_name_the_stage(self, standard_benchmark, run, monkeypatch):
        def diverging(*args, **kwargs):
            raise ValueError("training diverged at epoch 0; lower the learning rate")

        monkeypatch.setattr(hars_module, "fit_classifier", diverging)
        bundle, _, _ = standard_benchmark
        with pytest.raises(PipelineError, match="fit-classifier"):
            run(bundle, self.config())

    def test_improves_over_baseline_in_the_mean(self):
        diffs = []
        for seed in range(10):
            bundle, _, _ = make_benchmark(standard_benchmark_spec(seed=seed))
            cfg = self.config(seed=seed)
            _, base_report = run_generative_baseline(bundle, cfg)
            _, _, hars_report = run_hars(bundle, cfg)
            diffs.append(hars_report.acc_u - base_report.acc_u)
        assert np.mean(diffs) > 0


def test_synth_set_field_lengths_checked():
    with pytest.raises(ValueError, match="row count"):
        SynthSet(
            features=np.zeros((2, 3)),
            semantics=np.zeros((2, 2)),
            gamma=np.zeros(2),
            source_rows=np.zeros((1, 2), dtype=np.intp),
            source_classes=np.array([["a", "b"], ["a", "b"]]),
        )
