import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_harst import relabel

from hardboost import hars as hars_module
from hardboost.benchmark import BenchmarkSpec, make_benchmark, standard_benchmark_spec
from hardboost.config import RunConfig
from hardboost.data import ClassSplit, DatasetBundle, FeatureTable, SemanticTable
from hardboost.hars import (
    PipelineError,
    SynthSet,
    fit_hard_generator,
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

    def test_interpolates_without_a_float64_gather_of_its_sources(self):
        # 150 seen classes of 60 rows, 512-d; 10 hard classes, each with 240
        # rows from 120 support rows: 2400 rows, whose (2400, 2, 512) float64
        # gather alone is 18.75 MiB
        rng = np.random.default_rng(3)
        seen = [f"s{i:03d}" for i in range(150)]
        hard = [f"u{i}" for i in range(10)]
        sem = SemanticTable(vectors={c: rng.normal(size=32) for c in seen + hard})
        split = ClassSplit(seen=frozenset(seen), unseen=frozenset(hard))
        train = FeatureTable(features=rng.normal(size=(9000, 512)).astype(np.float32),
                             labels=tuple(seen[i % 150] for i in range(9000)))
        tracemalloc.start()
        try:
            synth = synthesize_hard_seen(train, sem, split, hard, 2.0, 2, seed=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(synth) == 2400
        assert peak < 2400 * 2 * 512 * 8
        # and the rows are bit for bit the direct form on float64 endpoints
        g = synth.gamma[:, None]
        feats = train.features[synth.source_rows].astype(np.float64)
        direct = g * feats[:, 0] + (1.0 - g) * feats[:, 1]
        assert synth.features.tobytes() == direct.tobytes()
        sems = sem.matrix(synth.source_classes.ravel()).reshape(-1, 2, 32)
        direct = g * sems[:, 0] + (1.0 - g) * sems[:, 1]
        assert synth.semantics.tobytes() == direct.tobytes()

    def test_virtual_rows_are_held_once_through_the_generator_fit(self):
        # the 150-seen, 512-d shape above with a 312-d semantic table and 10
        # unseen classes, all hard: 2400 virtual rows and 150 real groups
        rng = np.random.default_rng(3)
        seen = [f"s{i:03d}" for i in range(150)]
        unseen = [f"u{i}" for i in range(10)]
        sem = SemanticTable(vectors={c: rng.normal(size=312) for c in seen + unseen})
        bundle = DatasetBundle(
            train_seen=FeatureTable(features=rng.normal(size=(9000, 512)).astype(np.float32),
                                    labels=tuple(seen[i % 150] for i in range(9000))),
            test_unseen=FeatureTable(features=rng.normal(size=(10, 512)).astype(np.float32),
                                     labels=tuple(unseen)),
            semantics=sem,
            split=ClassSplit(seen=frozenset(seen), unseen=frozenset(unseen)),
        )
        tracemalloc.start()
        try:
            fit_hard_generator(bundle, RunConfig(hard_count=10, alpha=2.0, seed=4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        design_and_targets = (150 + 2400) * (312 + 512) * 8
        assert peak < 1.5 * design_and_targets

    def test_one_support_class_cannot_interpolate(self):
        train, sem, split = small_world()
        with pytest.raises(ValueError, match="needs at least two support classes, got 1"):
            synthesize_hard_seen(train, sem, split, ["u1"], 1.0, 1, seed=0)
        # with no rows to draw there is nothing to interpolate
        assert len(synthesize_hard_seen(train, sem, split, ["u1"], 0.0, 1, seed=0)) == 0


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
            gamma=np.zeros(2),
            source_rows=np.zeros((1, 2), dtype=np.intp),
            source_classes=np.array([["a", "b"], ["a", "b"]]),
            train_features=np.zeros((2, 3)),
            support_semantics=np.zeros((2, 2)),
            support_rows=np.zeros((2, 2), dtype=np.intp),
        )


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 5000))
def test_endpoint_draw_is_choice_from_the_same_stream(seed, size):
    """``synthesize_hard_seen`` draws an endpoint as ``rows[rng.integers(rows.size)]``:
    the value ``rng.choice(rows)`` draws, leaving the generator in the state
    ``choice`` leaves it."""
    rows = np.arange(size, dtype=np.intp) * 3 + 1
    by_choice, by_index = np.random.default_rng(seed), np.random.default_rng(seed)
    assert int(rows[by_index.integers(rows.size)]) == int(by_choice.choice(rows))
    assert by_index.uniform() == by_choice.uniform()


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    names=st.sets(st.text("ab_z019", min_size=1, max_size=5), min_size=11, max_size=11),
)
def test_order_preserving_relabel_maps_predictions_and_hard_set(seed, names):
    """Ties break on class id, and the classifier trains over the sorted ids,
    so an order-preserving relabel maps predictions and the hard set one to one."""
    bundle, _, _ = make_benchmark(BenchmarkSpec(
        seen_count=6, unseen_count=5, semantic_dim=12, visual_dim=6, n_per_class=6,
        hard_pairs=1, affinity_gap=0.2, noise_scale=0.3, seed=seed,
    ))
    rename = dict(zip(sorted(bundle.split.all_classes), sorted(names)))
    config = RunConfig(hard_count=2, n_unseen=20, seed=seed,
                       classifier=ClassifierConfig(epochs=20))
    preds, hardness, report = run_hars(bundle, config)
    renamed_preds, renamed_hardness, renamed_report = run_hars(relabel(bundle, rename), config)
    assert renamed_preds == [rename[c] for c in preds]
    assert renamed_hardness.hard == tuple(rename[c] for c in hardness.hard)
    assert renamed_report.acc_u == report.acc_u


@settings(max_examples=25, deadline=None)
@given(
    hard_pairs=st.integers(1, 3),
    extra_seen=st.integers(0, 6),
    easy=st.integers(0, 5),
    extra_dims=st.integers(0, 3),
    visual_dim=st.integers(4, 24),
    n_per_class=st.integers(2, 11),
    gap=st.floats(0.02, 0.2),
    noise=st.floats(0.0, 0.4),
    seed=st.integers(0, 2**31 - 1),
    data=st.data(),
)
def test_front_half_recovers_planted_classes_under_random_specs(
    hard_pairs, extra_seen, easy, extra_dims, visual_dim, n_per_class, gap, noise, seed, data
):
    """``make_benchmark`` gives every planted class a negative semantic
    margin: it is closer to its partner than to its two anchor seen classes
    by ``affinity_gap``.  With at least three seen classes, every other
    unseen class has a positive margin: c/3 on a private anchor at affinity
    c, and c/3 - c^2 = 1/36 when several share one anchor at c = 1/6.  So
    the ``K <= 2 * hard_pairs`` classes that ``fit_hard_generator`` ranks
    hard are all planted, at any noise, seed or feature size."""
    spec = BenchmarkSpec(
        seen_count=2 * hard_pairs + 1 + extra_seen,
        unseen_count=2 * hard_pairs + easy,
        semantic_dim=4 * hard_pairs + 1 + extra_seen + easy + extra_dims,
        visual_dim=visual_dim,
        n_per_class=n_per_class,
        hard_pairs=hard_pairs,
        affinity_gap=gap,
        noise_scale=noise,
        seed=seed,
    )
    bundle, planted, _ = make_benchmark(spec)
    k = data.draw(st.integers(1, 2 * hard_pairs), label="K")
    report, _ = hars_module.fit_hard_generator(bundle, RunConfig(hard_count=k, seed=seed))
    assert len(report.hard) == k and set(report.hard) <= set(planted)
