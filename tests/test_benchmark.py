import tracemalloc

import numpy as np
import pytest

from hardboost import benchmark, models
from hardboost.benchmark import (
    BenchmarkSpec,
    make_benchmark,
    paired_seed_study,
    standard_benchmark_spec,
    unbalanced_benchmark_spec,
    unseen_class_ids,
)
from hardboost.config import RunConfig
from hardboost.hardness import rank_hard, ss_scores
from hardboost.hars import run_generative_baseline, run_hars
from hardboost.harst import run_harst
from hardboost.rng import substream


def random_valid_spec(rng) -> BenchmarkSpec:
    hard_pairs = int(rng.integers(1, 4))
    seen = int(rng.integers(2 * hard_pairs + 1, 2 * hard_pairs + 8))
    unseen = int(rng.integers(2 * hard_pairs + 1, 2 * hard_pairs + 6))
    return BenchmarkSpec(
        seen_count=seen,
        unseen_count=unseen,
        semantic_dim=seen + unseen + int(rng.integers(0, 4)),
        visual_dim=int(rng.integers(4, 24)),
        n_per_class=int(rng.integers(2, 12)),
        hard_pairs=hard_pairs,
        affinity_gap=float(rng.uniform(0.02, 0.2)),
        noise_scale=float(rng.uniform(0.0, 0.4)),
        seed=int(rng.integers(0, 2**31)),
    )


class TestConstruction:
    def test_planted_classes_score_lowest(self):
        bundle, planted, _ = make_benchmark(standard_benchmark_spec(seed=4))
        scores = ss_scores(bundle.semantics, bundle.split)
        assert set(rank_hard(scores, len(planted))) == set(planted)
        worst_planted = max(scores[c] for c in planted)
        best_easy = min(v for c, v in scores.items() if c not in planted)
        assert worst_planted < best_easy

    def test_recovery_across_random_specs(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            spec = random_valid_spec(rng)
            bundle, planted, _ = make_benchmark(spec)
            scores = ss_scores(bundle.semantics, bundle.split)
            assert set(rank_hard(scores, 2 * spec.hard_pairs)) == set(planted)

    def test_pair_gap_honored(self):
        spec = standard_benchmark_spec(seed=1)
        bundle, planted, _ = make_benchmark(spec)
        from hardboost.hardness import cosine_distance

        sem = bundle.semantics
        p, q = planted[0], planted[1]
        mutual = cosine_distance(sem[p], sem[q])
        for seen_cls in bundle.split.seen:
            assert cosine_distance(sem[p], sem[seen_cls]) - mutual >= spec.affinity_gap - 1e-9

    def test_noiseless_features_are_exact(self):
        spec = standard_benchmark_spec(seed=2, noise_scale=0.0)
        bundle, _, w0 = make_benchmark(spec)
        for cls in sorted(bundle.split.seen):
            rows = bundle.train_seen.rows_for(cls)
            expected = (w0 @ bundle.semantics[cls]).astype(np.float32)
            np.testing.assert_array_equal(
                bundle.train_seen.features[rows], np.tile(expected, (len(rows), 1))
            )

    def test_byte_identical_reruns(self):
        spec = standard_benchmark_spec(seed=9)
        first, _, w0a = make_benchmark(spec)
        second, _, w0b = make_benchmark(spec)
        np.testing.assert_array_equal(first.train_seen.features, second.train_seen.features)
        np.testing.assert_array_equal(first.test_unseen.features, second.test_unseen.features)
        np.testing.assert_array_equal(w0a, w0b)
        assert first.train_seen.labels == second.train_seen.labels

    def test_build_holds_no_float64_copy_of_a_table(self):
        """Each class's draw is cast into its rows of the float32 table; the
        build used to hold every table's rows twice over in float64."""
        spec = BenchmarkSpec(
            seen_count=30, unseen_count=10, semantic_dim=40, visual_dim=256, n_per_class=100,
            hard_pairs=2, affinity_gap=0.2, noise_scale=0.1, seed=3,
        )
        tracemalloc.start()
        try:
            bundle, _, _ = make_benchmark(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        tables = (bundle.train_seen, bundle.test_unseen)
        assert peak < 1.5 * sum(t.features.nbytes for t in tables)

    def test_large_builds_do_not_depend_on_the_thread_count(
        self, available_cpus, thread_counts, monkeypatch
    ):
        spec = BenchmarkSpec(
            seen_count=20, unseen_count=10, semantic_dim=32, visual_dim=512, n_per_class=30,
            hard_pairs=2, affinity_gap=0.2, noise_scale=0.1, seed=5,
        )
        assert (spec.seen_count + spec.unseen_count) * spec.n_per_class * spec.visual_dim >= (
            models._DRAW_VALUES
        )
        builds = []
        for cpus, sweep_worker in ((1, False), (2, False), (2, True)):
            available_cpus(cpus)
            monkeypatch.setattr(models, "_one_thread_per_fit", sweep_worker)
            bundle, _, w0 = make_benchmark(spec)
            tables = (bundle.train_seen, bundle.test_unseen)
            builds.append([(t.features.tobytes(), t.labels) for t in tables])
        # one draw per build: the calling thread and one helper, or no split
        assert thread_counts == [1, 2, 1]
        assert builds[0] == builds[1] == builds[2]
        # class idx of a table is noise_scale * z + w0 @ proto from its own substream
        for table, name in ((bundle.train_seen, "train-seen"), (bundle.test_unseen, "test-unseen")):
            for idx, cls in enumerate(sorted(set(table.labels))):
                z = substream(spec.seed, name, idx).standard_normal((spec.n_per_class, spec.visual_dim))
                expected = (z * spec.noise_scale + w0 @ bundle.semantics[cls]).astype(np.float32)
                assert table.features[table.rows_for(cls)].tobytes() == expected.tobytes()

    def test_priors_match_proportions(self):
        spec = standard_benchmark_spec(seed=0)
        bundle, _, _ = make_benchmark(spec)
        total = bundle.test_unseen.n
        for cls in bundle.split.unseen:
            count = len(bundle.test_unseen.rows_for(cls))
            assert bundle.class_priors[cls] == pytest.approx(count / total)


class TestSpecValidation:
    def test_semantic_dim_too_small(self):
        spec = standard_benchmark_spec(seed=0, semantic_dim=10)
        with pytest.raises(ValueError, match="semantic_dim"):
            make_benchmark(spec)

    def test_too_many_pairs_for_seen_anchors(self):
        spec = BenchmarkSpec(
            seen_count=3,
            unseen_count=8,
            semantic_dim=20,
            visual_dim=8,
            n_per_class=5,
            hard_pairs=2,
            affinity_gap=0.1,
            noise_scale=0.1,
            seed=0,
        )
        with pytest.raises(ValueError, match="anchor"):
            make_benchmark(spec)

    def test_infeasible_gap(self):
        spec = standard_benchmark_spec(seed=0, affinity_gap=0.5)
        with pytest.raises(ValueError, match="infeasible"):
            make_benchmark(spec)

    def test_gap_must_be_positive(self):
        with pytest.raises(ValueError, match="affinity_gap"):
            standard_benchmark_spec(seed=0, affinity_gap=0.0)

    def test_pair_budget(self):
        with pytest.raises(ValueError, match="hard_pairs"):
            standard_benchmark_spec(seed=0, unseen_count=3)

    def test_unknown_count_override(self):
        spec = standard_benchmark_spec(seed=0, unseen_counts={"zz": 5})
        with pytest.raises(ValueError, match="zz"):
            make_benchmark(spec)


def test_unbalanced_variant_shrinks_one_easy_class():
    spec = unbalanced_benchmark_spec(seed=0)
    bundle, planted, _ = make_benchmark(spec)
    shrunk = unseen_class_ids(spec)[2 * spec.hard_pairs]
    assert shrunk not in planted
    counts = {c: len(bundle.test_unseen.rows_for(c)) for c in bundle.split.unseen}
    others = [counts[c] for c in counts if c not in planted and c != shrunk]
    assert counts[shrunk] == max(1, round(0.1 * others[0]))
    assert bundle.class_priors[shrunk] == pytest.approx(
        counts[shrunk] / bundle.test_unseen.n
    )


class TestPairedSeedStudy:
    def test_each_run_gives_the_acc_u_of_its_pipeline(self):
        hars = RunConfig(hard_count=2, n_unseen=20, seed=99)  # the study sets the seed
        harst = RunConfig(iterations=2, hard_count=2, metric="cf", base_model="embedding", n_unseen=50)
        runs = {"base": ("baseline", hars), "boost": ("hars", hars), "self": ("harst", harst)}
        [row] = paired_seed_study(standard_benchmark_spec, [1], runs)
        bundle, _, _ = make_benchmark(standard_benchmark_spec(1))
        _, trace = run_harst(bundle, harst.with_seed(1))
        assert row == {
            "seed": 1,
            "base": run_generative_baseline(bundle, hars.with_seed(1))[1].acc_u,
            "boost": run_hars(bundle, hars.with_seed(1))[2].acc_u,
            "self_initial": trace.initial_evaluation.acc_u,
            "self": trace.records[-1].evaluation.acc_u,
        }
        assert len(set(row.values())) == 5  # four distinct accuracies: no run is read as another

    def test_names_for_one_config_share_one_run(self, monkeypatch):
        calls = []

        def counted(bundle, config, _run=run_hars):
            calls.append(config)
            return _run(bundle, config)

        monkeypatch.setattr(benchmark, "run_hars", counted)
        hars = RunConfig(hard_count=2, n_unseen=20)
        runs = {"a": ("hars", hars), "b": ("hars", RunConfig(hard_count=2, n_unseen=20)),
                "K=3": ("hars", RunConfig(hard_count=3, n_unseen=20)), "base": ("baseline", hars)}
        [row] = paired_seed_study(standard_benchmark_spec, [1], runs)
        assert calls == [hars.with_seed(1), RunConfig(hard_count=3, n_unseen=20, seed=1)]
        assert row["a"] == row["b"] and list(row) == ["seed", "a", "b", "K=3", "base"]

    def test_an_unknown_pipeline_fails_before_any_build(self, monkeypatch):
        monkeypatch.setattr(benchmark, "make_benchmark", None)  # any build would fail
        with pytest.raises(KeyError, match="gan"):
            paired_seed_study(standard_benchmark_spec, [0], {"x": ("gan", RunConfig())})
