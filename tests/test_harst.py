import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardboost.benchmark import BenchmarkSpec, make_benchmark, standard_benchmark_spec
from hardboost.config import RunConfig
from hardboost.data import ClassSplit, ConfigError, load_bundle
from hardboost.harst import (
    random_selection_baseline,
    run_harst,
    select_cfbs,
    selection_quota,
)
from hardboost.models import ClassifierConfig

SPLIT = ClassSplit(seen=frozenset({"s"}), unseen=frozenset({"c1", "c2", "c3"}))


class TestSelectionQuota:
    def test_worked_example(self):
        assert selection_quota(2, 100, 5, 5) == 8

    def test_final_iteration_full_budget(self):
        assert selection_quota(5, 100, 5, 5) == 100 // 5

    def test_floor_can_reach_zero(self):
        assert selection_quota(1, 10, 4, 3) == 0

    def test_bad_iteration_rejected(self):
        with pytest.raises(ValueError):
            selection_quota(0, 10, 4, 3)
        with pytest.raises(ValueError):
            selection_quota(5, 10, 4, 3)

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 5000),
        total=st.integers(1, 12),
        k=st.integers(1, 36),
    )
    def test_monotone_in_t_and_exact_at_the_end(self, m, total, k):
        quotas = [selection_quota(t, m, total, k) for t in range(1, total + 1)]
        assert all(a <= b for a, b in zip(quotas, quotas[1:]))
        assert quotas[-1] == m // k


class TestSelectCfbs:
    PSEUDO = ["c1", "c1", "c2", "c2", "c2", "c2", "c3"]

    def test_zero_quota_selects_nothing(self):
        selected, report = select_cfbs(self.PSEUDO, SPLIT, 2, 0, seed=0)
        assert selected == []
        assert report.metric == "cf"

    def test_hard_classes_are_lowest_frequency(self):
        _, report = select_cfbs(self.PSEUDO, SPLIT, 2, 1, seed=0)
        assert set(report.hard) == {"c3", "c1"}

    def test_singleton_pool_repeats(self):
        selected, _ = select_cfbs(self.PSEUDO, SPLIT, 1, 5, seed=0)
        # the hardest class c3 has exactly one pooled row
        assert selected == [(6, "c3")] * 5

    def test_size_is_quota_times_hard_count(self):
        selected, _ = select_cfbs(self.PSEUDO, SPLIT, 2, 3, seed=0)
        assert len(selected) == 6

    def test_rows_keep_their_pseudo_labels(self):
        selected, report = select_cfbs(self.PSEUDO, SPLIT, 2, 4, seed=1)
        for row, label in selected:
            assert self.PSEUDO[row] == label
            assert label in report.hard

    def test_empty_pool_warns_and_contributes_nothing(self):
        pseudo = ["c2", "c2", "c3"]  # nothing labeled c1
        with pytest.warns(UserWarning, match="c1"):
            selected, report = select_cfbs(pseudo, SPLIT, 2, 4, seed=0)
        assert "c1" in report.hard
        assert all(label != "c1" for _, label in selected)
        assert len(selected) == 4  # only the non-empty hard class contributes

    def test_pncf_needs_priors(self):
        with pytest.raises(ValueError, match="priors"):
            select_cfbs(self.PSEUDO, SPLIT, 2, 1, metric="pncf", seed=0)

    def test_pncf_with_uniform_priors_matches_cf(self):
        uniform = {c: 1 / 3 for c in SPLIT.unseen}
        cf_sel, cf_rep = select_cfbs(self.PSEUDO, SPLIT, 2, 3, seed=9, metric="cf")
        pn_sel, pn_rep = select_cfbs(
            self.PSEUDO, SPLIT, 2, 3, priors=uniform, metric="pncf", seed=9
        )
        assert cf_sel == pn_sel
        assert cf_rep.hard == pn_rep.hard

    def test_deterministic_given_seed(self):
        first, _ = select_cfbs(self.PSEUDO, SPLIT, 2, 5, seed=4)
        second, _ = select_cfbs(self.PSEUDO, SPLIT, 2, 5, seed=4)
        assert first == second


class TestRandomSelection:
    SPLIT = ClassSplit(seen=frozenset({"s1"}), unseen=frozenset({"c1", "c2", "c3"}))

    def test_zero_total(self):
        assert random_selection_baseline(["c1"], 0, seed=0, split=self.SPLIT) == []

    def test_empty_pool_warns_and_selects_nothing(self):
        with pytest.warns(UserWarning, match="empty"):
            assert random_selection_baseline([], 3, seed=0, split=self.SPLIT) == []
        with pytest.warns(UserWarning, match="empty"):
            assert random_selection_baseline(["s1", "s1"], 3, seed=0, split=self.SPLIT) == []

    def test_size_matches_request(self):
        selected = random_selection_baseline(self.pseudo(), 12, seed=2, split=self.SPLIT)
        assert len(selected) == 12
        for row, label in selected:
            assert self.pseudo()[row] == label

    def pseudo(self):
        return ["c1", "c2", "c3"] * 4

    def test_draws_ignore_hardness(self):
        # with replacement over the whole pool: all classes can appear
        selected = random_selection_baseline(self.pseudo(), 200, seed=3, split=self.SPLIT)
        assert {label for _, label in selected} == {"c1", "c2", "c3"}


class TestRunHarst:
    def config(self, seed=0, **overrides):
        fields = dict(
            iterations=6,
            hard_count=4,
            metric="cf",
            base_model="embedding",
            n_unseen=100,
            seed=seed,
            ridge=0.1,
            classifier=ClassifierConfig(),
        )
        fields.update(overrides)
        return RunConfig(**fields)

    def test_default_metric_is_rejected(self, standard_benchmark):
        # the shared default metric is ss, which harst does not take
        with pytest.raises(ConfigError, match="metric"):
            run_harst(standard_benchmark[0], RunConfig())

    def test_trace_shape_and_quota_growth(self, standard_benchmark):
        bundle, _, _ = standard_benchmark
        preds, trace = run_harst(bundle, self.config())
        assert len(trace.records) == 6
        quotas = [rec.quota for rec in trace.records]
        assert quotas == sorted(quotas)
        m = bundle.test_unseen.n
        assert quotas[-1] == m // 4
        assert preds == list(trace.records[-1].pseudo_labels)

    def test_selected_rows_only_from_hard_classes(self, standard_benchmark):
        bundle, _, _ = standard_benchmark
        _, trace = run_harst(bundle, self.config())
        for rec in trace.records:
            assert set(rec.selected_per_class) <= set(rec.hardness.hard)

    @pytest.mark.filterwarnings("ignore:classes with no evaluated samples")
    def test_zero_quota_reduces_to_inductive(self, standard_benchmark):
        bundle, _, _ = standard_benchmark
        tiny = RunConfig(
            iterations=1, hard_count=4, metric="cf", base_model="embedding", n_unseen=100,
            seed=0, ridge=0.1,
        )
        # 3 unseen rows with K=4 force quota(1) = floor(3/4) = 0
        from hardboost.data import DatasetBundle, FeatureTable

        small = DatasetBundle(
            train_seen=bundle.train_seen,
            test_unseen=FeatureTable(
                features=bundle.test_unseen.features[:3],
                labels=bundle.test_unseen.labels[:3],
            ),
            semantics=bundle.semantics,
            split=bundle.split,
        )
        preds, trace = run_harst(small, tiny)
        assert trace.records[0].quota == 0
        assert trace.records[0].selected_per_class == {}
        # refit on the seen rows alone equals the initial model
        assert preds == list(trace.initial_pseudo_labels)

    def test_partial_trace_survives_failures(self, standard_benchmark):
        bundle, _, _ = standard_benchmark
        bad = self.config(iterations=3, classifier=ClassifierConfig(), ridge=-1.0)
        # ridge < 0 fails at the very first fit: trace holds zero records
        with pytest.raises(Exception) as excinfo:
            run_harst(bundle, bad)
        assert not hasattr(excinfo.value, "partial_trace")

        from hardboost.hars import PipelineError

        class Boom(Exception):
            pass

        cfg = self.config(iterations=3)
        from hardboost import harst as harst_module

        original = harst_module.fit_predict_unseen
        calls = {"n": 0}

        def flaky(*args):
            calls["n"] += 1
            if calls["n"] == 4:  # initial fit + 2 refits succeed, third refit fails
                raise Boom("storage lost")
            return original(*args)

        harst_module.fit_predict_unseen = flaky
        try:
            with pytest.raises(PipelineError) as excinfo:
                run_harst(bundle, cfg)
        finally:
            harst_module.fit_predict_unseen = original
        assert len(excinfo.value.partial_trace.records) == 2

    def test_bit_identical_reruns(self, standard_benchmark):
        bundle, _, _ = standard_benchmark
        first = run_harst(bundle, self.config(seed=2))
        second = run_harst(bundle, self.config(seed=2))
        assert first[0] == second[0]
        for a, b in zip(first[1].records, second[1].records):
            assert a.pseudo_labels == b.pseudo_labels
            assert a.hardness == b.hardness
            assert a.selected_per_class == b.selected_per_class

    def test_pncf_with_uniform_priors_matches_cf_run(self, standard_benchmark):
        bundle, _, _ = standard_benchmark
        uniform = {c: 1 / 8 for c in bundle.split.unseen}
        from hardboost.data import DatasetBundle

        balanced = DatasetBundle(
            train_seen=bundle.train_seen,
            test_unseen=bundle.test_unseen,
            semantics=bundle.semantics,
            split=bundle.split,
            class_priors=uniform,
        )
        cf_preds, cf_trace = run_harst(balanced, self.config(metric="cf"))
        pn_preds, pn_trace = run_harst(balanced, self.config(metric="pncf"))
        assert cf_preds == pn_preds
        for a, b in zip(cf_trace.records, pn_trace.records):
            assert a.selected_per_class == b.selected_per_class
            assert a.hardness.hard == b.hardness.hard

    def test_pncf_estimates_priors_when_bundle_lacks_them(self, standard_benchmark):
        bundle, _, _ = standard_benchmark
        from hardboost.data import DatasetBundle

        bare = DatasetBundle(
            train_seen=bundle.train_seen,
            test_unseen=bundle.test_unseen,
            semantics=bundle.semantics,
            split=bundle.split,
        )
        preds, trace = run_harst(bare, self.config(iterations=2, metric="pncf"))
        assert len(preds) == bundle.test_unseen.n
        assert all(rec.hardness.metric == "pncf" for rec in trace.records)

    def test_generative_base_runs(self, standard_benchmark):
        bundle, _, _ = standard_benchmark
        cfg = self.config(
            iterations=2, base_model="generative", n_unseen=20,
            classifier=ClassifierConfig(epochs=60),
        )
        preds, trace = run_harst(bundle, cfg)
        assert len(preds) == bundle.test_unseen.n
        assert len(trace.records) == 2
        # every refit labels the test rows with unseen classes only
        assert set(trace.initial_pseudo_labels) <= bundle.split.unseen
        assert all(set(rec.pseudo_labels) <= bundle.split.unseen for rec in trace.records)

    def test_random_selection_does_not_warn_about_cfbs_pools(self, data_dir):
        # a cfbs hard-class pool empties on this config, but the ``rs`` arm never draws from it
        bundle = load_bundle(data_dir)
        cfg = RunConfig(
            hard_count=3, iterations=2, n_unseen=40, seed=5, metric="cf",
            base_model="generative", classifier=ClassifierConfig(epochs=10),
        )
        with pytest.warns(UserWarning, match="hard class .* has an empty pseudo-label pool"):
            run_harst(bundle, cfg)
        with warnings.catch_warnings():
            warnings.filterwarnings("error", message="hard class")
            run_harst(bundle, replace(cfg, selection="rs"))

    def test_self_training_improves_in_the_mean(self):
        gains = []
        for seed in range(10):
            bundle, _, _ = make_benchmark(standard_benchmark_spec(seed=seed))
            _, trace = run_harst(bundle, self.config(seed=seed))
            gains.append(
                trace.records[-1].evaluation.acc_u - trace.initial_evaluation.acc_u
            )
        assert np.mean(gains) > 0

    def test_cfbs_at_least_matches_random_selection(self):
        diffs = []
        for seed in range(10):
            bundle, _, _ = make_benchmark(standard_benchmark_spec(seed=seed))
            _, cfbs = run_harst(bundle, self.config(seed=seed))
            _, rs = run_harst(bundle, self.config(seed=seed, selection="rs"))
            diffs.append(
                cfbs.records[-1].evaluation.acc_u - rs.records[-1].evaluation.acc_u
            )
        assert np.mean(diffs) >= 0


def relabel(bundle, rename):
    """``bundle`` with every class id ``c`` renamed ``rename[c]``."""
    from hardboost.data import UNLABELED, DatasetBundle, FeatureTable, SemanticTable

    def renamed(table):
        labels = tuple(l if l == UNLABELED else rename[l] for l in table.labels)
        return FeatureTable(features=table.features, labels=labels)

    priors = bundle.class_priors
    return DatasetBundle(
        train_seen=renamed(bundle.train_seen),
        test_unseen=renamed(bundle.test_unseen),
        semantics=SemanticTable(vectors={rename[c]: v for c, v in bundle.semantics.vectors.items()}),
        split=ClassSplit(seen={rename[c] for c in bundle.split.seen},
                         unseen={rename[c] for c in bundle.split.unseen}),
        class_priors=None if priors is None else {rename[c]: p for c, p in priors.items()},
    )


# a hard class can have an empty pool on these small bundles, in both namings
@pytest.mark.filterwarnings("ignore:hard class .* has an empty pseudo-label pool")
@pytest.mark.parametrize("metric", ["cf", "pncf"])
@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    names=st.sets(st.text("ab_z019", min_size=1, max_size=5), min_size=11, max_size=11),
    ship_priors=st.booleans(),
)
def test_order_preserving_relabel_maps_embedding_predictions(metric, seed, names, ship_priors):
    """Ties break on class id, so only a relabel that keeps the id order is
    an invariance: predictions and every hard set map through it."""
    assert_relabel_maps_harst(seed, names, ship_priors, metric=metric, base_model="embedding")


# the generative base trains a softmax classifier over the sorted class ids,
# so its label picks follow the class index; a short fit keeps this quick
@pytest.mark.filterwarnings("ignore:hard class .* has an empty pseudo-label pool")
@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    names=st.sets(st.text("ab_z019", min_size=1, max_size=5), min_size=11, max_size=11),
    ship_priors=st.booleans(),
)
def test_order_preserving_relabel_maps_generative_predictions(seed, names, ship_priors):
    assert_relabel_maps_harst(seed, names, ship_priors, metric="cf", base_model="generative",
                              n_unseen=20,
                              classifier=ClassifierConfig(epochs=20))


def assert_relabel_maps_harst(seed, names, ship_priors, **config):
    bundle, _, _ = make_benchmark(BenchmarkSpec(
        seen_count=6, unseen_count=5, semantic_dim=12, visual_dim=6, n_per_class=6,
        hard_pairs=1, affinity_gap=0.2, noise_scale=0.3, seed=seed,
    ))
    if not ship_priors:
        bundle = replace(bundle, class_priors=None)
    rename = dict(zip(sorted(bundle.split.all_classes), sorted(names)))
    config = RunConfig(hard_count=2, iterations=3, seed=seed, **config)
    preds, trace = run_harst(bundle, config)
    renamed_preds, renamed_trace = run_harst(relabel(bundle, rename), config)
    assert renamed_preds == [rename[c] for c in preds]
    for rec, renamed_rec in zip(trace.records, renamed_trace.records):
        assert renamed_rec.hardness.hard == tuple(rename[c] for c in rec.hardness.hard)
        assert renamed_rec.selected_per_class == {
            rename[c]: n for c, n in rec.selected_per_class.items()
        }
