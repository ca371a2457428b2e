import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardboost import evaluation
from hardboost.data import ClassSplit, load_bundle
from hardboost.evaluation import (
    GROUP_NAMES,
    HardEasyOracle,
    amr,
    apr,
    contrastive_analysis,
    evaluate,
    evaluate_if_labeled,
    harmonic_mean,
    identification_quality,
)
from hardboost.hardness import pseudo_label_histogram, rank_hard
from hardboost.models import ClassifierConfig, fit_predict_unseen, sample_per_class

SPLIT = ClassSplit(seen=frozenset({"s1", "s2"}), unseen=frozenset({"u1", "u2", "u3"}))


class TestHarmonicMean:
    def test_zero_law(self):
        assert harmonic_mean(0.0, 0.9) == 0.0
        assert harmonic_mean(0.9, 0.0) == 0.0

    def test_equal_inputs_fixed_point(self):
        assert harmonic_mean(0.7, 0.7) == pytest.approx(0.7)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(0, 1, allow_subnormal=False),
        st.floats(0, 1, allow_subnormal=False),
    )
    @example(2.3256806326139505e-74, 1.8918897354815617e-249)  # 2ab is subnormal
    def test_symmetric_and_bounded(self, a, b):
        h = harmonic_mean(a, b)
        assert h == harmonic_mean(b, a)
        assert 0.0 <= h <= 2 * min(a, b) * (1 + 1e-12)


class TestEvaluate:
    def test_per_class_and_mean(self):
        preds = ["u1", "u1", "u2", "u3", "u2"]
        truths = ["u1", "u2", "u2", "u3", "u2"]
        report = evaluate(preds, truths, SPLIT)
        assert report.per_class_accuracy == {"u1": 1.0, "u2": 2 / 3, "u3": 1.0}
        assert report.acc_u == pytest.approx((1.0 + 2 / 3 + 1.0) / 3)
        assert report.acc_s is None and report.h is None

    def test_seen_rows_produce_h(self):
        preds = ["u1", "u2", "u3", "s1", "s2"]
        truths = ["u1", "u2", "u3", "s1", "s1"]
        report = evaluate(preds, truths, SPLIT)
        assert report.acc_u == pytest.approx(1.0)
        assert report.acc_s == pytest.approx(0.5)
        assert report.h == pytest.approx(harmonic_mean(1.0, 0.5))

    def test_missing_class_warns(self):
        with pytest.warns(UserWarning, match="u3"):
            report = evaluate(["u1", "u2"], ["u1", "u2"], SPLIT)
        assert report.acc_u == pytest.approx(1.0)

    def test_perfect_predictions_give_a_diagonal_confusion(self):
        preds = truths = ["u1", "u2", "u3", "u2"]
        report = evaluate(preds, truths, SPLIT)
        assert report.classes == ("u1", "u2", "u3")
        np.testing.assert_array_equal(report.confusion, np.diag([1, 2, 1]))

    def test_confusion_matches_tally_oracle(self, rng):
        preds = [f"u{rng.integers(1, 4)}" for _ in range(200)]
        truths = [f"u{rng.integers(1, 4)}" for _ in range(200)]
        report = evaluate(preds, truths, SPLIT)
        index = {c: i for i, c in enumerate(report.classes)}
        manual = np.zeros((3, 3), dtype=int)
        for p, t in zip(preds, truths):
            manual[index[t], index[p]] += 1
        np.testing.assert_array_equal(report.confusion, manual)

    def test_confusion_rows_sum_to_counts(self):
        preds = ["u1", "u2", "u2", "u3", "u1", "u1"]
        truths = ["u1", "u1", "u2", "u2", "u3", "u3"]
        report = evaluate(preds, truths, SPLIT)
        assert report.classes == ("u1", "u2", "u3")
        np.testing.assert_array_equal(report.confusion.sum(axis=1), [2, 2, 2])
        assert report.confusion.sum() == len(preds)

    def test_row_permutation_invariance(self, rng):
        preds = [f"u{rng.integers(1, 4)}" for _ in range(60)]
        truths = [f"u{rng.integers(1, 4)}" for _ in range(60)]
        base = evaluate(preds, truths, SPLIT)
        perm = rng.permutation(60)
        shuffled = evaluate([preds[i] for i in perm], [truths[i] for i in perm], SPLIT)
        assert shuffled.per_class_accuracy == base.per_class_accuracy
        np.testing.assert_array_equal(shuffled.confusion, base.confusion)

    def test_unknown_label_names_row(self):
        with pytest.raises(ValueError, match="row 1"):
            evaluate(["u1", "zz"], ["u1", "u2"], SPLIT)


def test_evaluate_if_labeled(standard_benchmark):
    import dataclasses

    from hardboost.data import UNLABELED, FeatureTable

    bundle, _, _ = standard_benchmark
    preds = sorted(bundle.split.unseen)[:1] * bundle.test_unseen.n
    expected = evaluate(preds, bundle.test_unseen.labels, bundle.split)
    assert evaluate_if_labeled(bundle, preds).to_json_dict() == expected.to_json_dict()
    unlabeled = FeatureTable(
        features=bundle.test_unseen.features, labels=(UNLABELED,) * bundle.test_unseen.n
    )
    assert evaluate_if_labeled(dataclasses.replace(bundle, test_unseen=unlabeled), preds) is None


# three classes: worked by hand from the definitions
CONF3 = np.array([[5, 3, 0], [1, 6, 1], [0, 2, 4]])
SIM3 = np.array([[1.0, 0.9, 0.1], [0.9, 1.0, 0.2], [0.1, 0.2, 1.0]])

# five classes: class 3 is perfectly classified and gets skipped
CONF5 = np.array(
    [
        [8, 1, 1, 0, 0],
        [0, 9, 0, 1, 0],
        [2, 0, 8, 0, 0],
        [0, 0, 0, 10, 0],
        [1, 0, 0, 3, 6],
    ]
)
SIM5 = np.array(
    [
        [1.0, 0.8, 0.6, 0.2, 0.1],
        [0.8, 1.0, 0.5, 0.3, 0.2],
        [0.6, 0.5, 1.0, 0.4, 0.3],
        [0.2, 0.3, 0.4, 1.0, 0.7],
        [0.1, 0.2, 0.3, 0.7, 1.0],
    ]
)


class TestAprAmr:
    def test_three_class_hand_values(self):
        # every class's top misclassification target is also its most similar class
        assert apr(CONF3, SIM3, 1) == pytest.approx(1.0)
        # per-class rates: 3/3, 1/2, 2/2
        assert amr(CONF3, SIM3, 1) == pytest.approx((1.0 + 0.5 + 1.0) / 3)

    def test_three_class_saturation(self):
        assert apr(CONF3, SIM3, 2) == pytest.approx(1.0)
        assert amr(CONF3, SIM3, 2) == pytest.approx(1.0)

    def test_five_class_hand_values(self):
        # recalls: c0 1 (tie broken to c1), c1 0, c2 1, c3 skipped, c4 1
        with pytest.warns(UserWarning, match="skipped"):
            assert apr(CONF5, SIM5, 1) == pytest.approx(0.75)
        # rates: c0 1/2, c1 0/1, c2 2/2, c4 3/4
        assert amr(CONF5, SIM5, 1) == pytest.approx((0.5 + 0.0 + 1.0 + 0.75) / 4)

    def test_five_class_saturation(self):
        with pytest.warns(UserWarning):
            assert apr(CONF5, SIM5, 4) == pytest.approx(1.0)
        assert amr(CONF5, SIM5, 4) == pytest.approx(1.0)

    def test_disjoint_rankings_give_zero(self):
        confusion = np.array([[0, 5, 0], [5, 0, 0], [0, 5, 0]])
        # 0 confuses into 1 but is most similar to 2; 1 confuses into 0 but
        # is most similar to 2; 2 confuses into 1, ties 0/1 break to 0
        similarity = np.array([[1.0, 0.1, 0.9], [0.1, 1.0, 0.9], [0.9, 0.9, 1.0]])
        assert apr(confusion, similarity, 1) == pytest.approx(0.0)

    def test_amr_undefined_without_errors(self):
        with pytest.raises(ValueError, match="undefined"):
            amr(np.diag([3, 3, 3]), SIM3, 1)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            apr(CONF3, SIM3, 3)


class TestHardEasyOracle:
    def test_halves_by_accuracy(self):
        oracle = HardEasyOracle.from_accuracies(
            {"a": 0.9, "b": 0.2, "c": 0.5, "d": 0.8}
        )
        assert oracle.hard == {"b", "c"}
        assert oracle.easy == {"a", "d"}

    def test_odd_count_extra_goes_hard(self):
        oracle = HardEasyOracle.from_accuracies({"a": 0.9, "b": 0.2, "c": 0.5})
        assert oracle.hard == {"b", "c"}
        assert oracle.easy == {"a"}


class TestIdentificationQuality:
    def report(self):
        preds = ["u1"] * 4 + ["u2", "u2", "u1", "u3", "u3", "u3"]
        truths = ["u1"] * 4 + ["u2", "u2", "u2", "u2", "u3", "u3"]
        return evaluate(preds, truths, SPLIT)

    def test_exact_prediction_gives_full_recall(self):
        report = self.report()
        oracle = HardEasyOracle.from_accuracies(
            {c: report.per_class_accuracy[c] for c in report.classes}
        )
        quality = identification_quality(oracle.hard, report)
        assert quality.recall_of_true_hard == 1.0

    def test_group_statistics(self):
        report = self.report()
        quality = identification_quality({"u2"}, report)
        assert quality.apa_hard == pytest.approx(report.per_class_accuracy["u2"])
        assert quality.apa_easy == pytest.approx(
            np.mean([report.per_class_accuracy["u1"], report.per_class_accuracy["u3"]])
        )
        # precision columns: u1 -> 4/5, u2 -> 2/2, u3 -> 2/3
        assert quality.app_hard == pytest.approx(1.0)
        assert quality.app_easy == pytest.approx(np.mean([4 / 5, 2 / 3]))

    def test_empty_group_is_undefined(self):
        report = self.report()
        quality = identification_quality(set(), report)
        assert quality.apa_hard is None and quality.app_hard is None

    def test_under_predicted_pools_are_cleaner(self):
        """A rarely-but-confidently predicted class scores higher pool
        precision than an over-predicted stray-attractor, and frequency
        ranking flags exactly the under-predicted class as hard."""
        split = ClassSplit(seen=frozenset({"s1"}), unseen=frozenset({"h", "e1", "e2"}))
        truths = ["h"] * 20 + ["e1"] * 20 + ["e2"] * 20
        # h is predicted only 6 times, all correct; its other rows stray to e1
        preds = (
            ["h"] * 6 + ["e1"] * 14
            + ["e1"] * 19 + ["e2"]
            + ["e2"] * 20
        )
        report = evaluate(preds, truths, split)
        freqs = pseudo_label_histogram(preds, split)
        hard = rank_hard({c: float(v) for c, v in freqs.items()}, 1)
        assert hard == ["h"]
        quality = identification_quality(set(hard), report)
        assert quality.app_hard == pytest.approx(1.0)  # 6/6
        assert quality.app_easy < 1.0  # e1 absorbed 14 strays
        assert quality.app_hard > quality.app_easy


class TestContrastiveAnalysis:
    def test_equal_group_budgets(self, standard_benchmark):
        bundle, _, _ = standard_benchmark
        oracle = HardEasyOracle.from_accuracies(
            {c: (0.2 if c < "u04" else 0.9) for c in sorted(bundle.split.unseen)}
        )
        n = 10
        reports = contrastive_analysis(
            bundle, "inductive", n, seed=0, oracle=oracle,
            classifier=ClassifierConfig(epochs=30),
        )
        assert set(reports) == {"easy-weighted", "hard-weighted", "uniform"}
        # 4 easy * 2n + 4 hard * n == 4 * n + 4 * 2n == 8 * 1.5n

    @pytest.mark.parametrize("setting", ["inductive", "transductive"])
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_groups_add_equal_totals_for_odd_n(self, data_dir, setting, n, monkeypatch):
        bundle = load_bundle(data_dir)
        totals = {}
        if setting == "inductive":
            def recording(gen, semantics, counts, seed, *stream):
                totals[stream[-1]] = sum(counts.values())
                return sample_per_class(gen, semantics, counts, seed, *stream)

            monkeypatch.setattr(evaluation, "sample_per_class", recording)
        else:
            def recording(bundle, selected, *args):
                if args[-2] == "group-clf":
                    totals[args[-1]] = len(selected)
                return fit_predict_unseen(bundle, selected, *args)

            monkeypatch.setattr(evaluation, "fit_predict_unseen", recording)
        classes = sorted(bundle.split.unseen)
        contrastive_analysis(
            bundle, setting, n, seed=0,
            base="generative" if setting == "inductive" else "embedding",
            classifier=ClassifierConfig(epochs=2),
            oracle=HardEasyOracle.from_accuracies({c: i for i, c in enumerate(classes)}),
        )
        # 4 emphasized classes * 2n + 4 others * n, or 4 emphasized classes * n
        expected = 3 * n * 4 if setting == "inductive" else n * 4
        assert totals == {name: expected for name in GROUP_NAMES}

    def test_rejects_empty_budget(self, standard_benchmark):
        bundle, _, _ = standard_benchmark
        with pytest.raises(ValueError, match=">= 1"):
            contrastive_analysis(bundle, "inductive", 0, seed=0)

    def test_hard_emphasis_beats_easy_emphasis(self):
        """More hard-class data helps more than more easy-class data."""
        from hardboost.benchmark import make_benchmark, standard_benchmark_spec

        gaps = []
        for seed in range(10):
            bundle, planted, _ = make_benchmark(standard_benchmark_spec(seed=seed))
            oracle = HardEasyOracle(
                hard=frozenset(planted),
                easy=frozenset(bundle.split.unseen) - frozenset(planted),
            )
            reports = contrastive_analysis(
                bundle, "inductive", 25, seed=seed, oracle=oracle,
                classifier=ClassifierConfig(epochs=120),
            )
            gaps.append(reports["hard-weighted"].acc_u - reports["easy-weighted"].acc_u)
        assert np.mean(gaps) > 0

    def test_transductive_adds_real_rows(self, standard_benchmark):
        bundle, planted, _ = standard_benchmark
        oracle = HardEasyOracle(
            hard=frozenset(planted),
            easy=frozenset(bundle.split.unseen) - frozenset(planted),
        )
        reports = contrastive_analysis(
            bundle, "transductive", 10, seed=1, base="embedding", oracle=oracle
        )
        assert set(reports) == {"easy-weighted", "hard-weighted", "uniform"}
        for rep in reports.values():
            assert 0.0 <= rep.acc_u <= 1.0

    def test_oversized_group_warns(self, standard_benchmark):
        bundle, planted, _ = standard_benchmark
        oracle = HardEasyOracle(
            hard=frozenset(planted),
            easy=frozenset(bundle.split.unseen) - frozenset(planted),
        )
        with pytest.warns(UserWarning, match="replacement"):
            contrastive_analysis(
                bundle, "transductive", 40, seed=1, base="embedding", oracle=oracle
            )  # planted classes have only 15 test rows
