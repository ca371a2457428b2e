"""Release acceptance suite.

One test per criterion, each printing a PASS/FAIL line with the measured
value (run with ``pytest tests/test_acceptance.py -s`` to see them inline).
Tolerances are fixed here, not calibrated elsewhere.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from hardboost.benchmark import (
    BenchmarkSpec,
    make_benchmark,
    standard_benchmark_spec,
    unbalanced_benchmark_spec,
    unseen_class_ids,
)
from hardboost.cli import dispatch
from hardboost.config import RunConfig
from hardboost.data import ClassSplit, SemanticTable
from hardboost.evaluation import amr, apr, evaluate, harmonic_mean
from hardboost.hardness import (
    normalize_by_prior,
    pseudo_label_histogram,
    rank_hard,
    ss_scores,
)
from hardboost.hars import (
    run_generative_baseline,
    run_hars,
    synthesize_hard_seen,
    synthesize_unseen,
)
from hardboost.harst import run_harst, select_cfbs, selection_quota
from hardboost.models import (
    classify_embedding_batch,
    cross_entropy_and_grad,
    fit_embedding_means,
    fit_generator,
)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_01_harmonic_mean_fidelity():
    """evaluate() reproduces the published harmonic means within +/-0.05."""
    split = ClassSplit(seen=frozenset({"s"}), unseen=frozenset({"u"}))

    def h_from_counts(unseen_correct, seen_correct, n=1000):
        truths = ["u"] * n + ["s"] * n
        preds = (
            ["u"] * unseen_correct + ["s"] * (n - unseen_correct)
            + ["s"] * seen_correct + ["u"] * (n - seen_correct)
        )
        report = evaluate(preds, truths, split)
        return 100.0 * report.h

    checks = [
        (h_from_counts(949, 923), 93.6),
        (h_from_counts(579, 614), 59.6),
        (100.0 * harmonic_mean(0.949, 0.923), 93.6),
        (100.0 * harmonic_mean(0.579, 0.614), 59.6),
    ]
    worst = max(abs(got - want) for got, want in checks)
    zero_law = harmonic_mean(0.0, 0.5) == 0.0
    _report(
        "1 harmonic-mean-fidelity",
        worst <= 0.05 and zero_law,
        f"max deviation {worst:.4f} (tolerance 0.05), zero law {zero_law}",
    )


def test_02_semantic_hardness_soundness():
    """Ranking by semantic margin recovers the planted set on 100 random specs."""
    rng = np.random.default_rng(20240)
    recovered = 0
    for _ in range(100):
        hard_pairs = int(rng.integers(1, 4))
        seen = int(rng.integers(2 * hard_pairs + 1, 2 * hard_pairs + 9))
        unseen = int(rng.integers(2 * hard_pairs + 1, 2 * hard_pairs + 7))
        spec = BenchmarkSpec(
            seen_count=seen,
            unseen_count=unseen,
            semantic_dim=seen + unseen + int(rng.integers(0, 5)),
            visual_dim=int(rng.integers(4, 20)),
            n_per_class=int(rng.integers(2, 8)),
            hard_pairs=hard_pairs,
            affinity_gap=float(rng.uniform(0.02, 0.2)),
            noise_scale=float(rng.uniform(0.0, 0.5)),
            seed=int(rng.integers(0, 2**31)),
        )
        bundle, planted, _ = make_benchmark(spec)
        ranked = rank_hard(ss_scores(bundle.semantics, bundle.split), 2 * hard_pairs)
        recovered += set(ranked) == set(planted)
    _report(
        "2 ss-metric-soundness",
        recovered == 100,
        f"planted set recovered on {recovered}/100 randomized specs",
    )


def test_03_frequency_metrics():
    """Histogram exactness, prior-normalization equivalences, unbalance fix."""
    rng = np.random.default_rng(7)
    split = ClassSplit(seen=frozenset({"s"}), unseen=frozenset({f"c{i}" for i in range(12)}))
    labels = [f"c{rng.integers(0, 12)}" for _ in range(100_000)]
    freqs = pseudo_label_histogram(labels, split)
    manual: dict[str, int] = {c: 0 for c in split.unseen}
    for label in labels:
        manual[label] += 1
    histogram_exact = freqs == manual

    uniform = {c: 1.0 / 12 for c in split.unseen}
    cf_scores = {c: float(v) for c, v in freqs.items()}
    uniform_match = rank_hard(normalize_by_prior(freqs, uniform), 5) == rank_hard(cf_scores, 5)
    sel_cf, rep_cf = select_cfbs(labels[:500], split, 4, 6, seed=11, metric="cf")
    sel_pn, rep_pn = select_cfbs(
        labels[:500], split, 4, 6, priors=uniform, metric="pncf", seed=11
    )
    selection_match = sel_cf == sel_pn and rep_cf.hard == rep_pn.hard

    direction_ok = True
    for seed in range(5):
        spec = unbalanced_benchmark_spec(seed)
        bundle, planted, _ = make_benchmark(spec)
        shrunk = unseen_class_ids(spec)[2 * spec.hard_pairs]
        classes, means, _ = bundle.train_seen.class_stats()
        model = fit_embedding_means(
            bundle.semantics.matrix(classes), means, np.ones(len(classes)), 0.1
        )
        preds = classify_embedding_batch(
            model, bundle.test_unseen.features, bundle.split.unseen, bundle.semantics
        )
        counts = pseudo_label_histogram(preds, bundle.split)
        cf_hard = rank_hard({c: float(v) for c, v in counts.items()}, 3)
        pncf_hard = rank_hard(normalize_by_prior(counts, bundle.class_priors), 3)
        direction_ok &= shrunk in cf_hard and shrunk not in pncf_hard

    ok = histogram_exact and uniform_match and selection_match and direction_ok
    _report(
        "3 cf-pncf-correctness",
        ok,
        f"histogram exact {histogram_exact}, uniform-prior match {uniform_match and selection_match}, "
        f"unbalance direction {direction_ok}",
    )


def test_04_interpolation_synthesis():
    """Each row recomputes from its gamma and sources; counts match the schedules exactly."""
    from hardboost.data import FeatureTable

    rng = np.random.default_rng(3)
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
    feats, labels = [], []
    for cls, count in [("sa", 10), ("sb", 15), ("sc", 5)]:
        feats.append(rng.normal(size=(count, 4)))
        labels.extend([cls] * count)
    train = FeatureTable(features=np.concatenate(feats).astype(np.float32), labels=tuple(labels))

    provenance_ok = True
    count_ok = True
    for alpha in [0.0, 0.5, 1.0, 2.0, 3.3]:
        synth = synthesize_hard_seen(train, sem, split, ["u1"], alpha, 2, seed=alpha_seed(alpha))
        expected = int(math.floor(alpha * 25 + 0.5))  # u1's support holds 10 + 15 rows
        count_ok &= len(synth) == expected
        dense = train.features.astype(np.float64)
        for row in range(len(synth)):
            gamma = synth.gamma[row]
            ri, rj = synth.source_rows[row]
            ci, cj = synth.source_classes[row]
            provenance_ok &= bool(
                np.abs(synth.features[row] - (gamma * dense[ri] + (1 - gamma) * dense[rj])).max()
                <= 1e-12
            )
            provenance_ok &= bool(
                np.abs(synth.semantics[row] - (gamma * sem[ci] + (1 - gamma) * sem[cj])).max()
                <= 1e-12
            )

    gen = fit_generator(train, sem, ridge=0.1)
    schedule_ok = True
    for beta in [1.0, 1.5, 2.0, 3.0]:
        for n_u in [1, 7, 100]:
            _, generated = synthesize_unseen(gen, sem, split, ["u1"], n_u, beta, seed=1)
            expected = int(math.floor(beta * n_u + 0.5)) + n_u
            schedule_ok &= len(generated) == expected

    ok = provenance_ok and count_ok and schedule_ok
    _report(
        "4 interpolation-synthesis",
        ok,
        f"provenance exact {provenance_ok}, alpha counts {count_ok}, beta schedule {schedule_ok}",
    )


def alpha_seed(alpha: float) -> int:
    return int(alpha * 10) + 1


def test_05_reduction_properties():
    """Disabled boosting reduces exactly to the plain pipelines."""
    bundle, _, _ = make_benchmark(standard_benchmark_spec(seed=6))
    cfg = RunConfig(hard_count=4, alpha=0.0, beta=1.0, n_unseen=25, seed=6, ridge=0.1)
    hars_preds, _, _ = run_hars(bundle, cfg)
    base_preds, _ = run_generative_baseline(bundle, cfg)
    hars_reduction = hars_preds == base_preds

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
    tiny = RunConfig(
        iterations=1, hard_count=4, metric="cf", base_model="embedding", n_unseen=100,
        seed=6, ridge=0.1,
    )
    with pytest.warns(UserWarning):
        preds, trace = run_harst(small, tiny)
    harst_reduction = (
        trace.records[0].quota == 0 and preds == list(trace.initial_pseudo_labels)
    )
    _report(
        "5 reduction-properties",
        hars_reduction and harst_reduction,
        f"hars==baseline {hars_reduction}, zero-quota harst==inductive {harst_reduction}",
    )


def test_06_improvement_direction():
    """Mean ordering over 10 paired seeds on the standard planted benchmark."""
    hars_diffs, gains, selection_diffs = [], [], []
    for seed in range(10):
        bundle, _, _ = make_benchmark(standard_benchmark_spec(seed=seed))
        cfg = RunConfig(hard_count=4, alpha=2.0, beta=2.0, n_unseen=25, seed=seed, ridge=0.1)
        _, base_report = run_generative_baseline(bundle, cfg)
        _, _, hars_report = run_hars(bundle, cfg)
        hars_diffs.append(hars_report.acc_u - base_report.acc_u)

        tcfg = RunConfig(
            iterations=6, hard_count=4, metric="cf", base_model="embedding", n_unseen=100,
            seed=seed, ridge=0.1,
        )
        _, trace = run_harst(bundle, tcfg)
        gains.append(trace.records[-1].evaluation.acc_u - trace.initial_evaluation.acc_u)
        rcfg = RunConfig(
            iterations=6, hard_count=4, metric="cf", base_model="embedding", n_unseen=100,
            selection="rs", seed=seed, ridge=0.1,
        )
        _, rs_trace = run_harst(bundle, rcfg)
        selection_diffs.append(
            trace.records[-1].evaluation.acc_u - rs_trace.records[-1].evaluation.acc_u
        )
    hars_mean = float(np.mean(hars_diffs))
    gain_mean = float(np.mean(gains))
    selection_mean = float(np.mean(selection_diffs))
    ok = hars_mean > 0 and gain_mean > 0 and selection_mean >= 0
    _report(
        "6 improvement-direction",
        ok,
        f"hars-baseline {hars_mean:+.4f} > 0, final-initial {gain_mean:+.4f} > 0, "
        f"cfbs-rs {selection_mean:+.4f} >= 0",
    )


def test_07_quota_arithmetic():
    """Exhaustive grid against an exact rational-arithmetic oracle."""
    ms = [50, 100, 250, 500, 1000, 2500, 5000]
    checked = 0
    ok = True
    for total in [4, 5, 6, 9, 12]:
        for t in range(1, total + 1):
            for m in ms:
                for k in range(3, 37):
                    expected = int(Fraction(t * m, total * k))
                    ok &= selection_quota(t, m, total, k) == expected
                    checked += 1
    _report("7 quota-arithmetic", ok, f"{checked} grid points, all exact")


def test_08_gradient_check():
    """Analytic classifier gradients vs central finite differences."""
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(20):
        n, v, c = int(rng.integers(3, 8)), int(rng.integers(2, 5)), int(rng.integers(2, 5))
        feats = rng.normal(size=(n, v))
        y = rng.integers(0, c, size=n)
        w = rng.normal(size=(c, v)) * 0.5
        b = rng.normal(size=c) * 0.5
        _, gw, gb = cross_entropy_and_grad(w, b, feats, y)

        def loss_at(w_, b_):
            logits = feats @ w_.T + b_
            shifted = logits - logits.max(axis=1, keepdims=True)
            log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            return -log_probs[np.arange(n), y].mean()

        eps = 1e-6
        for idx in np.ndindex(w.shape):
            bump = np.zeros_like(w)
            bump[idx] = eps
            fd = (loss_at(w + bump, b) - loss_at(w - bump, b)) / (2 * eps)
            worst = max(worst, abs(gw[idx] - fd) / max(abs(fd), 1e-8))
        for i in range(c):
            bump = np.zeros_like(b)
            bump[i] = eps
            fd = (loss_at(w, b + bump) - loss_at(w, b - bump)) / (2 * eps)
            worst = max(worst, abs(gb[i] - fd) / max(abs(fd), 1e-8))
    _report(
        "8 gradient-check",
        worst < 1e-4,
        f"worst relative error {worst:.2e} (tolerance 1e-4) over 20 instances",
    )


def test_09_confusion_similarity_diagnostics():
    """Hand-computed 3- and 5-class values, including saturation at k = C-1."""
    conf3 = np.array([[5, 3, 0], [1, 6, 1], [0, 2, 4]])
    sim3 = np.array([[1.0, 0.9, 0.1], [0.9, 1.0, 0.2], [0.1, 0.2, 1.0]])
    conf5 = np.array(
        [
            [8, 1, 1, 0, 0],
            [0, 9, 0, 1, 0],
            [2, 0, 8, 0, 0],
            [0, 0, 0, 10, 0],
            [1, 0, 0, 3, 6],
        ]
    )
    sim5 = np.array(
        [
            [1.0, 0.8, 0.6, 0.2, 0.1],
            [0.8, 1.0, 0.5, 0.3, 0.2],
            [0.6, 0.5, 1.0, 0.4, 0.3],
            [0.2, 0.3, 0.4, 1.0, 0.7],
            [0.1, 0.2, 0.3, 0.7, 1.0],
        ]
    )
    checks = [
        (apr(conf3, sim3, 1), 1.0),
        (amr(conf3, sim3, 1), (1.0 + 0.5 + 1.0) / 3),
        (apr(conf3, sim3, 2), 1.0),
        (amr(conf3, sim3, 2), 1.0),
        (amr(conf5, sim5, 1), (0.5 + 0.0 + 1.0 + 0.75) / 4),
        (amr(conf5, sim5, 4), 1.0),
    ]
    with pytest.warns(UserWarning):
        checks.append((apr(conf5, sim5, 1), 0.75))
    with pytest.warns(UserWarning):
        checks.append((apr(conf5, sim5, 4), 1.0))
    worst = max(abs(got - want) for got, want in checks)
    _report("9 apr-amr-oracle", worst == 0.0, f"max deviation {worst} over 8 hand values")


def test_10_reproducibility(tmp_path):
    """Re-running every subcommand yields byte-identical outputs."""
    spec = dict(
        seen_count=12, unseen_count=8, semantic_dim=20, visual_dim=24,
        n_per_class=15, hard_pairs=2, affinity_gap=0.2, noise_scale=0.1, seed=21,
    )
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    config_path = tmp_path / "cfg.json"
    # harst takes no "ss" metric; "cf" is what its runs here always used
    config_path.write_text(json.dumps({"K": 4, "T": 2, "N_u": 15, "seed": 8, "metric": "cf"}))
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({"beta": [1.0, 2.0]}))

    synth_out = []
    for tag in ("a", "b"):
        out = tmp_path / f"data_{tag}"
        assert dispatch(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
        synth_out.append(out)
    data = synth_out[0]

    comparisons = {}
    files = [p.name for p in synth_out[0].iterdir() if p.name != "manifest.json"]
    comparisons["synth"] = all(
        (synth_out[0] / name).read_bytes() == (synth_out[1] / name).read_bytes()
        for name in files
    )

    def run_twice(label, argv, outputs):
        dirs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{label}_{tag}"
            assert dispatch(argv + ["--out", str(out)]) == 0
            dirs.append(out)
        comparisons[label] = all(
            (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
            for name in outputs
        )
        return dirs[0]

    run_twice(
        "identify",
        ["identify", "--data", str(data), "--metric", "ss", "--k", "4"],
        ["hardness.json"],
    )
    hars_dir = run_twice(
        "hars",
        ["hars", "--data", str(data), "--config", str(config_path)],
        ["predictions.csv", "hardness.json", "report.json"],
    )
    run_twice(
        "harst",
        ["harst", "--data", str(data), "--config", str(config_path)],
        ["predictions.csv", "trace.json"],
    )
    run_twice(
        "eval",
        ["eval", "--data", str(data), "--preds", str(hars_dir / "predictions.csv")],
        ["report.json", "confusion.csv"],
    )
    run_twice(
        "sweep",
        ["sweep", "--data", str(data), "--config", str(config_path), "--grid", str(grid_path)],
        ["sweep.csv"],
    )
    ok = all(comparisons.values())
    _report(
        "10 reproducibility",
        ok,
        ", ".join(f"{k} {'ok' if v else 'DIFFERS'}" for k, v in comparisons.items()),
    )
