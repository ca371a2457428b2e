"""Paired-seed study of the boosting pipelines on the planted benchmark.

For each seed: generate the standard planted benchmark, then run
  * the plain generate-then-classify baseline vs the hardness-based
    synthesizing pipeline (same seeds, same budgets),
  * the self-training pipeline with frequency-based selection vs a
    size-matched random-selection arm.

Prints per-seed unseen-class accuracies and the paired mean differences.
"""

import argparse
import csv
import sys
import warnings

import numpy as np

from hardboost.benchmark import make_benchmark, standard_benchmark_spec
from hardboost.config import RunConfig
from hardboost.hars import run_generative_baseline, run_hars
from hardboost.harst import run_harst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="number of paired seeds")
    parser.add_argument("--iterations", type=int, default=6)
    parser.add_argument("--hard-count", type=int, default=4)
    parser.add_argument("--out", help="optional CSV for the per-seed rows")
    args = parser.parse_args()

    warnings.filterwarnings("ignore")
    rows = []
    for seed in range(args.seeds):
        bundle, _, _ = make_benchmark(standard_benchmark_spec(seed=seed))
        hars_cfg = RunConfig(
            hard_count=args.hard_count, alpha=2.0, beta=2.0, n_unseen=25,
            seed=seed, ridge=0.1,
        )
        _, base_report = run_generative_baseline(bundle, hars_cfg)
        _, _, hars_report = run_hars(bundle, hars_cfg)

        harst_cfg = RunConfig(
            iterations=args.iterations, hard_count=args.hard_count,
            metric="cf", base_model="embedding", n_unseen=100, seed=seed, ridge=0.1,
        )
        _, trace = run_harst(bundle, harst_cfg)
        rs_cfg = RunConfig(
            iterations=args.iterations, hard_count=args.hard_count, metric="cf",
            base_model="embedding", n_unseen=100, selection="rs", seed=seed, ridge=0.1,
        )
        _, rs_trace = run_harst(bundle, rs_cfg)

        rows.append(
            dict(
                seed=seed,
                baseline=base_report.acc_u,
                hars=hars_report.acc_u,
                harst_initial=trace.initial_evaluation.acc_u,
                harst_final=trace.records[-1].evaluation.acc_u,
                rs_final=rs_trace.records[-1].evaluation.acc_u,
            )
        )
        print(
            f"seed {seed:2d}: baseline {base_report.acc_u:.3f}  "
            f"hars {hars_report.acc_u:.3f}  "
            f"harst {trace.initial_evaluation.acc_u:.3f} -> "
            f"{trace.records[-1].evaluation.acc_u:.3f}  "
            f"rs {rs_trace.records[-1].evaluation.acc_u:.3f}"
        )

    def mean(key):
        return float(np.mean([r[key] for r in rows]))

    print()
    print(f"mean baseline        {mean('baseline'):.4f}")
    print(f"mean hars            {mean('hars'):.4f}  (diff {mean('hars') - mean('baseline'):+.4f})")
    print(f"mean harst initial   {mean('harst_initial'):.4f}")
    print(
        f"mean harst final     {mean('harst_final'):.4f}  "
        f"(gain {mean('harst_final') - mean('harst_initial'):+.4f})"
    )
    print(
        f"mean random-selection {mean('rs_final'):.4f}  "
        f"(cfbs - rs {mean('harst_final') - mean('rs_final'):+.4f})"
    )

    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
