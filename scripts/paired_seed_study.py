"""Paired-seed study of the boosting pipelines on the planted benchmark.

For each seed, one standard planted benchmark is generated, and every run
below is made on it (``hardboost.benchmark.paired_seed_study``):
  * the plain generate-then-classify baseline vs the hardness-based
    synthesizing pipeline (same seeds, same budgets),
  * the self-training pipeline with frequency-based selection vs a
    size-matched random-selection arm,
  * sweeps of the hard-class count, the iteration count and the two
    synthesizing scales, one axis at a time, all other knobs as above.
Prints per-seed unseen-class accuracies, the paired mean differences and
each sweep point's mean and spread, and writes one CSV per swept parameter.
"""

import argparse
import csv
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from hardboost.benchmark import paired_seed_study, standard_benchmark_spec
from hardboost.config import RunConfig

# swept parameter -> (RunConfig field, the named run swept about, grid)
SWEEPS = {
    "K": ("hard_count", "hars", [1, 2, 3, 4, 5, 6]),
    "alpha": ("alpha", "hars", [0.0, 0.5, 1.0, 2.0, 3.0, 4.0]),
    "beta": ("beta", "hars", [1.0, 1.5, 2.0, 3.0, 4.0]),
    "T": ("iterations", "harst", [1, 2, 4, 6, 9, 12]),
}


def write_csv(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {path}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="number of paired seeds")
    parser.add_argument("--iterations", type=int, default=6)
    parser.add_argument("--hard-count", type=int, default=4)
    parser.add_argument("--out", help="optional CSV for the per-seed rows")
    parser.add_argument("--out-dir", default="sensitivity", help="directory for the sweep CSVs")
    args = parser.parse_args()

    warnings.filterwarnings("ignore")
    hars = RunConfig(hard_count=args.hard_count, alpha=2.0, beta=2.0, n_unseen=25, ridge=0.1)
    harst = RunConfig(
        iterations=args.iterations, hard_count=args.hard_count, metric="cf",
        base_model="embedding", n_unseen=100, ridge=0.1,
    )
    runs = {
        "baseline": ("baseline", hars), "hars": ("hars", hars),
        "harst": ("harst", harst), "rs": ("harst", replace(harst, selection="rs")),
    }
    for param, (field, about, grid) in SWEEPS.items():
        for value in grid:
            runs[f"{param}={value}"] = (about, replace(runs[about][1], **{field: value}))
    rows = paired_seed_study(standard_benchmark_spec, range(args.seeds), runs)

    def mean(key):
        return float(np.mean([r[key] for r in rows]))

    for r in rows:
        print(
            f"seed {r['seed']:2d}: baseline {r['baseline']:.3f}  hars {r['hars']:.3f}  "
            f"harst {r['harst_initial']:.3f} -> {r['harst']:.3f}  rs {r['rs']:.3f}"
        )
    print()
    print(f"mean baseline        {mean('baseline'):.4f}")
    print(f"mean hars            {mean('hars'):.4f}  (diff {mean('hars') - mean('baseline'):+.4f})")
    print(f"mean harst initial   {mean('harst_initial'):.4f}")
    print(f"mean harst final     {mean('harst'):.4f}  (gain {mean('harst') - mean('harst_initial'):+.4f})")
    print(f"mean random-selection {mean('rs'):.4f}  (cfbs - rs {mean('harst') - mean('rs'):+.4f})")
    if args.out:
        write_csv(args.out, rows)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for param, (_, _, grid) in SWEEPS.items():
        print()
        points = []
        for value in grid:
            accs = [r[f"{param}={value}"] for r in rows]
            points.append({param: value, "acc_u_mean": float(np.mean(accs)), "acc_u_std": float(np.std(accs))})
            print(f"{param}={value}: acc_u {np.mean(accs):.4f} +/- {np.std(accs):.4f}")
        write_csv(out_dir / f"{param}.csv", points)
    return 0


if __name__ == "__main__":
    sys.exit(main())
