"""Hyper-parameter sensitivity on the planted benchmark.

Sweeps the hard-class count, iteration count, and the two synthesizing
scales one axis at a time (all other knobs at their defaults), averaging
unseen-class accuracy over paired seeds.  Output is one CSV per swept
parameter, ready for plotting.
"""

import argparse
import csv
import sys
import warnings
from pathlib import Path

import numpy as np

from hardboost.benchmark import make_benchmark, standard_benchmark_spec
from hardboost.config import RunConfig
from hardboost.hars import run_hars
from hardboost.harst import run_harst

GRIDS = {
    "K": [1, 2, 3, 4, 5, 6],
    "alpha": [0.0, 0.5, 1.0, 2.0, 3.0, 4.0],
    "beta": [1.0, 1.5, 2.0, 3.0, 4.0],
    "T": [1, 2, 4, 6, 9, 12],
}


def hars_point(bundle, seed, **overrides):
    params = dict(hard_count=4, alpha=2.0, beta=2.0, n_unseen=25, seed=seed, ridge=0.1)
    params.update(overrides)
    _, _, report = run_hars(bundle, RunConfig(**params))
    return report.acc_u


def harst_point(bundle, seed, **overrides):
    params = dict(
        iterations=6, hard_count=4, metric="cf", base_model="embedding", n_unseen=100,
        seed=seed, ridge=0.1,
    )
    params.update(overrides)
    _, trace = run_harst(bundle, RunConfig(**params))
    return trace.records[-1].evaluation.acc_u


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--out-dir", default="sensitivity")
    args = parser.parse_args()

    warnings.filterwarnings("ignore")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    bundles = [
        make_benchmark(standard_benchmark_spec(seed=seed))[0]
        for seed in range(args.seeds)
    ]

    sweeps = {
        "K": lambda bundle, seed, value: hars_point(bundle, seed, hard_count=value),
        "alpha": lambda bundle, seed, value: hars_point(bundle, seed, alpha=value),
        "beta": lambda bundle, seed, value: hars_point(bundle, seed, beta=value),
        "T": lambda bundle, seed, value: harst_point(bundle, seed, iterations=value),
    }
    for param, run in sweeps.items():
        rows = []
        for value in GRIDS[param]:
            accs = [run(bundles[seed], seed, value) for seed in range(args.seeds)]
            rows.append({param: value, "acc_u_mean": float(np.mean(accs)),
                         "acc_u_std": float(np.std(accs))})
            print(f"{param}={value}: acc_u {np.mean(accs):.4f} +/- {np.std(accs):.4f}")
        path = out_dir / f"{param}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {path}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
