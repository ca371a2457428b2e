"""The benchmark's workloads: which bundle each builds and which CLI run it times.

Every input is derived from the run seed: the bundle spec's seed and the run
config's seed are both the seed given on the command line.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from hardboost import benchmark, data
from hardboost.benchmark import BenchmarkSpec, standard_benchmark_spec

# The CUB-shaped planted benchmark: 150 seen / 50 unseen classes, 312
# attributes, 512-d features, 60 rows per class (about 43 MB on disk).
_CUB_SHAPE = dict(
    seen_count=150,
    unseen_count=50,
    semantic_dim=312,
    visual_dim=512,
    n_per_class=60,
    hard_pairs=10,
    affinity_gap=0.2,
    noise_scale=0.1,
)


def cub_spec(seed: int) -> BenchmarkSpec:
    return BenchmarkSpec(seed=seed, **_CUB_SHAPE)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # hars, harst or sweep
    spec: Callable[[int], BenchmarkSpec]
    config: dict  # run config without its seed
    grid: dict | None = None  # sweep grid (sweep only)
    ship_priors: bool = True  # write priors.json into the bundle

    def run_config(self, seed: int) -> dict:
        return {**self.config, "seed": seed}

    def grid_points(self) -> list[dict]:
        """Every grid point as an override dict, in the CLI's row order."""
        keys = sorted(self.grid)
        return [dict(zip(keys, p)) for p in itertools.product(*(self.grid[k] for k in keys))]

    def build_bundle(self, seed: int, directory: Path) -> None:
        """Build the bundle on disk through the synth path (``make_benchmark``
        + ``write_bundle``), with the planted hard classes in
        ``ground_truth.json``.  Both are called through their modules so that
        a traced run sees them."""
        bundle, planted, _ = benchmark.make_benchmark(self.spec(seed))
        if not self.ship_priors:
            bundle = dataclasses.replace(bundle, class_priors=None)
        data.write_bundle(bundle, directory)
        (directory / "ground_truth.json").write_text(json.dumps({"hard": planted}))

    def write_inputs(self, seed: int, directory: Path) -> list[str]:
        """Write the run config (and grid); return the CLI options that name them."""
        config = directory / "config.json"
        config.write_text(json.dumps(self.run_config(seed)))
        argv = ["--config", str(config)]
        if self.grid is not None:
            grid = directory / "grid.json"
            grid.write_text(json.dumps(self.grid))
            argv += ["--grid", str(grid), "--pipeline", "hars"]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        # Inductive pipeline at CUB scale: softmax training dominates; the
        # embedding classifier and prior estimation never run.
        Workload(
            name="cub-hars",
            command="hars",
            spec=cub_spec,
            config={"K": 10, "alpha": 2.0, "beta": 2.0, "S": 2, "N_u": 100},
        ),
        # Transductive pipeline at CUB scale on the embedding base with the
        # prior-normalized metric.  Real unseen test pools come without class
        # priors, so the bundle ships without priors.json and the priors are
        # estimated by k-means; the softmax classifier never trains.
        Workload(
            name="cub-harst",
            command="harst",
            spec=cub_spec,
            config={"K": 10, "T": 6, "metric": "pncf", "base_model": "embedding"},
            ship_priors=False,
        ),
        # Grid over hars on the small desk bundle: per-call overhead, the
        # sweep's thread pool and stage work repeated across grid points
        # (24 points, but only 2 distinct hard-seen synthesis inputs).
        Workload(
            name="desk-sweep",
            command="sweep",
            spec=standard_benchmark_spec,
            config={"K": 2, "alpha": 2.0, "beta": 2.0, "S": 2, "N_u": 100},
            grid={"K": [2, 4], "beta": [1.0, 2.0, 3.0], "N_u": [50, 100, 150, 200]},
        ),
    )
}

