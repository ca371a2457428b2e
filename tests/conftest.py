import json

import numpy as np
import pytest

from hardboost.benchmark import make_benchmark, standard_benchmark_spec
from hardboost.cli import dispatch


@pytest.fixture(scope="session")
def standard_benchmark():
    """(bundle, planted hard classes, generating map) for seed 0."""
    return make_benchmark(standard_benchmark_spec(seed=0))


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """The 12-seen/8-unseen desk benchmark, written by ``hardboost synth``."""
    root = tmp_path_factory.mktemp("cli")
    spec = dict(
        seen_count=12,
        unseen_count=8,
        semantic_dim=20,
        visual_dim=24,
        n_per_class=20,
        hard_pairs=2,
        affinity_gap=0.2,
        noise_scale=0.1,
        seed=11,
    )
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = root / "data"
    assert dispatch(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
    return out
