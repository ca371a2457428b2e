"""Pinned output digests for pipeline runs on the desk benchmark.

The benchmark checks its own outputs only for self-consistency, never
against pinned bytes, so these cases are the byte-level guard.  Each runs one
CLI command, or the generative baseline, which has no command, and compares
the sha256 of its label and count outputs with the value recorded when the
case was added.  One more case hashes the synthesized rows themselves, the
interpolated virtual rows with their mixing weights and sources and the
generated unseen rows, since a small bit change there can leave every
prediction unchanged.  For the same reason one case hashes the weights, bias
and loss history of a classifier fit.  Two sweeps pin the text of the error
rows that out-of-range grid points record.  A changed digest means changed
output bytes, which must be declared.
"""

import contextlib
import hashlib
import json
import shutil

import numpy as np
import pytest

from hardboost.cli import dispatch
from hardboost.data import load_bundle
from hardboost.hardness import HardnessReport, ss_scores
from hardboost.config import RunConfig
from hardboost.hars import run_generative_baseline, synthesize_hard_seen, synthesize_unseen
from hardboost.models import ClassifierConfig, fit_classifier, fit_generator

_CLF = {"epochs": 10}
_HARST = {"K": 3, "T": 2, "N_u": 40, "seed": 5, "metric": "cf",
          "base_model": "generative", "classifier": _CLF}
_EMBEDDING = {"K": 3, "T": 3, "seed": 5, "base_model": "embedding"}
# run on a copy of the bundle without priors.json, so the priors are estimated
NO_PRIORS = {"harst-embedding-pncf-estimated-priors"}
# a hard class's pseudo-label pool runs empty, which select_cfbs warns about
EMPTY_POOL = {"harst-generative-unseen"}

RUNS = {
    "harst-generative-unseen": (
        ["harst"], _HARST,
        {"predictions.csv": "96ea172611714598980d9de75366f4ff90ac55fe49666b71b0470387460829ed",
         "trace.json": "66f02145ed951856d0cd3eda0afe05fd0cdd79f3f67dc71086e51dcb4256aa1b"},
    ),
    "harst-embedding-unseen": (
        ["harst"], {**_EMBEDDING, "metric": "cf"},
        {"predictions.csv": "c6b0e2fc69fc975d257105f3890d59b27e00beac49548a8e24e834feec1192d7",
         "trace.json": "eeaa80286deda98c7ae8fd60702fb11d9f687daf6d1a63d118cff72060717038"},
    ),
    "harst-embedding-pncf-estimated-priors": (
        ["harst"], {**_EMBEDDING, "metric": "pncf"},
        {"predictions.csv": "38302cd4781860e9043fc3c2752530b81e322fe7604357ffbddcf0cc1a045c9d",
         "trace.json": "d130cb20b6ca7f886136877faf57db298f5200d89c5fb2a445f1faac65297901"},
    ),
    "hars": (
        ["hars"], {"K": 4, "N_u": 20, "seed": 5, "classifier": _CLF},
        {"predictions.csv": "235b719d8e7b5f3a83784f8d16114652a267cccddabb37b2535930d9ebc14f9c",
         "report.json": "fab1ac1a4fb63079973369f37990b53af33121495cbf45a3fcffabf8c6654793"},
    ),
    # the default classifier: 200 full-batch epochs, as the timed runs train
    "hars-full-batch": (
        ["hars"], {"K": 4, "N_u": 20, "seed": 5},
        {"predictions.csv": "bec929f29ecc17dd004055ff600e3847b1254f903dbe12913b9effb9d84d282a",
         "report.json": "0f3c7d26841f8930bf3e74162b38406e4a612802399bef2cf030d43916b158ee"},
    ),
}

# name -> (--pipeline, base config, grid, digest of sweep.csv); most points are
# out of range or exceed the unseen class count, so this pins the error rows
SWEEPS = {
    "hars": ("hars", {"N_u": 20, "seed": 5, "classifier": _CLF},
             {"K": [0, 2, 999], "beta": [0.5, 2]},
             "59811d7b6da441544a42b2dee6b57066a5a264cb8ebbaa0f8f24f66b6884a8a8"),
    "harst": ("harst", {**_EMBEDDING, "metric": "cf"},
              {"K": [0, 2], "T": [0, 2]},
              "7562046bf48649d66c06a3419d76fb41316a40594281007e9a13816e47b95b16"),
}

BASELINE = "e433b442749a2ba1da09901740551210ab10620c05dae24f50af6b61d81dc4a4"

# prediction digests are argmax-robust; this pins the synthesized rows' bits
# (the generated unseen rows are float32, each class drawn in float64 and cast)
SYNTH = "22005a9622050ba9f6dab543d7c9e02fae2532f9af0cf8c1d34823e7fda20168"

# digest of weights, bias and loss history of one classifier fit (203 rows, 10 classes)
FIT = "9a391979e3d299a3899d8078206fe3539cbe157b3f54a1a197754d84e948930c"

# name -> (analyze flags after --mode contrastive, digest of contrastive.json)
CONTRASTIVE = {
    "inductive": (["--setting", "inductive"],
                  "855f564cfa6e44b579a097c5c5b5f15baf349d52e5bcb5c46fab4838e99b5d11"),
    "transductive": (["--setting", "transductive"],
                     "89a0c33bfb469ecf1c453dcd3b34b02758b2b0f43b66177a5073f0ae29d4a889"),
    "transductive-embedding": (["--setting", "transductive", "--base", "embedding"],
                               "2daeee89fa01a05287713204e494b815e717f02b7c0a375685aaafc668f0c1a0"),
}


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_pipeline_outputs_are_pinned(name, data_dir, tmp_path):
    command, config, digests = RUNS[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    if name in NO_PRIORS:
        data_dir = shutil.copytree(data_dir, tmp_path / "data")
        (data_dir / "priors.json").unlink()
    warns = (pytest.warns(UserWarning, match="empty pseudo-label pool") if name in EMPTY_POOL
             else contextlib.nullcontext())
    with warns:
        assert dispatch(
            [*command, "--data", str(data_dir), "--config", str(cfg), "--out", str(out)]
        ) == 0
    assert {f: _sha(out / f) for f in digests} == digests


@pytest.mark.parametrize("name", sorted(CONTRASTIVE))
def test_contrastive_outputs_are_pinned(name, data_dir, tmp_path):
    flags, digest = CONTRASTIVE[name]
    out = tmp_path / "out"
    assert dispatch(
        ["analyze", "--data", str(data_dir), "--mode", "contrastive", *flags,
         "--n", "6", "--seed", "3", "--out", str(out)]
    ) == 0
    assert _sha(out / "contrastive.json") == digest


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_error_rows_are_pinned(name, data_dir, tmp_path):
    pipeline, config, grid, digest = SWEEPS[name]
    cfg, grid_path = tmp_path / "cfg.json", tmp_path / "grid.json"
    cfg.write_text(json.dumps(config))
    grid_path.write_text(json.dumps(grid))
    out = tmp_path / "out"
    assert dispatch(
        ["sweep", "--data", str(data_dir), "--config", str(cfg), "--grid", str(grid_path),
         "--pipeline", pipeline, "--out", str(out)]
    ) == 0
    assert _sha(out / "sweep.csv") == digest


def test_generative_baseline_outputs_are_pinned(data_dir):
    config = RunConfig(
        hard_count=4, n_unseen=20, seed=5,
        classifier=ClassifierConfig(**_CLF),
    )
    preds, report = run_generative_baseline(load_bundle(data_dir), config)
    digest = hashlib.sha256(("\n".join(preds) + repr(report.acc_u)).encode()).hexdigest()
    assert digest == BASELINE


def test_classifier_fit_bits_are_pinned():
    rng = np.random.default_rng(7)
    classes = [f"c{i}" for i in range(10)]
    y = rng.integers(0, 10, size=203)
    features = rng.standard_normal((10, 16))[y] + rng.standard_normal((203, 16))
    config = ClassifierConfig(learning_rate=0.3, epochs=60)
    model = fit_classifier(features, [classes[i] for i in y], classes, config)
    digest = hashlib.sha256(model.weights.tobytes() + model.bias.tobytes())
    digest.update(repr(model.loss_history).encode())
    assert digest.hexdigest() == FIT


def test_synthesized_rows_are_pinned(data_dir):
    bundle = load_bundle(data_dir)
    sem, split = bundle.semantics, bundle.split
    hard = HardnessReport.from_scores("ss", ss_scores(sem, split), 4).hard
    interp = synthesize_hard_seen(bundle.train_seen, sem, split, hard, 2.0, 2, seed=5)
    gen = fit_generator(bundle.train_seen, sem, 0.1, interp)
    features, labels = synthesize_unseen(gen, sem, split, hard, 20, 2.0, seed=5)
    digest = hashlib.sha256()
    for array in (interp.features, interp.semantics, interp.gamma,
                  interp.source_rows.astype(np.int64), features):
        digest.update(np.ascontiguousarray(array).tobytes())
    digest.update("\n".join(f"{a},{b}" for a, b in interp.source_classes).encode())
    digest.update("\n".join(labels).encode())
    assert digest.hexdigest() == SYNTH
