"""Pinned output digests for pipeline runs on the desk benchmark.

The benchmark checks its own outputs only for self-consistency, never
against pinned bytes, so these cases are the byte-level guard.  Each runs one
CLI command, or the generative baseline, which has no command, and compares
the sha256 of its label and count outputs with the value recorded when the
case was added.  One more case hashes the synthesized rows themselves, the
interpolated virtual rows with their mixing weights and sources and the
generated unseen rows, since a small bit change there can leave every
prediction unchanged.  A changed digest means changed output bytes, which must
be declared.
"""

import hashlib
import json
import shutil

import numpy as np
import pytest

from hardboost.cli import dispatch
from hardboost.data import load_bundle
from hardboost.hardness import HardnessReport, ss_scores
from hardboost.hars import HarsConfig, run_generative_baseline, synthesize_hard_seen, synthesize_unseen
from hardboost.models import ClassifierConfig, fit_generator

# mini-batches, so the outputs depend on each classifier's seed
_CLF = {"epochs": 10, "batch_size": 32}
_HARST = {"K": 3, "T": 2, "N_u": 40, "seed": 5, "metric": "cf",
          "base_model": "generative", "classifier": _CLF}
_EMBEDDING = {"K": 3, "T": 3, "seed": 5, "base_model": "embedding"}
# run on a copy of the bundle without priors.json, so the priors are estimated
NO_PRIORS = {"harst-embedding-pncf-estimated-priors"}

RUNS = {
    "harst-generative-unseen": (
        ["harst"], {**_HARST, "label_space": "unseen"},
        {"predictions.csv": "ceaccfde4e3090ca862d29ccc7d5296f69c7c7c699c8fa881a1394b2a2d44e9d",
         "trace.json": "738152b875a498b476d7ca6248bda1ee7ccdc6f136aa7b28450075f3094df95a"},
    ),
    "harst-generative-all": (
        ["harst"], {**_HARST, "label_space": "all"},
        {"predictions.csv": "1c5e49cca65d039746fc47b7edac5e9a7cb48e73fbfea08b47d58df15b87d6e3",
         "trace.json": "8931271af80fee9ff9363ee29a5ae4c6a62cec120d663c0b981b3b2ba1e8a858"},
    ),
    "harst-embedding-unseen": (
        ["harst"], {**_EMBEDDING, "metric": "cf", "label_space": "unseen"},
        {"predictions.csv": "c6b0e2fc69fc975d257105f3890d59b27e00beac49548a8e24e834feec1192d7",
         "trace.json": "eeaa80286deda98c7ae8fd60702fb11d9f687daf6d1a63d118cff72060717038"},
    ),
    "harst-embedding-all": (
        ["harst"], {**_EMBEDDING, "metric": "cf", "label_space": "all"},
        {"predictions.csv": "70712c6d32c15411d2e0f02704f301d601ab0f15c4f7b2ee438eab7dbe1e48b8",
         "trace.json": "b3e9ae6ca8ad468da134ef5a8138ab2b791d99423ea0c5a26dd337c800fab1ec"},
    ),
    "harst-embedding-pncf-estimated-priors": (
        ["harst"], {**_EMBEDDING, "metric": "pncf", "label_space": "unseen"},
        {"predictions.csv": "b66aeef1150ba8095ee1b202c2541adf8d4be553312c340f7379df27b54375a0",
         "trace.json": "4c0e703435d8e80f1ad4875627599b8a4ef57ef942bcea55722a5be08d30ca8a"},
    ),
    "hars": (
        ["hars"], {"K": 4, "N_u": 20, "seed": 5, "classifier": _CLF},
        {"predictions.csv": "fc22b03c2471caab330b31ac5dbbab70d93237e61cc0ccf5d7b5ebf15826f478",
         "report.json": "677bb0d4ee37b5e25d364b4bb59d7dc0063913d1549a1bf81af6fea7ac540d87"},
    ),
}

# batch 8, not 32: at 32 the baseline's predictions do not depend on its classifier seed
BASELINE = "2117b778ed7a86c45905d5ba8d183f4b65f80cfb072f5caabe0de8d3625c61c9"

# prediction digests are argmax-robust; this pins the synthesized rows' bits
SYNTH = "368d3ee158b9432343ae62777709129b8793865cb545e62c0b5a84f1d6655a80"

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


def test_generative_baseline_outputs_are_pinned(data_dir):
    config = HarsConfig(
        hard_count=4, n_unseen=20, seed=5,
        classifier=ClassifierConfig(epochs=10, batch_size=8),
    )
    preds, report = run_generative_baseline(load_bundle(data_dir), config)
    digest = hashlib.sha256(("\n".join(preds) + repr(report.acc_u)).encode()).hexdigest()
    assert digest == BASELINE


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
