"""Pinned output digests for CLI paths the benchmark does not run.

Each case runs one command on the desk benchmark and compares the sha256 of
its label and count outputs with the value recorded when the case was
added.  A changed digest means changed output bytes, which must be declared.
"""

import hashlib
import json

import pytest

from hardboost.cli import dispatch

# mini-batches, so the outputs depend on each classifier's seed
_CLF = {"epochs": 10, "batch_size": 32}
_HARST = {"K": 3, "T": 2, "N_u": 40, "seed": 5, "metric": "cf",
          "base_model": "generative", "classifier": _CLF}

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
    "hars": (
        ["hars"], {"K": 4, "N_u": 20, "seed": 5, "classifier": _CLF},
        {"predictions.csv": "fc22b03c2471caab330b31ac5dbbab70d93237e61cc0ccf5d7b5ebf15826f478",
         "report.json": "677bb0d4ee37b5e25d364b4bb59d7dc0063913d1549a1bf81af6fea7ac540d87"},
    ),
}

CONTRASTIVE = {
    "inductive": "855f564cfa6e44b579a097c5c5b5f15baf349d52e5bcb5c46fab4838e99b5d11",
    "transductive": "89a0c33bfb469ecf1c453dcd3b34b02758b2b0f43b66177a5073f0ae29d4a889",
}


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_pipeline_outputs_are_pinned(name, data_dir, tmp_path):
    command, config, digests = RUNS[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert dispatch(
        [*command, "--data", str(data_dir), "--config", str(cfg), "--out", str(out)]
    ) == 0
    assert {f: _sha(out / f) for f in digests} == digests


@pytest.mark.parametrize("setting", sorted(CONTRASTIVE))
def test_contrastive_outputs_are_pinned(setting, data_dir, tmp_path):
    out = tmp_path / "out"
    assert dispatch(
        ["analyze", "--data", str(data_dir), "--mode", "contrastive",
         "--setting", setting, "--n", "6", "--seed", "3", "--out", str(out)]
    ) == 0
    assert _sha(out / "contrastive.json") == CONTRASTIVE[setting]
