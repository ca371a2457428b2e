import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hardboost
from hardboost import hars as hars_module
from hardboost.cli import dispatch, load_predictions
from hardboost.config import RunConfig, load_run_config, parse_run_config, require_frequency_metric
from hardboost.data import ConfigError, load_bundle
from hardboost.hars import PipelineError, run_hars
from hardboost.models import ClassifierConfig

_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
RUN_CONFIGS = st.builds(
    RunConfig,
    hard_count=st.integers(min_value=1),
    iterations=st.integers(min_value=1),
    alpha=st.floats(min_value=0, allow_infinity=False),
    beta=st.floats(min_value=1, allow_infinity=False),
    support_count=st.integers(min_value=1),
    n_unseen=st.integers(min_value=1),
    seed=st.integers(min_value=0),
    metric=st.sampled_from(["ss", "cf", "pncf"]),
    base_model=st.sampled_from(["embedding", "generative"]),
    selection=st.sampled_from(["cfbs", "rs"]),
    label_space=st.sampled_from(["unseen", "all"]),
    ridge=_FLOATS,
    classifier=st.builds(
        ClassifierConfig,
        learning_rate=st.floats(min_value=0, exclude_min=True, allow_infinity=False),
        epochs=st.integers(min_value=1),
        batch_size=st.none() | st.integers(min_value=1),
        seed=st.just(0),
    ),
)


def write_config(path, **overrides):
    config = {"K": 4, "T": 3, "alpha": 2.0, "beta": 2.0, "N_u": 20, "seed": 5}
    config.update(overrides)
    path.write_text(json.dumps(config))
    return path


class TestDispatchBasics:
    def test_no_arguments_is_usage_error(self, capsys):
        assert dispatch([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert dispatch(["frobnicate"]) == 1

    def test_unknown_flag(self, capsys):
        assert dispatch(["identify", "--bogus", "x"]) == 1

    def test_runtime_error_exits_2(self, tmp_path, capsys):
        assert dispatch(["identify", "--data", str(tmp_path / "none"), "--k", "2"]) == 2


class TestSynth:
    def test_outputs_and_ground_truth(self, data_dir):
        names = {p.name for p in data_dir.iterdir()}
        assert {
            "train_seen.zsf",
            "test_unseen.zsf",
            "test_seen.zsf",
            "semantics.csv",
            "split.json",
            "priors.json",
            "ground_truth.json",
            "manifest.json",
        } <= names
        truth = json.loads((data_dir / "ground_truth.json").read_text())
        assert truth["hard"] == ["u00", "u01", "u02", "u03"]

    @pytest.mark.parametrize("module", ["hardboost.cli", "hardboost"])
    def test_python_dash_m_runs_the_command(self, module, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(dict(
            seen_count=6, unseen_count=4, semantic_dim=10, visual_dim=6, n_per_class=3,
            hard_pairs=1, affinity_gap=0.2, noise_scale=0.1, seed=2,
        )))
        out = tmp_path / "d"
        src = str(Path(hardboost.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", module, "synth", "--spec", str(spec), "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        assert (out / "train_seen.zsf").is_file()

    def test_unknown_spec_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"seen_count": 5, "bogus": 1}))
        assert dispatch(["synth", "--spec", str(bad), "--out", str(tmp_path / "o")]) == 2


class TestIdentify:
    def test_ss_hardness_output(self, data_dir, tmp_path):
        out = tmp_path / "id"
        code = dispatch(
            ["identify", "--data", str(data_dir), "--metric", "ss", "--k", "4", "--out", str(out)]
        )
        assert code == 0
        hardness = json.loads((out / "hardness.json").read_text())
        assert hardness["metric"] == "ss"
        assert sorted(hardness["hard"]) == ["u00", "u01", "u02", "u03"]
        assert hardness["K"] == 4

    def test_cf_requires_predictions(self, data_dir, tmp_path):
        code = dispatch(
            ["identify", "--data", str(data_dir), "--metric", "cf", "--k", "2",
             "--out", str(tmp_path / "x")]
        )
        assert code == 1

    def test_cf_drops_seen_pseudo_labels(self, data_dir, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", T=2, metric="cf", base_model="embedding",
                           label_space="all")
        run = tmp_path / "run"
        assert dispatch(["harst", "--data", str(data_dir), "--config", str(cfg), "--out", str(run)]) == 0
        preds = load_predictions(run / "predictions.csv")
        assert any(p.startswith("s") for p in preds)
        out = tmp_path / "id"
        assert dispatch(["identify", "--data", str(data_dir), "--metric", "cf", "--k", "2",
                         "--preds", str(run / "predictions.csv"), "--out", str(out)]) == 0
        scores = json.loads((out / "hardness.json").read_text())["scores"]
        assert scores == {f"u{i:02d}": float(preds.count(f"u{i:02d}")) for i in range(8)}

    def test_label_outside_the_split_rejected(self, data_dir, tmp_path, capsys):
        preds = tmp_path / "preds.csv"
        preds.write_text("row_index,predicted_class\n" + "".join(
            f"{i},{'zz' if i == 7 else 'u00'}\n" for i in range(160)))
        code = dispatch(["identify", "--data", str(data_dir), "--metric", "cf", "--k", "2",
                         "--preds", str(preds), "--out", str(tmp_path / "id")])
        assert code == 2
        assert "'zz' is not a class of the split" in capsys.readouterr().err


class TestPipelines:
    def test_hars_outputs(self, data_dir, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "run"
        code = dispatch(
            ["hars", "--data", str(data_dir), "--config", str(cfg), "--out", str(out)]
        )
        assert code == 0
        preds = load_predictions(out / "predictions.csv")
        assert len(preds) == 8 * 20
        report = json.loads((out / "report.json").read_text())
        assert 0.0 <= report["acc_u"] <= 1.0
        assert set(report) >= {"per_class_accuracy", "acc_u", "acc_s", "h", "confusion", "apr", "amr"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "hars"
        assert manifest["seed"] == 5
        assert manifest["inputs"]

    def test_hars_reruns_are_byte_identical(self, data_dir, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert dispatch(
                ["hars", "--data", str(data_dir), "--config", str(cfg), "--out", str(out)]
            ) == 0
        for name in ("predictions.csv", "hardness.json", "report.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        m1.pop("duration_seconds"), m2.pop("duration_seconds")
        assert m1 == m2

    def test_seed_flag_overrides_config(self, data_dir, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        dispatch(["hars", "--data", str(data_dir), "--config", str(cfg), "--out", str(out1), "--seed", "99"])
        dispatch(["hars", "--data", str(data_dir), "--config", str(cfg), "--out", str(out2), "--seed", "100"])
        assert (out1 / "predictions.csv").read_bytes() != (out2 / "predictions.csv").read_bytes()

    def test_harst_outputs(self, data_dir, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", T=2, metric="cf", base_model="embedding")
        out = tmp_path / "run"
        code = dispatch(
            ["harst", "--data", str(data_dir), "--config", str(cfg), "--out", str(out)]
        )
        assert code == 0
        trace = json.loads((out / "trace.json").read_text())
        assert len(trace["iterations"]) == 2
        assert trace["initial"]["acc_u"] <= 1.0
        for record in trace["iterations"]:
            assert set(record) == {"t", "quota", "hardness", "selected_per_class", "evaluation"}

    def test_harst_rejects_the_ss_metric(self, data_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", T=2, base_model="embedding")  # metric "ss"
        out = tmp_path / "run"
        code = dispatch(
            ["harst", "--data", str(data_dir), "--config", str(cfg), "--out", str(out)]
        )
        assert code == 2
        assert "metric" in capsys.readouterr().err
        assert not (out / "predictions.csv").exists()

    @pytest.mark.parametrize(
        "field, value",
        [("batch_size", -3), ("epochs", -5), ("learning_rate", 0.0)],
    )
    def test_hars_rejects_a_classifier_that_cannot_train(
        self, field, value, data_dir, tmp_path, capsys
    ):
        # each of these used to train nothing and report chance accuracy
        cfg = write_config(tmp_path / "cfg.json", classifier={field: value})
        out = tmp_path / "run"
        code = dispatch(["hars", "--data", str(data_dir), "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert f"{cfg}: classifier.{field} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, key, value, message",
        [
            ("hars", "T", 0, "iterations must be >= 1"),
            ("hars", "K", 0, "hard_count must be >= 1"),
            ("harst", "S", 0, "support_count must be >= 1"),
            ("harst", "alpha", -1.0, "alpha must be >= 0"),
            ("harst", "beta", 0.5, "beta must be >= 1"),
            ("harst", "N_u", 0, "n_unseen must be >= 1"),
        ],
    )
    def test_every_field_is_checked_whatever_the_pipeline(
        self, command, key, value, message, data_dir, tmp_path, capsys
    ):
        cfg = write_config(tmp_path / "cfg.json", metric="cf", base_model="embedding",
                           **{key: value})
        out = tmp_path / "run"
        code = dispatch([command, "--data", str(data_dir), "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert f"error: {cfg}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["hars", "harst"])
    def test_classifier_seed_is_rejected(self, command, data_dir, tmp_path, capsys):
        # each classifier's seed derives from seed, so this key reached no fit
        cfg = write_config(tmp_path / "cfg.json", T=2, metric="cf", base_model="embedding",
                           classifier={"seed": 9})
        out = tmp_path / "run"
        code = dispatch([command, "--data", str(data_dir), "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert f"{cfg}: classifier.seed must be 0" in capsys.readouterr().err
        assert not out.exists()

    def test_harst_reruns_are_byte_identical(self, data_dir, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", T=2, metric="cf", base_model="embedding")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert dispatch(
                ["harst", "--data", str(data_dir), "--config", str(cfg), "--out", str(out)]
            ) == 0
        for name in ("predictions.csv", "trace.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestEvalAndAnalyze:
    @pytest.fixture()
    def run_dir(self, data_dir, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "run"
        dispatch(["hars", "--data", str(data_dir), "--config", str(cfg), "--out", str(out)])
        return out

    def test_eval_report_and_confusion_csv(self, data_dir, run_dir, tmp_path):
        out = tmp_path / "ev"
        code = dispatch(
            ["eval", "--data", str(data_dir), "--preds", str(run_dir / "predictions.csv"),
             "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        hars_report = json.loads((run_dir / "report.json").read_text())
        assert report["acc_u"] == hars_report["acc_u"]
        lines = (out / "confusion.csv").read_text().strip().splitlines()
        assert len(lines) == 9  # header + 8 unseen classes

    def test_identification_analysis(self, data_dir, run_dir, tmp_path):
        out = tmp_path / "an"
        code = dispatch(
            ["analyze", "--data", str(data_dir), "--mode", "identification",
             "--preds", str(run_dir / "predictions.csv"),
             "--hardness", str(run_dir / "hardness.json"), "--out", str(out)]
        )
        assert code == 0
        quality = json.loads((out / "identification.json").read_text())
        assert 0.0 <= quality["recall_of_true_hard"] <= 1.0

    def test_contrastive_analysis(self, data_dir, tmp_path):
        out = tmp_path / "con"
        code = dispatch(
            ["analyze", "--data", str(data_dir), "--mode", "contrastive",
             "--setting", "inductive", "--n", "10", "--out", str(out)]
        )
        assert code == 0
        result = json.loads((out / "contrastive.json").read_text())
        assert set(result) == {"easy-weighted", "hard-weighted", "uniform"}


class TestBadJsonInputs:
    """A file value of the wrong JSON type fails with exit 2, naming the file and key."""

    def copy_with(self, data_dir, tmp_path, name, obj):
        data = shutil.copytree(data_dir, tmp_path / "data")
        (data / name).write_text(json.dumps(obj))
        return data

    @pytest.mark.parametrize("value", [[0.125], "0.125", True, None])
    def test_priors(self, data_dir, tmp_path, capsys, value):
        priors = json.loads((data_dir / "priors.json").read_text())
        data = self.copy_with(data_dir, tmp_path, "priors.json", {**priors, "u03": value})
        code = dispatch(["identify", "--data", str(data), "--k", "2", "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"{data / 'priors.json'}: prior for class 'u03'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [5, "s00s01", [0, 1], None])
    def test_split(self, data_dir, tmp_path, capsys, value):
        split = json.loads((data_dir / "split.json").read_text())
        data = self.copy_with(data_dir, tmp_path, "split.json", {**split, "seen": value})
        code = dispatch(["identify", "--data", str(data), "--k", "2", "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"{data / 'split.json'}: seen must be" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [  # None: the key is missing
        ("hard", None), ("hard", [0, 1]), ("K", "2"), ("K", True), ("scores", {"u00": "1"}),
    ])
    def test_hardness(self, data_dir, tmp_path, capsys, key, value):
        obj = {"metric": "cf", "scores": {f"u{i:02d}": float(i) for i in range(8)},
               "hard": ["u00", "u01"], "K": 2}
        if value is None:
            del obj[key]
        else:
            obj[key] = value
        hardness = tmp_path / "hardness.json"
        hardness.write_text(json.dumps(obj))
        preds = tmp_path / "preds.csv"
        preds.write_text("row_index,predicted_class\n" + "".join(f"{i},u00\n" for i in range(160)))
        code = dispatch(["analyze", "--data", str(data_dir), "--preds", str(preds),
                         "--hardness", str(hardness), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{hardness}: {key}" in err

    @pytest.mark.parametrize("key, value", [
        ("seen_count", 12.5), ("seen_count", True), ("n_per_class", 1.5),
        ("unseen_counts", {"u00": 2.5}), ("unseen_counts", [2]),
    ])
    def test_synth_spec(self, tmp_path, capsys, key, value):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "seen_count": 6, "unseen_count": 4, "semantic_dim": 10, "visual_dim": 6,
            "n_per_class": 3, "hard_pairs": 1, "affinity_gap": 0.2, "noise_scale": 0.1,
            "seed": 2, key: value,
        }))
        assert dispatch(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        assert f"{spec}: {key}" in capsys.readouterr().err


class TestSweep:
    def test_grid_rows_and_baseline_column(self, data_dir, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", alpha=0.0)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"beta": [1.0, 2.0, 3.0]}))
        out = tmp_path / "sweep"
        code = dispatch(
            ["sweep", "--data", str(data_dir), "--config", str(cfg),
             "--grid", str(grid), "--pipeline", "hars", "--out", str(out)]
        )
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "beta,acc_u,error"
        assert len(lines) == 4
        # the beta = 1 row equals a plain baseline run with the same seed
        cfg_base = write_config(tmp_path / "cfg_base.json", alpha=0.0, beta=1.0)
        base_out = tmp_path / "base"
        dispatch(["hars", "--data", str(data_dir), "--config", str(cfg_base), "--out", str(base_out)])
        base_acc = json.loads((base_out / "report.json").read_text())["acc_u"]
        beta_one = float(lines[1].split(",")[1])
        assert beta_one == pytest.approx(base_acc, abs=1e-12)

    def test_single_point_failure_is_recorded(self, data_dir, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"K": [2, 999]}))
        out = tmp_path / "sweep"
        assert dispatch(
            ["sweep", "--data", str(data_dir), "--config", str(cfg),
             "--grid", str(grid), "--pipeline", "hars", "--out", str(out)]
        ) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        good = lines[1].split(",")
        bad = lines[2].split(",")
        assert good[0] == "2" and good[2] == ""
        assert bad[0] == "999" and bad[1] == "" and bad[2]

    @staticmethod
    def sweep_one_point(data_dir, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"K": [2]}))
        return dispatch(
            ["sweep", "--data", str(data_dir), "--config", str(cfg),
             "--grid", str(grid), "--pipeline", "hars", "--out", str(tmp_path / "sweep")]
        )

    def test_programming_error_is_not_recorded(self, data_dir, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("broken pipeline")

        monkeypatch.setattr("hardboost.cli.fit_hard_generator", broken)
        with pytest.raises(TypeError, match="broken pipeline"):
            self.sweep_one_point(data_dir, tmp_path)
        assert not (tmp_path / "sweep" / "sweep.csv").exists()

    @pytest.mark.parametrize("error, code", [(ValueError, 0), (TypeError, 2)])
    def test_stage_failure_recorded_only_for_value_errors(
        self, error, code, data_dir, tmp_path, monkeypatch
    ):
        def failing(*args, **kwargs):
            raise error("stage broke")

        monkeypatch.setattr(hars_module, "synthesize_hard_seen", failing)
        assert self.sweep_one_point(data_dir, tmp_path) == code
        csv = tmp_path / "sweep" / "sweep.csv"
        if error is ValueError:
            row = csv.read_text().strip().splitlines()[1]
            assert "synthesize-hard-seen" in row and "stage broke" in row
        else:
            assert not csv.exists()

    @staticmethod
    def sweep_rows(data_dir, tmp_path, grid, **config):
        cfg = write_config(tmp_path / "cfg.json", **config)
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid))
        out = tmp_path / "sweep"
        assert dispatch(
            ["sweep", "--data", str(data_dir), "--config", str(cfg),
             "--grid", str(grid_path), "--pipeline", "hars", "--out", str(out)]
        ) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        return load_run_config(cfg), [line.split(",", len(grid) + 1) for line in lines[1:]]

    @pytest.mark.parametrize("ridge", [0.1, 0.0])
    def test_points_sharing_a_front_half_match_direct_runs(self, ridge, data_dir, tmp_path):
        # K 999 fails in the front half and beta 0.5 before it; at ridge 0
        # every in-range point fails at fit-generator
        grid = {"K": [2, 999], "alpha": [0.0, 2.0], "beta": [0.5, 1.0, 3.0]}
        base, rows = self.sweep_rows(data_dir, tmp_path, grid, ridge=ridge)
        bundle = load_bundle(data_dir)
        for k, alpha, beta, acc, err in rows:
            try:
                config = replace(base, hard_count=int(k), alpha=float(alpha), beta=float(beta))
                expected = (repr(run_hars(bundle, config)[2].acc_u), "")
            except (ValueError, PipelineError) as exc:
                expected = ("", str(exc))
            assert (acc, err) == expected
        errors = [err for *_, err in rows]
        assert sum("hard_count 999" in err for err in errors) == 4
        assert sum("fit-generator" in err for err in errors) == (4 if ridge == 0 else 0)
        assert errors.count("") == (0 if ridge == 0 else 4)

    def test_front_half_runs_once_per_distinct_inputs(self, data_dir, tmp_path, monkeypatch):
        calls = {"synthesize_hard_seen": [], "fit_generator": []}
        for name, log in calls.items():
            def counted(*args, _fn=getattr(hars_module, name), _log=log, **kwargs):
                _log.append(args)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(hars_module, name, counted)
        grid = {"K": [2, 3], "S": [2, 3], "alpha": [0.0, 1.0], "beta": [1.0, 2.0]}
        _, rows = self.sweep_rows(data_dir, tmp_path, grid, classifier={"epochs": 5})
        assert len(rows) == 16 and all(err == "" for *_, err in rows)
        # synthesize_hard_seen(train, semantics, split, hard, alpha, support_count, seed)
        fronts = [(len(a[3]), a[4], a[5]) for a in calls["synthesize_hard_seen"]]
        assert sorted(fronts) == [(k, a, s) for k in (2, 3) for a in (0.0, 1.0) for s in (2, 3)]
        assert len(calls["fit_generator"]) == 8

    def test_harst_sweep_rejects_the_ss_metric_before_any_point(self, data_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", T=2, base_model="embedding")  # metric "ss"
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"K": [2, 3]}))
        out = tmp_path / "sweep"
        assert dispatch(
            ["sweep", "--data", str(data_dir), "--config", str(cfg),
             "--grid", str(grid), "--pipeline", "harst", "--out", str(out)]
        ) == 2
        assert "metric" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "grid", [{"beta": 2.0}, {"beta": []}, {"K": [2, 2.5]}],
        ids=["not-an-array", "empty", "wrong-type"],
    )
    def test_malformed_grid_is_rejected_before_any_point(self, grid, data_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid))
        out = tmp_path / "sweep"
        assert dispatch(
            ["sweep", "--data", str(data_dir), "--config", str(cfg),
             "--grid", str(grid_path), "--pipeline", "hars", "--out", str(out)]
        ) == 2
        assert f"error: {grid_path}: {next(iter(grid))} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_field_the_pipeline_ignores_is_still_checked(self, data_dir, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"T": [0, 3]}))
        out = tmp_path / "sweep"
        assert dispatch(
            ["sweep", "--data", str(data_dir), "--config", str(cfg),
             "--grid", str(grid), "--pipeline", "hars", "--out", str(out)]
        ) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[1] == "0,,iterations must be >= 1"
        assert lines[2].split(",")[2] == ""

    def test_unknown_grid_parameter(self, data_dir, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"bogus": [1]}))
        assert dispatch(
            ["sweep", "--data", str(data_dir), "--config", str(cfg),
             "--grid", str(grid), "--out", str(tmp_path / "x")]
        ) == 2


class TestRunConfigFile:
    def test_defaults_applied(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{}")
        config = load_run_config(path)
        assert config.support_count == 2
        assert config.alpha == 2.0 and config.beta == 2.0
        assert config.metric == "ss"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_run_config({"bogus": 1})

    def test_unknown_classifier_key_rejected(self):
        with pytest.raises(ConfigError, match="momentum"):
            parse_run_config({"classifier": {"momentum": 0.9}})

    def test_ss_metric_is_not_a_harst_metric(self):
        with pytest.raises(ConfigError, match="metric"):
            require_frequency_metric(parse_run_config({}))
        require_frequency_metric(parse_run_config({"metric": "pncf"}))

    def test_bad_metric_rejected(self):
        with pytest.raises(ConfigError, match="metric"):
            parse_run_config({"metric": "zz"})

    def test_digest_is_stable_under_key_order(self):
        a = parse_run_config({"K": 3, "T": 5})
        b = parse_run_config({"T": 5, "K": 3})
        assert a.digest() == b.digest()

    def test_default_digest_is_pinned(self):
        # manifest config_hash values of earlier runs depend on this
        expected = "2854b3d3f616816182d57631b7305f8ba8c2101ab2efe070ba7b1fe81df88689"
        assert RunConfig().digest() == expected
        assert parse_run_config({}).digest() == expected

    @given(RUN_CONFIGS, st.integers(min_value=0))
    def test_json_round_trip_and_with_seed(self, config, seed):
        assert parse_run_config(json.loads(json.dumps(config.to_json_dict()))) == config
        before = config.to_json_dict()
        after = config.with_seed(seed).to_json_dict()
        assert after.pop("seed") == seed
        before.pop("seed")
        assert after == before

    @pytest.mark.parametrize(
        "obj, key",
        [
            ({"K": 2.7}, "K"),
            ({"K": 2.0}, "K"),
            ({"T": True}, "T"),
            ({"N_u": 99.9}, "N_u"),
            ({"seed": "5"}, "seed"),
            ({"alpha": True}, "alpha"),
            ({"ridge": "0.1"}, "ridge"),
            ({"metric": 1}, "metric"),
            ({"selection": "bogus"}, "selection"),
            ({"label_space": "nope"}, "label_space"),
            ({"classifier": {"epochs": 3.5}}, "classifier.epochs"),
            ({"classifier": {"batch_size": False}}, "classifier.batch_size"),
            ({"classifier": {"learning_rate": None}}, "classifier.learning_rate"),
        ],
    )
    def test_values_are_never_reinterpreted(self, obj, key):
        with pytest.raises(ConfigError, match=rf"config: {key} must be"):
            parse_run_config(obj)

    def test_numbers_keep_their_meaning(self):
        config = parse_run_config({"alpha": 1, "classifier": {"batch_size": None}})
        assert config.alpha == 1.0 and isinstance(config.alpha, float)
        assert config.classifier.batch_size is None


class TestPredictionsFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("row_index,predicted_class\n0,a\n1,b\n2,a\n")
        assert load_predictions(path) == ["a", "b", "a"]

    def test_gap_in_indices_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("row_index,predicted_class\n0,a\n2,b\n")
        with pytest.raises(Exception, match="cover"):
            load_predictions(path)

    def eval_exit_code(self, data_dir, tmp_path, *rows):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(["row_index,predicted_class", *rows]) + "\n")
        return path, dispatch(
            ["eval", "--data", str(data_dir), "--preds", str(path), "--out", str(tmp_path / "ev")]
        )

    def test_eval_names_the_line_of_a_bad_row_index(self, data_dir, tmp_path, capsys):
        path, code = self.eval_exit_code(data_dir, tmp_path, "0,u00", "x,u00")
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {path}: line 3: row index must be an integer, got 'x'" in err

    def test_eval_names_the_file_of_a_short_predictions_file(self, data_dir, tmp_path, capsys):
        path, code = self.eval_exit_code(data_dir, tmp_path, "0,u00")
        assert code == 2
        n = load_bundle(data_dir).test_unseen.n
        assert f"error: {path}: 1 predictions for {n} test rows" in capsys.readouterr().err
