"""Command-line entry point.

Subcommands: ``synth`` (generate a planted benchmark), ``identify`` (hardness
scores and the ranked hard list), ``hars`` (inductive synthesizing pipeline),
``harst`` (transductive selecting pipeline), ``eval`` (score a predictions
file), ``analyze`` (identification-quality and contrastive studies), and
``sweep`` (hyper-parameter grid).

Every run writes its outputs atomically plus a ``manifest.json`` recording
the command, config hash, seed, and input digests; identical manifests
reproduce identical output bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import sys
import time
import warnings
from pathlib import Path

from . import __version__
from .benchmark import BenchmarkSpec, make_benchmark
from .config import RunConfig, _checked, _fields_by_key, load_run_config, require_frequency_metric
from .data import (
    ConfigError,
    DataError,
    ValidationError,
    atomic_write_text,
    dump_json,
    load_bundle,
    write_bundle,
)
from .evaluation import EvalReport, amr, apr, contrastive_analysis, evaluate, identification_quality
from .hardness import (
    HardnessReport,
    estimate_class_priors,
    frequency_hardness,
    semantic_similarity_matrix,
    ss_scores,
)
from .hars import PipelineError, fit_hard_generator, generate_and_classify, run_hars
from .harst import run_harst


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="hardboost", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a planted benchmark dataset")
    p.add_argument("--spec", required=True, help="benchmark spec JSON")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("identify", help="score class hardness and rank the hard list")
    p.add_argument("--data", required=True, help="bundle directory")
    p.add_argument("--metric", choices=["ss", "cf", "pncf"], default="ss")
    p.add_argument("--k", type=int, required=True, help="hard-class count")
    p.add_argument("--preds", help="predictions CSV (required for cf/pncf)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".", help="output directory")

    for name in ("hars", "harst"):
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        p.add_argument("--data", required=True)
        p.add_argument("--config", required=True, help="run config JSON")
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, help="override the config seed")

    p = sub.add_parser("eval", help="score a predictions file")
    p.add_argument("--data", required=True)
    p.add_argument("--preds", required=True)
    p.add_argument("--out", default=".")

    p = sub.add_parser("analyze", help="hard-class diagnostics")
    p.add_argument("--data", required=True)
    p.add_argument("--mode", choices=["identification", "contrastive"], default="identification")
    p.add_argument("--preds", help="predictions CSV (identification mode)")
    p.add_argument("--hardness", help="hardness JSON with the predicted hard list")
    p.add_argument("--setting", choices=["inductive", "transductive"], default="inductive")
    p.add_argument("--base", choices=["embedding", "generative"], default="generative")
    p.add_argument("--n", type=int, default=50, help="per-class budget (contrastive mode)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")

    p = sub.add_parser("sweep", help="grid over pipeline hyper-parameters")
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--grid", required=True, help='JSON file, e.g. {"beta": [1, 2, 3]}')
    p.add_argument("--pipeline", choices=["hars", "harst"], default="hars")
    p.add_argument("--out", required=True)
    return parser


# ---------------------------------------------------------------------------
# manifest and small file helpers


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _input_digests(paths) -> dict[str, str]:
    out = {}
    for path in paths:
        path = Path(path)
        if path.is_dir():
            for child in sorted(path.iterdir()):
                if child.is_file():
                    out[str(child)] = _sha256(child)
        elif path.is_file():
            out[str(path)] = _sha256(path)
    return out


def _write_manifest(out_dir, command, seed, inputs, config_hash=None, started=None):
    manifest = {
        "command": command,
        "config_hash": config_hash,
        "seed": seed,
        "inputs": _input_digests(inputs),
        "version": __version__,
        "duration_seconds": None if started is None else round(time.monotonic() - started, 3),
    }
    atomic_write_text(Path(out_dir) / "manifest.json", dump_json(manifest))


def _write_predictions(preds, path) -> None:
    lines = ["row_index,predicted_class"]
    lines.extend(f"{i},{label}" for i, label in enumerate(preds))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_predictions(path) -> list[str]:
    """Read a predictions CSV; rows must cover 0..n-1 exactly."""
    by_index: dict[int, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or (lineno == 1 and line.startswith("row_index")):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise DataError(f"{path}: line {lineno}: expected row_index,predicted_class")
            try:
                idx = int(parts[0])
            except ValueError:
                raise DataError(
                    f"{path}: line {lineno}: row index must be an integer, got {parts[0]!r}"
                ) from None
            if idx in by_index:
                raise DataError(f"{path}: line {lineno}: duplicate row index {idx}")
            by_index[idx] = parts[1]
    if set(by_index) != set(range(len(by_index))):
        raise DataError(f"{path}: row indices must cover 0..{len(by_index) - 1}")
    return [by_index[i] for i in range(len(by_index))]


def _test_unseen_predictions(path, bundle) -> list[str]:
    """Read a predictions CSV that must hold one row per unseen test row."""
    preds = load_predictions(path)
    if len(preds) != bundle.test_unseen.n:
        raise DataError(f"{path}: {len(preds)} predictions for {bundle.test_unseen.n} test rows")
    return preds


def _report_json(report: EvalReport, bundle) -> dict:
    obj = report.to_json_dict()
    obj["apr"] = {}
    obj["amr"] = {}
    unseen = sorted(bundle.split.unseen)
    if tuple(report.classes) == tuple(unseen) and len(unseen) >= 2:
        similarity = semantic_similarity_matrix(bundle.semantics, unseen)
        for k in (1, 2):
            if k > len(unseen) - 1:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # skipped perfect classes are fine here
                try:
                    obj["apr"][str(k)] = apr(report.confusion, similarity, k)
                except ValueError:
                    obj["apr"][str(k)] = None
                try:
                    obj["amr"][str(k)] = amr(report.confusion, similarity, k)
                except ValueError:
                    obj["amr"][str(k)] = None
    return obj


def _confusion_csv(report: EvalReport) -> str:
    lines = ["true\\pred," + ",".join(report.classes)]
    for i, cls in enumerate(report.classes):
        lines.append(cls + "," + ",".join(str(int(v)) for v in report.confusion[i]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_synth(args) -> int:
    started = time.monotonic()
    spec = load_benchmark_spec(args.spec)
    bundle, planted, _ = make_benchmark(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_bundle(bundle, out)
    atomic_write_text(out / "ground_truth.json", dump_json({"hard": planted}))
    _write_manifest(out, "synth", spec.seed, [args.spec], started=started)
    return 0


def load_benchmark_spec(path) -> BenchmarkSpec:
    allowed = {
        "seen_count",
        "unseen_count",
        "semantic_dim",
        "visual_dim",
        "n_per_class",
        "hard_pairs",
        "affinity_gap",
        "noise_scale",
        "seed",
        "unseen_counts",
    }
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown key {unknown[0]!r}")
    kinds = {f.name: f.type for f in dataclasses.fields(BenchmarkSpec)}
    for key, value in obj.items():
        if key != "unseen_counts":
            _checked(key, value, kinds[key], str(path))
        elif value is not None:
            if not isinstance(value, dict):
                raise ConfigError(f"{path}: unseen_counts must be an object, got {value!r}")
            for cls, count in value.items():
                _checked(f"unseen_counts.{cls}", count, "int", str(path))
    try:
        return BenchmarkSpec(**obj)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _hardness_for(args, bundle) -> HardnessReport:
    if args.metric == "ss":
        return HardnessReport.from_scores("ss", ss_scores(bundle.semantics, bundle.split), args.k)
    if not args.preds:
        raise _UsageError(f"--preds is required for metric {args.metric!r}")
    preds = load_predictions(args.preds)
    priors = bundle.class_priors
    if priors is None and args.metric == "pncf":
        priors = estimate_class_priors(bundle.test_unseen, bundle.split, args.seed, preds)
    return frequency_hardness(preds, bundle.split, args.metric, args.k, priors)


def _cmd_identify(args) -> int:
    started = time.monotonic()
    bundle = load_bundle(args.data)
    report = _hardness_for(args, bundle)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report.write_json(out / "hardness.json")
    inputs = [args.data] + ([args.preds] if args.preds else [])
    _write_manifest(out, "identify", args.seed, inputs, started=started)
    return 0


def _resolved_config(args) -> RunConfig:
    config = load_run_config(args.config)
    if args.seed is not None:
        config = config.with_seed(args.seed)
    return config


def _cmd_hars(args) -> int:
    started = time.monotonic()
    bundle = load_bundle(args.data)
    config = _resolved_config(args)
    preds, hardness, report = run_hars(bundle, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_predictions(preds, out / "predictions.csv")
    hardness.write_json(out / "hardness.json")
    if report is not None:
        atomic_write_text(out / "report.json", dump_json(_report_json(report, bundle)))
    _write_manifest(
        out, "hars", config.seed, [args.data, args.config],
        config_hash=config.digest(), started=started,
    )
    return 0


def _trace_json(trace) -> dict:
    def snapshot(ev):
        return None if ev is None else {"acc_u": ev.acc_u}

    return {
        "initial": snapshot(trace.initial_evaluation),
        "iterations": [
            {
                "t": rec.t,
                "quota": rec.quota,
                "hardness": rec.hardness.to_json_dict(),
                "selected_per_class": dict(sorted(rec.selected_per_class.items())),
                "evaluation": snapshot(rec.evaluation),
            }
            for rec in trace.records
        ],
    }


def _cmd_harst(args) -> int:
    started = time.monotonic()
    bundle = load_bundle(args.data)
    config = _resolved_config(args)
    preds, trace = run_harst(bundle, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_predictions(preds, out / "predictions.csv")
    atomic_write_text(out / "trace.json", dump_json(_trace_json(trace)))
    _write_manifest(
        out, "harst", config.seed, [args.data, args.config],
        config_hash=config.digest(), started=started,
    )
    return 0


def _cmd_eval(args) -> int:
    started = time.monotonic()
    bundle = load_bundle(args.data)
    preds = _test_unseen_predictions(args.preds, bundle)
    report = evaluate(preds, list(bundle.test_unseen.labels), bundle.split)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out / "report.json", dump_json(_report_json(report, bundle)))
    atomic_write_text(out / "confusion.csv", _confusion_csv(report))
    _write_manifest(out, "eval", None, [args.data, args.preds], started=started)
    return 0


def _cmd_analyze(args) -> int:
    started = time.monotonic()
    bundle = load_bundle(args.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.mode == "identification":
        if not (args.preds and args.hardness):
            raise _UsageError("identification mode needs --preds and --hardness")
        preds = _test_unseen_predictions(args.preds, bundle)
        report = evaluate(preds, list(bundle.test_unseen.labels), bundle.split)
        hardness = HardnessReport.read_json(args.hardness)
        quality = identification_quality(hardness.hard, report)
        atomic_write_text(
            out / "identification.json",
            dump_json(
                {
                    "recall_of_true_hard": quality.recall_of_true_hard,
                    "apa_hard": quality.apa_hard,
                    "apa_easy": quality.apa_easy,
                    "app_hard": quality.app_hard,
                    "app_easy": quality.app_easy,
                    "skipped_precision": list(quality.skipped_precision),
                }
            ),
        )
        inputs = [args.data, args.preds, args.hardness]
    else:
        reports = contrastive_analysis(
            bundle, args.setting, args.n, args.seed, base=args.base
        )
        atomic_write_text(
            out / "contrastive.json",
            dump_json({name: rep.acc_u for name, rep in reports.items()}),
        )
        inputs = [args.data]
    _write_manifest(out, f"analyze-{args.mode}", args.seed, inputs, started=started)
    return 0


_SWEEP_PARAMS = {"K", "T", "alpha", "beta", "N_u", "S"}


def _cmd_sweep(args) -> int:
    """One ``sweep.csv`` row per grid point: its ``acc_u``, or its error.

    A ``hars`` sweep runs :func:`~hardboost.hars.fit_hard_generator` once per
    distinct ``K``, ``alpha``, ``S``, ``seed`` and ``ridge`` and shares the
    result among the points that have them.  A failed front half is not kept,
    so each such point recomputes its error; the bytes do not depend on this.
    """
    started = time.monotonic()
    bundle = load_bundle(args.data)
    base_config = load_run_config(args.config)
    try:
        grid = json.loads(Path(args.grid).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{args.grid}: invalid JSON: {exc}") from None
    if not isinstance(grid, dict) or not grid:
        raise ConfigError(f"{args.grid}: expected a non-empty JSON object")
    unknown = sorted(set(grid) - _SWEEP_PARAMS)
    if unknown:
        raise ConfigError(f"{args.grid}: cannot sweep over {unknown[0]!r}")
    if args.pipeline == "harst":
        require_frequency_metric(base_config)  # the grid cannot override the metric

    keys = sorted(grid)
    by_key = _fields_by_key(RunConfig)
    axes = []
    for key in keys:
        values = grid[key]
        if not isinstance(values, list) or not values:
            raise ConfigError(f"{args.grid}: {key} must be a non-empty array, got {values!r}")
        # each value beside its checked form: a row shows the value as the grid wrote it
        axes.append([(v, _checked(key, v, by_key[key].type, str(args.grid))) for v in values])
    points = list(itertools.product(*axes))
    fronts = {}  # front-half inputs -> (hardness report, generator), hars only

    def run_point(point):
        try:
            config = dataclasses.replace(
                base_config, **{by_key[key].name: v for key, (_, v) in zip(keys, point)}
            )
            if args.pipeline == "hars":
                front = (config.hard_count, config.alpha, config.support_count, config.seed,
                         config.ridge)
                if front not in fronts:
                    fronts[front] = fit_hard_generator(bundle, config)
                hardness, gen = fronts[front]
                _, report = generate_and_classify(bundle, config, gen, hardness.hard)
            else:
                _, trace = run_harst(bundle, config)
                report = trace.records[-1].evaluation
            if report is None:
                return None, "test rows are unlabeled"
            return report.acc_u, ""
        except (ValueError, PipelineError) as exc:
            # a point with bad parameters or a failed fit is recorded and the
            # sweep goes on; any other error is a defect and stops the sweep
            if isinstance(exc, PipelineError) and not isinstance(exc.__cause__, ValueError):
                raise
            return None, str(exc).replace("\n", " ")

    results = [run_point(p) for p in points]
    lines = [",".join(keys) + ",acc_u,error"]
    for point, (acc, err) in zip(points, results):
        acc_str = "" if acc is None else repr(acc)
        lines.append(",".join(str(raw) for raw, _ in point) + f",{acc_str},{err}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out / "sweep.csv", "\n".join(lines) + "\n")
    _write_manifest(
        out, "sweep", base_config.seed, [args.data, args.config, args.grid],
        config_hash=base_config.digest(), started=started,
    )
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "identify": _cmd_identify,
    "hars": _cmd_hars,
    "harst": _cmd_harst,
    "eval": _cmd_eval,
    "analyze": _cmd_analyze,
    "sweep": _cmd_sweep,
}


def dispatch(argv) -> int:
    """Route ``argv`` to a subcommand; 0 success, 1 usage error, 2 runtime error."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.print_usage(sys.stderr)
            return 1
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # argparse -h/--help
        return int(exc.code or 0)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (ConfigError, DataError, ValidationError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
