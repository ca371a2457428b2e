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
import sys
import time
import warnings
from pathlib import Path

from . import __version__, models
from .benchmark import BenchmarkSpec, make_benchmark
from .config import (
    RunConfig, _checked, _field_args, _fields_by_key, load_run_config, read_json,
    require_frequency_metric,
)
from .data import (
    ConfigError,
    DataError,
    ValidationError,
    atomic_write_text,
    decode_errors_named,
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
                # a bundle's own manifest records how long its build took
                if child.is_file() and child.name != "manifest.json":
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


def load_predictions(path, classes) -> list[str]:
    """Read a predictions CSV of ``classes``; rows must cover 0..n-1 exactly."""
    by_index: dict[int, str] = {}
    with open(path, "r", encoding="utf-8") as fh, decode_errors_named(path):
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
            if parts[1] not in classes:
                raise DataError(f"{path}: line {lineno}: {parts[1]!r} is not a class of the split")
            by_index[idx] = parts[1]
    if set(by_index) != set(range(len(by_index))):
        raise DataError(f"{path}: row indices must cover 0..{len(by_index) - 1}")
    return [by_index[i] for i in range(len(by_index))]


def _test_unseen_predictions(path, bundle) -> list[str]:
    """Read a predictions CSV of the split's classes, one row per unseen test row."""
    preds = load_predictions(path, bundle.split.all_classes)
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
    obj = read_json(path)
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    # checked only: the spec keeps each number as the file writes it
    _field_args(BenchmarkSpec, {k: v for k, v in obj.items() if k != "unseen_counts"}, str(path))
    counts = obj.get("unseen_counts")
    if counts is not None:
        if not isinstance(counts, dict):
            raise ConfigError(f"{path}: unseen_counts must be an object, got {counts!r}")
        for cls, count in counts.items():
            _checked(f"unseen_counts.{cls}", count, "int", str(path))
    try:
        return BenchmarkSpec(**obj)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _hardness_for(args, bundle) -> HardnessReport:
    if args.metric == "ss":
        if args.preds:
            raise _UsageError("--preds is not read with metric 'ss'")
        return HardnessReport.from_scores("ss", ss_scores(bundle.semantics, bundle.split), args.k)
    if not args.preds:
        raise _UsageError(f"--preds is required for metric {args.metric!r}")
    preds = _test_unseen_predictions(args.preds, bundle)
    priors = bundle.class_priors
    if priors is None and args.metric == "pncf":
        priors = estimate_class_priors(bundle.test_unseen, bundle.split, preds)
    return frequency_hardness(preds, bundle.split, args.metric, args.k, priors)


def _cmd_identify(args) -> int:
    started = time.monotonic()
    bundle = load_bundle(args.data)
    report = _hardness_for(args, bundle)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report.write_json(out / "hardness.json")
    inputs = [args.data] + ([args.preds] if args.preds else [])
    _write_manifest(out, "identify", None, inputs, started=started)
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
    if args.mode == "identification" and not (args.preds and args.hardness):
        raise _UsageError("identification mode needs --preds and --hardness")
    if args.mode == "contrastive" and (args.preds or args.hardness):
        raise _UsageError("contrastive mode reads neither --preds nor --hardness")
    bundle = load_bundle(args.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.mode == "identification":
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


def _outcome(fn, *args, **kwargs):
    """``(fn(...), "")``, or ``(None, error text)`` for an error a sweep records."""
    try:
        return fn(*args, **kwargs), ""
    except (ValueError, PipelineError) as exc:
        # a point with bad parameters or a failed fit is recorded and the
        # sweep goes on; any other error is a defect and stops the sweep
        if isinstance(exc, PipelineError) and not isinstance(exc.__cause__, ValueError):
            raise
        return None, str(exc).replace("\n", " ")


def _front_key(config: RunConfig) -> tuple:
    """The inputs of :func:`~hardboost.hars.fit_hard_generator`."""
    return config.hard_count, config.alpha, config.support_count, config.seed, config.ridge


_point_fn = None  # a forked sweep worker's per-point function


def _init_worker(fn) -> None:
    """Set up a forked sweep worker to run points with ``fn``.

    The pool already runs one worker per CPU, so the worker's classifier
    fits and per-class draws run on one thread each.
    """
    global _point_fn
    _point_fn = fn
    models._one_thread_per_fit = True


def _run_point(index: int):
    return _point_fn(index)


def _cmd_sweep(args) -> int:
    """One ``sweep.csv`` row per grid point: its ``acc_u``, or its error.

    A ``hars`` sweep runs :func:`~hardboost.hars.fit_hard_generator` in this
    process, once per distinct ``K``, ``alpha``, ``S``, ``seed`` and
    ``ridge``, before any point runs; a failed front half gives its error to
    every point that shares it.  The per-point work (the ``hars`` back half,
    or the whole ``harst`` run) runs on one forked worker per available CPU,
    at most one per point.  The workers inherit the bundle and the fitted
    generators, and only a point index goes out and ``(acc_u, error)`` comes
    back.  A worker's classifier fits and per-class draws run on one thread
    each.  With one worker, or off Linux, the points run in this process,
    and a large fit there uses every available CPU.  The bytes do not depend
    on the worker count.  On a multi-core machine, set ``OPENBLAS_NUM_THREADS=1`` so that
    the workers' BLAS threads do not oversubscribe the CPUs.
    """
    started = time.monotonic()
    bundle = load_bundle(args.data)
    base_config = load_run_config(args.config)
    grid = read_json(args.grid)
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
    configs = [  # (RunConfig, "") or (None, error text) per point
        _outcome(dataclasses.replace, base_config,
                 **{by_key[key].name: v for key, (_, v) in zip(keys, point)})
        for point in points
    ]
    fronts = {}  # front-half inputs -> ((hardness report, generator), "") or (None, error text)
    if args.pipeline == "hars":
        for config, err in configs:
            if not err and _front_key(config) not in fronts:
                fronts[_front_key(config)] = _outcome(fit_hard_generator, bundle, config)

    def back_half(config):
        if args.pipeline == "harst":
            return run_harst(bundle, config)[1].records[-1].evaluation
        hardness, gen = fronts[_front_key(config)][0]
        return generate_and_classify(bundle, config, gen, hardness.hard)[1]

    def run_point(index):
        config, err = configs[index]
        if not err and args.pipeline == "hars":
            err = fronts[_front_key(config)][1]
        if err:
            return None, err
        report, err = _outcome(back_half, config)
        if report is None:
            return None, err or "test rows are unlabeled"
        return report.acc_u, ""

    workers = min(models.available_cpus(), len(points))
    if workers > 1 and sys.platform == "linux":
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker, initargs=(run_point,),
        ) as pool:
            with warnings.catch_warnings():
                # Python 3.12+ warns on fork() in a process with threads.  The
                # only ones here are OpenBLAS's, which its pthread_atfork
                # handler shuts down before the fork, and the executor forks
                # all its workers before it starts threads of its own.
                warnings.filterwarnings(
                    "ignore", r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)",
                    DeprecationWarning,
                )
                pending = pool.map(_run_point, range(len(points)))
            results = list(pending)
    else:
        results = list(map(run_point, range(len(points))))
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
