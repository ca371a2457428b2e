"""CLI benchmark for hardboost: ``hars``, ``harst`` and ``sweep`` end to end,
with a separate traced run for per-layer figures.

    python3 perfbench/run.py --workload cub-hars --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it invokes the CLI in a closed loop, one process at a
time, at least three times and until ``--seconds`` have passed, rebuilding
the workload's bundle a few times before each invocation.  ``wall_s``,
``cpu_s`` and ``peak_rss_mb`` are medians over the invocations and
``setup_s`` the median build.  With ``--trace 1`` it runs rounds of an
untraced and two traced invocations instead and reports per-layer figures
(see ``tracer.py``).

Either way it checks the outputs (see ``checks.py``), prints a summary and,
as its last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``, and exits 1 if any check failed.  An operation is one CLI
invocation, or one grid point of a sweep.
"""

import os

# One BLAS thread, fixed before numpy loads here and inherited by every CLI
# process: with two the timings depend on what else runs on the machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_SAMPLES = 3  # timed invocations per run, whatever --seconds says
# Bundle builds before each timed invocation: at least this many, and for at
# least this long, so that even a millisecond build has a steady median.
SETUP_BUILDS_PER_ROUND = 2
SETUP_ROUND_SECONDS = 0.25

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}

PER_LAYER = {
    "models.fit_classifier.s": "s",
    "models.fit_classifier.calls": "count",
    "models.fit_classifier.row_epochs": "count",
    "models.classify_embedding_batch.s": "s",
    "models.classify_embedding_batch.calls": "count",
    "models.classify_embedding_batch.peak_mb": "MiB",
    "hardness.estimate_class_priors.s": "s",
    "hardness.estimate_class_priors.peak_mb": "MiB",
    "models.fit_embedding_rows.s": "s",
    "models.fit_embedding_rows.rows": "count",
    "models.fit_generator.s": "s",
    "models.fit_generator.calls": "count",
    "data.rows_for.s": "s",
    "data.rows_for.calls": "count",
    "hars.synthesize_hard_seen.s": "s",
    "hars.synthesize_hard_seen.calls": "count",
    "hars.synthesize_hard_seen.rows": "count",
    "hars.synthesize_unseen.s": "s",
    "models.sample_generator.rows": "count",
    "hars.run_hars.calls": "count",
    "harst.run_harst.s": "s",
    "harst.select_cfbs.s": "s",
    "harst.select_cfbs.rows": "count",
    "evaluation.evaluate.s": "s",
    "evaluation.evaluate.calls": "count",
    "data.load_bundle.s": "s",
    "data.validate_bundle.s": "s",
    "data.validate_bundle.calls": "count",
    "benchmark.make_benchmark.s": "s",
    "data.write_bundle.s": "s",
    "data.self_s": "s",
    "hardness.self_s": "s",
    "models.self_s": "s",
    "hars.self_s": "s",
    "harst.self_s": "s",
    "evaluation.self_s": "s",
    "cli.self_s": "s",
    "benchmark.self_s": "s",
    "trace_overhead_s": "s",
    "tracemalloc_overhead_s": "s",
}

# The CLI's real entry point; ``python -m hardboost.cli`` runs nothing.
CLI_ENTRY = "from hardboost.cli import main; main()"


@dataclass(frozen=True)
class Sample:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def invoke(argv: list[str], log: Path, trace: tuple = ()) -> Sample:
    """Run one CLI process to its end; CPU time and peak RSS are its own rusage.

    ``trace`` holds ``tracer.py``'s own arguments; empty runs the CLI untraced.
    """
    if trace:
        cmd = [sys.executable, str(HERE / "tracer.py"), *map(str, trace), *argv]
    else:
        cmd = [sys.executable, "-c", CLI_ENTRY, *argv]
    # One sweep worker: with two, a sweep's wall time depends on whether the
    # machine's other core is free, and the pool is still exercised.
    env = dict(os.environ, PYTHONPATH=str(SRC), HARDBOOST_THREADS="1")
    with open(log, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=out
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no process behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,
    )


class Run:
    """One benchmark run of one workload: operations, counts and check results."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.bundle = work / "bundle"
        self.log = work / "cli.log"
        self.inputs = workload.write_inputs(seed, work)
        self.points = workload.grid_points() if workload.grid else None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests = None
        self.last_out = None

    def fail(self, message: str) -> None:
        if message not in self.failures:
            self.failures.append(message)

    def build(self) -> float:
        shutil.rmtree(self.bundle, ignore_errors=True)
        start = time.perf_counter()
        self.workload.build_bundle(self.seed, self.bundle)
        return time.perf_counter() - start

    def operation(self, out: Path, trace: tuple = ()) -> Sample | None:
        """One CLI invocation; None when it exited non-zero."""
        shutil.rmtree(out, ignore_errors=True)
        argv = [self.workload.command, "--data", str(self.bundle), *self.inputs, "--out", str(out)]
        sample = invoke(argv, self.log, trace)
        ops = len(self.points) if self.points else 1
        self.attempted += ops
        if sample.returncode != 0:
            self.failed += ops
            tail = self.log.read_text(errors="replace").splitlines()[-3:]
            print(f"{argv[0]} exited {sample.returncode}: " + " | ".join(tail), file=sys.stderr)
            return None
        if self.points:
            failures, rows = checks.read_sweep(out, self.points)
            for message in failures:
                self.fail(message)
            # the CLI exits 0 even when grid points fail; each errored row is a failed operation
            self.failed += sum(1 for _, _, error in rows if error)
        digests = checks.output_digests(out)
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            self.fail("repeated invocations wrote different outputs")
        self.last_out = out
        return sample

    def check_outputs(self) -> None:
        if self.last_out is None:
            self.fail("no invocation succeeded")
            return
        config = self.workload.run_config(self.seed)
        try:
            if self.workload.command == "hars":
                failures = checks.check_hars(self.last_out, self.bundle, config["K"])
            elif self.workload.command == "harst":
                failures = checks.check_harst(self.last_out, self.bundle, config["T"], config["K"])
            else:
                failures = self._check_sweep_point(config)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            failures = [f"output check raised {type(exc).__name__}: {exc}"]
        for message in failures:
            self.fail(message)

    def _check_sweep_point(self, sweep_config: dict) -> list[str]:
        """Re-run one sweep point alone through ``hars``; it must give the same acc_u."""
        _, rows = checks.read_sweep(self.last_out, self.points)
        point = self.points[self.seed % len(self.points)]
        swept = [acc for p, acc, _ in rows if p == {k: float(v) for k, v in point.items()}]
        config = self.work / "point.json"
        config.write_text(json.dumps({**sweep_config, **point}))
        out = self.work / "point"
        argv = ["hars", "--data", str(self.bundle), "--config", str(config), "--out", str(out)]
        if invoke(argv, self.log).returncode != 0:
            return [f"hars re-run of sweep point {point} failed"]
        failures = checks.check_hars(out, self.bundle, point["K"])
        acc = json.loads((out / "report.json").read_text())["acc_u"]
        if swept != [acc]:
            failures.append(f"sweep point {point}: sweep.csv acc_u {swept} != hars re-run {acc!r}")
        return failures


def timed_run(run: Run, seconds: int) -> dict:
    """End-to-end metrics: medians over bundle builds and timed invocations.

    Builds are spread over the run, a few before each invocation, rather than
    bunched at its start: this machine's speed drifts over seconds, and
    setup_s should see the same mix of spells as the invocations.  Rebuilding
    writes the same bytes, so every invocation reads identical inputs.
    """
    builds, samples, invocations = [], [], 0
    start = time.perf_counter()
    while invocations < MIN_SAMPLES or time.perf_counter() - start < seconds:
        round_start = time.perf_counter()
        while (
            len(builds) < SETUP_BUILDS_PER_ROUND * (invocations + 1)
            or time.perf_counter() - round_start < SETUP_ROUND_SECONDS
        ):
            builds.append(run.build())
        invocations += 1
        sample = run.operation(run.work / "out")
        if sample is not None:
            samples.append(sample)
    run.check_outputs()
    print(f"{len(builds)} bundle builds, {invocations} timed invocations")

    metrics = {"setup_s": statistics.median(builds)}
    if samples:
        for name in ("wall_s", "cpu_s", "peak_rss_mb"):
            metrics[name] = statistics.median(getattr(s, name) for s in samples)
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items() if name in metrics}


def traced_run(run: Run, seconds: int) -> dict:
    """Per-layer metrics: one traced bundle build, then rounds of an untraced,
    a traced and a traced-with-tracemalloc invocation.  Times and counts come
    from the traced invocations, peaks from the tracemalloc ones; each
    overhead is a difference of median walls against the untraced ones."""
    recorder = tracer.Recorder()
    tracer.install(recorder)
    run.build()

    walls = {"plain": [], "spans": [], "memory": []}
    layers = []
    spans_path, memory_path = run.work / "spans.json", run.work / "spans-memory.json"
    start = time.perf_counter()
    while not layers or time.perf_counter() - start < seconds:
        samples = {
            "plain": run.operation(run.work / "out"),
            "spans": run.operation(run.work / "out-traced", (spans_path,)),
            "memory": run.operation(run.work / "out-traced", ("--memory", memory_path)),
        }
        if None in samples.values():
            break
        for kind, sample in samples.items():
            walls[kind].append(sample.wall_s)
        spans = recorder.spans + json.loads(spans_path.read_text())
        metrics = tracer.layer_metrics(spans)
        peaks = tracer.layer_metrics(json.loads(memory_path.read_text()))
        metrics.update((k, v) for k, v in peaks.items() if k.endswith(".peak_mb"))
        layers.append(metrics)
    run.check_outputs()
    print(f"{len(layers)} rounds of untraced, traced and tracemalloc invocations")
    if not layers:
        return {}
    (HERE / ".work" / f"spans-{run.workload.name}-{run.seed}.json").write_text(json.dumps(spans))

    metrics = tracer.median_metrics(layers)
    untraced = statistics.median(walls["plain"])
    metrics["trace_overhead_s"] = statistics.median(walls["spans"]) - untraced
    metrics["tracemalloc_overhead_s"] = statistics.median(walls["memory"]) - untraced
    return {name: {"value": metrics.get(name, 0), "unit": unit} for name, unit in PER_LAYER.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hardboost" / "cli.py").is_file():
        print(f"error: no hardboost sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS  # imports the program

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("error: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2

    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=HERE / ".work"))
    try:
        run = Run(WORKLOADS[args.workload], args.seed, work)
        if args.trace:
            metrics = traced_run(run, args.seconds)
        else:
            metrics = timed_run(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{args.workload} seed {args.seed}: {run.failed} of {run.attempted} operations failed")
    for name, metric in metrics.items():
        print(f"  {name:42s} {metric['value']:>14.6g} {metric['unit']}")
    for message in run.failures:
        print(f"  CHECK FAILED: {message}")
    correct = not run.failures
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
