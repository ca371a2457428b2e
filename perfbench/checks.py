"""Output checks that stand apart from the program.

Each check either recomputes a figure from the bundle files with plain
numpy/Python, or tests a property the method must have.  None compares
against a stored copy of earlier output.  Every check returns a list of
failure messages; an empty list means the outputs passed.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

ACC_TOLERANCE = 1e-12
MARGIN_TOLERANCE = 1e-9
NEAR_SEEN = 3  # seen distances averaged in the semantic margin


def output_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every output file except the manifest, which carries a duration."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file() and p.name != "manifest.json"
    }


def _test_labels(bundle_dir: Path) -> list[str]:
    """Labels of ``test_unseen.zsf``, read straight from the documented layout."""
    raw = (bundle_dir / "test_unseen.zsf").read_bytes()
    _, rows, dim = struct.unpack_from("<IQI", raw, 4)
    offset = 20 + rows * dim * 4
    (length,) = struct.unpack_from("<I", raw, offset)
    return raw[offset + 4 : offset + 4 + length].decode("utf-8").split("\n")


def _split(bundle_dir: Path) -> tuple[list[str], list[str]]:
    split = json.loads((bundle_dir / "split.json").read_text())
    return sorted(split["seen"]), sorted(split["unseen"])


def _predictions(path: Path) -> list[str]:
    lines = path.read_text().splitlines()[1:]
    rows = [line.split(",") for line in lines]
    if [int(i) for i, _ in rows] != list(range(len(rows))):
        raise ValueError(f"{path.name}: row indices are not 0..n-1 in order")
    return [label for _, label in rows]


def recomputed_acc_u(out_dir: Path, bundle_dir: Path) -> float:
    """Unweighted mean of per-class accuracies over the unseen classes."""
    truths = _test_labels(bundle_dir)
    preds = _predictions(out_dir / "predictions.csv")
    if len(preds) != len(truths):
        raise ValueError(f"{len(preds)} predictions for {len(truths)} test rows")
    _, unseen = _split(bundle_dir)
    accs = []
    for cls in unseen:
        hits = [p == cls for p, t in zip(preds, truths) if t == cls]
        if hits:
            accs.append(sum(hits) / len(hits))
    return sum(accs) / len(accs)


def semantic_margins(bundle_dir: Path) -> dict[str, float]:
    """Nearest-unseen cosine distance minus the mean of the three nearest
    seen distances, per unseen class, from ``semantics.csv``."""
    vectors = {}
    for line in (bundle_dir / "semantics.csv").read_text().splitlines():
        cls, *values = line.split(",")
        vec = np.array([float(v) for v in values])
        vectors[cls] = vec / np.linalg.norm(vec)
    seen, unseen = _split(bundle_dir)

    def dist(a: str, b: str) -> float:
        return 1.0 - float(vectors[a] @ vectors[b])

    margins = {}
    for u in unseen:
        nearest_unseen = min(dist(u, o) for o in unseen if o != u)
        near_seen = sorted(dist(u, s) for s in seen)[:NEAR_SEEN]
        margins[u] = nearest_unseen - sum(near_seen) / len(near_seen)
    return margins


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def check_hars(out_dir: Path, bundle_dir: Path, hard_count: int) -> list[str]:
    """acc_u, semantic margins and the hard list of one ``hars`` run."""
    failures = []
    report = json.loads((out_dir / "report.json").read_text())
    acc = recomputed_acc_u(out_dir, bundle_dir)
    if not _close(acc, report["acc_u"], ACC_TOLERANCE):
        failures.append(f"hars acc_u {report['acc_u']!r} != recomputed {acc!r}")

    hardness = json.loads((out_dir / "hardness.json").read_text())
    margins = semantic_margins(bundle_dir)
    if set(hardness["scores"]) != set(margins):
        failures.append("hardness.json scores do not cover exactly the unseen classes")
    else:
        worst = max(abs(hardness["scores"][c] - m) for c, m in margins.items())
        if worst > MARGIN_TOLERANCE:
            failures.append(f"semantic margins differ from the recomputation by {worst:.3g}")

    planted = set(json.loads((bundle_dir / "ground_truth.json").read_text())["hard"])
    hard = hardness["hard"]
    if len(hard) != hard_count or not set(hard) <= planted:
        failures.append(f"hard list {hard} is not {hard_count} planted classes")
    return failures


def check_harst(out_dir: Path, bundle_dir: Path, iterations: int, hard_count: int) -> list[str]:
    """acc_u, quota arithmetic and selection of one ``harst`` run."""
    failures = []
    trace = json.loads((out_dir / "trace.json").read_text())
    records = trace["iterations"]
    if [r["t"] for r in records] != list(range(1, iterations + 1)):
        return [f"trace.json does not hold iterations 1..{iterations}"]
    m = len(_test_labels(bundle_dir))
    for rec in records:
        t = rec["t"]
        quota = (t * m) // (iterations * hard_count)
        if rec["quota"] != quota:
            failures.append(f"iteration {t}: quota {rec['quota']} != floor(t*M/(T*K)) = {quota}")
        outside = set(rec["selected_per_class"]) - set(rec["hardness"]["hard"])
        if outside:
            failures.append(f"iteration {t}: selected non-hard classes {sorted(outside)}")
    acc = recomputed_acc_u(out_dir, bundle_dir)
    last = records[-1]["evaluation"]["acc_u"]
    if not _close(acc, last, ACC_TOLERANCE):
        failures.append(f"last trace acc_u {last!r} != recomputed {acc!r}")
    return failures


def read_sweep(out_dir: Path, points: list[dict]) -> tuple[list[str], list[tuple[dict, float | None, str]]]:
    """Parse ``sweep.csv`` and check it covers the grid exactly once.

    Returns (failures, [(point, acc_u or None, error message)]).
    """
    lines = (out_dir / "sweep.csv").read_text().splitlines()
    keys = sorted(points[0])
    if lines[0] != ",".join(keys) + ",acc_u,error":
        return [f"sweep.csv header {lines[0]!r} does not match the grid"], []
    rows = []
    for line in lines[1:]:
        cells = line.split(",", len(keys) + 1)
        point = {k: float(v) for k, v in zip(keys, cells)}
        acc = float(cells[len(keys)]) if cells[len(keys)] else None
        rows.append((point, acc, cells[len(keys) + 1]))
    expected = sorted(tuple(float(p[k]) for k in keys) for p in points)
    covered = sorted(tuple(p[k] for k in keys) for p, _, _ in rows)
    if covered != expected:
        return [f"sweep.csv covers {len(covered)} points, not the {len(expected)}-point grid"], rows
    return [], rows
