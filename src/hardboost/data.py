"""Dataset containers and file formats.

The toolkit consumes precomputed visual features, per-class attribute
vectors, and a seen/unseen class split.  Four small formats cover all
on-disk data:

* feature tables -- binary (magic ``ZSF1``) or CSV, rows of (label, vector)
* semantic tables -- CSV, one attribute vector per class
* class splits -- JSON ``{"seen": [...], "unseen": [...]}``
* class priors -- JSON map class id -> probability

Binary feature layout (all little-endian): magic ``ZSF1``, u32 version (1),
u64 row count, u32 dimension, row-major float32 features, u32 label-block
byte length, then newline-separated UTF-8 labels in row order.

Tables are immutable after construction (backing arrays are marked
read-only) and safe to share across threads.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Reserved label for rows whose class is unknown (unlabeled test data).
UNLABELED = "?"

_MAGIC = b"ZSF1"
_BINARY_VERSION = 1


class DataError(ValueError):
    """A file does not conform to its declared format."""


class ValidationError(ValueError):
    """A dataset violates a structural invariant."""


class ConfigError(ValueError):
    """A run configuration file is malformed."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class FeatureTable:
    """Rows of (visual feature vector, class label), features float32."""

    features: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float32)
        if feats.ndim != 2:
            raise ValidationError(f"features must be 2-D, got shape {feats.shape}")
        if feats.shape[1] < 1:
            raise ValidationError("feature dimension must be >= 1")
        labels = tuple(str(l) for l in self.labels)
        if len(labels) != feats.shape[0]:
            raise ValidationError(
                f"{feats.shape[0]} feature rows but {len(labels)} labels"
            )
        bad = np.flatnonzero(~np.isfinite(feats).all(axis=1))
        if bad.size:
            raise ValidationError(f"non-finite feature value in row {bad[0]}")
        object.__setattr__(self, "features", _freeze(feats))
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def rows_for(self, label: str) -> np.ndarray:
        """Ascending indices of the rows carrying ``label``; empty if none do.

        The first call groups the rows by label once and caches the groups,
        so each later call costs one lookup and one copy.
        """
        index = self.__dict__.get("_label_index")
        if index is None:
            groups: dict[str, list[int]] = {}
            for row, name in enumerate(self.labels):
                groups.setdefault(name, []).append(row)
            index = {name: np.asarray(rows, dtype=np.intp) for name, rows in groups.items()}
            object.__setattr__(self, "_label_index", index)
        rows = index.get(label)
        return np.empty(0, dtype=np.intp) if rows is None else rows.copy()


@dataclass(frozen=True)
class SemanticTable:
    """Per-class attribute vectors, all of one dimension."""

    vectors: dict[str, np.ndarray]

    def __post_init__(self):
        if not self.vectors:
            raise ValidationError("semantic table is empty")
        frozen: dict[str, np.ndarray] = {}
        dim = None
        for cls, vec in self.vectors.items():
            v = np.asarray(vec, dtype=np.float64).reshape(-1)
            if dim is None:
                dim = v.size
                if dim < 1:
                    raise ValidationError("semantic dimension must be >= 1")
            elif v.size != dim:
                raise ValidationError(
                    f"semantic vector for {cls!r} has dimension {v.size}, expected {dim}"
                )
            if not np.isfinite(v).all():
                raise ValidationError(f"non-finite semantic value for class {cls!r}")
            frozen[str(cls)] = _freeze(v)
        object.__setattr__(self, "vectors", frozen)

    @property
    def dim(self) -> int:
        return next(iter(self.vectors.values())).size

    def __contains__(self, cls: str) -> bool:
        return cls in self.vectors

    def __getitem__(self, cls: str) -> np.ndarray:
        try:
            return self.vectors[cls]
        except KeyError:
            raise KeyError(f"no semantic vector for class {cls!r}") from None

    def matrix(self, class_ids) -> np.ndarray:
        """Stack the vectors of ``class_ids`` into a (len, dim) matrix."""
        return np.stack([self[c] for c in class_ids])


@dataclass(frozen=True)
class ClassSplit:
    """Disjoint seen / unseen class id sets."""

    seen: frozenset[str]
    unseen: frozenset[str]

    def __post_init__(self):
        seen = frozenset(str(c) for c in self.seen)
        unseen = frozenset(str(c) for c in self.unseen)
        if not seen or not unseen:
            raise ValidationError("seen and unseen sets must both be non-empty")
        overlap = seen & unseen
        if overlap:
            raise ValidationError(
                f"seen and unseen overlap on {sorted(overlap)}"
            )
        object.__setattr__(self, "seen", seen)
        object.__setattr__(self, "unseen", unseen)

    @property
    def num_unseen(self) -> int:
        return len(self.unseen)

    @property
    def all_classes(self) -> frozenset[str]:
        return self.seen | self.unseen


@dataclass(frozen=True)
class DatasetBundle:
    """Everything one experiment needs: features, semantics, split, priors."""

    train_seen: FeatureTable
    test_unseen: FeatureTable
    semantics: SemanticTable
    split: ClassSplit
    test_seen: FeatureTable | None = None
    class_priors: dict[str, float] | None = None


def validate_bundle(bundle: DatasetBundle) -> DatasetBundle:
    """Check every structural invariant; return the bundle unchanged.

    Raises ``ValidationError`` naming the offending class or row.
    """
    split = bundle.split
    for cls in sorted(split.all_classes):
        if cls not in bundle.semantics:
            raise ValidationError(f"class {cls!r} in split has no semantic vector")
        if float(np.linalg.norm(bundle.semantics[cls])) == 0.0:
            raise ValidationError(f"semantic vector for class {cls!r} has zero norm")

    for row, label in enumerate(bundle.train_seen.labels):
        if label not in split.seen:
            raise ValidationError(
                f"train_seen row {row} labeled {label!r}, not a seen class"
            )
    for row, label in enumerate(bundle.test_unseen.labels):
        if label != UNLABELED and label not in split.unseen:
            raise ValidationError(
                f"test_unseen row {row} labeled {label!r}, not an unseen class"
            )
    if bundle.test_seen is not None:
        for row, label in enumerate(bundle.test_seen.labels):
            if label != UNLABELED and label not in split.seen:
                raise ValidationError(
                    f"test_seen row {row} labeled {label!r}, not a seen class"
                )

    if bundle.class_priors is not None:
        priors = bundle.class_priors
        if set(priors) != split.unseen:
            missing = sorted(split.unseen - set(priors))
            extra = sorted(set(priors) - split.unseen)
            raise ValidationError(
                f"class priors must cover exactly the unseen classes "
                f"(missing {missing}, extra {extra})"
            )
        for cls, p in sorted(priors.items()):
            if not (p > 0.0 and math.isfinite(p)):
                raise ValidationError(f"prior for class {cls!r} must be positive, got {p}")
        total = math.fsum(priors.values())
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"class priors sum to {total!r}, expected 1.0")
    return bundle


# ---------------------------------------------------------------------------
# atomic writes


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via a temp file in the same directory, then rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# feature tables


def load_feature_table(path, fmt: str = "binary") -> FeatureTable:
    """Read a feature table; ``fmt`` is ``"binary"`` or ``"csv"``."""
    if fmt == "binary":
        return _load_feature_binary(path)
    if fmt == "csv":
        return _load_feature_csv(path)
    raise ValueError(f"unknown feature format {fmt!r}")


def write_feature_table(table: FeatureTable, path, fmt: str = "binary") -> None:
    for row, label in enumerate(table.labels):
        try:
            label.encode("utf-8")
        except UnicodeEncodeError:
            raise DataError(f"row {row}: label is not encodable as UTF-8") from None
    if fmt == "binary":
        atomic_write_bytes(path, _feature_binary_bytes(table))
    elif fmt == "csv":
        atomic_write_text(path, _feature_csv_text(table))
    else:
        raise ValueError(f"unknown feature format {fmt!r}")


def _feature_binary_bytes(table: FeatureTable) -> bytes:
    for row, label in enumerate(table.labels):
        if "\n" in label:
            raise DataError(f"row {row}: label contains a newline, not serializable")
    label_block = "\n".join(table.labels).encode("utf-8") if table.n else b""
    header = _MAGIC + struct.pack("<IQI", _BINARY_VERSION, table.n, table.dim)
    body = table.features.astype("<f4", copy=False).tobytes(order="C")
    return header + body + struct.pack("<I", len(label_block)) + label_block


def _load_feature_binary(path) -> FeatureTable:
    raw = Path(path).read_bytes()
    name = str(path)
    if len(raw) < 20 or raw[:4] != _MAGIC:
        raise DataError(f"{name}: missing {_MAGIC!r} magic header")
    version, rows, dim = struct.unpack_from("<IQI", raw, 4)
    if version != _BINARY_VERSION:
        raise DataError(f"{name}: unsupported version {version}")
    if dim < 1:
        raise DataError(f"{name}: header dimension must be >= 1, got {dim}")
    offset = 20
    nbytes = rows * dim * 4
    if len(raw) < offset + nbytes + 4:
        raise DataError(f"{name}: truncated feature block")
    feats = np.frombuffer(raw, dtype="<f4", count=rows * dim, offset=offset)
    feats = feats.reshape(rows, dim)
    offset += nbytes
    (label_len,) = struct.unpack_from("<I", raw, offset)
    offset += 4
    if len(raw) != offset + label_len:
        raise DataError(f"{name}: label block length mismatch")
    if rows == 0:
        labels: list[str] = []
        if label_len:
            raise DataError(f"{name}: label block present but row count is 0")
    else:
        labels = raw[offset:].decode("utf-8").split("\n")
        if len(labels) != rows:
            raise DataError(
                f"{name}: {len(labels)} labels for {rows} rows"
            )
    bad = np.flatnonzero(~np.isfinite(feats).all(axis=1))
    if bad.size:
        raise DataError(f"{name}: non-finite feature value in row {bad[0]}")
    return FeatureTable(features=feats, labels=tuple(labels))


def _feature_csv_text(table: FeatureTable) -> str:
    lines = []
    for row in range(table.n):
        label = table.labels[row]
        if "," in label or "\n" in label:
            raise DataError(f"row {row}: label {label!r} not CSV-serializable")
        values = ",".join(str(v) for v in table.features[row])
        lines.append(f"{label},{values}")
    return "\n".join(lines) + ("\n" if lines else "")


def _load_feature_csv(path) -> FeatureTable:
    name = str(path)
    rows: list[np.ndarray] = []
    labels: list[str] = []
    dim = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) < 2:
                raise DataError(f"{name}: row {lineno}: expected label and features")
            try:
                vec = np.asarray([float(p) for p in parts[1:]], dtype=np.float64)
            except ValueError as exc:
                raise DataError(f"{name}: row {lineno}: {exc}") from None
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise DataError(
                    f"{name}: row {lineno}: dimension {vec.size}, expected {dim}"
                )
            if not np.isfinite(vec).all():
                raise DataError(f"{name}: row {lineno}: non-finite feature value")
            labels.append(parts[0])
            rows.append(vec)
    if not rows:
        raise DataError(f"{name}: empty CSV feature table")
    return FeatureTable(
        features=np.stack(rows).astype(np.float32), labels=tuple(labels)
    )


# ---------------------------------------------------------------------------
# semantic tables, splits, priors


def load_semantic_table(path) -> SemanticTable:
    name = str(path)
    vectors: dict[str, np.ndarray] = {}
    dim = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) < 2:
                raise DataError(f"{name}: row {lineno}: expected class id and attributes")
            cls = parts[0]
            if cls in vectors:
                raise DataError(f"{name}: row {lineno}: duplicate class {cls!r}")
            try:
                vec = np.asarray([float(p) for p in parts[1:]], dtype=np.float64)
            except ValueError as exc:
                raise DataError(f"{name}: row {lineno}: {exc}") from None
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise DataError(
                    f"{name}: row {lineno}: dimension {vec.size}, expected {dim}"
                )
            if not np.isfinite(vec).all():
                raise DataError(f"{name}: row {lineno}: non-finite attribute value")
            vectors[cls] = vec
    if not vectors:
        raise DataError(f"{name}: empty semantic table")
    return SemanticTable(vectors=vectors)


def write_semantic_table(table: SemanticTable, path) -> None:
    lines = []
    for cls in sorted(table.vectors):
        values = ",".join(str(v) for v in table.vectors[cls])
        lines.append(f"{cls},{values}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_split(path) -> ClassSplit:
    name = str(path)
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"{name}: invalid JSON: {exc}") from None
    if not isinstance(obj, dict) or set(obj) != {"seen", "unseen"}:
        raise DataError(f'{name}: expected an object with keys "seen" and "unseen"')
    return ClassSplit(seen=frozenset(obj["seen"]), unseen=frozenset(obj["unseen"]))


def write_split(split: ClassSplit, path) -> None:
    atomic_write_text(
        path,
        dump_json({"seen": sorted(split.seen), "unseen": sorted(split.unseen)}),
    )


def load_priors(path) -> dict[str, float]:
    name = str(path)
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(obj, dict):
        raise DataError(f"{name}: expected a JSON object of class -> prior")
    return {str(k): float(v) for k, v in obj.items()}


def write_priors(priors: dict[str, float], path) -> None:
    atomic_write_text(path, dump_json(priors))


# ---------------------------------------------------------------------------
# bundle directories

_BUNDLE_FILES = {
    "train_seen": "train_seen.zsf",
    "test_unseen": "test_unseen.zsf",
    "test_seen": "test_seen.zsf",
    "semantics": "semantics.csv",
    "split": "split.json",
    "priors": "priors.json",
}


def load_bundle(directory) -> DatasetBundle:
    """Load and validate a bundle from its directory layout."""
    directory = Path(directory)
    train = load_feature_table(directory / _BUNDLE_FILES["train_seen"])
    test_unseen = load_feature_table(directory / _BUNDLE_FILES["test_unseen"])
    semantics = load_semantic_table(directory / _BUNDLE_FILES["semantics"])
    split = load_split(directory / _BUNDLE_FILES["split"])
    test_seen = None
    seen_path = directory / _BUNDLE_FILES["test_seen"]
    if seen_path.exists():
        test_seen = load_feature_table(seen_path)
    priors = None
    priors_path = directory / _BUNDLE_FILES["priors"]
    if priors_path.exists():
        priors = load_priors(priors_path)
    bundle = DatasetBundle(
        train_seen=train,
        test_unseen=test_unseen,
        semantics=semantics,
        split=split,
        test_seen=test_seen,
        class_priors=priors,
    )
    return validate_bundle(bundle)


def write_bundle(bundle: DatasetBundle, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_feature_table(bundle.train_seen, directory / _BUNDLE_FILES["train_seen"])
    write_feature_table(bundle.test_unseen, directory / _BUNDLE_FILES["test_unseen"])
    if bundle.test_seen is not None:
        write_feature_table(bundle.test_seen, directory / _BUNDLE_FILES["test_seen"])
    write_semantic_table(bundle.semantics, directory / _BUNDLE_FILES["semantics"])
    write_split(bundle.split, directory / _BUNDLE_FILES["split"])
    if bundle.class_priors is not None:
        write_priors(bundle.class_priors, directory / _BUNDLE_FILES["priors"])
