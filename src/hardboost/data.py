"""Dataset containers and file formats.

The toolkit consumes precomputed visual features, per-class attribute
vectors, and a seen/unseen class split.  Four small formats cover all
on-disk data:

* feature tables -- binary (magic ``ZSF1``), rows of (label, vector)
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

import contextlib
import json
import math
import os
import struct
import tempfile
import threading
import time
from collections import Counter
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


@contextlib.contextmanager
def decode_errors_named(path, error: type[ValueError] = DataError):
    """Raise a ``UnicodeDecodeError`` from the block as ``error`` naming ``path``."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from None


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


_FINITE_CHECK_ELEMENTS = 1 << 18  # values per block of rows that _first_nonfinite_row scans


def _first_nonfinite_row(feats: np.ndarray) -> int | None:
    """Index of the first row of 2-D ``feats`` (at least one column wide)
    holding a NaN or an infinity, or None.  The rows are scanned in blocks,
    so the check holds one block's bool mask, not one of the whole table."""
    rows = max(1, _FINITE_CHECK_ELEMENTS // feats.shape[1])
    for start in range(0, feats.shape[0], rows):
        bad = np.flatnonzero(~np.isfinite(feats[start : start + rows]).all(axis=1))
        if bad.size:
            return start + int(bad[0])
    return None


def row_moments(
    rows: np.ndarray, scatter: bool = False
) -> tuple[np.ndarray, int, np.ndarray | None]:
    """Float64 mean and count of ``rows`` and, with ``scatter``, the
    per-feature sum of squared deviations from that mean, the rows summed in
    their order.

    Every class statistic a fit reads comes from here, whether a table
    caches it or a refit computes it for selected rows, so equal rows in
    equal order give equal bits.
    """
    rows = rows.astype(np.float64)
    mean = rows.mean(axis=0)
    if not scatter:
        return mean, len(rows), None
    rows -= mean
    return mean, len(rows), np.square(rows, out=rows).sum(axis=0)


@dataclass(frozen=True)
class FeatureTable:
    """Rows of (visual feature vector, class label), features float32.

    Three derived views are computed on first use and cached on the table:
    the rows of each label (:meth:`rows_for`), the per-class means and
    counts (:meth:`class_stats`) and the per-class squared-deviation sums
    (:meth:`class_scatters`).  The table is immutable, so none goes stale.
    """

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
        bad = _first_nonfinite_row(feats)
        if bad is not None:
            raise ValidationError(f"non-finite feature value in row {bad}")
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

    def class_stats(self) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
        """Sorted class ids, their float64 mean rows and their row counts.

        Class ``k``'s are :func:`row_moments` of its rows, in ascending
        order.  The first call computes them and caches them, read-only, so
        every later call returns the same arrays.
        """
        stats = self.__dict__.get("_class_stats")
        if stats is None:
            labels = tuple(sorted(set(self.labels)))
            means = np.empty((len(labels), self.dim))
            counts = np.empty(len(labels), dtype=np.intp)
            for k, cls in enumerate(labels):
                means[k], counts[k], _ = row_moments(self.features[self.rows_for(cls)])
            stats = (labels, _freeze(means), _freeze(counts))
            object.__setattr__(self, "_class_stats", stats)
        return stats

    def class_scatters(self) -> np.ndarray:
        """Row ``k`` is the :func:`row_moments` scatter of class ``k`` of
        :meth:`class_stats`.

        Only a generator fit reads these, so they are cached apart from the
        means: the first call computes them and caches them, read-only.
        """
        scatters = self.__dict__.get("_class_scatters")
        if scatters is None:
            labels = self.class_stats()[0]
            scatters = np.empty((len(labels), self.dim))
            for k, cls in enumerate(labels):
                scatters[k] = row_moments(self.features[self.rows_for(cls)], scatter=True)[2]
            scatters = _freeze(scatters)
            object.__setattr__(self, "_class_scatters", scatters)
        return scatters


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
    """Everything one experiment needs: features, semantics, split, priors.

    Only unseen-class test rows are held, since only they are scored
    (conventional zero-shot learning); there is no seen-class test table.
    """

    train_seen: FeatureTable
    test_unseen: FeatureTable
    semantics: SemanticTable
    split: ClassSplit
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
    if bundle.test_unseen.dim != bundle.train_seen.dim:
        raise ValidationError(
            f"test_unseen rows have {bundle.test_unseen.dim} features, "
            f"train_seen rows have {bundle.train_seen.dim}"
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


def atomic_write_bytes(path, *chunks) -> None:
    """Write ``chunks`` (bytes or contiguous buffers) in order via a temp
    file in the same directory, then rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
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


def write_feature_table(table: FeatureTable, path) -> None:
    atomic_write_bytes(path, *_feature_binary_chunks(table))


def _label_block(labels) -> bytes:
    """The labels joined by newlines, UTF-8 encoded; a label that cannot be
    encoded is a ``DataError`` naming its row."""
    try:
        return "\n".join(labels).encode("utf-8")
    except UnicodeEncodeError:
        pass
    # the newlines encode, so some label does not: name the first
    for row, label in enumerate(labels):
        try:
            label.encode("utf-8")
        except UnicodeEncodeError:
            raise DataError(f"row {row}: label is not encodable as UTF-8") from None


def _feature_binary_chunks(table: FeatureTable) -> tuple:
    """The binary file's pieces in order; the feature block is the table's
    own buffer (float32 tables are C-contiguous), not a copy of it."""
    label_block = _label_block(table.labels)
    if label_block.count(b"\n") != max(table.n - 1, 0):
        row = next(row for row, label in enumerate(table.labels) if "\n" in label)
        raise DataError(f"row {row}: label contains a newline, not serializable")
    header = _MAGIC + struct.pack("<IQI", _BINARY_VERSION, table.n, table.dim)
    body = np.ascontiguousarray(table.features, dtype="<f4")
    return header, body, struct.pack("<I", len(label_block)), label_block


def load_feature_table(path) -> FeatureTable:
    """Read a binary feature table (``.zsf``)."""
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
        with decode_errors_named(name):
            labels = raw[offset:].decode("utf-8").split("\n")
        if len(labels) != rows:
            raise DataError(
                f"{name}: {len(labels)} labels for {rows} rows"
            )
    try:
        return FeatureTable(features=feats, labels=tuple(labels))
    except ValidationError as exc:  # the checks above leave only a non-finite row
        raise DataError(f"{name}: {exc}") from None


# ---------------------------------------------------------------------------
# semantic tables, splits, priors


def load_semantic_table(path) -> SemanticTable:
    name = str(path)
    vectors: dict[str, np.ndarray] = {}
    dim = None
    with open(path, "r", encoding="utf-8") as fh, decode_errors_named(name):
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
    atomic_write_text(path, "".join(_semantic_lines(table)))


def _semantic_lines(table: SemanticTable):
    """The semantic file's lines in class order, each with its newline."""
    for cls in sorted(table.vectors):
        # repr of a Python float is the text str gives the numpy scalar, but
        # faster to reach
        values = ",".join(map(repr, table.vectors[cls].tolist()))
        yield f"{cls},{values}\n"


def load_json(path):
    """The parsed contents of a JSON file; malformed JSON is a ``DataError``."""
    try:
        with decode_errors_named(path):
            return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from None


def is_json_number(value) -> bool:
    """True for a JSON number; JSON booleans are not numbers here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_split(path) -> ClassSplit:
    obj = load_json(path)
    if not isinstance(obj, dict) or set(obj) != {"seen", "unseen"}:
        raise DataError(f'{path}: expected an object with keys "seen" and "unseen"')
    for key, ids in obj.items():
        if not (isinstance(ids, list) and all(isinstance(cls, str) for cls in ids)):
            raise DataError(f"{path}: {key} must be a list of class id strings, got {ids!r}")
        twice = [cls for cls, count in Counter(ids).items() if count > 1]
        if twice:
            raise DataError(f"{path}: {key} lists class id {twice[0]!r} more than once")
    return ClassSplit(seen=frozenset(obj["seen"]), unseen=frozenset(obj["unseen"]))


def write_split(split: ClassSplit, path) -> None:
    atomic_write_text(
        path,
        dump_json({"seen": sorted(split.seen), "unseen": sorted(split.unseen)}),
    )


def load_priors(path) -> dict[str, float]:
    obj = load_json(path)
    if not isinstance(obj, dict):
        raise DataError(f"{path}: expected a JSON object of class -> prior")
    for cls, prior in obj.items():
        if not is_json_number(prior):
            raise DataError(f"{path}: prior for class {cls!r} must be a number, got {prior!r}")
    return {cls: float(prior) for cls, prior in obj.items()}


def write_priors(priors: dict[str, float], path) -> None:
    atomic_write_text(path, dump_json(priors))


# ---------------------------------------------------------------------------
# bundle directories

_BUNDLE_FILES = {
    "train_seen": "train_seen.zsf",
    "test_unseen": "test_unseen.zsf",
    "semantics": "semantics.csv",
    "split": "split.json",
    "priors": "priors.json",
}


def load_bundle(directory) -> DatasetBundle:
    """Load and validate a bundle from its directory layout.

    A directory that still holds a ``test_seen.zsf``, which older bundles
    carried and nothing read, is a ``DataError`` naming that file.
    """
    directory = Path(directory)
    retired = directory / "test_seen.zsf"
    if retired.exists():
        raise DataError(f"{retired}: bundles hold no seen-class test table; delete this file")
    train = load_feature_table(directory / _BUNDLE_FILES["train_seen"])
    test_unseen = load_feature_table(directory / _BUNDLE_FILES["test_unseen"])
    semantics = load_semantic_table(directory / _BUNDLE_FILES["semantics"])
    split = load_split(directory / _BUNDLE_FILES["split"])
    priors = None
    priors_path = directory / _BUNDLE_FILES["priors"]
    if priors_path.exists():
        priors = load_priors(priors_path)
    bundle = DatasetBundle(
        train_seen=train,
        test_unseen=test_unseen,
        semantics=semantics,
        split=split,
        class_priors=priors,
    )
    return validate_bundle(bundle)


_HELPER_WRITE_VALUES = 1 << 18  # feature values below which no thread starts


def write_bundle(bundle: DatasetBundle, directory) -> None:
    """Write ``bundle``'s files, each atomically, as :func:`load_bundle` reads them.

    Above ``_HELPER_WRITE_VALUES`` feature values, a helper thread writes
    the ``.zsf`` files while this thread formats ``semantics.csv``.  A
    helper's error is raised here before any later file is written, and the
    bytes do not depend on the CPU count.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    tables = [(bundle.train_seen, "train_seen"), (bundle.test_unseen, "test_unseen")]
    errors = []

    def write_tables() -> None:
        try:
            for table, key in tables:
                write_feature_table(table, directory / _BUNDLE_FILES[key])
        except BaseException as exc:
            errors.append(exc)

    lines = []
    if sum(table.features.size for table, _ in tables) < _HELPER_WRITE_VALUES:
        write_tables()
        lines.extend(_semantic_lines(bundle.semantics))
    else:
        helper = threading.Thread(target=write_tables, name="write-bundle")
        helper.start()
        try:
            for line in _semantic_lines(bundle.semantics):
                lines.append(line)
                # let the helper back in as soon as a write of its returns,
                # not after the interpreter's 5 ms switch interval
                time.sleep(0)
        finally:
            helper.join()
    if errors:
        raise errors[0]
    atomic_write_text(directory / _BUNDLE_FILES["semantics"], "".join(lines))
    write_split(bundle.split, directory / _BUNDLE_FILES["split"])
    priors = directory / _BUNDLE_FILES["priors"]
    if bundle.class_priors is None:
        priors.unlink(missing_ok=True)  # a priors.json of an earlier write is stale
    else:
        write_priors(bundle.class_priors, priors)
