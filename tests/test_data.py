import dataclasses
import re
import struct
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hardboost import data as data_module
from hardboost.data import (
    ClassSplit,
    DataError,
    DatasetBundle,
    FeatureTable,
    SemanticTable,
    UNLABELED,
    ValidationError,
    load_bundle,
    load_feature_table,
    load_semantic_table,
    load_split,
    validate_bundle,
    write_bundle,
    write_feature_table,
    write_semantic_table,
)
from hardboost.data import _feature_binary_chunks


def make_split():
    return ClassSplit(seen=frozenset({"a", "b"}), unseen=frozenset({"c", "d"}))


def _utf8_encodable(text):
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


class TestFeatureTable:
    @settings(max_examples=100, deadline=None)
    @given(
        labels=st.lists(st.sampled_from(["a", "b", "c", "", "a\x00", "é"]), max_size=30),
        probe=st.sampled_from(["a", "b", "c", "", "a\x00", "é", "absent"]),
    )
    def test_rows_for_equals_label_scan(self, labels, probe):
        table = FeatureTable(features=np.zeros((len(labels), 1), dtype=np.float32), labels=labels)
        rows = table.rows_for(probe)
        expected = np.flatnonzero(np.asarray([l == probe for l in labels], dtype=bool))
        assert rows.dtype == np.intp
        np.testing.assert_array_equal(rows, expected)
        # the cached index hands out copies
        rows[:] = -1
        np.testing.assert_array_equal(table.rows_for(probe), expected)

    @settings(max_examples=50, deadline=None)
    @given(
        labels=st.lists(st.sampled_from(["a", "b", "c", "é"]), max_size=30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_class_stats_equal_label_scans_and_are_cached(self, labels, seed):
        feats = np.random.default_rng(seed).normal(size=(len(labels), 3)) * 1e3
        table = FeatureTable(features=feats, labels=labels)
        classes, means, counts = table.class_stats()
        assert classes == tuple(sorted(set(labels)))
        assert means.shape == (len(classes), 3) and counts.dtype == np.intp
        for k, cls in enumerate(classes):
            rows = table.features[table.rows_for(cls)]
            assert means[k].tobytes() == rows.astype(np.float64).mean(axis=0).tobytes()
            assert counts[k] == len(rows)
        again = table.class_stats()
        assert all(a is b for a, b in zip(again, (classes, means, counts)))
        assert not means.flags.writeable and not counts.flags.writeable

    @settings(max_examples=50, deadline=None)
    @given(
        labels=st.lists(st.sampled_from(["a", "b", "c", "é"]), max_size=30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_class_scatters_equal_label_scans_and_are_cached(self, labels, seed):
        feats = np.random.default_rng(seed).normal(size=(len(labels), 3)) * 1e3
        table = FeatureTable(features=feats, labels=labels)
        classes, means, _ = table.class_stats()
        scatters = table.class_scatters()
        assert scatters.shape == (len(classes), 3) and scatters.dtype == np.float64
        for k, cls in enumerate(classes):
            rows = table.features[table.rows_for(cls)].astype(np.float64)
            assert scatters[k].tobytes() == ((rows - means[k]) ** 2).sum(axis=0).tobytes()
        assert table.class_scatters() is scatters and not scatters.flags.writeable

    def test_empty_binary_table(self, tmp_path):
        table = FeatureTable(features=np.empty((0, 3), dtype=np.float32), labels=())
        path = tmp_path / "t.zsf"
        write_feature_table(table, path)
        loaded = load_feature_table(path)
        assert loaded.n == 0 and loaded.dim == 3

    def test_binary_bad_magic(self, tmp_path):
        path = tmp_path / "t.zsf"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(DataError, match="magic"):
            load_feature_table(path)

    def test_binary_version_mismatch(self, tmp_path):
        table = FeatureTable(features=np.ones((1, 1), dtype=np.float32), labels=("a",))
        raw = bytearray(b"".join(_feature_binary_chunks(table)))
        raw[4] = 9  # bump the version field
        path = tmp_path / "t.zsf"
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="version"):
            load_feature_table(path)

    def test_binary_truncated(self, tmp_path):
        table = FeatureTable(
            features=np.ones((2, 2), dtype=np.float32), labels=("a", "b")
        )
        raw = b"".join(_feature_binary_chunks(table))
        path = tmp_path / "t.zsf"
        path.write_bytes(raw[:-3])
        with pytest.raises(DataError):
            load_feature_table(path)

    def test_unencodable_label_rejected_on_write(self, tmp_path):
        table = FeatureTable(features=np.ones((2, 1), dtype=np.float32), labels=("a", "\ud800"))
        with pytest.raises(DataError, match="row 1.*UTF-8"):
            write_feature_table(table, tmp_path / "t")
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("block_values", [2, 6, 1 << 18])
    def test_first_non_finite_row_is_named_across_row_blocks(self, block_values, tmp_path):
        feats = np.zeros((10, 2), dtype=np.float32)
        feats[7, 1], feats[9, 0] = np.nan, np.inf
        labels = "\n".join("a" * 10).encode()
        path = tmp_path / "t.zsf"
        path.write_bytes(b"ZSF1" + struct.pack("<IQI", 1, 10, 2) + feats.tobytes()
                         + struct.pack("<I", len(labels)) + labels)
        with mock.patch.object(data_module, "_FINITE_CHECK_ELEMENTS", block_values):
            with pytest.raises(DataError, match=f"^{re.escape(str(path))}: non-finite feature value in row 7$"):
                load_feature_table(path)
            with pytest.raises(ValidationError, match="^non-finite feature value in row 7$"):
                FeatureTable(features=feats, labels=("a",) * 10)

    def test_a_load_scans_for_non_finite_values_once(self, tmp_path):
        path = tmp_path / "t.zsf"
        write_feature_table(FeatureTable(features=np.ones((3, 2), dtype=np.float32), labels=("a",) * 3), path)
        scan = mock.Mock(wraps=data_module._first_nonfinite_row)
        with mock.patch.object(data_module, "_first_nonfinite_row", scan):
            load_feature_table(path)
        assert scan.call_count == 1

    def test_non_finite_rejected_at_construction(self):
        with pytest.raises(ValidationError, match="row 1"):
            FeatureTable(
                features=np.array([[1.0, 2.0], [np.inf, 0.0]], dtype=np.float32),
                labels=("a", "b"),
            )

    @settings(max_examples=50, deadline=None)
    @given(
        features=hnp.arrays(
            dtype=np.float32,
            shape=st.tuples(st.integers(1, 8), st.integers(1, 5)),
            elements=st.floats(-1e6, 1e6, width=32),
        ),
        data=st.data(),
    )
    def test_binary_round_trip_is_identity(self, tmp_path_factory, features, data):
        labels = tuple(
            data.draw(st.text(st.characters(blacklist_characters="\n,"), max_size=6))
            for _ in range(features.shape[0])
        )
        table = FeatureTable(features=features, labels=labels)
        path = tmp_path_factory.mktemp("rt") / "t.zsf"
        # a lone surrogate cannot be written; the writer names its row
        bad = [row for row, l in enumerate(labels) if not _utf8_encodable(l)]
        if bad:
            with pytest.raises(DataError, match=f"row {bad[0]}: .*UTF-8"):
                write_feature_table(table, path)
            return
        write_feature_table(table, path)
        loaded = load_feature_table(path)
        assert loaded.labels == table.labels
        np.testing.assert_array_equal(loaded.features, table.features)
        # write(load(f)) is byte-identical to f
        assert b"".join(_feature_binary_chunks(loaded)) == path.read_bytes()


class TestSemanticTable:
    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "sem.csv"
        path.write_text("a,0.5,1.5\nb,-1.0,2.0\n")
        table = load_semantic_table(path)
        assert table.dim == 2
        np.testing.assert_array_equal(table["b"], [-1.0, 2.0])

    def test_duplicate_class_rejected(self, tmp_path):
        path = tmp_path / "sem.csv"
        path.write_text("a,1.0\na,2.0\n")
        with pytest.raises(DataError, match="duplicate"):
            load_semantic_table(path)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="'b'"):
            SemanticTable(vectors={"a": [1.0, 2.0], "b": [1.0]})

    @settings(max_examples=2000, deadline=None)
    @given(st.integers(0, 2**64 - 1))
    # +0.0, -0.0, the smallest and the largest subnormal, +-the largest finite
    @example(0)
    @example(1 << 63)
    @example(1)
    @example(0x000FFFFFFFFFFFFF)
    @example(0x7FEFFFFFFFFFFFFF)
    @example(0xFFEFFFFFFFFFFFFF)
    def test_float_repr_is_the_numpy_scalar_text(self, bits):
        # the writer formats a Python float with repr; the file's bytes are
        # those of str on each numpy float64 scalar
        x = np.array(bits, dtype=np.uint64).view(np.float64)[()]
        assert repr(float(x)) == str(x)

    @settings(max_examples=50, deadline=None)
    @given(hnp.arrays(np.float64, (3, 4), elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_write_is_the_numpy_scalar_text_and_round_trips(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("sem") / "sem.csv"
        table = SemanticTable(vectors={f"c{i}": row for i, row in enumerate(values)})
        write_semantic_table(table, path)
        assert path.read_text() == "".join(
            f"c{i},{','.join(str(v) for v in row)}\n" for i, row in enumerate(values)
        )
        loaded = load_semantic_table(path)
        assert all(loaded[cls].tobytes() == vec.tobytes() for cls, vec in table.vectors.items())


class TestSplit:
    def test_overlap_names_class(self):
        with pytest.raises(ValidationError, match="c3"):
            ClassSplit(seen=frozenset({"c1", "c3"}), unseen=frozenset({"c2", "c3"}))

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "split.json"
        path.write_text('{"seen": ["a"], "unseen": ["b", "c"]}')
        split = load_split(path)
        assert split.seen == {"a"} and split.num_unseen == 2

    @pytest.mark.parametrize("key, split", [
        ("seen", '{"seen": ["s0", "s0", "s1"], "unseen": ["u0"]}'),
        ("unseen", '{"seen": ["s0"], "unseen": ["u1", "u0", "u1"]}'),
    ])
    def test_a_class_id_listed_twice_is_rejected(self, tmp_path, key, split):
        path = tmp_path / "split.json"
        path.write_text(split)
        twice = "s0" if key == "seen" else "u1"
        with pytest.raises(DataError, match=rf"{re.escape(str(path))}: {key} lists class id '{twice}'"):
            load_split(path)

    def test_unexpected_keys(self, tmp_path):
        path = tmp_path / "split.json"
        path.write_text('{"seen": ["a"], "unseen": ["b"], "extra": 1}')
        with pytest.raises(DataError):
            load_split(path)


class TestBundleValidation:
    def bundle(self, **overrides):
        fields = dict(
            train_seen=FeatureTable(
                features=np.ones((2, 2), dtype=np.float32), labels=("a", "b")
            ),
            test_unseen=FeatureTable(
                features=np.ones((2, 2), dtype=np.float32), labels=("c", "d")
            ),
            semantics=SemanticTable(
                vectors={"a": [1, 0], "b": [0, 1], "c": [1, 1], "d": [1, 2]}
            ),
            split=make_split(),
        )
        fields.update(overrides)
        return DatasetBundle(**fields)

    def test_valid_bundle_passes(self):
        bundle = self.bundle()
        assert validate_bundle(bundle) is bundle

    def test_zero_norm_semantic_names_class(self):
        bundle = self.bundle(
            semantics=SemanticTable(
                vectors={"a": [1, 0], "b": [0, 1], "c": [0, 0], "d": [1, 2]}
            )
        )
        with pytest.raises(ValidationError, match="'c'"):
            validate_bundle(bundle)

    def test_wrong_side_label_names_row(self):
        bundle = self.bundle(
            train_seen=FeatureTable(
                features=np.ones((2, 2), dtype=np.float32), labels=("a", "c")
            )
        )
        with pytest.raises(ValidationError, match="row 1"):
            validate_bundle(bundle)

    def test_feature_widths_must_match(self):
        bundle = self.bundle(
            test_unseen=FeatureTable(features=np.ones((2, 3), dtype=np.float32), labels=("c", "d"))
        )
        with pytest.raises(ValidationError, match="^test_unseen rows have 3 features, train_seen rows have 2$"):
            validate_bundle(bundle)

    def test_unlabeled_test_rows_allowed(self):
        bundle = self.bundle(
            test_unseen=FeatureTable(
                features=np.ones((2, 2), dtype=np.float32), labels=("c", UNLABELED)
            )
        )
        validate_bundle(bundle)

    def test_priors_must_cover_unseen(self):
        bundle = self.bundle(class_priors={"c": 1.0})
        with pytest.raises(ValidationError, match="missing"):
            validate_bundle(bundle)

    def test_priors_must_sum_to_one(self):
        bundle = self.bundle(class_priors={"c": 0.6, "d": 0.5})
        with pytest.raises(ValidationError, match="sum"):
            validate_bundle(bundle)

    def test_planted_benchmark_validates(self, standard_benchmark):
        bundle, _, _ = standard_benchmark
        assert validate_bundle(bundle) is bundle


def test_a_directory_holding_test_seen_is_rejected(tmp_path, standard_benchmark):
    bundle, _, _ = standard_benchmark
    write_bundle(bundle, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "priors.json", "semantics.csv", "split.json", "test_unseen.zsf", "train_seen.zsf",
    ]
    (tmp_path / "test_seen.zsf").write_bytes(b"")
    with pytest.raises(DataError, match=re.escape(f"{tmp_path / 'test_seen.zsf'}: ")):
        load_bundle(tmp_path)


def test_bundle_directory_round_trip(tmp_path, standard_benchmark):
    bundle, _, _ = standard_benchmark
    write_bundle(bundle, tmp_path)
    loaded = load_bundle(tmp_path)
    np.testing.assert_array_equal(loaded.train_seen.features, bundle.train_seen.features)
    assert loaded.train_seen.labels == bundle.train_seen.labels
    np.testing.assert_array_equal(loaded.test_unseen.features, bundle.test_unseen.features)
    assert loaded.test_unseen.labels == bundle.test_unseen.labels
    assert loaded.split == bundle.split
    assert set(loaded.class_priors) == bundle.split.unseen
    for cls, vec in bundle.semantics.vectors.items():
        np.testing.assert_allclose(loaded.semantics[cls], vec, atol=1e-15)


def test_rewriting_a_bundle_without_priors_removes_its_priors_file(tmp_path, standard_benchmark):
    bundle, _, _ = standard_benchmark
    write_bundle(bundle, tmp_path)
    (tmp_path / "notes.txt").write_text("kept")
    write_bundle(dataclasses.replace(bundle, class_priors=None), tmp_path)
    assert load_bundle(tmp_path).class_priors is None
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "notes.txt", "semantics.csv", "split.json", "test_unseen.zsf", "train_seen.zsf",
    ]


def test_bundle_files_do_not_depend_on_the_helper_thread(tmp_path, standard_benchmark, monkeypatch):
    bundle, _, _ = standard_benchmark
    for gate, name in ((0, "helper"), (1 << 62, "serial")):
        monkeypatch.setattr(data_module, "_HELPER_WRITE_VALUES", gate)
        write_bundle(bundle, tmp_path / name)
    files = sorted(p.name for p in (tmp_path / "serial").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "helper").iterdir())
    for name in files:
        assert (tmp_path / "helper" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()


def test_write_bundle_raises_the_helper_error_and_writes_nothing_after_it(
    tmp_path, standard_benchmark, monkeypatch
):
    bundle, _, _ = standard_benchmark
    labels = list(bundle.test_unseen.labels)
    labels[3] = "\ud800"
    bad = dataclasses.replace(
        bundle, test_unseen=dataclasses.replace(bundle.test_unseen, labels=tuple(labels))
    )
    threads = []

    def recording(table, path, _write=data_module.write_feature_table):
        threads.append(threading.current_thread())
        _write(table, path)

    monkeypatch.setattr(data_module, "write_feature_table", recording)
    monkeypatch.setattr(data_module, "_HELPER_WRITE_VALUES", 0)
    with pytest.raises(DataError, match="^row 3: label is not encodable as UTF-8$"):
        write_bundle(bad, tmp_path)
    assert len(threads) == 2 and threading.current_thread() not in threads
    # train_seen.zsf came first; no temp file, no later table, no semantics.csv
    assert [p.name for p in tmp_path.iterdir()] == ["train_seen.zsf"]


def test_binary_writer_names_the_first_bad_label_row(tmp_path):
    feats = np.ones((4, 1), dtype=np.float32)
    table = FeatureTable(features=feats, labels=("a", "b\nc", "d", "\ud800"))
    # the UTF-8 check runs first, as it did when each was a loop over rows
    with pytest.raises(DataError, match="^row 3: label is not encodable as UTF-8$"):
        write_feature_table(table, tmp_path / "t.zsf")
    table = FeatureTable(features=feats, labels=("a", "b", "c\n", "d\n"))
    with pytest.raises(DataError, match="^row 2: label contains a newline, not serializable$"):
        write_feature_table(table, tmp_path / "t.zsf")
    assert not list(tmp_path.iterdir())


def test_writing_a_table_copies_none_of_its_features(tmp_path, rng):
    table = FeatureTable(features=rng.normal(size=(2000, 256)).astype(np.float32), labels=("a",) * 2000)
    path = tmp_path / "t.zsf"
    tracemalloc.start()
    try:
        write_feature_table(table, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < table.features.nbytes / 4  # the joined file used to be two copies
    assert path.read_bytes() == b"".join(_feature_binary_chunks(table))


def test_tables_are_immutable(standard_benchmark):
    bundle, _, _ = standard_benchmark
    with pytest.raises(ValueError):
        bundle.train_seen.features[0, 0] = 7.0
