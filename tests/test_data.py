import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
)
from hardboost.data import _feature_binary_bytes


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

    def test_csv_parse(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,1.0,2.0\nb,3.0,4.0\n")
        table = load_feature_table(path, fmt="csv")
        assert table.n == 2 and table.dim == 2
        assert table.labels == ("a", "b")
        np.testing.assert_array_equal(table.features, [[1.0, 2.0], [3.0, 4.0]])

    def test_csv_dimension_mismatch_names_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,1.0,2.0\nb,3.0\n")
        with pytest.raises(DataError, match="row 1"):
            load_feature_table(path, fmt="csv")

    def test_csv_non_finite_names_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,1.0,2.0\nb,nan,4.0\n")
        with pytest.raises(DataError, match="row 1"):
            load_feature_table(path, fmt="csv")

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
        raw = bytearray(_feature_binary_bytes(table))
        raw[4] = 9  # bump the version field
        path = tmp_path / "t.zsf"
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="version"):
            load_feature_table(path)

    def test_csv_write_read_round_trip(self, tmp_path, rng):
        table = FeatureTable(
            features=rng.normal(size=(5, 3)).astype(np.float32),
            labels=tuple(f"c{i}" for i in range(5)),
        )
        path = tmp_path / "t.csv"
        write_feature_table(table, path, fmt="csv")
        loaded = load_feature_table(path, fmt="csv")
        assert loaded.labels == table.labels
        np.testing.assert_array_equal(loaded.features, table.features)

    def test_binary_truncated(self, tmp_path):
        table = FeatureTable(
            features=np.ones((2, 2), dtype=np.float32), labels=("a", "b")
        )
        raw = _feature_binary_bytes(table)
        path = tmp_path / "t.zsf"
        path.write_bytes(raw[:-3])
        with pytest.raises(DataError):
            load_feature_table(path)

    @pytest.mark.parametrize("fmt", ["binary", "csv"])
    def test_unencodable_label_rejected_on_write(self, tmp_path, fmt):
        table = FeatureTable(features=np.ones((2, 1), dtype=np.float32), labels=("a", "\ud800"))
        with pytest.raises(DataError, match="row 1.*UTF-8"):
            write_feature_table(table, tmp_path / "t", fmt=fmt)
        assert not (tmp_path / "t").exists()

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
        assert _feature_binary_bytes(loaded) == path.read_bytes()


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


class TestSplit:
    def test_overlap_names_class(self):
        with pytest.raises(ValidationError, match="c3"):
            ClassSplit(seen=frozenset({"c1", "c3"}), unseen=frozenset({"c2", "c3"}))

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "split.json"
        path.write_text('{"seen": ["a"], "unseen": ["b", "c"]}')
        split = load_split(path)
        assert split.seen == {"a"} and split.num_unseen == 2

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


def test_bundle_directory_round_trip(tmp_path, standard_benchmark):
    bundle, _, _ = standard_benchmark
    write_bundle(bundle, tmp_path)
    loaded = load_bundle(tmp_path)
    np.testing.assert_array_equal(loaded.train_seen.features, bundle.train_seen.features)
    assert loaded.train_seen.labels == bundle.train_seen.labels
    assert loaded.split == bundle.split
    assert loaded.test_seen is not None
    assert set(loaded.class_priors) == bundle.split.unseen
    for cls, vec in bundle.semantics.vectors.items():
        np.testing.assert_allclose(loaded.semantics[cls], vec, atol=1e-15)


def test_tables_are_immutable(standard_benchmark):
    bundle, _, _ = standard_benchmark
    with pytest.raises(ValueError):
        bundle.train_seen.features[0, 0] = 7.0
