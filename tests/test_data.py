"""Tests for CSV ingestion, splitting, and the synthetic generators."""

import numpy as np
import pytest

from labelcert import Dataset, synth_classification, synth_demographic
from labelcert.data import (
    DatasetSchema,
    SplitConfig,
    fold_rows,
    load_csv,
    read_delta_csv,
    schema_for,
    split,
    write_csv,
)
from labelcert.errors import (
    BadFeatureCount,
    BadFraction,
    MissingColumn,
    NonNumericValue,
    ParseError,
    TooFewRows,
)


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_numeric_features(self, tmp_path):
        path = _write(tmp_path, "a,b,target\n1,2,0\n3,4,1\n5,6,0\n")
        ds = load_csv(path, DatasetSchema(label="target", features=("a", "b")))
        assert ds.X.shape == (3, 2)
        np.testing.assert_array_equal(ds.y, [0.0, 1.0, 0.0])

    def test_bias_column_appended_last(self, tmp_path):
        path = _write(tmp_path, "a,b,target\n1,2,0\n3,4,1\n5,6,0\n")
        schema = DatasetSchema(label="target", features=("a", "b"), add_bias_column=True)
        ds = load_csv(path, schema)
        assert ds.X.shape == (3, 3)
        np.testing.assert_array_equal(ds.X[:, 2], np.ones(3))
        assert ds.feature_names[-1] == "bias"

    def test_one_hot_first_appearance_order(self, tmp_path):
        path = _write(tmp_path, "color,target\nA,1\nB,0\nA,1\n")
        schema = DatasetSchema(label="target", features=("color",), categorical=("color",))
        ds = load_csv(path, schema)
        assert ds.feature_names == ("color=A", "color=B")
        np.testing.assert_array_equal(ds.X, [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])

    def test_group_column(self, tmp_path):
        path = _write(tmp_path, "a,target,race\n1,0,X\n2,1,Y\n")
        schema = DatasetSchema(label="target", features=("a",), group="race")
        ds = load_csv(path, schema)
        assert ds.group_labels == ("X", "Y")

    def test_missing_column(self, tmp_path):
        path = _write(tmp_path, "a,target\n1,0\n")
        with pytest.raises(MissingColumn):
            load_csv(path, DatasetSchema(label="target", features=("a", "missing")))

    @pytest.mark.parametrize("header,duplicate",
                             [("f1,f1,label", "f1"), ("f1,label,label", "label")])
    def test_duplicate_schema_column_rejected(self, tmp_path, header, duplicate):
        path = _write(tmp_path, f"{header}\n1,2,0\n3,4,1\n")
        with pytest.raises(ParseError, match=rf"data\.csv: column '{duplicate}' appears 2 times"):
            load_csv(path, DatasetSchema(label="label", features=("f1",)))

    def test_duplicate_unused_column_loads(self, tmp_path):
        path = _write(tmp_path, "f1,x,x,label\n1,7,8,0\n3,9,10,1\n")
        ds = load_csv(path, DatasetSchema(label="label", features=("f1",)))
        np.testing.assert_array_equal(ds.X, [[1.0], [3.0]])
        np.testing.assert_array_equal(ds.y, [0.0, 1.0])

    def test_non_numeric_cell_reports_location(self, tmp_path):
        path = _write(tmp_path, "a,target\n1,0\noops,1\n")
        with pytest.raises(NonNumericValue, match="row 3"):
            load_csv(path, DatasetSchema(label="target", features=("a",)))

    @pytest.mark.parametrize("text,row,column", [
        ("a,target\n1,0\n2,1\nx,0\n", 4, "a"),         # last row, feature column
        ("a,target\n1,0\n2,?\n3,1\n", 3, "target"),    # label column
        ("a,target\n1,0\n2,1\n3,\n", 4, "target"),     # empty cell in the last row
    ])
    def test_bad_cell_named_by_row_and_column(self, tmp_path, text, row, column):
        path = _write(tmp_path, text)
        with pytest.raises(NonNumericValue, match=rf"^row {row}, column '{column}': cannot parse"):
            load_csv(path, DatasetSchema(label="target", features=("a",)))

    def test_cells_parse_as_python_float(self, tmp_path):
        cells = [" 1.5 ", "1e-3", "+2", "-0", "7"]
        body = "".join(f"{cell},{i % 2}\n" for i, cell in enumerate(cells))
        ds = load_csv(_write(tmp_path, "a,target\n" + body),
                      DatasetSchema(label="target", features=("a",)))
        np.testing.assert_array_equal(ds.X[:, 0], [float(cell) for cell in cells])
        np.testing.assert_array_equal(ds.y, [i % 2 for i in range(len(cells))])
        # non-finite cells parse but are refused, named by row and column
        for text, where in (("a,target\n1,0\nnan,1\n", "row 3, column 'a'"),
                            ("a,target\n1,0\n2,1\n3, inf\n", "row 4, column 'target'")):
            with pytest.raises(NonNumericValue, match=rf"^{where}: cannot parse"):
                load_csv(_write(tmp_path, text), DatasetSchema(label="target", features=("a",)))

    def test_categorical_and_group_columns_beside_numeric_ones(self, tmp_path):
        path = _write(tmp_path, "a,color,target,race\n1.25,B,0,X\n-2,A,1,Y\n3,B,1,X\n")
        schema = DatasetSchema(label="target", features=("a", "color"), group="race",
                               categorical=("color",), add_bias_column=True)
        ds = load_csv(path, schema)
        assert ds.feature_names == ("a", "color=B", "color=A", "bias")
        np.testing.assert_array_equal(ds.X, [[1.25, 1, 0, 1], [-2, 0, 1, 1], [3, 1, 0, 1]])
        np.testing.assert_array_equal(ds.y, [0.0, 1.0, 1.0])
        assert ds.group_labels == ("X", "Y", "X")

    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes("\ufeffa,target\r\n1,0\r\n2,1".encode("utf-8"))
        ds = load_csv(path, DatasetSchema(label="target", features=("a",)))
        np.testing.assert_array_equal(ds.X, [[1.0], [2.0]])
        np.testing.assert_array_equal(ds.y, [0.0, 1.0])

    def test_ragged_row_rejected(self, tmp_path):
        path = _write(tmp_path, "a,b,target\n1,2,0\n3,4\n")
        with pytest.raises(ParseError, match="row 3"):
            load_csv(path, DatasetSchema(label="target", features=("a", "b")))

    def test_empty_file_rejected(self, tmp_path):
        path = _write(tmp_path, "")
        with pytest.raises(ParseError):
            load_csv(path, DatasetSchema(label="target", features=("a",)))

    def test_binary_validation(self, tmp_path):
        path = _write(tmp_path, "a,target\n1,0.5\n")
        schema = DatasetSchema(label="target", features=("a",))
        load_csv(path, schema)  # fine for regression
        with pytest.raises(NonNumericValue):
            load_csv(path, schema, require_binary_labels=True)

    def test_round_trip_bit_identical(self, tmp_path, rng):
        ds = Dataset(rng.normal(size=(20, 3)), rng.normal(size=20), group_labels=("g",) * 20)
        path = tmp_path / "roundtrip.csv"
        write_csv(ds, path)
        again = load_csv(path, schema_for(ds))
        np.testing.assert_array_equal(again.X, ds.X)
        np.testing.assert_array_equal(again.y, ds.y)
        assert again.group_labels == ds.group_labels


class TestSchema:
    def test_label_cannot_be_feature(self):
        with pytest.raises(ValueError):
            DatasetSchema(label="a", features=("a", "b"))

    def test_unknown_categorical(self):
        with pytest.raises(ValueError):
            DatasetSchema(label="y", features=("a",), categorical=("b",))

    def test_needs_a_feature_column(self):
        with pytest.raises(ValueError, match="'features'"):
            DatasetSchema(label="y", features=())
        assert DatasetSchema(label="y", features=(), add_bias_column=True).features == ()


class TestSplit:
    def test_example_sizes(self, rng):
        ds = Dataset(rng.normal(size=(10, 2)), rng.normal(size=10))
        train, val, test = split(ds, SplitConfig(seed=3))
        assert (train.n, val.n, test.n) == (8, 1, 1)

    def test_deterministic(self, rng):
        ds = Dataset(rng.normal(size=(30, 2)), rng.normal(size=30))
        a = split(ds, SplitConfig(seed=7))
        b = split(ds, SplitConfig(seed=7))
        for part_a, part_b in zip(a, b):
            np.testing.assert_array_equal(part_a.X, part_b.X)

    def test_exact_partition(self, rng):
        ds = Dataset(rng.normal(size=(25, 1)), np.arange(25.0))
        train, val, test = split(ds, SplitConfig(seed=1))
        combined = np.sort(np.concatenate([train.y, val.y, test.y]))
        np.testing.assert_array_equal(combined, np.arange(25.0))

    def test_too_few_rows(self, rng):
        ds = Dataset(rng.normal(size=(2, 1)), np.ones(2))
        with pytest.raises(TooFewRows):
            split(ds, SplitConfig())

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            SplitConfig(train=0.5, val=0.2, test=0.2)
        with pytest.raises(ValueError):
            SplitConfig(train=0.0, val=0.5, test=0.5)


class TestKFold:
    def test_disjoint_exhaustive(self):
        folds = fold_rows(100, SplitConfig(seed=2, folds=10))
        assert len(folds) == 10
        seen = np.concatenate([test for _, _, test in folds])
        assert len(seen) == 100 and len(set(seen)) == 100
        for train, val, test in folds:
            # val is carved out of the other folds at the 0.8:0.1 ratio
            assert (train.size, val.size, test.size) == (80, 10, 10)
            np.testing.assert_array_equal(np.sort(np.concatenate([train, val, test])),
                                          np.arange(100))

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            fold_rows(3, SplitConfig(folds=5))


class TestSynthClassification:
    def test_class_conditional_means(self):
        ds = synth_classification(1000, 3, seed=11)
        f1_pos = ds.X[ds.y == 1.0, 0].mean()
        f1_neg = ds.X[ds.y == 0.0, 0].mean()
        assert abs(f1_pos - 0.5) < 0.15
        assert abs(f1_neg + 0.5) < 0.15

    def test_common_feature_mean(self):
        ds = synth_classification(1000, 3, seed=11)
        assert abs(ds.X[:, 1].mean() - 1.0) < 0.15

    def test_balanced_classes(self):
        ds = synth_classification(500, 4, seed=0)
        assert (ds.y == 1.0).sum() == 250

    def test_deterministic(self):
        a = synth_classification(100, 5, seed=9)
        b = synth_classification(100, 5, seed=9)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)

    def test_feature_count_guard(self):
        with pytest.raises(BadFeatureCount):
            synth_classification(100, 6, seed=0)

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            synth_classification(101, 3, seed=0)


class TestSynthDemographic:
    def test_minority_count(self):
        ds = synth_demographic(1000, 0.25, seed=4)
        assert sum(g == "minority" for g in ds.group_labels) == 250

    def test_class_balance_per_group(self):
        ds = synth_demographic(1000, 0.25, seed=4)
        for group in ("majority", "minority"):
            mask = np.array([g == group for g in ds.group_labels])
            balance = ds.y[mask].mean()
            assert abs(balance - 0.5) < 0.1

    def test_deterministic(self):
        a = synth_demographic(200, 0.1, seed=5)
        b = synth_demographic(200, 0.1, seed=5)
        np.testing.assert_array_equal(a.X, b.X)
        assert a.group_labels == b.group_labels

    def test_fraction_guard(self):
        for bad in (0.0, 0.6, -0.1):
            with pytest.raises(BadFraction):
                synth_demographic(100, bad, seed=0)


class TestDeltaCsv:
    def test_round_trip(self, tmp_path):
        path = _write(tmp_path, "lo,hi\n-1,0\n0,2.5\n", name="delta.csv")
        lo, hi = read_delta_csv(path)
        np.testing.assert_array_equal(lo, [-1.0, 0.0])
        np.testing.assert_array_equal(hi, [0.0, 2.5])

    def test_cells_parse_as_python_float(self, tmp_path):
        path = _write(tmp_path, "lo,hi\n-0, 2.5 \n-1e-3,+1\n", name="delta.csv")
        lo, hi = read_delta_csv(path)
        np.testing.assert_array_equal(lo, [-0.0, -1e-3])
        np.testing.assert_array_equal(hi, [2.5, 1.0])
        # non-finite bounds parse but are refused, named by row and column
        path = _write(tmp_path, "lo,hi\n-1,0\n0,1\nnan, inf \n", name="delta.csv")
        with pytest.raises(NonNumericValue, match=r"^row 4, column 'lo': cannot parse 'nan'"):
            read_delta_csv(path)

    def test_bad_cell_named_by_row_and_column(self, tmp_path):
        path = _write(tmp_path, "lo,hi\n-1,0\n0,high\n", name="delta.csv")
        with pytest.raises(NonNumericValue, match="row 3, column 'hi'"):
            read_delta_csv(path)

    def test_bad_header(self, tmp_path):
        path = _write(tmp_path, "a,b\n1,2\n", name="delta.csv")
        with pytest.raises(ParseError):
            read_delta_csv(path)
