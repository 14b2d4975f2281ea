"""Tests for CSV ingestion, splitting, and the synthetic generators."""

import csv
import io

import numpy as np
import pytest

from labelcert import Dataset, data, synth_classification, synth_demographic
from labelcert.data import (
    DatasetSchema,
    SplitConfig,
    fold_rows,
    load_csv,
    read_delta_csv,
    split,
    write_csv,
)
from labelcert.errors import (
    BadFeatureCount,
    BadFraction,
    LabelCertError,
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
        cells = [" 1.5 ", "1e-3", "+2", "-0", "7", "1_000", "\u0661\u0662", "\xa03\u2007"]
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
        again = load_csv(path, DatasetSchema(label="label", features=ds.feature_names,
                                             group="group"))
        np.testing.assert_array_equal(again.X, ds.X)
        np.testing.assert_array_equal(again.y, ds.y)
        assert again.group_labels == ds.group_labels


def _quoted(text):
    """The same table with every cell quoted, so that the csv module reads it."""
    bom = "\ufeff" if text.startswith("\ufeff") else ""
    buffer = io.StringIO()
    csv.writer(buffer, quoting=csv.QUOTE_ALL).writerows(
        csv.reader(io.StringIO(text.removeprefix("\ufeff"), newline="")))
    return bom + buffer.getvalue()


def _outcome(read, path):
    """What `read` gives for the file: its arrays' bits and shapes and its other
    fields, or the error's type and message."""
    try:
        result = read(path)
    except LabelCertError as exc:
        return type(exc), str(exc).replace(str(path), "<file>")
    if isinstance(result, Dataset):
        result = (result.X, result.y, result.feature_names, result.group_labels)
    return [(a.tobytes(), a.shape) if isinstance(a, np.ndarray) else a for a in result]


_SCHEMA = DatasetSchema(label="hi", features=("lo",))
_GROUPED = DatasetSchema(label="hi", features=("lo", "color"), group="race",
                         categorical=("color",), add_bias_column=True)

# (text, schema, what load_csv gives: None when the file loads, else the error
# type and the start of its message)
_PARITY = {
    "bom-crlf": ("\ufefflo,hi\r\n1,-0\r\n-2.5,1\r\n", _SCHEMA, None),
    "blank-middle-line": ("lo,hi\n1,0\n\n2,1\n", _SCHEMA,
                          (ParseError, "<file>: row 3 has 0 fields, expected 2")),
    "trailing-crlf-crlf": ("lo,hi\r\n1,0\r\n2,1\r\n\r\n", _SCHEMA,
                           (ParseError, "<file>: row 4 has 0 fields, expected 2")),
    "short-row-unused-after": ("lo,hi,x,z\n1,0,5,6\n2,1,5\n", _SCHEMA,
                               (ParseError, "<file>: row 3 has 3 fields, expected 4")),
    "underscore-and-arabic-digits": ("lo,hi\n1_000,0\n\u0661\u0662,1\n", _SCHEMA, None),
    "quoted-numbers": ('lo,hi\n"1.5",0\n2,"1"\n', _SCHEMA, None),
    "nul-byte": ("lo,hi\n1\x00,0\n", _SCHEMA,
                 (NonNumericValue, "row 2, column 'lo': cannot parse '1\\x00'")),
    "nan": ("lo,hi\n1,0\nnan,1\n", _SCHEMA,
            (NonNumericValue, "row 3, column 'lo': cannot parse 'nan'")),
    "space-inf": ("lo,hi\n1,0\n2, inf\n", _SCHEMA,
                  (NonNumericValue, "row 3, column 'hi': cannot parse ' inf'")),
    "empty-cell": ("lo,hi\n1,\n", _SCHEMA,
                   (NonNumericValue, "row 2, column 'hi': cannot parse ''")),
    "duplicate-unused-column": ("lo,hi,x,x\n1,0,7,8\n-3,1,9,10\n", _SCHEMA, None),
    "categorical-and-group": ("lo,hi,color,race\n1.25,0,B,X\n-2,1,A,Y\n3,1,B,X\n",
                              _GROUPED, None),
    "lone-cr-line-ends": ("lo,hi\r1,0\r\n2,1\n3,0\r", _SCHEMA, None),
    "cr-inside-row": ("lo,hi\n1,\r0\n", _SCHEMA,
                      (ParseError, "<file>: row 3 has 1 fields, expected 2")),
    "separator-char": ("lo,hi\n\x1c1,0\n", _SCHEMA,
                       (NonNumericValue, "row 2, column 'lo': cannot parse '\\x1c1'")),
    "form-feed-and-line-separator": ("lo,hi\n1\x0c,0\n2\u2028,1\n", _SCHEMA, None),
    "header-only": ("lo,hi\n", _SCHEMA, (ParseError, "<file>: no data rows")),
}


class TestLoadParity:
    """Every file reads as the csv module and `float` read it: the same arrays, bit for
    bit, or the same error.  Quoting every cell gives the csv module's reading."""

    @pytest.mark.parametrize("case", list(_PARITY))
    @pytest.mark.parametrize("reader", ["load_csv", "read_delta_csv"])
    def test_same_as_csv_module(self, tmp_path, case, reader):
        text, schema, expected = _PARITY[case]
        read = read_delta_csv if reader == "read_delta_csv" else (
            lambda path: load_csv(path, schema))
        plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
        plain.write_bytes(text.encode("utf-8"))
        quoted.write_bytes(_quoted(text).encode("utf-8"))
        outcome = _outcome(read, plain)
        assert outcome == _outcome(read, quoted)
        if reader == "load_csv":
            if expected is None:
                assert isinstance(outcome, list), outcome
            else:
                assert outcome[0] is expected[0] and outcome[1].startswith(expected[1]), outcome

    def test_values_and_signed_zero(self, tmp_path):
        path = _write(tmp_path, _PARITY["bom-crlf"][0])
        ds = load_csv(path, _SCHEMA)
        np.testing.assert_array_equal(ds.X[:, 0], [1.0, -2.5])
        assert np.signbit(ds.y).tolist() == [True, False]
        lo, hi = read_delta_csv(path)
        assert np.signbit(hi).tolist() == [True, False]
        ds = load_csv(_write(tmp_path, _PARITY["underscore-and-arabic-digits"][0]), _SCHEMA)
        np.testing.assert_array_equal(ds.X[:, 0], [1000.0, 12.0])

    def test_field_past_csv_size_limit(self, tmp_path):
        path = _write(tmp_path, f"lo,hi\n1,{'0' * (csv.field_size_limit() + 1)}\n")
        for read in (read_delta_csv, lambda p: load_csv(p, _SCHEMA)):
            with pytest.raises(ParseError, match="field larger than field limit"):
                read(path)

    def test_plain_file_takes_neither_csv_module_nor_cell_scan(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("not on the numpy path")

        text = "lo,hi,color\r\n" + "".join(f"{i / 7},{i % 2},c{i % 3}\r\n" for i in range(40))
        monkeypatch.setattr(data.csv, "reader", refuse)
        monkeypatch.setattr(data, "_column", refuse)
        ds = load_csv(_write(tmp_path, text), DatasetSchema(
            label="hi", features=("lo", "color"), categorical=("color",)))
        np.testing.assert_array_equal(ds.X[:, 0], [i / 7 for i in range(40)])
        assert ds.feature_names == ("lo", "color=c0", "color=c1", "color=c2")
        # a cell numpy refuses goes to the cell-by-cell scan
        with pytest.raises(AssertionError, match="numpy path"):
            load_csv(_write(tmp_path, "lo,hi\n1_000,0\n"), _SCHEMA)


class TestWriteCsv:
    def test_golden_bytes(self, tmp_path):
        ds = Dataset(np.array([[0.1, -0.0], [1e-300, 2.5], [-1 / 3, 1e16]]),
                     np.array([-0.0, 1.0, 0.1]), ("a", "b c"), ("g1", 'x,"y"', ""))
        path = tmp_path / "golden.csv"
        write_csv(ds, path)
        assert path.read_bytes() == (
            b'a,b c,label,group\r\n'
            b'0.10000000000000001,-0,-0,g1\r\n'
            b'1e-300,2.5,1,"x,""y"""\r\n'
            b'-0.33333333333333331,10000000000000000,0.10000000000000001,\r\n'
        )

    def test_matches_csv_writer(self, tmp_path, rng):
        groups = ("", "a,b", 'say "hi"', "cr\rhere", "lf\nhere", " pad ", "plain")
        ds = Dataset(rng.normal(size=(7, 2)) * 10.0 ** rng.integers(-300, 300, size=(7, 2)),
                     rng.normal(size=7), ("x,1", 'q"'), groups)
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow([*ds.feature_names, "label", "group"])
        for i in range(ds.n):
            writer.writerow([*(f"{v:.17g}" for v in ds.X[i]), f"{ds.y[i]:.17g}", groups[i]])
        path = tmp_path / "out.csv"
        write_csv(ds, path)
        assert path.read_bytes() == buffer.getvalue().encode("utf-8")


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
