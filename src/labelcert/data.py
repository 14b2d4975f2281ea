"""Dataset ingestion, splitting, and synthetic generators.

CSV files are RFC-4180, UTF-8 (a leading byte-order mark is skipped), with a
mandatory header row; a numeric cell is what Python's `float` reads.
Categorical columns one-hot expand in first-appearance order; an all-ones bias
column can be appended as the last feature.  Numeric output is written at 17
significant digits so a write/load round trip is bit-identical.

Reads and writes are array operations that give the csv module's results.  A
file is read once and its numeric columns parse in one numpy pass; only a file
with a quote, a line break the csv module does not know, an ASCII separator
character or an over-long line goes through the csv module (`load_csv` lists
them).  `write_columns` writes the dataset, attack-label and `min_flips.csv`
files: whole columns formatted, one write, `\\r\\n` line ends like every CSV here.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    BadFeatureCount,
    BadFraction,
    MissingColumn,
    NonNumericValue,
    ParseError,
    TooFewRows,
)
from .linalg import Dataset

BIAS_COLUMN = "bias"


@dataclass(frozen=True)
class DatasetSchema:
    """Maps CSV columns to the dataset layout."""

    label: str
    features: tuple[str, ...]
    group: str | None = None
    categorical: tuple[str, ...] = ()
    add_bias_column: bool = False

    def __post_init__(self) -> None:
        features = tuple(self.features)
        categorical = tuple(self.categorical)
        if not features and not self.add_bias_column:
            raise ValueError("schema has no feature column: 'features' is empty "
                             "and add_bias_column is false")
        if self.label in features:
            raise ValueError(f"label column {self.label!r} also listed as a feature")
        names = [self.label, *features]
        if len(set(names)) != len(names):
            raise ValueError("schema column names must be unique")
        unknown = set(categorical) - set(features)
        if unknown:
            raise ValueError(f"categorical columns not among features: {sorted(unknown)}")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "categorical", categorical)


@dataclass(frozen=True)
class SplitConfig:
    """Train/validation/test fractions, or a fold count for cross-validation."""

    train: float = 0.8
    val: float = 0.1
    test: float = 0.1
    seed: int = 0
    folds: int = 1

    def __post_init__(self) -> None:
        for name, frac in (("train", self.train), ("val", self.val), ("test", self.test)):
            if not math.isfinite(frac) or frac <= 0:
                raise ValueError(f"{name} fraction must be positive, got {frac}")
        if abs(self.train + self.val + self.test - 1.0) > 1e-9:
            raise ValueError(
                f"fractions must sum to 1, got {self.train + self.val + self.test}"
            )
        if self.folds < 1:
            raise ValueError(f"fold count must be >= 1, got {self.folds}")


# Characters that send a file to the csv module (see `load_csv`).
_CSV_MODULE_CHARS = '"\v\f\x1c\x1d\x1e\x1f\x85\u2028\u2029'


class _Table:
    """A CSV file read once: its header and its data rows.

    `lines` holds the data rows unsplit when each row's cells are the text between
    its commas; `rows` then splits them on first use.  A file that only the csv
    module reads right has no `lines`, and `rows` comes from `csv.reader`.
    """

    def __init__(self, header: list[str], lines: list[str] | None,
                 rows: list[list[str]] | None = None) -> None:
        self.header, self.lines = header, lines
        if rows is not None:
            self.rows = rows

    @cached_property
    def rows(self) -> list[list[str]]:
        return [line.split(",") for line in self.lines]

    def __len__(self) -> int:
        return len(self.rows if self.lines is None else self.lines)

    def numbers(self, names: list[str], cols: list[int]) -> np.ndarray:
        """Columns `cols` of the data rows as an (n, len(cols)) array of finite floats.

        Unsplit lines parse in one numpy pass.  The csv module's rows, and lines whose
        numpy parse fails or gives a non-finite value, go column by column through
        `_column`, which raises NonNumericValue at the first bad cell."""
        if self.lines:
            try:
                values = np.loadtxt(self.lines, delimiter=",", usecols=cols, comments=None,
                                    ndmin=2)
            except ValueError:
                pass
            else:
                if np.isfinite(values).all():
                    return values
        return np.column_stack([_column(self.rows, col, name) for col, name in zip(cols, names)])

    def strings(self, col: int) -> list[str]:
        return [row[col] for row in self.rows]


def _read_table(path: str | Path) -> _Table:
    try:
        text = Path(path).read_bytes().decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    lines = text.splitlines()
    limit = csv.field_size_limit()
    if (any(char in text for char in _CSV_MODULE_CHARS)
            or (len(text) > limit and max(map(len, lines)) > limit)):
        try:
            rows = list(csv.reader(io.StringIO(text, newline="")))
        except csv.Error as exc:
            raise ParseError(f"{path}: {exc}") from exc
        widths = list(map(len, rows))
        table = _Table(rows[0] if rows else [], None, rows[1:])
    else:
        widths = [line.count(",") + 1 if line else 0 for line in lines]
        table = _Table(lines[0].split(",") if widths and widths[0] else [], lines[1:])
    if not widths:
        raise ParseError(f"{path}: file is empty, header row required")
    for ridx, fields in enumerate(widths[1:], start=2):
        if fields != widths[0]:
            raise ParseError(f"{path}: row {ridx} has {fields} fields, expected {widths[0]}")
    return table


def _cell(rows: list[list[str]], col: int, ridx: int, name: str) -> float:
    text = rows[ridx][col]
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise NonNumericValue(
            f"row {ridx + 2}, column {name!r}: cannot parse {text!r} as a finite number"
        )
    return value


def _column(rows: list[list[str]], col: int, name: str) -> np.ndarray:
    """Column `col` of the data rows as finite floats, in one pass when every cell
    parses to one; otherwise a cell-by-cell scan raises NonNumericValue at the first
    bad cell."""
    try:
        values = np.array([float(row[col]) for row in rows])
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    return np.array([_cell(rows, col, r, name) for r in range(len(rows))])


def load_csv(
    path: str | Path, schema: DatasetSchema, require_binary_labels: bool = False
) -> Dataset:
    """Load a CSV into a Dataset per the schema.

    Numeric features pass through; categorical features expand to one-hot
    columns named ``col=value`` in first-appearance order; the bias column,
    when requested, is appended last.  A column the schema reads must appear
    once in the header; duplicates of other columns are ignored.

    The file is read once.  Rows split at ``\\n``, ``\\r\\n`` and ``\\r`` and then at
    commas, and the numeric columns parse in one numpy pass; categorical and
    group cells are the text between commas.  Only a file holding one of these
    goes through the csv module instead, as the split or numpy could read it
    otherwise:

    - a quote, since a quoted cell may hold commas and line ends
    - a line break that ``str.splitlines`` knows and the csv module does not:
      ``\\v``, ``\\f``, U+001C-U+001E, U+0085, U+2028 or U+2029
    - U+001F, which numpy, like U+001C-U+001E, strips from a number as
      whitespace, while ``float`` refuses it
    - a line longer than ``csv.field_size_limit()``, so that the csv module
      can refuse a cell past that limit

    Either way the cells, values and errors are the same: a numeric cell is
    what Python's ``float`` reads, and a failed or non-finite numpy parse falls
    back to a cell-by-cell scan that names the first bad cell's row and column.
    """
    table = _read_table(path)
    header = table.header
    if not len(table):
        raise ParseError(f"{path}: no data rows")
    index = {name: i for i, name in enumerate(header)}
    for name in (schema.label, *schema.features, *((schema.group,) if schema.group else ())):
        if name not in index:
            raise MissingColumn(f"{path}: column {name!r} not in header {header}")
        if header.count(name) > 1:
            raise ParseError(f"{path}: column {name!r} appears {header.count(name)} times "
                             f"in header {header}")

    numeric = [name for name in schema.features if name not in schema.categorical]
    numeric.append(schema.label)
    values = table.numbers(numeric, [index[name] for name in numeric])
    columns: list[np.ndarray] = []
    names: list[str] = []
    for feature in schema.features:
        if feature in schema.categorical:
            cells = table.strings(index[feature])
            for cat in dict.fromkeys(cells):
                columns.append(np.array([cell == cat for cell in cells], dtype=float))
                names.append(f"{feature}={cat}")
        else:
            columns.append(values[:, numeric.index(feature)])
            names.append(feature)
    if schema.add_bias_column:
        columns.append(np.ones(len(table)))
        names.append(BIAS_COLUMN)

    y = values[:, -1]
    if require_binary_labels and not np.isin(y, (0.0, 1.0)).all():
        bad = int(np.argmax(~np.isin(y, (0.0, 1.0))))
        raise NonNumericValue(
            f"row {bad + 2}, column {schema.label!r}: classification labels must be 0 or 1, "
            f"got {y[bad]}"
        )

    groups = None
    if schema.group is not None:
        groups = tuple(table.strings(index[schema.group]))
    return Dataset(np.column_stack(columns), y, tuple(names), groups)


def _quote(cell: str) -> str:
    """`cell` as csv.writer's default dialect writes it: quoted, with its quotes
    doubled, when it holds a comma, a quote or a line end."""
    if any(char in cell for char in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def write_columns(path: str | Path, header: Sequence[str], columns: Sequence) -> None:
    """Write a CSV column by column, byte for byte as csv.writer's default dialect
    writes its rows (`\\r\\n` line ends, minimal quoting).

    Each column is formatted whole from its `.tolist()` values: a float array at
    17 significant digits, so that loading the file gives back the same bits, an
    integer or boolean array as integers, and anything else as strings.
    """
    cells = []
    for column in columns:
        kind = getattr(column, "dtype", np.dtype(object)).kind
        if kind == "f":
            cells.append(list(map("%.17g".__mod__, column.tolist())))
        elif kind in "biu":
            cells.append(list(map("%d".__mod__, column.tolist())))
        else:
            cells.append(list(map(_quote, column)))
    lines = [",".join(map(_quote, header)), *map(",".join, zip(*cells)), ""]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\r\n".join(lines))


def write_csv(dataset: Dataset, path: str | Path) -> None:
    """Write features, `label` (and `group`) columns with 17-significant-digit numerics."""
    header = [*dataset.feature_names, "label"]
    columns = [*dataset.X.T, dataset.y]
    if dataset.group_labels is not None:
        header.append("group")
        columns.append(dataset.group_labels)
    write_columns(path, header, columns)


def with_bias_column(dataset: Dataset) -> Dataset:
    """Append an all-ones intercept feature (needed for 0.5-threshold classification)."""
    return Dataset(
        np.column_stack([dataset.X, np.ones(dataset.n)]),
        dataset.y,
        (*dataset.feature_names, BIAS_COLUMN),
        dataset.group_labels,
    )


def fold_rows(n: int, config: SplitConfig) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Row indices `(train, val, test)` of every fold of a deterministic partition.

    With one fold, a holdout split of sizes floor(n*train), floor(n*val) and
    the remainder.  With k folds, k disjoint test folds cover every row, and
    each fold's val rows (possibly none) are carved out of the other folds'
    rows at the train:val ratio.
    """
    perm = np.random.default_rng(config.seed).permutation(n)
    if config.folds <= 1:
        n_train = int(n * config.train + 1e-9)
        n_val = int(n * config.val + 1e-9)
        if n_train < 1 or n_val < 1 or n - n_train - n_val < 1:
            raise TooFewRows(
                f"{n} rows cannot fill a {config.train}/{config.val}/{config.test} split"
            )
        return [(perm[:n_train], perm[n_train : n_train + n_val], perm[n_train + n_val :])]
    if n < config.folds:
        raise TooFewRows(f"{n} rows cannot form {config.folds} folds")
    folds = np.array_split(perm, config.folds)
    out = []
    for i, test in enumerate(folds):
        rest = np.concatenate(folds[:i] + folds[i + 1 :])
        n_val = int(rest.size * (config.val / (config.train + config.val)))
        carve = np.random.default_rng((config.seed, i)).permutation(rest.size)
        out.append((rest[carve[n_val:]], rest[carve[:n_val]], test))
    return out


def split(dataset: Dataset, config: SplitConfig) -> tuple[Dataset, Dataset, Dataset]:
    """Deterministic train/validation/test partition: `fold_rows`' holdout split.

    The three parts are disjoint and exhaustive; `config.folds` is ignored.
    """
    rows = fold_rows(dataset.n, replace(config, folds=1))[0]
    return tuple(dataset.subset(part) for part in rows)


# Class-conditional feature means for the synthetic classification task,
# indexed by label; all features have unit variance.
_SYNTH_MEANS = {
    1.0: (0.5, 1.0, 0.5, -1.0, 0.0),
    0.0: (-0.5, 1.0, -0.5, 1.0, 0.0),
}


def synth_classification(n: int, num_features: int, seed: int = 0) -> Dataset:
    """Balanced two-class Gaussian data with 3, 4 or 5 features.

    Features 1 and 3 separate the classes at +-0.5, feature 4 at -+1,
    features 2 and 5 are uninformative.
    """
    if num_features not in (3, 4, 5):
        raise BadFeatureCount(f"num_features must be 3, 4 or 5, got {num_features}")
    if n < 2 or n % 2:
        raise ValueError(f"n must be even and >= 2 for balanced classes, got {n}")
    rng = np.random.default_rng(seed)
    half = n // 2
    labels = np.concatenate([np.ones(half), np.zeros(half)])
    X = np.empty((n, num_features))
    for j in range(num_features):
        means = np.where(labels == 1.0, _SYNTH_MEANS[1.0][j], _SYNTH_MEANS[0.0][j])
        X[:, j] = rng.normal(means, 1.0)
    order = rng.permutation(n)
    names = tuple(f"f{j + 1}" for j in range(num_features))
    return Dataset(X[order], labels[order], names)


# Component means for the demographic generator, keyed by (group, label).
DEMOGRAPHIC_MEANS = {
    ("majority", 1.0): (1.0, 1.0),
    ("majority", 0.0): (-1.0, -1.0),
    ("minority", 1.0): (0.5, 1.5),
    ("minority", 0.0): (-0.5, -1.5),
}


def synth_demographic(n: int, minority_fraction: float, seed: int = 0) -> Dataset:
    """Two-feature, two-group Gaussian mixture with balanced classes per group.

    Each group draws from its own pair of unit-covariance components (one per
    class); the minority share of rows is round(n * minority_fraction).
    """
    if not 0 < minority_fraction <= 0.5:
        raise BadFraction(f"minority fraction must be in (0, 0.5], got {minority_fraction}")
    if n < 4:
        raise ValueError(f"need at least 4 rows, got {n}")
    rng = np.random.default_rng(seed)
    n_minority = int(n * minority_fraction + 0.5)
    n_minority = max(1, min(n_minority, n - 1))

    X_parts, y_parts, g_parts = [], [], []
    for group, count in (("majority", n - n_minority), ("minority", n_minority)):
        ones = count - count // 2
        labels = np.concatenate([np.ones(ones), np.zeros(count // 2)])
        means = np.array([DEMOGRAPHIC_MEANS[(group, lab)] for lab in labels])
        X_parts.append(rng.normal(means, 1.0))
        y_parts.append(labels)
        g_parts.extend([group] * count)
    X = np.vstack(X_parts)
    y = np.concatenate(y_parts)
    groups = np.array(g_parts)
    order = rng.permutation(n)
    return Dataset(X[order], y[order], ("f1", "f2"), tuple(groups[order]))


def read_delta_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read per-label interval bounds from a two-column (lo, hi) CSV."""
    table = _read_table(path)
    lowered = [h.strip().lower() for h in table.header]
    if lowered[:2] != ["lo", "hi"]:
        raise ParseError(f"{path}: expected header 'lo,hi', got {table.header}")
    lo, hi = table.numbers(["lo", "hi"], [0, 1]).T
    return lo, hi
