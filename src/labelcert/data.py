"""Dataset ingestion, splitting, and synthetic generators.

CSV files are RFC-4180, UTF-8 (a leading byte-order mark is skipped), with a
mandatory header row.  Categorical columns one-hot expand in first-appearance
order; an all-ones bias column can be appended as the last feature.  Numeric
output is written at 17 significant digits so a write/load round trip is
bit-identical.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
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


def _read_rows(path: str | Path) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path, encoding="utf-8-sig", newline="") as handle:
            reader = csv.reader(handle)
            rows = list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not rows:
        raise ParseError(f"{path}: file is empty, header row required")
    header, body = rows[0], rows[1:]
    width = len(header)
    for ridx, row in enumerate(body, start=2):
        if len(row) != width:
            raise ParseError(f"{path}: row {ridx} has {len(row)} fields, expected {width}")
    return header, body


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
    """
    header, body = _read_rows(path)
    if not body:
        raise ParseError(f"{path}: no data rows")
    index = {name: i for i, name in enumerate(header)}
    for name in (schema.label, *schema.features, *((schema.group,) if schema.group else ())):
        if name not in index:
            raise MissingColumn(f"{path}: column {name!r} not in header {header}")
        if header.count(name) > 1:
            raise ParseError(f"{path}: column {name!r} appears {header.count(name)} times "
                             f"in header {header}")

    columns: list[np.ndarray] = []
    names: list[str] = []
    for feature in schema.features:
        col = index[feature]
        if feature in schema.categorical:
            categories: list[str] = []
            for row in body:
                if row[col] not in categories:
                    categories.append(row[col])
            for cat in categories:
                columns.append(np.array([1.0 if row[col] == cat else 0.0 for row in body]))
                names.append(f"{feature}={cat}")
        else:
            columns.append(_column(body, col, feature))
            names.append(feature)
    if schema.add_bias_column:
        columns.append(np.ones(len(body)))
        names.append(BIAS_COLUMN)

    y = _column(body, index[schema.label], schema.label)
    if require_binary_labels and not np.isin(y, (0.0, 1.0)).all():
        bad = int(np.argmax(~np.isin(y, (0.0, 1.0))))
        raise NonNumericValue(
            f"row {bad + 2}, column {schema.label!r}: classification labels must be 0 or 1, "
            f"got {y[bad]}"
        )

    groups = None
    if schema.group is not None:
        gcol = index[schema.group]
        groups = tuple(row[gcol] for row in body)
    return Dataset(np.column_stack(columns), y, tuple(names), groups)


def write_csv(dataset: Dataset, path: str | Path) -> None:
    """Write features, `label` (and `group`) columns with 17-significant-digit numerics."""
    header = [*dataset.feature_names, "label"]
    if dataset.group_labels is not None:
        header.append("group")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for i in range(dataset.n):
            row = [f"{v:.17g}" for v in dataset.X[i]] + [f"{dataset.y[i]:.17g}"]
            if dataset.group_labels is not None:
                row.append(dataset.group_labels[i])
            writer.writerow(row)


def schema_for(dataset: Dataset) -> DatasetSchema:
    """Schema that reloads a file produced by write_csv for this dataset."""
    return DatasetSchema(
        label="label",
        features=dataset.feature_names,
        group="group" if dataset.group_labels is not None else None,
    )


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
    header, body = _read_rows(path)
    lowered = [h.strip().lower() for h in header]
    if lowered[:2] != ["lo", "hi"]:
        raise ParseError(f"{path}: expected header 'lo,hi', got {header}")
    lo = _column(body, 0, "lo")
    hi = _column(body, 1, "hi")
    return lo, hi
