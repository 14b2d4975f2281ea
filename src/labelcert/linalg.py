"""Closed-form ridge least squares and the label-influence quantities built on it.

Fitting is the normal-equations solve theta = (X'X + lam*I)^-1 X'y via a
symmetric positive-definite factorization.  The influence matrix
C = (X'X + lam*I)^-1 X' maps labels to coefficients; one row of x' C maps
labels to the prediction at a test point.  Everything downstream
(certification, hulls, attacks) is linear algebra over these two objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import cho_factor
from scipy.linalg.lapack import dpotrs

from .errors import DimensionMismatch, SingularMatrix

# Smallest admissible Cholesky pivot, relative to the largest Gram diagonal.
PIVOT_RATIO_THRESHOLD = 1e-12
# Most right-hand-side entries per triangular solve in `fit`.  OpenBLAS runs
# larger solves on several threads, and its idle worker then busy-waits for
# about 0.1 s, taking CPU from whatever runs next; a column's solution does
# not depend on how many columns are solved together.
SOLVE_ELEMS = 1023


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Dataset:
    """Feature matrix, label vector, and optional per-row group tags.

    Arrays are copied and marked read-only on construction, so a Dataset can
    be shared freely across threads.
    """

    X: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...] | None = None
    group_labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        X = np.array(self.X, dtype=float)
        y = np.array(self.y, dtype=float)
        if X.ndim != 2:
            raise DimensionMismatch(f"X must be 2-d, got shape {X.shape}")
        if y.ndim != 1:
            raise DimensionMismatch(f"y must be 1-d, got shape {y.shape}")
        n, m = X.shape
        if n < 1 or m < 1:
            raise ValueError("dataset needs at least one row and one feature")
        if len(y) != n:
            raise DimensionMismatch(f"{n} rows but {len(y)} labels")
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise ValueError("dataset contains non-finite values")
        names = self.feature_names
        names = tuple(f"x{j}" for j in range(m)) if names is None else tuple(names)
        if len(names) != m:
            raise DimensionMismatch(f"{m} columns but {len(names)} feature names")
        groups = self.group_labels
        if groups is not None:
            groups = tuple(str(g) for g in groups)
            if len(groups) != n:
                raise DimensionMismatch(f"{n} rows but {len(groups)} group labels")
        object.__setattr__(self, "X", _frozen(X))
        object.__setattr__(self, "y", _frozen(y))
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "group_labels", groups)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def m(self) -> int:
        return self.X.shape[1]

    def subset(self, rows: Sequence[int] | np.ndarray) -> "Dataset":
        """New dataset restricted to the given row indices (order preserved)."""
        rows = np.asarray(rows, dtype=int)
        groups = None
        if self.group_labels is not None:
            groups = tuple(self.group_labels[i] for i in rows)
        return Dataset(self.X[rows], self.y[rows], self.feature_names, groups)

    def with_labels(self, y: np.ndarray) -> "Dataset":
        """Same rows and features, different labels (used when refitting)."""
        return Dataset(self.X, y, self.feature_names, self.group_labels)


@dataclass(frozen=True)
class ModelCoefficients:
    """Fitted coefficient vector together with the ridge strength that produced it."""

    values: np.ndarray
    lam: float

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if values.ndim != 1:
            raise DimensionMismatch(f"coefficients must be 1-d, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("coefficients contain non-finite values")
        _check_lam(self.lam)
        object.__setattr__(self, "values", _frozen(values))
        object.__setattr__(self, "lam", float(self.lam))


@dataclass(frozen=True)
class InfluenceMatrix:
    """m-by-n map from training labels to fitted coefficients: (X'X + lam*I)^-1 X'."""

    values: np.ndarray
    lam: float

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if values.ndim != 2:
            raise DimensionMismatch(f"influence matrix must be 2-d, got shape {values.shape}")
        _check_lam(self.lam)
        object.__setattr__(self, "values", _frozen(values))
        object.__setattr__(self, "lam", float(self.lam))

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


def _check_lam(lam: float) -> None:
    if not math.isfinite(lam) or lam < 0:
        raise ValueError(f"ridge strength must be finite and >= 0, got {lam}")


def fit(dataset: Dataset, lam: float = 0.0) -> tuple[ModelCoefficients, InfluenceMatrix]:
    """Fit theta = C y together with the influence matrix C = (X'X + lam*I)^-1 X'.

    One factorization serves every label vector: C @ y' is the refit for any
    labels y', so C amortizes over any number of test points and label
    variants.  Raises SingularMatrix when X'X + lam*I is not safely positive
    definite (typically lam = 0 with collinear features).
    """
    _check_lam(lam)
    gram = dataset.X.T @ dataset.X + lam * np.eye(dataset.m)
    try:
        factor = cho_factor(gram, lower=True)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(
            f"X'X + {lam}*I is not positive definite; increase the ridge strength"
        ) from exc
    pivots = np.diag(factor[0]) ** 2
    if pivots.min() < PIVOT_RATIO_THRESHOLD * np.diag(gram).max():
        raise SingularMatrix(
            f"X'X + {lam}*I is numerically singular "
            f"(pivot ratio {pivots.min() / np.diag(gram).max():.3e}); "
            "increase the ridge strength"
        )
    C = np.empty((dataset.m, dataset.n), order="F")
    step = max(1, SOLVE_ELEMS // dataset.m)
    for start in range(0, dataset.n, step):
        rows = slice(start, start + step)
        # LAPACK directly: `cho_solve`'s checks cost more than these small solves
        C[:, rows], info = dpotrs(factor[0], dataset.X[rows].T, lower=1)
        if info:
            raise RuntimeError(f"dpotrs failed with info={info}")
    return ModelCoefficients(C @ dataset.y, lam), InfluenceMatrix(C, lam)


def influence_vector(x: np.ndarray, influence: InfluenceMatrix) -> np.ndarray:
    """Label-to-prediction sensitivities x' C for one test point (length n).

    The i-th entry is the marginal effect of training label i on the
    prediction at x; the dot product with any label vector reproduces the
    refit prediction exactly.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (influence.m,):
        raise DimensionMismatch(f"test point has shape {x.shape}, expected ({influence.m},)")
    return _frozen(x @ influence.values)


def predict(coefficients: ModelCoefficients, x: np.ndarray) -> float:
    """The linear model at a point x (m,), summed elementwise."""
    x = np.asarray(x, dtype=float)
    if x.shape != coefficients.values.shape:
        raise DimensionMismatch(
            f"test point has shape {x.shape}, expected ({coefficients.values.size},)"
        )
    return float((x * coefficients.values).sum())
