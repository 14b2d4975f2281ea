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
# Most entries per `dpotrs` right-hand side and per row-block product in `fit`.
# OpenBLAS runs larger calls on several threads, and its worker then busy-waits
# for ~0.13 s of CPU: `dpotrs` on a whole 32x32 identity (1024 entries) wakes it,
# and `dpotri` does so even on a 6x6 factor.  No column or row depends on its chunk.
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

    C' = X W in row blocks, W = G^-1 for G = X'X + lam*I, from chunked `dpotrs`
    on identity columns and symmetrised from its lower triangle; `dpotri` would
    wake a second BLAS thread (see SOLVE_ELEMS).  The forward error is of order
    kappa(G)*u, as for triangular solves (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 14; Druinsky and Toledo, "How accurate is
    inv(A)*b?", 2012), and the pivot-ratio guard bounds kappa(G).
    """
    _check_lam(lam)
    X, m = dataset.X, dataset.m
    gram = X.T @ X + lam * np.eye(m)
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
    step = max(1, SOLVE_ELEMS // m)
    W = np.eye(m, order="F")
    for start in range(0, m, step):
        cols = slice(start, start + step)
        # LAPACK directly: `cho_solve`'s checks cost more than these small solves
        W[:, cols], info = dpotrs(factor[0], W[:, cols], lower=1)
        if info:
            raise RuntimeError(f"dpotrs failed with info={info}")
    W = np.tril(W) + np.tril(W, -1).T
    C = np.empty((m, dataset.n), order="F")
    for start in range(0, dataset.n, step):
        rows = slice(start, start + step)
        np.matmul(X[rows], W, out=C.T[rows])
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
