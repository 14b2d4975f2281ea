"""The label perturbation model: intervals, change budgets, and subgroup targeting.

A perturbation vector assigns every training label a closed interval of
allowed additive change (always containing 0).  A BiasSpec couples that with
a budget: the maximum number of labels that may move at once.  The set of
reachable label vectors is everything obtainable by moving at most `budget`
labels, each within its interval.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, NonBinaryLabel, UnknownColumn
from .linalg import Dataset


@dataclass(frozen=True)
class Interval:
    """Closed real interval [lo, hi] with finite bounds."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval bounds must be finite, got [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise ValueError(f"interval is empty: [{self.lo}, {self.hi}]")
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))


@dataclass(frozen=True)
class PerturbationVector:
    """Per-label interval of allowed additive change; every interval contains 0."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        lo = np.array(self.lo, dtype=float)
        hi = np.array(self.hi, dtype=float)
        if lo.ndim != 1 or hi.ndim != 1 or lo.shape != hi.shape:
            raise DimensionMismatch(
                f"interval bounds must be 1-d vectors of equal length, "
                f"got shapes {lo.shape} and {hi.shape}"
            )
        if lo.size < 1:
            raise ValueError("perturbation vector must cover at least one label")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("interval bounds must be finite")
        if (lo > 0).any() or (hi < 0).any():
            bad = int(np.argmax((lo > 0) | (hi < 0)))
            raise ValueError(
                f"interval {bad} = [{lo[bad]}, {hi[bad]}] does not contain 0; "
                "the unperturbed labels must stay reachable"
            )
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __len__(self) -> int:
        return self.lo.size

    @cached_property
    def mirrored(self) -> PerturbationVector:
        """The intervals [-hi, -lo]: a label moved within them pushes z . y down as far
        as within [lo, hi] it pushes it up.  Symmetric intervals are their own mirror."""
        if np.array_equal(self.lo, -self.hi):
            return self
        return PerturbationVector(-self.hi, -self.lo)


@dataclass(frozen=True)
class BiasSpec:
    """A perturbation vector plus the maximum number of labels allowed to change."""

    delta: PerturbationVector
    budget: int

    def __post_init__(self) -> None:
        if not isinstance(self.budget, (int, np.integer)) or self.budget < 0:
            raise ValueError(f"budget must be a nonnegative integer, got {self.budget!r}")
        if self.budget > len(self.delta):
            raise ValueError(
                f"budget {self.budget} exceeds the {len(self.delta)} labels available"
            )
        object.__setattr__(self, "budget", int(self.budget))

    @property
    def n(self) -> int:
        return len(self.delta)

    def fingerprint(self) -> str:
        """Stable hash of (budget, intervals), recorded in a hull's `hull.json`."""
        digest = hashlib.sha256()
        digest.update(str(self.budget).encode())
        digest.update(self.delta.lo.tobytes())
        digest.update(self.delta.hi.tobytes())
        return digest.hexdigest()


@dataclass(frozen=True)
class TargetPredicate:
    """Row filter confining perturbations to a subgroup.

    Matches one feature column by index, or the group-label channel when
    `feature_index` is None.  `negate` flips the comparison.
    """

    value: object
    feature_index: int | None = None
    negate: bool = False

    def mask(self, dataset: Dataset) -> np.ndarray:
        if self.feature_index is None:
            if dataset.group_labels is None:
                raise UnknownColumn("predicate targets group labels but the dataset has none")
            base = np.array([g == str(self.value) for g in dataset.group_labels])
        else:
            if not 0 <= self.feature_index < dataset.m:
                raise UnknownColumn(
                    f"feature index {self.feature_index} out of range for "
                    f"{dataset.m} columns"
                )
            base = dataset.X[:, self.feature_index] == float(self.value)  # type: ignore[arg-type]
        return ~base if self.negate else base


def uniform_delta(n: int, halfwidth: float) -> PerturbationVector:
    """Every label may move within [-halfwidth, +halfwidth]."""
    if n < 1:
        raise ValueError(f"need at least one label, got n={n}")
    if not math.isfinite(halfwidth) or halfwidth < 0:
        raise ValueError(f"halfwidth must be finite and >= 0, got {halfwidth}")
    return PerturbationVector(np.full(n, -halfwidth), np.full(n, halfwidth))


def classification_delta(y: np.ndarray) -> PerturbationVector:
    """Label-flip intervals for {0,1} labels: [-1,0] where y=1, [0,1] where y=0."""
    y = np.asarray(y, dtype=float)
    if not np.isin(y, (0.0, 1.0)).all():
        raise NonBinaryLabel("classification deltas require labels in {0, 1}")
    ones = y == 1.0
    return PerturbationVector(np.where(ones, -1.0, 0.0), np.where(ones, 0.0, 1.0))


def apply_targeting(
    delta: PerturbationVector, dataset: Dataset, predicate: TargetPredicate
) -> PerturbationVector:
    """Zero out the intervals of every row the predicate does not match."""
    if len(delta) != dataset.n:
        raise DimensionMismatch(
            f"perturbation vector covers {len(delta)} labels but dataset has {dataset.n} rows"
        )
    keep = predicate.mask(dataset)
    return PerturbationVector(np.where(keep, delta.lo, 0.0), np.where(keep, delta.hi, 0.0))


def contains(spec: BiasSpec, y: np.ndarray, y_tilde: np.ndarray) -> bool:
    """Membership test: is y_tilde reachable from y under the spec?

    A label counts as changed iff its value differs exactly; no tolerance is
    applied, so callers must construct candidates with exact arithmetic.
    """
    y = np.asarray(y, dtype=float)
    y_tilde = np.asarray(y_tilde, dtype=float)
    if y.shape != y_tilde.shape or y.shape != (spec.n,):
        raise DimensionMismatch(
            f"label vectors have shapes {y.shape} and {y_tilde.shape}, expected ({spec.n},)"
        )
    diff = y_tilde - y
    if int(np.count_nonzero(diff)) > spec.budget:
        return False
    return bool(((diff >= spec.delta.lo) & (diff <= spec.delta.hi)).all())
