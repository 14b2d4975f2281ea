"""Exhaustive ground truth for small certification instances.

These routines enumerate the reachable label set directly and exist solely to
back-stop the fast certifiers in tests.  Hard size guards keep them honest:
they refuse instances large enough to hide quadratic slowdowns.

The `argsort_*` routines are the other kind of reference: the greedy-order
witnesses, minimum flips and fixed attacks written the direct way, with a
stable argsort of every gain, each gain computed here from its definition.
They cost O(n log n), so they take no guard.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from labelcert.bias import BiasSpec, Interval, PerturbationVector
from labelcert.errors import DimensionMismatch, LabelCertError, NonBinaryLabel
from labelcert.exact import Decision
from labelcert.linalg import Dataset, fit

MAX_LABELS = 15
MAX_BUDGET = 3
MAX_COLUMNS = 6
MAX_FLIP_LABELS = 12
MAX_FLIP_BUDGET = 2

# Interior fractions sampled per perturbed coordinate, beyond the endpoints.
# The objective is affine per coordinate, so these can never win; they are a
# belt-and-braces check on that argument.
_INTERIOR = (0.25, 0.5, 0.75)


class InstanceTooLarge(LabelCertError):
    """The instance exceeds the enumeration budget."""


def _guard(n: int, budget: int) -> None:
    if n > MAX_LABELS or budget > MAX_BUDGET:
        raise InstanceTooLarge(
            f"brute force limited to n <= {MAX_LABELS}, budget <= {MAX_BUDGET}; "
            f"got n={n}, budget={budget}"
        )


def brute_force_range(
    z: np.ndarray, y: np.ndarray, spec: BiasSpec, interior_samples: bool = True
) -> Interval:
    """Min/max of z . y_tilde over every reachable y_tilde, by enumeration.

    Every subset of at most `budget` indices is tried with each perturbed
    coordinate at its interval endpoints (plus interior grid samples unless
    disabled).
    """
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.size
    if z.shape != y.shape or n != spec.n:
        raise DimensionMismatch(
            f"shapes z{z.shape}, y{y.shape} inconsistent with spec length {spec.n}"
        )
    _guard(n, spec.budget)

    base = float(z @ y)
    lo = hi = base
    candidates = []
    for i in range(n):
        a, b = spec.delta.lo[i], spec.delta.hi[i]
        deltas = [a, b]
        if interior_samples:
            deltas += [a + t * (b - a) for t in _INTERIOR]
        candidates.append(z[i] * np.asarray(deltas))

    for size in range(1, spec.budget + 1):
        for subset in combinations(range(n), size):
            total = np.zeros(1)
            for i in subset:
                total = (total[:, None] + candidates[i][None, :]).ravel()
            lo = min(lo, base + float(total.min()))
            hi = max(hi, base + float(total.max()))
    return Interval(lo, hi)


def brute_force_hull(
    C: np.ndarray, y: np.ndarray, spec: BiasSpec, interior_samples: bool = True
) -> tuple[Interval, ...]:
    """Per-coefficient reachable range: brute_force_range applied to each row of C."""
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[1] != spec.n:
        raise DimensionMismatch(f"matrix shape {C.shape} inconsistent with spec length {spec.n}")
    if C.shape[0] > MAX_COLUMNS:
        raise InstanceTooLarge(
            f"brute force hull limited to {MAX_COLUMNS} coefficients, got {C.shape[0]}"
        )
    return tuple(brute_force_range(row, y, spec, interior_samples) for row in C)


def brute_force_classification(
    x: np.ndarray, dataset: Dataset, spec: BiasSpec, lam: float = 0.0
) -> bool:
    """True iff no reachable set of literal label flips changes the thresholded prediction.

    Every subset of at most `budget` flippable labels is flipped and the model
    refit from scratch; a prediction of exactly 0.5 classifies as 1.
    """
    y = dataset.y
    if not np.isin(y, (0.0, 1.0)).all():
        raise NonBinaryLabel("brute-force flip enumeration requires labels in {0, 1}")
    if dataset.n != spec.n:
        raise DimensionMismatch(
            f"dataset has {dataset.n} rows but spec covers {spec.n} labels"
        )
    if dataset.n > MAX_FLIP_LABELS or spec.budget > MAX_FLIP_BUDGET:
        raise InstanceTooLarge(
            f"flip enumeration limited to n <= {MAX_FLIP_LABELS}, "
            f"budget <= {MAX_FLIP_BUDGET}; got n={dataset.n}, budget={spec.budget}"
        )

    base_class = np.dot(x, fit(dataset, lam)[0].values) >= 0.5
    flip = 1.0 - 2.0 * y  # -1 where y=1, +1 where y=0
    allowed = [i for i in range(dataset.n) if spec.delta.lo[i] <= flip[i] <= spec.delta.hi[i]]

    for size in range(1, spec.budget + 1):
        for subset in combinations(allowed, size):
            flipped = y.copy()
            flipped[list(subset)] = 1.0 - flipped[list(subset)]
            pred = np.dot(x, fit(Dataset(dataset.X, flipped), lam)[0].values)
            if (pred >= 0.5) != base_class:
                return False
    return True


def gains(z, delta: PerturbationVector, side: str) -> np.ndarray:
    """How far moving each label alone can push z . y toward `side`: max(z*hi, z*lo)
    upward, -min(z*hi, z*lo) downward.  Never negative."""
    up, down = z * delta.hi, z * delta.lo
    return np.maximum(up, down) if side == "upper" else -np.minimum(up, down)


def argsort_greedy(gain: np.ndarray, among: np.ndarray | None = None) -> np.ndarray:
    """The labels `among` (default: those with a nonzero gain) by decreasing
    gain, ties to the lowest index."""
    among = np.flatnonzero(gain) if among is None else among
    return among[np.argsort(-gain[among], kind="stable")]


def _moved(y, z, delta: PerturbationVector, side: str, idx) -> np.ndarray:
    toward_hi = (z[idx] >= 0) == (side == "upper")
    near = np.where(toward_hi, delta.hi[idx], delta.lo[idx])
    out = y.copy()
    out[idx] += np.where(near != 0, near, np.where(toward_hi, delta.lo[idx], delta.hi[idx]))
    return out


def argsort_witnesses(z, y, spec: BiasSpec) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) witnesses: the first `budget` labels of each side's greedy order moved."""
    return tuple(
        _moved(y, z, spec.delta, side, argsort_greedy(gains(z, spec.delta, side))[: spec.budget])
        for side in ("lower", "upper")
    )


def argsort_min_flips(z, y, delta: PerturbationVector, decision: Decision):
    """(flips, side, witness, prediction) of the smallest breaking greedy prefix, or None."""
    base = float(z @ y)
    best = None
    low, high = decision.limits(base)
    for side, sign, limit in (("upper", 1.0, high), ("lower", -1.0, low)):
        if np.isinf(limit):
            continue
        gain = gains(z, delta, side)
        order = argsort_greedy(gain)
        reach = base + sign * np.cumsum(gain[order])
        breaking = np.flatnonzero(~decision.keeps(base, reach, reach))
        if breaking.size and (best is None or breaking[0] + 1 < best[0]):
            best = (int(breaking[0]) + 1, side, order)
    if best is None:
        return None
    flips, side, order = best
    witness = _moved(y, z, delta, side, order[:flips])
    return flips, side, witness, float(z @ witness)


def argsort_fixed_attack(z, y, delta: PerturbationVector, side: str, k: int) -> np.ndarray:
    """y with the first k movable labels moved toward `side`: the helpful ones by decreasing
    gain, then the rest by decreasing (zero or negative) effect."""
    gain = gains(z, delta, side)
    effect = np.where(gain > 0, gain, -gains(z, delta, "lower" if side == "upper" else "upper"))
    free = np.flatnonzero((delta.lo != 0) | (delta.hi != 0))
    return _moved(y, z, delta, side, argsort_greedy(effect, free)[:k])
