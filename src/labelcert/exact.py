"""Exact pointwise certification.

For a fixed test point the prediction is a linear functional z . y of the
training labels, so the reachable prediction set under a label perturbation
budget is a closed interval whose endpoints are attained by moving the
budgeted number of highest-impact labels to interval endpoints.  This module
computes that interval, the witness label vectors attaining it, robustness
verdicts against a `Decision` (a prediction band or the 0.5 threshold), and
the smallest budget that breaks robustness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bias import BiasSpec, Interval, PerturbationVector
from .errors import DimensionMismatch, NonBinaryLabel
from .linalg import Dataset, fit, influence_vector

# Binary decision threshold; a prediction of exactly 0.5 classifies as 1.
DECISION_THRESHOLD = 0.5
# Largest prediction that classifies as 0.
_BELOW_THRESHOLD = float(np.nextafter(DECISION_THRESHOLD, -np.inf))


@dataclass(frozen=True)
class Decision:
    """The rule a perturbed prediction must keep for the base prediction to be robust.

    Either a closed band of radius `epsilon` around the base prediction
    (regression), or, when `epsilon` is None, the base prediction's side of
    the 0.5 threshold (classification).  `limits` is the only place a
    prediction is judged: exact verdicts, counterexample sides, hull
    certificates and minimum flips all derive from it.
    """

    epsilon: float | None

    @classmethod
    def band(cls, epsilon: float) -> Decision:
        if epsilon is None or not epsilon >= 0:
            raise ValueError(f"robustness radius must be >= 0, got {epsilon}")
        return cls(float(epsilon))

    @classmethod
    def threshold(cls) -> Decision:
        return cls(None)

    @classmethod
    def for_task(cls, task: str, epsilon: float | None) -> Decision:
        return cls.threshold() if task == "classification" else cls.band(epsilon)

    @staticmethod
    def label(prediction):
        """Class of a prediction (or array of them) under the threshold rule."""
        return prediction >= DECISION_THRESHOLD

    def limits(self, base: float) -> tuple[float, float]:
        """Closed range of predictions that keep the decision made at `base`."""
        if self.epsilon is not None:
            return base - self.epsilon, base + self.epsilon
        if self.label(base):
            return DECISION_THRESHOLD, math.inf
        return -math.inf, _BELOW_THRESHOLD

    def breach(self, base: float, lo: float, hi: float) -> tuple[bool, str]:
        """Whether the prediction range [lo, hi] escapes the limits, and from which end.

        The end is the one reaching further past its limit ("upper" on ties);
        under the threshold rule only the end toward the other class can.
        """
        low, high = self.limits(base)
        over, under = hi - high, low - lo
        return max(over, under) > 0, "upper" if over >= under else "lower"

    def escapes(self, base: float, predictions: np.ndarray) -> np.ndarray:
        """Elementwise: does each prediction leave the limits?"""
        low, high = self.limits(base)
        return (predictions < low) | (predictions > high)


@dataclass(frozen=True)
class PotentialImpacts:
    """Per-label extremal effect on one prediction.

    positive[i] is the largest increase perturbing label i alone can cause,
    negative[i] the largest decrease; both are 0 when the label cannot move
    or has no influence.
    """

    positive: np.ndarray
    negative: np.ndarray


@dataclass(frozen=True)
class PredictionRange:
    """Reachable prediction interval plus the label vectors attaining each end."""

    interval: Interval
    lower_witness: np.ndarray
    upper_witness: np.ndarray

    def witness(self, side: str) -> np.ndarray:
        return self.upper_witness if side == "upper" else self.lower_witness


@dataclass(frozen=True)
class CertResult:
    """Verdict for one test point.

    `counterexample` is present exactly when not robust: a reachable label
    vector whose refit prediction escapes the decision.
    """

    robust: bool
    range: PredictionRange
    decision: Decision
    base_prediction: float
    counterexample: np.ndarray | None


@dataclass(frozen=True)
class MinFlipsResult:
    """Smallest budget that breaks robustness, with the breaking label vector."""

    flips: int
    witness: np.ndarray
    prediction: float
    side: str  # "upper" or "lower"


def potential_impacts(z: np.ndarray, delta: PerturbationVector) -> PotentialImpacts:
    """Extremal per-label effects of moving each label within its interval.

    For influence z_i >= 0 the largest increase uses the upper interval
    endpoint and the largest decrease the lower one; signs swap for z_i < 0.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != delta.lo.shape:
        raise DimensionMismatch(
            f"influence vector has shape {z.shape}, perturbation vector {delta.lo.shape}"
        )
    nonneg = z >= 0
    positive = np.where(nonneg, z * delta.hi, z * delta.lo)
    negative = np.where(nonneg, z * delta.lo, z * delta.hi)
    positive.flags.writeable = False
    negative.flags.writeable = False
    return PotentialImpacts(positive, negative)


def _top_indices(impacts: np.ndarray, budget: int, maximize: bool) -> np.ndarray:
    """Indices of the `budget` largest gains (or most negative drops).

    Ties break toward the lowest index; zero-impact labels are never chosen
    since perturbing them cannot move the prediction.
    """
    order = np.argsort(-impacts if maximize else impacts, kind="stable")
    chosen = order[:budget]
    return chosen[impacts[chosen] > 0] if maximize else chosen[impacts[chosen] < 0]


def _perturbed(
    y: np.ndarray, z: np.ndarray, delta: PerturbationVector, idx: np.ndarray, upward: bool
) -> np.ndarray:
    out = y.copy()
    if idx.size:
        toward_hi = (z[idx] >= 0) == upward
        out[idx] = y[idx] + np.where(toward_hi, delta.hi[idx], delta.lo[idx])
    out.flags.writeable = False
    return out


def prediction_range(z: np.ndarray, y: np.ndarray, spec: BiasSpec) -> PredictionRange:
    """Tight reachable prediction interval for the linear functional z . y.

    The upper end moves the budgeted number of labels with the largest
    positive impact to their extreme endpoints; the lower end mirrors with
    the largest negative impacts.  Both witnesses are returned and are valid
    members of the reachable label set.
    """
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    if z.shape != y.shape or y.shape != (spec.n,):
        raise DimensionMismatch(
            f"shapes z{z.shape}, y{y.shape} inconsistent with spec length {spec.n}"
        )
    impacts = potential_impacts(z, spec.delta)
    up_idx = _top_indices(impacts.positive, spec.budget, maximize=True)
    dn_idx = _top_indices(impacts.negative, spec.budget, maximize=False)
    y_upper = _perturbed(y, z, spec.delta, up_idx, upward=True)
    y_lower = _perturbed(y, z, spec.delta, dn_idx, upward=False)
    return PredictionRange(
        interval=Interval(float(z @ y_lower), float(z @ y_upper)),
        lower_witness=y_lower,
        upper_witness=y_upper,
    )


def decide_exact(z: np.ndarray, y: np.ndarray, spec: BiasSpec, decision: Decision) -> CertResult:
    """Exact verdict against a precomputed influence vector.

    Robust iff the whole reachable prediction interval keeps the decision;
    otherwise the witness of the escaping end is the counterexample.
    """
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    base = float(z @ y)
    rng = prediction_range(z, y, spec)
    escaped, side = decision.breach(base, rng.interval.lo, rng.interval.hi)
    counterexample = rng.witness(side) if escaped else None
    return CertResult(not escaped, rng, decision, base, counterexample)


def certify_from_influence(
    z: np.ndarray, y: np.ndarray, spec: BiasSpec, epsilon: float
) -> CertResult:
    """Band check: robust iff every reachable prediction stays within the closed
    band [z.y - epsilon, z.y + epsilon]; equality at the boundary counts as robust."""
    return decide_exact(z, y, spec, Decision.band(epsilon))


def certify_regression(
    x: np.ndarray, dataset: Dataset, spec: BiasSpec, epsilon: float, lam: float = 0.0
) -> CertResult:
    """Exact robustness verdict for a regression prediction band of radius epsilon."""
    _, influence = fit(dataset, lam)
    z = influence_vector(x, influence)
    return certify_from_influence(z, dataset.y, spec, epsilon)


def classify_from_influence(z: np.ndarray, y: np.ndarray, spec: BiasSpec) -> CertResult:
    """Decision-flip check: robust iff every reachable prediction classifies like
    the base prediction under the 0.5 threshold."""
    return decide_exact(z, y, spec, Decision.threshold())


def certify_classification(
    x: np.ndarray, dataset: Dataset, spec: BiasSpec, lam: float = 0.0
) -> CertResult:
    """Exact verdict for binary classification: can any reachable labeling flip the class?"""
    if not np.isin(dataset.y, (0.0, 1.0)).all():
        raise NonBinaryLabel("classification certification requires labels in {0, 1}")
    _, influence = fit(dataset, lam)
    z = influence_vector(x, influence)
    return classify_from_influence(z, dataset.y, spec)


def min_flips_from_influence(
    z: np.ndarray, y: np.ndarray, delta: PerturbationVector, decision: Decision
) -> MinFlipsResult | None:
    """Smallest number of label changes that makes the prediction escape the decision.

    Greedy by impact: the k-th step perturbs the unused label with the
    largest remaining impact, so after k steps the prediction sits at the
    extreme reachable with budget k.  Upward and downward excursions are
    searched separately; the smaller budget wins, the upward one on ties.
    Returns None when every label with a nonzero impact is exhausted and the
    decision still holds.
    """
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    if z.shape != y.shape or y.shape != delta.lo.shape:
        raise DimensionMismatch(
            f"shapes z{z.shape}, y{y.shape} inconsistent with {delta.lo.shape} intervals"
        )
    impacts = potential_impacts(z, delta)
    base = float(z @ y)
    best = None
    for side, imp in (("upper", impacts.positive), ("lower", impacts.negative)):
        if not decision.escapes(base, base + imp.sum()):
            continue  # moving every label this way still keeps the decision
        order = np.argsort(-np.abs(imp), kind="stable")
        steps = imp[order]
        reach = base + np.cumsum(steps[steps != 0])
        breaking = np.flatnonzero(decision.escapes(base, reach))
        if breaking.size and (best is None or breaking[0] + 1 < best[0]):
            best = (int(breaking[0]) + 1, side, order)
    if best is None:
        return None
    flips, side, order = best
    witness = _perturbed(y, z, delta, order[:flips], upward=side == "upper")
    return MinFlipsResult(flips, witness, float(z @ witness), side)


def min_flips(
    x: np.ndarray,
    dataset: Dataset,
    delta: PerturbationVector,
    epsilon: float,
    lam: float = 0.0,
) -> MinFlipsResult | None:
    """Smallest budget at which the prediction band of radius epsilon breaks, if any."""
    _, influence = fit(dataset, lam)
    z = influence_vector(x, influence)
    return min_flips_from_influence(z, dataset.y, delta, Decision.band(epsilon))
