"""Exact pointwise certification.

For a fixed test point the prediction is a linear functional z . y of the
training labels, so the reachable prediction set under a label perturbation
budget is a closed interval whose endpoints are attained by moving the
budgeted number of highest-impact labels to interval endpoints.  `ranges`
computes that interval for a whole block of functionals at once: one
in-place partition (introselect) per row selects the top-budget impacts,
and only those are sorted.  `verdicts` decides a whole budget grid from the
same blocks and the same sums: it skips the rows that a rounding-safe bound
already settles, selects toward finite decision limits only, and partitions
each remaining row once, at the largest budget.  `decide_exact` is the one
per-point verdict, with a witness of each end (attained up to rounding).
The smallest budget that breaks robustness comes from a cumsum over one
functional's sorted gain values.  Witnesses, the breaking label vector and
fixed-size attacks all move a prefix of one greedy label order (decreasing
gain, ties to the lowest index), picked by value with a partition rather
than ordered.  Verdicts are judged against a `Decision` (a prediction band
or the 0.5 threshold).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bias import BiasSpec, Interval, PerturbationVector
from .errors import DimensionMismatch, NoAttackExists

# Binary decision threshold; a prediction of exactly 0.5 classifies as 1.
DECISION_THRESHOLD = 0.5
# Largest prediction that classifies as 0.
_BELOW_THRESHOLD = float(np.nextafter(DECISION_THRESHOLD, -np.inf))


@dataclass(frozen=True)
class Decision:
    """The rule a perturbed prediction must keep for the base prediction to be robust.

    Either a closed band of radius `epsilon` around the base prediction
    (regression), or, when `epsilon` is None, the base prediction's side of
    the 0.5 threshold (classification).  A prediction is judged only through
    `limits` and `keeps`: exact verdicts, counterexample sides, hull
    certificates and minimum flips all derive from them.
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

    def limits(self, base):
        """Closed range of predictions that keep the decision made at `base` (elementwise)."""
        if self.epsilon is not None:
            return base - self.epsilon, base + self.epsilon
        one = self.label(base)
        return np.where(one, DECISION_THRESHOLD, -np.inf), np.where(one, np.inf, _BELOW_THRESHOLD)

    def keeps(self, base, lo, hi):
        """Elementwise: does the prediction range [lo, hi] stay within the limits at `base`?"""
        low, high = self.limits(base)
        return (low <= lo) & (hi <= high)


@dataclass(frozen=True)
class PredictionRange:
    """Reachable prediction interval plus the label vectors attaining each end.

    The ends are `ranges` sums (base plus selected impacts) and a witness's
    prediction is a dot product, so the two agree up to rounding only.
    """

    interval: Interval
    lower_witness: np.ndarray
    upper_witness: np.ndarray


@dataclass(frozen=True)
class CertResult:
    """Verdict for one test point.

    `counterexample` is present exactly when not robust: a reachable label
    vector whose refit prediction is the escaping end of the interval, up to
    rounding.  When the interval escapes by no more than rounding, that
    prediction may itself stay inside the limits; such borderline verdicts
    are not flagged.
    """

    robust: bool
    range: PredictionRange
    base_prediction: float
    counterexample: np.ndarray | None


@dataclass(frozen=True)
class MinFlipsResult:
    """Smallest budget that breaks robustness, with the breaking label vector."""

    flips: int
    witness: np.ndarray
    prediction: float
    side: str  # "upper" or "lower"


# Float64 elements per block of work (1 MiB): `ranges` and `verdicts` handle
# max(1, ELEMS // n) rows of n values at a time.
ELEMS = 1 << 17


def _layout(Z, y, n: int, X):
    """Checked float Z and y, the base values (or a buffer for them when X is given)
    and the rows per block."""
    Z, y = np.asarray(Z, dtype=float), np.asarray(y, dtype=float)
    points = Z.shape[:1] if X is None else np.shape(X)[1:]
    if Z.ndim != 2 or Z.shape[1] != n or y.shape != (n,) or points != Z.shape[:1]:
        raise DimensionMismatch(f"functionals {Z.shape}, labels {y.shape}, spec length {n}")
    k = len(Z if X is None else X)
    base = Z @ y if X is None else np.empty(k)
    return Z, y, base, max(1, min(k, ELEMS // n))


def _blocks(Z, y, X, base, rows: int, work: np.ndarray):
    """Yield `(part, block)` for each slice `part` of `rows` consecutive functionals.

    `block` is rows `part` of Z, or of X @ Z formed in `work`, where it lives
    until the caller writes to `work`; `base[part]` then holds the block's
    values at y.
    """
    for start in range(0, len(base), rows):
        part = slice(start, start + rows)
        if X is None:
            yield part, Z[part]
        else:
            block = np.matmul(X[part], Z, out=work[: min(rows, len(base) - start)])
            np.matmul(block, y, out=base[part])
            yield part, block


def _faces(delta: PerturbationVector):
    """`(sides, moves)` pairs: each label's gain toward `sides` is max over `moves` of z * move.

    With symmetric intervals one gain |z| * hi serves both ends; otherwise the
    lower side's gains are the upper side's under the mirrored intervals.
    """
    mirrored = delta.mirrored
    if mirrored is delta:
        return ((("upper", "lower"), (delta.hi,)),)
    return (("upper",), (delta.hi, delta.lo)), (("lower",), (mirrored.lo, mirrored.hi))


def _gains(z: np.ndarray, moves, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Gains of the rows of z under one face's `moves`, written to `out` (`tmp`: scratch)."""
    if len(moves) == 1:
        return np.multiply(np.abs(z, out=out), moves[0], out=out)
    np.multiply(z, moves[1], out=tmp)
    return np.maximum(np.multiply(z, moves[0], out=out), tmp, out=out)


def _top_sums(gain: np.ndarray, K: int, out: np.ndarray) -> np.ndarray:
    """Running sums of each row's K largest gains, largest first, into `out` (r, K).

    `gain` (r, n) is partitioned in place (introselect) and only the K
    largest are sorted, then added one at a time: the order and sequential
    sum of min-flips' cumsum, so `out[:, b - 1]` depends on the b largest
    values only and equals what a selection at budget b alone would give.
    """
    n = gain.shape[1]
    gain.partition(n - K, axis=1)
    top = gain[:, n - K :]
    top.sort(axis=1)
    return np.cumsum(top[:, ::-1], axis=1, out=out)


def ranges(Z: np.ndarray, y: np.ndarray, spec: BiasSpec, X: np.ndarray | None = None):
    """Reachable prediction intervals of many linear functionals at once.

    The functionals are the rows of Z, or of X @ Z (formed one block of rows
    at a time) when X is given.  Returns arrays (base, lo, hi): each row's
    value at y, plus the sum of its `budget` largest decreases or increases.
    An in-place partition per row selects them and `_top_sums` adds them,
    largest first.  The work buffers are allocated once per call.

    Exact verdicts come from here, through `verdicts`, which shares its blocks
    and its selection, and so do the hull's coordinates: `approx.model_hull`
    runs it over the rows of C at zero labels, where the ends are the sums
    themselves.  A hull certificate moves every coordinate at once, so it is
    an interval dot product instead (`approx.interval_predict`).
    """
    n, budget = spec.n, spec.budget
    Z, y, base, rows = _layout(Z, y, n, X)
    lo, hi = np.empty_like(base), np.empty_like(base)
    faces = _faces(spec.delta)
    gain, tmp, work = (np.empty((rows, n)) for _ in range(3))
    for part, block in _blocks(Z, y, X, base, rows, work):
        if not budget:
            continue
        r = len(block)
        for sides, moves in faces:
            top = _top_sums(_gains(block, moves, gain[:r], tmp[:r]), budget,
                            tmp[:r, :budget])[:, -1]
            if "upper" in sides:
                np.add(base[part], top, out=hi[part])
            if "lower" in sides:
                np.subtract(base[part], top, out=lo[part])
    if not budget:
        lo[:], hi[:] = base, base
    return base, lo, hi


def verdicts(Z, y, delta: PerturbationVector, budgets, decision: Decision, X=None) -> np.ndarray:
    """Exact verdicts of many linear functionals at every budget of a grid.

    Returns a bool array (len(budgets), k) equal, bit for bit, to
    `decision.keeps(*ranges(Z, y, BiasSpec(delta, b), X))` for each budget b.
    The blocks and their base values are those of `ranges`.  In each block:

    - Screen.  Let K be the largest budget, w the widest move (the largest
      -lo or hi), and, for a row z, M = fl(max|z| * w) and
      B = fl(fl(K * M) * (1 + 8(K + 1) u)) with u = 2**-53.  Every gain the
      kernel selects is a rounded product fl(|z_i| * |move_i|) <= M, because
      rounding is monotone.  A sequential float sum of at most K values in
      [0, M] is at most K * M * (1 + u)**K (Higham, Accuracy and Stability
      of Numerical Algorithms, ch. 4; a sum that stays subnormal is exact),
      which B exceeds despite its own two roundings.  The kernel's ends are
      fl(base + s) and fl(base - s') with s, s' <= B at every budget, so,
      by monotonicity again, a row with fl(base + B) <= high and
      fl(base - B) >= low, (low, high) being the decision's limits at base,
      keeps the decision at every budget.  It is settled without a partition.
    - One side.  A remaining row is selected only toward the sides whose
      limit is finite: an infinite limit keeps every non-NaN end.  Under the
      threshold rule that is one side per row.
    - One partition per grid.  Each remaining row is partitioned once at K;
      `_top_sums` sorts its K largest gains and one cumsum gives every
      budget's sum, the values `ranges` adds in the same order.
    """
    budgets = np.array([BiasSpec(delta, b).budget for b in budgets], dtype=np.intp)
    n, K = len(delta), int(budgets.max(initial=0))
    Z, y, base, rows = _layout(Z, y, n, X)
    faces = _faces(delta)
    widest = max(float(np.max(delta.hi)), -float(np.min(delta.lo)))
    slack = 1.0 + 8 * (K + 1) * 2.0**-53
    out = np.empty((budgets.size, base.size), dtype=bool)
    gain, tmp, work = (np.empty((rows, n)) for _ in range(3))
    sums = np.zeros((rows, K + 1))  # column b: the sum of the b largest gains
    for part, block in _blocks(Z, y, X, base, rows, work):
        at = base[part]
        low, high = decision.limits(at)
        reach = K * (np.maximum(block.max(axis=1), -block.min(axis=1)) * widest) * slack
        settled = (at + reach <= high) & (at - reach >= low)
        out[:, part] = settled
        todo = np.flatnonzero(~settled)
        if not todo.size:
            continue
        at, low, high = at[todo], low[todo], high[todo]
        keep = np.ones((budgets.size, todo.size), dtype=bool)
        for sides, moves in faces:
            # Toward an infinite limit every non-NaN end keeps the decision.
            use = slice(None) if len(sides) == 2 else ~np.isinf(high if "upper" in sides else low)
            picked = todo[use]
            table = sums[: picked.size]
            if K and picked.size:  # mode "clip" gathers straight into the buffer
                gathered = np.take(block, picked, axis=0, out=gain[: picked.size], mode="clip")
                _top_sums(_gains(gathered, moves, gathered, tmp[: picked.size]), K, table[:, 1:])
            reached = table[:, budgets].T
            if "upper" in sides:
                keep[:, use] &= at[use] + reached <= high[use]
            if "lower" in sides:
                keep[:, use] &= low[use] <= at[use] - reached
        out[:, part.start + todo] = keep
    return out


def _side_gains(z: np.ndarray, delta: PerturbationVector) -> dict:
    """Each side's gains for one functional z: how far moving each label alone can
    push z . y toward that side ("upper" or "lower"), the impacts `ranges` selects from.
    Never negative; a symmetric Δ gives both sides one array."""
    out = {}
    for sides, moves in _faces(delta):
        gain = _gains(z, moves, np.empty_like(z), np.empty_like(z))
        out.update(dict.fromkeys(sides, gain))
    return out


def _prefix(gain: np.ndarray, k: int, among: np.ndarray | None = None) -> np.ndarray:
    """The first k labels of the greedy order, as an unordered index array.

    The greedy order takes the labels `among` (default: those with a nonzero
    gain) by decreasing gain, ties to the lowest index.  Its first k are every
    label whose gain beats the k-th largest, then the lowest-index labels tied
    with it; a partition finds that gain without ordering the rest.
    """
    values = gain if among is None else gain[among]
    if k <= 0:
        picked = np.empty(0, dtype=np.intp)
    elif k >= values.size:
        picked = np.arange(values.size)
    else:
        kth = np.partition(values, values.size - k)[values.size - k]
        above = np.flatnonzero(values > kth)
        picked = np.concatenate([above, np.flatnonzero(values == kth)[: k - above.size]])
    if among is None:  # zero gains tie only when k reaches past the nonzero ones
        return picked[gain[picked] != 0]
    return among[picked]


def _moved(y: np.ndarray, z: np.ndarray, delta: PerturbationVector, side: str, idx) -> np.ndarray:
    """Read-only copy of y with the labels `idx` moved to push z . y toward `side`: each
    to the end of its interval on that side, or to the other end where that one is 0."""
    toward_hi = (z[idx] >= 0) == (side == "upper")
    near = np.where(toward_hi, delta.hi[idx], delta.lo[idx])
    out = y.copy()
    out[idx] += np.where(near != 0, near, np.where(toward_hi, delta.lo[idx], delta.hi[idx]))
    out.flags.writeable = False
    return out


def fixed_attack(
    z: np.ndarray, y: np.ndarray, delta: PerturbationVector, side: str, k: int
) -> np.ndarray:
    """y with the first k movable labels of the greedy order toward `side` moved.

    After the labels with a positive gain, the other movable ones follow by decreasing
    effect: no effect, then least damaging.  NoAttackExists when fewer than k can move."""
    z, y = np.asarray(z, dtype=float), np.asarray(y, dtype=float)
    if z.shape != delta.lo.shape:
        raise DimensionMismatch(f"influence vector {z.shape}, intervals {delta.lo.shape}")
    gains = _side_gains(z, delta)
    gain = gains[side]
    effect = np.where(gain > 0, gain, -gains["lower" if side == "upper" else "upper"])
    free = np.flatnonzero((delta.lo != 0) | (delta.hi != 0))
    if free.size < k:
        raise NoAttackExists(f"only {free.size} labels may change under this perturbation model")
    return _moved(y, z, delta, side, _prefix(effect, k, free))


def decide_exact(z: np.ndarray, y: np.ndarray, spec: BiasSpec, decision: Decision) -> CertResult:
    """Exact verdict and witnessed reachable interval of the linear functional z . y.

    The interval is the one `ranges` gives this row.  Each witness moves the
    first `budget` labels of the greedy order toward its end; both are valid
    members of the reachable label set, and each one's prediction is its end
    of the interval up to rounding.  Robust iff the whole interval keeps the
    decision; otherwise the counterexample is the witness of the end reaching
    further past its limit ("upper" on ties).  Under the threshold rule only
    the end toward the other class can.
    """
    z, y = np.asarray(z, dtype=float), np.asarray(y, dtype=float)
    if z.shape != y.shape:
        raise DimensionMismatch(f"shapes z{z.shape}, y{y.shape} differ")
    (base,), (lo,), (hi,) = ranges(z[None, :], y, spec)
    gains = _side_gains(z, spec.delta)
    lower, upper = (_moved(y, z, spec.delta, side, _prefix(gains[side], spec.budget))
                    for side in ("lower", "upper"))
    rng = PredictionRange(Interval(lo, hi), lower_witness=lower, upper_witness=upper)
    if decision.keeps(base, lo, hi):
        return CertResult(True, rng, float(base), None)
    low, high = decision.limits(base)
    return CertResult(False, rng, float(base), upper if hi - high >= low - lo else lower)


def certify_from_influence(
    z: np.ndarray, y: np.ndarray, spec: BiasSpec, epsilon: float
) -> CertResult:
    """Band check: robust iff every reachable prediction stays within the closed
    band [z.y - epsilon, z.y + epsilon]; equality at the boundary counts as robust."""
    return decide_exact(z, y, spec, Decision.band(epsilon))


def classify_from_influence(z: np.ndarray, y: np.ndarray, spec: BiasSpec) -> CertResult:
    """Decision-flip check: robust iff every reachable prediction classifies like
    the base prediction under the 0.5 threshold."""
    return decide_exact(z, y, spec, Decision.threshold())


def min_flips_from_influence(
    z: np.ndarray, y: np.ndarray, delta: PerturbationVector, decision: Decision
) -> MinFlipsResult | None:
    """Smallest number of label changes that makes the prediction escape the decision.

    The k-th step moves the label with the k-th largest gain toward one
    side, so after k steps the prediction sits at the extreme reachable with
    budget k: a cumsum over the sorted positive gain values, the sum `ranges`
    takes, over one full sort per face of `_faces` (a symmetric Δ sorts once
    for both sides).  Sides toward an infinite limit are skipped.  The
    smaller budget wins, the upward one on ties.  The witness moves the first
    k labels of the greedy order, picked by value.  Returns None when every
    label with a nonzero gain is exhausted and the decision still holds.
    """
    z, y = np.asarray(z, dtype=float), np.asarray(y, dtype=float)
    if z.shape != y.shape or y.shape != delta.lo.shape:
        raise DimensionMismatch(f"shapes z{z.shape}, y{y.shape}, intervals {delta.lo.shape}")
    base = float(z @ y)
    best = None
    low, high = decision.limits(base)
    for sides, moves in _faces(delta):
        # no move toward an infinite limit can leave the limits
        sides = [side for side in sides if not np.isinf(high if side == "upper" else low)]
        if not sides:
            continue
        gain = _gains(z, moves, np.empty_like(z), np.empty_like(z))
        ascending = np.sort(gain)
        total = np.cumsum(ascending[np.searchsorted(ascending, 0.0, side="right") :][::-1])
        for side in sides:
            reach = base + total if side == "upper" else base - total
            breaking = np.flatnonzero(~decision.keeps(base, reach, reach))
            if breaking.size and (best is None or breaking[0] + 1 < best[0]):
                best = (int(breaking[0]) + 1, side, gain)
    if best is None:
        return None
    flips, side, gain = best
    witness = _moved(y, z, delta, side, _prefix(gain, flips))
    return MinFlipsResult(flips, witness, float(z @ witness), side)
