"""Over-approximate certification via a coefficient hull.

Instead of re-solving the worst case per test point, bound each fitted
coefficient over the whole reachable label set once: one call of the exact
range kernel on the rows of the influence matrix, with each end padded
outward by that kernel's own rounding bound.  The resulting interval box (the
model hull) encloses every reachable coefficient vector with a small relative
margin.  Certifying a test point x is then an interval dot product, since
every coordinate moves at once: x . theta0 plus the midpoint-radius form
x . mid -+ |x| . rad of the box's offsets from theta0, from plain BLAS
products widened by an a-priori error bound (Rump, "Fast and parallel
interval arithmetic", BIT 39, 1999; Higham, Accuracy and Stability of
Numerical Algorithms, ch. 3).  The check is one-sided: a certificate implies
exact robustness, for the float verdicts of `exact.verdicts` as well as in
real arithmetic (see `interval_predict`), but failure to certify proves
nothing.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bias import BiasSpec, Interval
from .errors import DimensionMismatch, LabelCertError, ParseError
from . import exact
from .exact import Decision, ranges
from .linalg import InfluenceMatrix, ModelCoefficients


@dataclass(frozen=True)
class ModelHull:
    """Per-coefficient reachable intervals plus the unperturbed fit they enclose."""

    lower: np.ndarray
    upper: np.ndarray
    base: ModelCoefficients
    budget: int
    fingerprint: str

    def __post_init__(self) -> None:
        lower = np.array(self.lower, dtype=float)
        upper = np.array(self.upper, dtype=float)
        if lower.shape != upper.shape or lower.shape != self.base.values.shape:
            raise DimensionMismatch(
                f"hull bounds {lower.shape}/{upper.shape} inconsistent with "
                f"{self.base.values.shape} coefficients"
            )
        lower.flags.writeable = False
        upper.flags.writeable = False
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def m(self) -> int:
        return self.lower.size


_U = 2.0**-53  # unit roundoff of float64


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u): the relative error bound of k roundings."""
    return k * _U / (1 - k * _U)


def _outward(base: np.ndarray, reach: np.ndarray, sign: float) -> np.ndarray:
    """base + sign * reach (reach >= 0) rounded to nearest, then one float step away from
    base wherever reach > 0: at or beyond the real sum on the `sign` side, and base
    itself where nothing moves."""
    end = base + sign * reach
    return np.where(reach > 0, np.nextafter(end, sign * np.inf), end)


def model_hull(influence: InfluenceMatrix, y: np.ndarray, spec: BiasSpec) -> ModelHull:
    """Interval box enclosing every coefficient vector reachable under the spec.

    theta0 = C @ y is the fit.  `ranges` at zero labels gives each row C_j's
    reaches unrounded by any base: s_j, the float sum of its K = `budget`
    largest gains toward the upper end, and s'_j toward the lower one.  The
    real reach R_j (that sum in exact arithmetic, over the float C and spec)
    is at most (1 + gamma_K) s_j: each gain is one rounded product and the sum
    K - 1 rounded additions of non-negative terms.  Coordinate j's interval is
    theta0_j -+ (1 + gamma_{2K+3}) s_j, rounded outward, so it encloses
    theta0_j + C_j . delta for every reachable delta, computed exactly, with
    a relative margin of gamma_K: (1 + gamma_K)^2 <= 1 + gamma_{2K}, and the
    other three cover the rounding of the padded sum.  `interval_predict`
    spends that margin on the exact kernel's own rounding.  Each end is row
    j's end of `ranges(C, y, spec)` up to the padding and two float steps;
    at budget 0 the box is the point theta0.
    """
    y = np.asarray(y, dtype=float)
    if influence.n != y.size or y.size != spec.n:
        raise DimensionMismatch(
            f"influence matrix is {influence.m}x{influence.n}, labels {y.size}, "
            f"spec length {spec.n}"
        )
    theta = influence.values @ y
    _, down, up = ranges(influence.values, np.zeros_like(y), spec)
    pad = _gamma(2 * spec.budget + 3)
    return ModelHull(
        _outward(theta, pad * -down - down, -1.0), _outward(theta, pad * up + up, 1.0),
        ModelCoefficients(theta, influence.lam), spec.budget, spec.fingerprint(),
    )


def interval_predict(hull: ModelHull, X: np.ndarray):
    """Range of x . theta over the hull box for each row x of X (k, m), rounded outward.

    Returns arrays (base, lo, hi): base = fl(x . theta0) and the range's ends.
    With the box's offsets a = lower - theta0 and b = upper - theta0, and
    mid = (a + b) / 2, rad = (b - a) / 2 and g = |mid| + rad, all in floats,
    the ends are base -+ reach, added by `_outward`, where

        reach_up   = (x . mid + |x| . rad) + kappa |x| . g
        reach_down = (|x| . rad - x . mid) + kappa |x| . g,   kappa = gamma_{3m+8}.

    Two two-column gemms per block of rows give the products: X [theta0, mid]
    and |X| [rad, g], with |X| formed in one buffer of `exact.ELEMS` values.

    Soundness, barring underflow and overflow, with u = 2**-53 and
    gamma_k = k u / (1 - k u); K is the hull's budget:

    - Enclosure.  a and b are rounded once and the split twice, so the box's
      real offsets lie within mid -+ (rad + gamma_3 g), and the real range of
      x . (theta - theta0) over the box within x . mid -+ |x| . rad widened by
      gamma_3 |x| . g.  Each product has m terms, so it is within
      gamma_m |x| . g of its real value.
    - Exact's rounding.  Exact sums the K largest rounded gains of
      z = fl(x C), each z_i within gamma_m |x| . |C_i| of x . C_i.  Its float
      reach s is at most (1 + gamma_K) times the real reach at x C, which
      `model_hull`'s margin absorbs, plus gamma_m |x| . (b - a) for the error
      in z, since a gain's slope in z_i is at most the sum of its two gains.
      That is at most 2 gamma_m (1 + gamma_3) |x| . g.
    - Allowance.  kappa |x| . g covers gamma_3 + 3 gamma_m of the real
      |x| . g, which is at most (1 + gamma_{m+1}) times its float value, and
      the two roundings that add each reach.  So each reach is at least the
      real reach over the box and at least exact's float reach s.
    - Verdicts.  An end is next(F), F = fl(base + reach).  Decision.band(eps)
      keeps it only if next(F) <= fl(base + eps), and rounding to nearest
      then needs base + eps > base + reach: eps exceeds the real reach and s,
      so the row is robust in real arithmetic, and exact's own end
      fl(b_e + s) <= fl(b_e + eps) keeps too, whatever its base b_e.  The
      lower end is the mirror image.  Under Decision.threshold() the whole
      range stays on base's side of 0.5.  Exact agrees when its own base
      fl(fl(x C) . y) lies within the allowance of base.  The two bases
      differ by rounding that the hull, which does not carry C, cannot
      bound, so a range ending within that rounding of 0.5 may be certified
      here and rejected by exact.

    A point box (budget 0) has mid = rad = 0, so every end is base, as is
    every end of a zero row.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != hull.m:
        raise DimensionMismatch(f"test points have shape {X.shape}, expected (k, {hull.m})")
    theta = hull.base.values
    below, above = hull.lower - theta, hull.upper - theta
    mid, rad = (below + above) * 0.5, (above - below) * 0.5
    signed, unsigned = np.column_stack([theta, mid]), np.column_stack([rad, np.abs(mid) + rad])
    k, m = X.shape
    rows = max(1, min(k, exact.ELEMS // m))
    at, spread, work = np.empty((k, 2)), np.empty((k, 2)), np.empty((rows, m))
    for start in range(0, k, rows):
        block = X[start : start + rows]
        part = slice(start, start + len(block))
        np.matmul(block, signed, out=at[part])
        np.matmul(np.abs(block, out=work[: len(block)]), unsigned, out=spread[part])
    base, shift = np.ascontiguousarray(at.T)
    radius, scale = spread.T
    slack = _gamma(3 * m + 8) * scale
    return (base, _outward(base, (radius - shift) + slack, -1.0),
            _outward(base, (shift + radius) + slack, 1.0))


def decide_approx_rows(hull: ModelHull, X: np.ndarray, decision: Decision) -> np.ndarray:
    """Whether each row of X (k, m) is certified: its hull range keeps the decision."""
    return decision.keeps(*interval_predict(hull, X))


_HULL_FORMAT = "labelcert-hull/1"


def hull_to_dict(hull: ModelHull) -> dict:
    """JSON-ready form of a hull for offline/online split deployments."""
    return {
        "format": _HULL_FORMAT,
        "lam": hull.base.lam,
        "budget": hull.budget,
        "fingerprint": hull.fingerprint,
        "base_coefficients": hull.base.values.tolist(),
        "intervals": [[float(l), float(h)] for l, h in zip(hull.lower, hull.upper)],
    }


def _finite(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"{value!r} is not a finite number")
    return float(value)


def _entries(payload: dict, key: str, read) -> list:
    """`read` of each entry of the list under `key`; a wrong type raises ParseError naming it."""
    try:
        return [read(entry) for entry in payload[key]]
    except (TypeError, ValueError) as exc:
        raise ParseError(f"hull payload key {key!r} has a malformed entry: {exc}") from None


def hull_from_dict(payload: dict) -> ModelHull:
    """Inverse of `hull_to_dict`.  A missing or malformed key, `format` included, raises
    ParseError naming it, as does anything `model_hull` never writes: no intervals, an
    empty or unbounded interval, a base coefficient that is not a finite number inside
    its interval, a ridge strength that is not a finite number >= 0, a budget that is not
    a count, or a fingerprint that is not a SHA-256 hex digest."""
    found = payload.get("format") if isinstance(payload, dict) else type(payload).__name__
    if found != _HULL_FORMAT:
        raise ParseError(f"unrecognized hull payload format: {found!r}")
    try:
        intervals = _entries(payload, "intervals", lambda pair: Interval(*pair))
        if not intervals:
            raise ParseError("hull payload key 'intervals' is empty")
        lam, budget, fingerprint = payload["lam"], payload["budget"], payload["fingerprint"]
        if isinstance(lam, bool) or not isinstance(lam, (int, float)) or not 0 <= lam < math.inf:
            raise ParseError(f"hull payload key 'lam' must be a finite number >= 0, got {lam!r}")
        if isinstance(budget, bool) or not isinstance(budget, int) or budget < 0:
            raise ParseError(f"hull payload key 'budget' must be a count >= 0, got {budget!r}")
        if not (isinstance(fingerprint, str) and re.fullmatch("[0-9a-f]{64}", fingerprint)):
            raise ParseError(f"hull payload key 'fingerprint' is not a SHA-256 hex digest: "
                             f"{fingerprint!r}")
        base = np.array(_entries(payload, "base_coefficients", _finite))
        if base.shape != (len(intervals),):
            raise ParseError(f"hull payload key 'base_coefficients' must list "
                             f"{len(intervals)} numbers, got shape {base.shape}")
        hull = ModelHull(
            lower=np.array([iv.lo for iv in intervals]),
            upper=np.array([iv.hi for iv in intervals]),
            base=ModelCoefficients(base, lam),
            budget=budget,
            fingerprint=fingerprint,
        )
        outside = (hull.base.values < hull.lower) | (hull.base.values > hull.upper)
        if outside.any():
            raise ParseError(f"hull payload key 'base_coefficients' has entry "
                             f"{int(np.argmax(outside))} outside its interval")
        return hull
    except KeyError as exc:
        raise ParseError(f"hull payload lacks the key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"hull payload has a malformed value: {exc}") from None


def save_hull(hull: ModelHull, path: str | Path) -> None:
    Path(path).write_text(json.dumps(hull_to_dict(hull), indent=2, sort_keys=True))


def load_hull(path: str | Path) -> ModelHull:
    """Read a hull written by `save_hull`; a malformed file raises ParseError naming it."""
    try:
        return hull_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except (ValueError, LabelCertError) as exc:
        raise ParseError(f"cannot load hull {path}: {exc}") from exc
