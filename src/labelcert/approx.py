"""Over-approximate certification via a coefficient hull.

Instead of re-solving the worst case per test point, bound each fitted
coefficient over the whole reachable label set once: one call of the exact
range kernel on the rows of the influence matrix.  The resulting interval
box (the model hull) is the tightest axis-aligned enclosure of the reachable
coefficient set.  The range of x . theta over that box is a budgeted-interval
problem of its own, with the base coefficients as "labels", each free to move
within its box side and all of them at once, so the same kernel certifies a
block of test points too.  The check is one-sided: a certificate implies
exact robustness, but failure to certify proves nothing.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bias import BiasSpec, Interval, PerturbationVector
from .errors import DimensionMismatch, LabelCertError, ParseError
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


def model_hull(influence: InfluenceMatrix, y: np.ndarray, spec: BiasSpec) -> ModelHull:
    """Tightest interval box containing every coefficient vector reachable under the spec.

    One call of the exact range kernel over the rows of the influence matrix
    C gives every coordinate interval and the base coefficients C @ y.  Both
    ends of coordinate i are attained up to rounding: see
    `prediction_range(C[i], y, spec)`.
    """
    y = np.asarray(y, dtype=float)
    if influence.n != y.size or y.size != spec.n:
        raise DimensionMismatch(
            f"influence matrix is {influence.m}x{influence.n}, labels {y.size}, "
            f"spec length {spec.n}"
        )
    base, lower, upper = ranges(influence.values, y, spec)
    return ModelHull(
        lower, upper, ModelCoefficients(base, influence.lam), spec.budget, spec.fingerprint()
    )


def interval_predict(hull: ModelHull, X: np.ndarray):
    """Range of x . theta over the hull box for each row x of X (k, m).

    `ranges` with the base coefficients theta0 as the labels, each free to
    move within [lower - theta0, upper - theta0] and all m at once.  Returns
    arrays (base, lo, hi): each row's prediction at theta0 and its range.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != hull.m:
        raise DimensionMismatch(f"test points have shape {X.shape}, expected (k, {hull.m})")
    theta = hull.base.values
    box = PerturbationVector(hull.lower - theta, hull.upper - theta)
    return ranges(X, theta, BiasSpec(box, hull.m))


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


def hull_from_dict(payload: dict) -> ModelHull:
    """Inverse of `hull_to_dict`.  A missing or malformed key, `format` included, raises
    ParseError naming it, as does anything `model_hull` never writes: an empty or
    unbounded interval, a base coefficient outside its interval, a ridge strength that is
    not a finite number >= 0, a budget that is not a count, or a fingerprint that is not
    a SHA-256 hex digest."""
    found = payload.get("format") if isinstance(payload, dict) else type(payload).__name__
    if found != _HULL_FORMAT:
        raise ParseError(f"unrecognized hull payload format: {found!r}")
    try:
        intervals = [Interval(*pair) for pair in payload["intervals"]]
        lam, budget, fingerprint = payload["lam"], payload["budget"], payload["fingerprint"]
        if isinstance(lam, bool) or not isinstance(lam, (int, float)) or not 0 <= lam < math.inf:
            raise ParseError(f"hull payload key 'lam' must be a finite number >= 0, got {lam!r}")
        if isinstance(budget, bool) or not isinstance(budget, int) or budget < 0:
            raise ParseError(f"hull payload key 'budget' must be a count >= 0, got {budget!r}")
        if not (isinstance(fingerprint, str) and re.fullmatch("[0-9a-f]{64}", fingerprint)):
            raise ParseError(f"hull payload key 'fingerprint' is not a SHA-256 hex digest: "
                             f"{fingerprint!r}")
        hull = ModelHull(
            lower=np.array([iv.lo for iv in intervals]),
            upper=np.array([iv.hi for iv in intervals]),
            base=ModelCoefficients(np.array(payload["base_coefficients"]), lam),
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
