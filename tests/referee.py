"""Real-arithmetic referee: reachable prediction ranges without rounding.

Takes the float influence matrix C, labels y, intervals and test point x as
given, and computes z = x . C, the base z . y and each side's sum of the
`budget` largest gains with `fractions.Fraction`, so nothing is rounded.  A
row is robust in a band of radius eps exactly when both sums are at most eps:
the verdict the certifiers approximate in floats.  Slow: for instances with a
few dozen labels.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from labelcert.bias import PerturbationVector


def _exact(values) -> list[Fraction]:
    return [Fraction(float(v)) for v in np.ravel(values)]


def reaches(C: np.ndarray, y: np.ndarray, delta: PerturbationVector, budget: int,
            x: np.ndarray) -> tuple[Fraction, Fraction, Fraction]:
    """(base, down, up) for the functional z = x . C: its value z . y, and how far moving
    at most `budget` labels within their intervals lowers or raises it."""
    xs = _exact(x)
    z = [sum((a * b for a, b in zip(xs, _exact(column))), Fraction(0)) for column in C.T]
    base = sum((zi * yi for zi, yi in zip(z, _exact(y))), Fraction(0))
    moves = list(zip(z, _exact(delta.lo), _exact(delta.hi)))
    up = sorted((max(zi * lo, zi * hi) for zi, lo, hi in moves), reverse=True)
    down = sorted((-min(zi * lo, zi * hi) for zi, lo, hi in moves), reverse=True)
    return base, sum(down[:budget], Fraction(0)), sum(up[:budget], Fraction(0))

