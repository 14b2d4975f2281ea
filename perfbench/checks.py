"""Correctness checks run on benchmark outputs, outside the timed section.

Each check adds to a `Checks` tally: outputs checked, outputs that failed,
and which of those failures are the recorded known defect.  The exact
reference here is written independently of `labelcert.exact`: a full sort of
the per-label impacts and a band or threshold test on the top-budget sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

THRESHOLD = 0.5
# Reference verdicts whose margin is within this share of the prediction's
# scale are too close to call in double precision and are not compared.
REL_TOL = 1e-9


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    known_defect: int = 0
    notes: list = field(default_factory=list)

    def record(self, ok: bool, what: str, known_defect: bool = False) -> None:
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        if known_defect:
            self.known_defect += 1
        if len(self.notes) < 20:
            self.notes.append(what)

    @property
    def unexpected(self) -> int:
        return self.failed - self.known_defect


def ridge_influence(X: np.ndarray, lam: float) -> np.ndarray:
    """C = (X'X + lam*I)^-1 X', solved with numpy rather than labelcert."""
    return np.linalg.solve(X.T @ X + lam * np.eye(X.shape[1]), X.T)


def reference_shift(z: np.ndarray, lo: np.ndarray, hi: np.ndarray, budget: int):
    """Largest upward and downward prediction shifts with `budget` labels moved."""
    up = np.sort(np.maximum(z * lo, z * hi))[::-1][:budget]
    down = np.sort(np.minimum(z * lo, z * hi))[:budget]
    return float(up[up > 0].sum()), float(-down[down < 0].sum())


def reference_verdict(z, y, lo, hi, budget, epsilon):
    """Exact verdict by full sort, or None when the margin is too close to call.

    `epsilon` None means classification at the 0.5 threshold.
    """
    base = float(z @ y)
    up, down = reference_shift(z, lo, hi, budget)
    scale = abs(base) + float(np.abs(z * y).sum()) + up + down + 1.0
    if epsilon is None:
        # Class 1 (base >= 0.5) breaks when it can drop strictly below 0.5;
        # class 0 breaks when it can reach 0.5.
        margin = (base - down) - THRESHOLD if base >= THRESHOLD else THRESHOLD - (base + up)
        robust = margin >= 0 if base >= THRESHOLD else margin > 0
    else:
        margin = epsilon - max(up, down)
        robust = margin >= 0
    if abs(margin) <= REL_TOL * scale:
        return None
    return robust


def check_exact_sample(checks, label, C, X_test, rows, y, lo, hi, budget, epsilon, verdicts):
    """Compare the program's exact verdicts at `rows` with the reference."""
    for i in rows:
        ref = reference_verdict(X_test[i] @ C, y, lo, hi, budget, epsilon)
        if ref is not None:
            checks.record(ref == bool(verdicts[i]), f"{label}: exact verdict row {i}")


def check_soundness(checks, label, exact, approx):
    """An approx-certified point must be exact-robust, point by point."""
    exact = np.asarray(exact, dtype=bool)
    approx = np.asarray(approx, dtype=bool)
    if exact.shape != approx.shape:
        checks.record(False, f"{label}: {exact.shape} exact vs {approx.shape} approx verdicts")
        return
    for i, unsound in enumerate(approx & ~exact):
        checks.record(not unsound, f"{label}: approx certified non-robust row {i}")


def sample_rows(n: int, count: int, seed) -> np.ndarray:
    return np.sort(np.random.default_rng(seed).choice(n, size=min(n, count), replace=False))
