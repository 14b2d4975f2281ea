"""Shared fixtures and random-instance generators for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from labelcert import BiasSpec, Dataset, Decision, decide_exact
from labelcert.bias import PerturbationVector


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def dyadic(min_value: int = -64, max_value: int = 64):
    """Floats on a 1/8 grid: sums and differences of these stay exact."""
    return st.integers(min_value, max_value).map(lambda k: k / 8.0)


@st.composite
def dyadic_instances(draw, max_n: int = 8, max_budget: int = 3):
    """(z, y, spec) with all values on the dyadic grid."""
    n = draw(st.integers(1, max_n))
    z = np.array(draw(st.lists(dyadic(), min_size=n, max_size=n)))
    y = np.array(draw(st.lists(dyadic(), min_size=n, max_size=n)))
    lo = np.array(draw(st.lists(dyadic(-40, 0), min_size=n, max_size=n)))
    hi = np.array(draw(st.lists(dyadic(0, 40), min_size=n, max_size=n)))
    budget = draw(st.integers(0, min(n, max_budget)))
    return z, y, BiasSpec(PerturbationVector(lo, hi), budget)


def random_delta(rng: np.random.Generator, n: int, scale: float = 2.0) -> PerturbationVector:
    """Mixed-sign intervals around 0; some collapse to one side or to [0, 0]."""
    lo = -rng.uniform(0.0, scale, n)
    hi = rng.uniform(0.0, scale, n)
    lo[rng.random(n) < 0.15] = 0.0
    hi[rng.random(n) < 0.15] = 0.0
    return PerturbationVector(lo, hi)


def random_instance(rng: np.random.Generator, n: int, budget: int, scale: float = 2.0):
    """(z, y, spec) with continuous random values."""
    z = rng.normal(0.0, scale, n)
    y = rng.normal(0.0, scale, n)
    return z, y, BiasSpec(random_delta(rng, n, scale), budget)


def witnessed_range(z, y, spec: BiasSpec):
    """The reachable interval and its witnesses, as `decide_exact` reports them."""
    return decide_exact(z, y, spec, Decision.threshold()).range


def random_dataset(
    rng: np.random.Generator, n: int, m: int, binary: bool = False
) -> Dataset:
    X = rng.normal(0.0, 1.0, (n, m))
    if binary:
        y = (rng.random(n) < 0.5).astype(float)
    else:
        y = rng.normal(0.0, 2.0, n)
    return Dataset(X, y)


def sample_bias_members(
    rng: np.random.Generator, y: np.ndarray, spec: BiasSpec, count: int
) -> np.ndarray:
    """Random members of the reachable label set (random subsets, values in the intervals)."""
    out = np.tile(y, (count, 1))
    n = len(y)
    for row in range(count):
        k = int(rng.integers(0, spec.budget + 1))
        idx = rng.choice(n, size=k, replace=False)
        for i in idx:
            lo, hi = spec.delta.lo[i], spec.delta.hi[i]
            pick = rng.random()
            if pick < 0.15:
                d = lo
            elif pick < 0.3:
                d = hi
            else:
                d = rng.uniform(lo, hi)
            out[row, i] = y[i] + d
    return out
