"""Tests for the brute-force enumeration oracle itself."""

import numpy as np
import pytest

from labelcert import BiasSpec, Dataset, uniform_delta
from labelcert.bias import PerturbationVector
from labelcert.errors import NonBinaryLabel
from conftest import random_instance
from oracle import (
    InstanceTooLarge,
    brute_force_classification,
    brute_force_hull,
    brute_force_range,
)


class TestBruteForceRange:
    def test_worked_example(self):
        z = np.array([-1.0, 2.0])
        y = np.array([3.0, 4.0])
        result = brute_force_range(z, y, BiasSpec(uniform_delta(2, 1.0), 1))
        assert (result.lo, result.hi) == (3.0, 7.0)

    def test_zero_budget(self, rng):
        z, y, spec = random_instance(rng, 6, 0)
        result = brute_force_range(z, y, spec)
        assert result.lo == result.hi == z @ y

    def test_size_guards(self):
        with pytest.raises(InstanceTooLarge):
            brute_force_range(np.ones(16), np.ones(16), BiasSpec(uniform_delta(16, 1.0), 1))
        with pytest.raises(InstanceTooLarge):
            brute_force_range(np.ones(5), np.ones(5), BiasSpec(uniform_delta(5, 1.0), 4))

    def test_interior_sampling_never_beats_endpoints(self, rng):
        for _ in range(25):
            z, y, spec = random_instance(rng, 9, 3)
            endpoints_only = brute_force_range(z, y, spec, interior_samples=False)
            with_interior = brute_force_range(z, y, spec, interior_samples=True)
            assert endpoints_only.lo == with_interior.lo
            assert endpoints_only.hi == with_interior.hi

    def test_full_budget_equals_interval_sum(self, rng):
        for _ in range(15):
            z, y, spec = random_instance(rng, 3, 3)
            full = brute_force_range(z, y, BiasSpec(spec.delta, 3))
            base = z @ y
            lo = base + sum(
                min(z[i] * spec.delta.lo[i], z[i] * spec.delta.hi[i]) for i in range(3)
            )
            hi = base + sum(
                max(z[i] * spec.delta.lo[i], z[i] * spec.delta.hi[i]) for i in range(3)
            )
            np.testing.assert_allclose(full.lo, lo, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(full.hi, hi, rtol=1e-9, atol=1e-12)


class TestBruteForceHull:
    def test_worked_example(self):
        C = np.array([[1.0, 2.0, 1.0], [-1.0, 0.0, 2.0], [2.0, 1.0, 0.0]])
        y = np.array([1.0, -1.0, 2.0])
        hull = brute_force_hull(C, y, BiasSpec(uniform_delta(3, 1.0), 2))
        assert [(iv.lo, iv.hi) for iv in hull] == [(-2.0, 4.0), (0.0, 6.0), (-2.0, 4.0)]

    def test_zero_budget_degenerate(self, rng):
        C = rng.normal(size=(3, 5))
        y = rng.normal(size=5)
        hull = brute_force_hull(C, y, BiasSpec(uniform_delta(5, 2.0), 0))
        for i, iv in enumerate(hull):
            assert iv.lo == iv.hi == C[i] @ y

    def test_column_guard(self):
        C = np.zeros((7, 4))
        with pytest.raises(InstanceTooLarge):
            brute_force_hull(C, np.zeros(4), BiasSpec(uniform_delta(4, 1.0), 1))


class TestBruteForceClassification:
    def test_zero_budget_always_robust(self, rng):
        X = rng.normal(size=(6, 2))
        y = (rng.random(6) < 0.5).astype(float)
        ds = Dataset(X, y)
        spec = BiasSpec(uniform_delta(6, 1.0), 0)
        assert brute_force_classification(rng.normal(size=2), ds, spec, lam=0.1)

    def test_separable_far_point_robust(self):
        X = np.array([[2.0, 1.0], [3.0, 1.0], [2.5, 1.0], [-2.0, 1.0], [-3.0, 1.0], [-2.5, 1.0]])
        y = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        ds = Dataset(X, y)
        delta = PerturbationVector(np.where(y == 1, -1.0, 0.0), np.where(y == 1, 0.0, 1.0))
        assert brute_force_classification(np.array([10.0, 1.0]), ds, BiasSpec(delta, 1), lam=0.1)

    def test_respects_targeted_intervals(self):
        # flipping is only allowed where the interval admits the move
        X = np.array([[1.0], [1.0], [-1.0], [-1.0]])
        y = np.array([1.0, 1.0, 0.0, 0.0])
        ds = Dataset(X, y)
        frozen = BiasSpec(uniform_delta(4, 0.0), 2)  # no movement allowed
        assert brute_force_classification(np.array([0.4]), ds, frozen, lam=0.01)

    def test_size_guards(self, rng):
        X = rng.normal(size=(13, 2))
        y = (rng.random(13) < 0.5).astype(float)
        ds = Dataset(X, y)
        with pytest.raises(InstanceTooLarge):
            brute_force_classification(
                np.ones(2), ds, BiasSpec(uniform_delta(13, 1.0), 1), lam=0.1
            )

    def test_rejects_non_binary(self, rng):
        ds = Dataset(rng.normal(size=(5, 2)), np.array([0.0, 1.0, 0.5, 0.0, 1.0]))
        with pytest.raises(NonBinaryLabel):
            brute_force_classification(
                np.ones(2), ds, BiasSpec(uniform_delta(5, 1.0), 1), lam=0.1
            )
