"""Tests for the perturbation model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelcert import (
    BiasSpec,
    Dataset,
    TargetPredicate,
    apply_targeting,
    classification_delta,
    uniform_delta,
)
from labelcert.bias import Interval, PerturbationVector, contains
from labelcert.errors import DimensionMismatch, NonBinaryLabel, UnknownColumn
from conftest import dyadic_instances


class TestInterval:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Interval(1.0, 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Interval(-np.inf, 0.0)


class TestPerturbationVector:
    def test_must_contain_zero(self):
        with pytest.raises(ValueError):
            PerturbationVector(np.array([0.5]), np.array([1.0]))
        with pytest.raises(ValueError):
            PerturbationVector(np.array([-1.0]), np.array([-0.5]))

    def test_indexing(self):
        pv = PerturbationVector(np.array([-1.0, 0.0]), np.array([0.0, 2.0]))
        assert (pv.lo[1], pv.hi[1]) == (0.0, 2.0)
        assert len(pv) == 2

    def test_budget_cannot_exceed_length(self):
        pv = uniform_delta(3, 1.0)
        with pytest.raises(ValueError):
            BiasSpec(pv, 4)

    def test_fingerprint_tracks_content(self):
        a = BiasSpec(uniform_delta(3, 1.0), 2)
        b = BiasSpec(uniform_delta(3, 1.0), 2)
        c = BiasSpec(uniform_delta(3, 1.5), 2)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()
        assert a.fingerprint() != BiasSpec(uniform_delta(3, 1.0), 1).fingerprint()


class TestUniformDelta:
    def test_symmetric_intervals(self):
        pv = uniform_delta(2, 1.0)
        assert pv.lo.tolist() == [-1.0, -1.0] and pv.hi.tolist() == [1.0, 1.0]

    def test_zero_halfwidth(self):
        pv = uniform_delta(3, 0.0)
        assert pv.lo.tolist() == pv.hi.tolist() == [0.0, 0.0, 0.0]

    def test_single_label(self):
        pv = uniform_delta(1, 2.5)
        assert pv.lo.tolist() == [-2.5] and pv.hi.tolist() == [2.5]


class TestClassificationDelta:
    def test_flip_directions(self):
        pv = classification_delta(np.array([1.0, 0.0]))
        assert pv.lo.tolist() == [-1.0, 0.0] and pv.hi.tolist() == [0.0, 1.0]

    def test_all_zeros(self):
        pv = classification_delta(np.zeros(3))
        assert pv.lo.tolist() == [0.0, 0.0, 0.0] and pv.hi.tolist() == [1.0, 1.0, 1.0]

    def test_all_ones(self):
        pv = classification_delta(np.ones(2))
        assert pv.lo.tolist() == [-1.0, -1.0] and pv.hi.tolist() == [0.0, 0.0]

    def test_rejects_non_binary(self):
        with pytest.raises(NonBinaryLabel):
            classification_delta(np.array([0.0, 0.5]))


class TestTargeting:
    def _dataset(self):
        return Dataset(
            np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
            np.array([1.0, 0.0, 1.0]),
            group_labels=("A", "B", "A"),
        )

    def test_always_true_keeps_delta(self):
        ds = self._dataset()
        delta = uniform_delta(3, 1.0)
        # a predicate every row satisfies: group != <absent value>
        out = apply_targeting(delta, ds, TargetPredicate(value="Z", negate=True))
        np.testing.assert_array_equal(out.lo, delta.lo)
        np.testing.assert_array_equal(out.hi, delta.hi)

    def test_always_false_zeroes_delta(self):
        ds = self._dataset()
        out = apply_targeting(uniform_delta(3, 1.0), ds, TargetPredicate(value="Z"))
        np.testing.assert_array_equal(out.lo, np.zeros(3))
        np.testing.assert_array_equal(out.hi, np.zeros(3))

    def test_group_targeting(self):
        ds = self._dataset()
        out = apply_targeting(uniform_delta(3, 1.0), ds, TargetPredicate(value="A"))
        assert out.lo.tolist() == [-1.0, 0.0, -1.0] and out.hi.tolist() == [1.0, 0.0, 1.0]

    def test_feature_targeting(self):
        ds = self._dataset()
        pred = TargetPredicate(value=1.0, feature_index=0)
        out = apply_targeting(uniform_delta(3, 1.0), ds, pred)
        assert (out.lo[1], out.hi[1]) == (0.0, 0.0)
        assert (out.lo[0], out.hi[0]) == (-1.0, 1.0)

    def test_unknown_column(self):
        ds = Dataset(np.eye(2), np.ones(2))  # no group labels
        with pytest.raises(UnknownColumn):
            apply_targeting(uniform_delta(2, 1.0), ds, TargetPredicate(value="A"))
        with pytest.raises(UnknownColumn):
            apply_targeting(
                uniform_delta(2, 1.0), ds, TargetPredicate(value=1.0, feature_index=7)
            )

    def test_never_widens_and_keeps_zero(self, rng):
        ds = self._dataset()
        delta = PerturbationVector(np.array([-1.0, -2.0, 0.0]), np.array([0.5, 0.0, 3.0]))
        out = apply_targeting(delta, ds, TargetPredicate(value="B"))
        assert (out.lo >= delta.lo).all() and (out.hi <= delta.hi).all()
        assert (out.lo <= 0.0).all() and (out.hi >= 0.0).all()


class TestScaleDelta:
    """Δ scaled by c > 0, as the scale-invariance properties build it."""

    def test_identity_scale(self):
        pv = classification_delta(np.array([1.0, 0.0]))
        out = PerturbationVector(1.0 * pv.lo, 1.0 * pv.hi)
        np.testing.assert_array_equal(out.lo, pv.lo)
        np.testing.assert_array_equal(out.hi, pv.hi)

    def test_doubling(self):
        pv = uniform_delta(1, 1.0)
        out = PerturbationVector(2.0 * pv.lo, 2.0 * pv.hi)
        assert out.lo.tolist() == [-2.0] and out.hi.tolist() == [2.0]

    def test_componentwise(self):
        pv = PerturbationVector(np.array([-1.0, 0.0]), np.array([0.0, 3.0]))
        out = PerturbationVector(0.5 * pv.lo, 0.5 * pv.hi)
        assert out.lo.tolist() == [-0.5, 0.0] and out.hi.tolist() == [0.0, 1.5]


class TestContains:
    def test_original_labels_always_member(self):
        spec = BiasSpec(uniform_delta(2, 1.0), 0)
        assert contains(spec, np.array([3.0, 4.0]), np.array([3.0, 4.0]))

    def test_single_change_within_interval(self):
        spec = BiasSpec(uniform_delta(2, 1.0), 1)
        assert contains(spec, np.array([3.0, 4.0]), np.array([2.5, 4.0]))

    def test_too_many_changes(self):
        spec = BiasSpec(uniform_delta(2, 1.0), 1)
        assert not contains(spec, np.array([3.0, 4.0]), np.array([2.0, 5.0]))

    def test_change_outside_interval(self):
        spec = BiasSpec(uniform_delta(2, 1.0), 1)
        assert not contains(spec, np.array([3.0, 4.0]), np.array([1.5, 4.0]))

    def test_dimension_mismatch(self):
        spec = BiasSpec(uniform_delta(2, 1.0), 1)
        with pytest.raises(DimensionMismatch):
            contains(spec, np.array([1.0]), np.array([1.0, 2.0]))

    @given(dyadic_instances())
    @settings(max_examples=60)
    def test_reflexive_membership(self, instance):
        _, y, spec = instance
        assert contains(spec, y, y)

    @given(dyadic_instances(), st.sampled_from([0.5, 2.0, 4.0]))
    @settings(max_examples=60)
    def test_scaling_invariance(self, instance, c):
        _, y, spec = instance
        # perturb up to budget labels to their lower endpoints (exact dyadic math)
        y_tilde = y.copy()
        for i in range(spec.budget):
            y_tilde[i] = y[i] + spec.delta.lo[i]
        scaled = PerturbationVector(c * spec.delta.lo, c * spec.delta.hi)
        scaled_spec = BiasSpec(scaled, spec.budget)
        scaled_tilde = y + c * (y_tilde - y)
        assert contains(spec, y, y_tilde) == contains(scaled_spec, y, scaled_tilde)
