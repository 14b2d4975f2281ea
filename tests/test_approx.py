"""Tests for the hull-based approximate certifier."""

import json
from fractions import Fraction

import numpy as np
import pytest

from labelcert import (
    BiasSpec,
    Dataset,
    fit,
    load_hull,
    model_hull,
    uniform_delta,
)
from labelcert import exact
from labelcert.approx import (
    _gamma as gamma,
    decide_approx_rows,
    hull_from_dict,
    hull_to_dict,
    interval_predict,
    save_hull,
)
from labelcert.errors import DimensionMismatch, ParseError
from labelcert.exact import Decision, certify_from_influence
from labelcert.linalg import InfluenceMatrix, influence_vector
from conftest import random_dataset, random_delta, sample_bias_members, witnessed_range
from oracle import brute_force_hull
from referee import reaches

# Three-coefficient worked example: the reachable coefficient set is
# non-convex but its tight interval box is ([-2,4],[0,6],[-2,4]).
C3 = np.array([[1.0, 2.0, 1.0], [-1.0, 0.0, 2.0], [2.0, 1.0, 0.0]])
Y3 = np.array([1.0, -1.0, 2.0])
SPEC3 = BiasSpec(uniform_delta(3, 1.0), 2)


def _hull3():
    return model_hull(InfluenceMatrix(C3, 0.0), Y3, SPEC3)


# How far the worked example may pass its tight values.  `model_hull` pads each
# reach (3 in every coordinate) by gamma_{2K+3} and rounds outward;
# `interval_predict` adds kappa |x| . g with kappa = gamma_{3m+8} and g <= 3 (plus
# the padding) per coordinate, and rounds outward.  Each bound allows two float steps.
BOX_SLACK = gamma(2 * 2 + 4) * 3.0 + 2 * np.spacing(6.0)


def _certificate_slack(x):
    w = float(np.abs(x).sum())
    return w * BOX_SLACK + 2 * gamma(3 * 3 + 8) * 3.0 * w + 2 * np.spacing(3.0 * w + 3.0)


def _assert_encloses(got, tight, slack):
    """(base, lo, hi) from `interval_predict` keeps the base and contains the tight
    range (base, lo, hi), passing it by at most `slack` at each end."""
    (base, lo, hi), (tight_base, tight_lo, tight_hi) = got, tight
    assert base.tolist() == [tight_base]
    assert 0.0 <= tight_lo - lo[0] <= slack and 0.0 <= hi[0] - tight_hi <= slack


class TestModelHull:
    def test_worked_example_box(self):
        hull = _hull3()
        tight_lower, tight_upper = np.array([-2.0, 0.0, -2.0]), np.array([4.0, 6.0, 4.0])
        assert (0.0 <= tight_lower - hull.lower).all()
        assert (tight_lower - hull.lower <= BOX_SLACK).all()
        assert (0.0 <= hull.upper - tight_upper).all()
        assert (hull.upper - tight_upper <= BOX_SLACK).all()

    def test_known_reachable_points_inside(self):
        hull = _hull3()
        for point in ([3.0, 6.0, 3.0], [4.0, 5.0, 2.0]):
            assert ((hull.lower <= point) & (point <= hull.upper)).all()

    def test_zero_budget_degenerates_to_fit(self):
        spec = BiasSpec(uniform_delta(3, 1.0), 0)
        hull = model_hull(InfluenceMatrix(C3, 0.0), Y3, spec)
        np.testing.assert_array_equal(hull.lower, hull.upper)
        np.testing.assert_array_equal(hull.lower, C3 @ Y3)

    def test_matches_brute_force(self, rng):
        for _ in range(25):
            C = rng.normal(size=(4, 8))
            y = rng.normal(size=8)
            spec = BiasSpec(random_delta(rng, 8), int(rng.integers(0, 4)))
            hull = model_hull(InfluenceMatrix(C, 0.0), y, spec)
            slow = brute_force_hull(C, y, spec)
            for i, iv in enumerate(slow):
                np.testing.assert_allclose(hull.lower[i], iv.lo, rtol=1e-9, atol=1e-12)
                np.testing.assert_allclose(hull.upper[i], iv.hi, rtol=1e-9, atol=1e-12)

    def test_base_always_inside(self, rng):
        for _ in range(20):
            C = rng.normal(size=(3, 6))
            y = rng.normal(size=6)
            spec = BiasSpec(random_delta(rng, 6), 2)
            hull = model_hull(InfluenceMatrix(C, 0.0), y, spec)
            assert ((hull.lower <= hull.base.values) & (hull.base.values <= hull.upper)).all()

    def test_sampled_members_inside(self, rng):
        C = rng.normal(size=(3, 10))
        y = rng.normal(size=10)
        spec = BiasSpec(random_delta(rng, 10), 3)
        hull = model_hull(InfluenceMatrix(C, 0.0), y, spec)
        members = sample_bias_members(rng, y, spec, 500)
        coords = members @ C.T
        slack = 1e-9 * (1.0 + np.abs(coords))
        assert (coords >= hull.lower - slack).all()
        assert (coords <= hull.upper + slack).all()

    def test_bounds_attained_by_witnesses(self, rng):
        C = rng.normal(size=(4, 9))
        y = rng.normal(size=9)
        spec = BiasSpec(random_delta(rng, 9), 2)
        hull = model_hull(InfluenceMatrix(C, 0.0), y, spec)
        for i in range(4):
            result = witnessed_range(C[i], y, spec)
            np.testing.assert_allclose(C[i] @ result.lower_witness, hull.lower[i], rtol=1e-9)
            np.testing.assert_allclose(C[i] @ result.upper_witness, hull.upper[i], rtol=1e-9)


class TestIntervalPredict:
    # rows are (base, lo, hi); the hull base coefficients are (1, 3, 1)
    def test_zero_point(self):
        np.testing.assert_array_equal(interval_predict(_hull3(), np.zeros((1, 3))),
                                      [[0.0], [0.0], [0.0]])

    def test_unit_vector_selects_coordinate(self):
        x = [1.0, 0.0, 0.0]
        _assert_encloses(interval_predict(_hull3(), [x]), (1.0, -2.0, 4.0), _certificate_slack(x))

    def test_mixed_signs(self):
        x = [1.0, 1.0, -1.0]
        _assert_encloses(interval_predict(_hull3(), [x]), (3.0, -6.0, 12.0),
                         _certificate_slack(x))

    def test_dimension_mismatch(self):
        for bad in (np.ones(3), np.ones(4), np.ones((2, 4)), np.ones((2, 2, 3))):
            with pytest.raises(DimensionMismatch):
                interval_predict(_hull3(), bad)

    def test_block_rows_equal_single_points(self, rng, monkeypatch):
        C = rng.normal(size=(3, 9))
        hull = model_hull(InfluenceMatrix(C, 0.0), rng.normal(size=9),
                          BiasSpec(random_delta(rng, 9), 2))
        X = rng.normal(size=(5, 3))
        monkeypatch.setattr(exact, "ELEMS", 2 * 3)  # blocks of 2, 2 and 1 rows
        base, lo, hi = interval_predict(hull, X)
        assert base.shape == lo.shape == hi.shape == (5,)
        for i, x in enumerate(X):
            np.testing.assert_array_equal(interval_predict(hull, x[None]),
                                          [[base[i]], [lo[i]], [hi[i]]])
        base, lo, hi = interval_predict(hull, np.empty((0, 3)))
        assert base.shape == lo.shape == hi.shape == (0,)

    def test_dominates_exact_range(self, rng):
        for _ in range(30):
            ds = random_dataset(rng, n=10, m=3)
            spec = BiasSpec(random_delta(rng, 10), 2)
            _, influence = fit(ds, 0.3)
            hull = model_hull(influence, ds.y, spec)
            x = rng.normal(size=3)
            z = influence_vector(x, influence)
            exact = witnessed_range(z, ds.y, spec).interval
            _, lo, hi = interval_predict(hull, x[None])
            slack = 1e-12 * (1.0 + abs(exact.lo) + abs(exact.hi))
            assert lo[0] <= exact.lo + slack
            assert hi[0] >= exact.hi - slack


class TestCertifyApprox:
    def test_zero_budget_always_certified(self, rng):
        ds = random_dataset(rng, n=8, m=3)
        _, influence = fit(ds, 0.5)
        hull = model_hull(influence, ds.y, BiasSpec(uniform_delta(8, 1.0), 0))
        for eps in (0.0, 0.1, 5.0):
            x = rng.normal(size=3)
            assert decide_approx_rows(hull, x[None], Decision.band(eps)).tolist() == [True]

    def test_certified_implies_exact_robust(self, rng):
        certified_seen = 0
        for _ in range(120):
            ds = random_dataset(rng, n=9, m=3)
            spec = BiasSpec(random_delta(rng, 9), 2)
            _, influence = fit(ds, 0.4)
            hull = model_hull(influence, ds.y, spec)
            x = rng.normal(size=3)
            eps = rng.uniform(0.0, 3.0)
            if decide_approx_rows(hull, x[None], Decision.band(eps))[0]:
                certified_seen += 1
                z = influence_vector(x, influence)
                assert certify_from_influence(z, ds.y, spec, eps).robust
        assert certified_seen > 0

    def test_incompleteness_instance_exists(self):
        # duplicate feature columns: the exact range at x = (1, -1) collapses
        # to a point while every hull coordinate keeps positive width
        X = np.array([[1.0, 1.0], [2.0, 2.0], [-1.0, -1.0], [3.0, 3.0]])
        ds = Dataset(X, np.array([1.0, 2.0, -1.0, 3.0]))
        spec = BiasSpec(uniform_delta(4, 1.0), 2)
        _, influence = fit(ds, 1.0)
        hull = model_hull(influence, ds.y, spec)
        x = np.array([1.0, -1.0])
        z = influence_vector(x, influence)
        exact = certify_from_influence(z, ds.y, spec, epsilon=0.01)
        loose = decide_approx_rows(hull, x[None], Decision.band(0.01))
        assert exact.robust
        assert loose.tolist() == [False]


class TestDecideApproxRows:
    def test_rows_equal_single_points_across_blocks(self, rng, monkeypatch):
        ds = random_dataset(rng, n=9, m=3)
        _, influence = fit(ds, 0.4)
        hull = model_hull(influence, ds.y, BiasSpec(random_delta(rng, 9), 2))
        X = rng.normal(size=(7, 3))
        monkeypatch.setattr(exact, "ELEMS", 2 * 3)  # blocks of 2, 2, 2 and 1 rows
        for decision in (Decision.band(1.5), Decision.threshold()):
            rows = decide_approx_rows(hull, X, decision)
            single = [decide_approx_rows(hull, x[None], decision)[0] for x in X]
            np.testing.assert_array_equal(rows, np.array(single, dtype=bool))
        assert decide_approx_rows(hull, np.empty((0, 3)), decision).shape == (0,)

    def test_rejects_single_point(self, rng):
        ds = random_dataset(rng, n=6, m=2)
        _, influence = fit(ds, 0.5)
        hull = model_hull(influence, ds.y, BiasSpec(uniform_delta(6, 1.0), 1))
        for bad in (np.ones(2), np.ones((2, 3)), np.ones((0, 3))):
            with pytest.raises(DimensionMismatch):
                decide_approx_rows(hull, bad, Decision.threshold())


class TestBoundarySoundness:
    """No row is approx-certified and exact-rejected, with the band radius placed on
    exact's own reach, or one float step inside it, where rounding decides the verdicts."""

    def test_radii_at_exact_reach(self):
        rng = np.random.default_rng(18)
        checked = certified = 0
        for trial in range(150):
            m = 1 if trial % 3 == 0 else int(rng.integers(1, 9))  # at m = 1 the hull is tight
            lam = float(rng.choice([0.0, 0.1, 1.0]))
            n = int(rng.integers(max(4, m + 1), 60))
            ds = random_dataset(rng, n=n, m=m)
            spec = BiasSpec(random_delta(rng, n), int(rng.integers(0, n + 1)))
            _, influence = fit(ds, lam)
            hull = model_hull(influence, ds.y, spec)
            X = rng.normal(size=(12, m))
            base, lo, hi = exact.ranges(influence.values, ds.y, spec, X)
            decisions = [Decision.band(r) for r in (np.max(hi - base), np.max(base - lo), 0.0)]
            decisions.append(Decision.threshold())
            rows = [(X, d, slice(None)) for d in decisions]
            for i in range(len(X)):  # each row at its own reach, and just inside it
                up, down = hi[i] - base[i], base[i] - lo[i]
                for r in (up, down, np.nextafter(up, 0), np.nextafter(down, 0),
                          (1.0 - 1e-12) * max(up, down)):
                    rows.append((X[i : i + 1], Decision.band(r), slice(i, i + 1)))
            for block, decision, part in rows:
                approx = decide_approx_rows(hull, block, decision)
                robust = decision.keeps(base[part], lo[part], hi[part])
                assert not (approx & ~robust).any()
                checked += approx.size
                certified += int(approx.sum())
        assert checked == 150 * 12 * (4 + 5) and certified > 0

    def test_certified_rows_robust_in_real_arithmetic(self):
        """Every certificate at radii one float step around either certifier's reach holds
        for the referee, which sums the same float inputs without rounding."""
        rng = np.random.default_rng(23)
        certified = 0
        for trial in range(300):
            m = 1 if trial % 3 == 0 else int(rng.integers(1, 4))
            n = int(rng.integers(max(4, m + 1), 31))
            ds = random_dataset(rng, n=n, m=m)
            spec = BiasSpec(random_delta(rng, n), int(rng.integers(1, n + 1)))
            _, influence = fit(ds, float(rng.choice([0.0, 0.1, 1.0])))
            hull = model_hull(influence, ds.y, spec)
            X = rng.normal(size=(4, m))
            for ends in (exact.ranges(influence.values, ds.y, spec, X), interval_predict(hull, X)):
                base, lo, hi = ends
                for i, x in enumerate(X):
                    reach = max(hi[i] - base[i], base[i] - lo[i])
                    radii = [np.nextafter(reach, 0), reach, np.nextafter(reach, np.inf)]
                    kept = [r for r in radii
                            if decide_approx_rows(hull, x[None], Decision.band(r))[0]]
                    if kept:
                        _, down, up = reaches(influence.values, ds.y, spec.delta, spec.budget, x)
                        assert all(max(down, up) <= Fraction(float(r)) for r in kept)
                        certified += len(kept)
        assert certified > 0

    def test_referee_matches_ranges(self, rng):
        for _ in range(20):
            ds = random_dataset(rng, n=12, m=3)
            spec = BiasSpec(random_delta(rng, 12), int(rng.integers(0, 13)))
            _, influence = fit(ds, 0.3)
            x = rng.normal(size=3)
            base, lo, hi = exact.ranges(influence.values, ds.y, spec, x[None])
            ref = reaches(influence.values, ds.y, spec.delta, spec.budget, x)
            np.testing.assert_allclose([float(v) for v in ref],
                                       [base[0], base[0] - lo[0], hi[0] - base[0]],
                                       rtol=1e-12, atol=1e-12)


class TestCertifyApproxClassification:
    def test_threshold_sides(self):
        hull = _hull3()
        # x chosen so the base prediction is far above 0.5 but the hull crosses it
        x = np.array([1.0, 0.0, 0.0])
        verdict = decide_approx_rows(hull, x[None], Decision.threshold())
        assert verdict.tolist() == [False]  # hull coordinate [-2, 4] spans 0.5

    def test_certified_when_interval_clears_threshold(self, rng):
        ds = random_dataset(rng, n=8, m=2, binary=True)
        _, influence = fit(ds, 0.5)
        hull = model_hull(influence, ds.y, BiasSpec(uniform_delta(8, 0.0), 0))
        x = rng.normal(size=2)
        verdict = decide_approx_rows(hull, x[None], Decision.threshold())
        assert verdict.tolist() == [True]  # degenerate hull: nothing can move


class TestHullSerialization:
    def test_dict_round_trip(self):
        hull = _hull3()
        clone = hull_from_dict(hull_to_dict(hull))
        np.testing.assert_array_equal(clone.lower, hull.lower)
        np.testing.assert_array_equal(clone.upper, hull.upper)
        np.testing.assert_array_equal(clone.base.values, hull.base.values)
        assert clone.fingerprint == hull.fingerprint
        assert clone.budget == hull.budget

    def test_file_round_trip(self, tmp_path):
        hull = _hull3()
        path = tmp_path / "hull.json"
        save_hull(hull, path)
        clone = load_hull(path)
        np.testing.assert_array_equal(clone.lower, hull.lower)
        assert clone.fingerprint == hull.fingerprint

    def test_rejects_unknown_format(self):
        with pytest.raises(ParseError):
            hull_from_dict({"format": "something-else"})

    def test_missing_key_is_named(self):
        with pytest.raises(ParseError, match="'intervals'"):
            hull_from_dict({"format": "labelcert-hull/1"})

    def test_non_json_file_is_named(self, tmp_path):
        path = tmp_path / "hull.json"
        path.write_text("not json")
        with pytest.raises(ParseError, match="hull.json"):
            load_hull(path)

    def test_rejects_lower_above_upper(self, tmp_path):
        payload = hull_to_dict(_hull3())
        payload["intervals"][1] = [2.0, 1.0]
        with pytest.raises(ParseError, match="empty"):
            hull_from_dict(payload)
        path = tmp_path / "hull.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match="hull.json"):
            load_hull(path)

    def test_rejects_empty_hull(self):
        payload = dict(hull_to_dict(_hull3()), intervals=[], base_coefficients=[])
        with pytest.raises(ParseError, match="'intervals'"):
            hull_from_dict(payload)

    def test_rejects_non_finite_bound(self):
        payload = hull_to_dict(_hull3())
        payload["intervals"][0] = [float("-inf"), 1.0]
        with pytest.raises(ParseError, match="finite"):
            hull_from_dict(payload)

    @pytest.mark.parametrize("key, value", [
        ("budget", -3),
        ("budget", 2.7),
        ("budget", True),
        ("lam", True),
        ("lam", "0.5"),
        ("lam", -1.0),
        ("fingerprint", ""),
        ("base_coefficients", [5.0, 0.0, 0.0]),  # 5 lies outside interval 0, [-2, 4]
        ("base_coefficients", [1.0, 2.0]),  # three intervals
        ("base_coefficients", [[1.0, 2.0, 3.0]]),
        ("base_coefficients", None),
        ("base_coefficients", ["a", "b", "c"]),
        ("base_coefficients", [float("nan"), 3.0, 1.0]),
        ("intervals", [[0, "x"], [-1.0, 4.0], [-1.0, 4.0]]),
    ])
    def test_rejects_fields_model_hull_never_writes(self, key, value):
        payload = hull_to_dict(_hull3())
        payload[key] = value
        with pytest.raises(ParseError, match=f"'{key}'"):
            hull_from_dict(payload)
