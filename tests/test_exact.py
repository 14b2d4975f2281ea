"""Tests for the exact certifier: ranges, verdicts, witnesses, minimal budgets."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from labelcert import (
    BiasSpec,
    Dataset,
    classification_delta,
    fit,
    influence_vector,
    uniform_delta,
)
from labelcert.bias import PerturbationVector, contains
from labelcert.errors import DimensionMismatch, NoAttackExists
from labelcert import exact
from labelcert.exact import (
    Decision,
    decide_exact,
    fixed_attack,
    min_flips_from_influence,
    ranges,
    verdicts,
)
from conftest import (dyadic, dyadic_instances, random_dataset, random_delta, random_instance,
                      witnessed_range)
from oracle import (
    argsort_fixed_attack,
    argsort_greedy,
    argsort_min_flips,
    argsort_witnesses,
    brute_force_classification,
    brute_force_range,
    gains,
)

# The two-label worked example used throughout: z = (-1, 2), y = (3, 4),
# every label may move within [-1, 1], at most one label changes.
Z2 = np.array([-1.0, 2.0])
Y2 = np.array([3.0, 4.0])
SPEC2 = BiasSpec(uniform_delta(2, 1.0), 1)


def one_label(base, lo, hi):
    """(z, y, spec) of one label whose reachable interval is [lo, hi] around `base`
    (dyadic values keep every end exact)."""
    delta = PerturbationVector(np.array([lo - base]), np.array([hi - base]))
    return np.ones(1), np.array([base]), BiasSpec(delta, 1)


class TestDecision:
    def test_band_is_closed(self):
        band = Decision.band(2.0)
        assert band.limits(5.0) == (3.0, 7.0)
        # hi == base + epsilon and lo == base - epsilon exactly still keep
        np.testing.assert_array_equal(
            band.keeps(np.array([5.0, 5.0, 5.0, 5.0]), np.array([3.0, 2.5, 4.0, 3.0]),
                       np.array([7.0, 7.0, 7.125, 5.0])),
            [True, False, False, True],
        )
        predictions = np.array([2.5, 3.0, 7.0, 7.5])
        np.testing.assert_array_equal(band.keeps(5.0, predictions, predictions),
                                      [False, True, True, False])
        for lo, hi, robust in ((3.0, 7.0, True), (2.5, 7.0, False)):
            assert decide_exact(*one_label(5.0, lo, hi), band).robust == robust

    def test_band_counterexample_side_is_the_further_escape(self):
        band = Decision.band(1.0)
        # SPEC2 reaches [3, 7] around 5: equal excess, so the upper witness
        equal = decide_exact(Z2, Y2, SPEC2, band)
        assert not equal.robust
        np.testing.assert_array_equal(equal.counterexample, equal.range.upper_witness)
        np.testing.assert_array_equal(equal.counterexample, [3.0, 5.0])
        # a deeper move down reaches [2, 7]: the lower end escapes further
        delta = PerturbationVector(np.array([-1.0, -1.5]), np.array([1.0, 1.0]))
        deeper = decide_exact(Z2, Y2, BiasSpec(delta, 1), band)
        assert (deeper.range.interval.lo, deeper.range.interval.hi) == (2.0, 7.0)
        np.testing.assert_array_equal(deeper.counterexample, [3.0, 2.5])
        assert Z2 @ deeper.counterexample == 2.0

    def test_threshold_half_is_class_one(self):
        below = np.nextafter(0.5, 0.0)
        threshold = Decision.threshold()
        assert Decision.label(0.5) and not Decision.label(below)
        # class 1 escapes strictly below 0.5, class 0 escapes at 0.5
        for base, predictions, escaped in ((0.75, [0.5, below], [False, True]),
                                           (0.25, [below, 0.5], [False, True]),
                                           (0.5, [below, 9.0], [True, False])):
            predictions = np.array(predictions)
            np.testing.assert_array_equal(~threshold.keeps(base, predictions, predictions),
                                          escaped)

    def test_threshold_breaks_only_toward_the_other_class(self):
        threshold = Decision.threshold()
        # z = (0.25, 0.5), y = (1, 1): base 0.75, class 1
        z, y = np.array([0.25, 0.5]), np.ones(2)
        kept = decide_exact(z, y, BiasSpec(uniform_delta(2, 0.5), 1), threshold)
        assert (kept.range.interval.lo, kept.range.interval.hi) == (0.5, 1.0)
        assert kept.robust and kept.counterexample is None  # lo == 0.5 is still class 1
        # the upper end moves much further, yet only the lower end breaks class 1
        lower = decide_exact(z, y, BiasSpec(PerturbationVector(np.array([0.0, -0.75]),
                                                               np.array([0.0, 8.0])), 1),
                             threshold)
        assert (lower.range.interval.lo, lower.range.interval.hi) == (0.375, 4.75)
        np.testing.assert_array_equal(lower.counterexample, [1.0, 0.25])
        # y = (1, 0): base 0.25, class 0, and reaching 0.5 breaks it
        upper = decide_exact(z, np.array([1.0, 0.0]), BiasSpec(uniform_delta(2, 0.5), 1),
                             threshold)
        assert upper.range.interval.hi == 0.5 and not upper.robust
        np.testing.assert_array_equal(upper.counterexample, [1.0, 0.5])
        # lo == 0.5 keeps class 1 (base 0.75 or base 0.5); reaching 0.5 breaks class 0
        np.testing.assert_array_equal(
            threshold.keeps(np.array([0.75, 0.5, 0.5, 0.25, 0.25]),
                            np.array([0.5, 0.5, 0.375, 0.125, 0.125]),
                            np.array([0.875, 0.5, 0.625, 0.375, 0.5])),
            [True, True, False, True, False],
        )

    # Dyadic (decision, base, lo, hi) cases on and around every boundary:
    # hi == base + epsilon, lo == 0.5, base == 0.5.
    BOUNDARY_CASES = [
        (Decision.band(0.25), 1.0, 0.75, 1.25),
        (Decision.band(0.25), 1.0, 1.0, 1.25),
        (Decision.band(0.25), 1.0, 0.875, 1.375),
        (Decision.band(0.25), 1.0, 0.625, 1.125),
        (Decision.band(0.0), 0.5, 0.5, 0.5),
        (Decision.band(0.0), 0.5, 0.5, 0.625),
        (Decision.threshold(), 0.75, 0.5, 1.0),
        (Decision.threshold(), 0.75, 0.375, 1.0),
        (Decision.threshold(), 0.5, 0.5, 0.5),
        (Decision.threshold(), 0.5, 0.5, 2.0),
        (Decision.threshold(), 0.5, 0.25, 0.5),
        (Decision.threshold(), 0.25, 0.0, 0.5),
        (Decision.threshold(), 0.25, 0.0, 0.375),
    ]

    @pytest.mark.parametrize("decision", [Decision.band(0.25), Decision.band(0.0),
                                          Decision.threshold()])
    def test_block_rule_agrees_with_decide_exact(self, decision):
        cases = [c[1:] for c in self.BOUNDARY_CASES if c[0] == decision]
        base, lo, hi = (np.array(column) for column in zip(*cases))
        block = decision.keeps(base, lo, hi)
        single = []
        for case in cases:
            result = decide_exact(*one_label(*case), decision)
            assert (result.base_prediction, result.range.interval.lo,
                    result.range.interval.hi) == case
            single.append(result.robust)
        np.testing.assert_array_equal(block, single)
        assert block.any() and not block.all()

    def test_band_radius_validated(self):
        for bad in (-0.1, None, float("nan")):
            with pytest.raises(ValueError):
                Decision.band(bad)

    def test_for_task(self):
        assert Decision.for_task("classification", 3.0) == Decision.threshold()
        assert Decision.for_task("regression", 3.0) == Decision.band(3.0)
        with pytest.raises(ValueError):
            Decision.for_task("regression", None)


class TestPotentialImpacts:
    """Each label's potential impact toward one side, as a full-budget witness moves it."""

    def test_worked_example_positive(self):
        full = witnessed_range(Z2, Y2, BiasSpec(SPEC2.delta, 2))
        np.testing.assert_array_equal(Z2 * (full.upper_witness - Y2), [1.0, 2.0])
        assert full.interval.hi == 8.0

    def test_worked_example_negative(self):
        full = witnessed_range(Z2, Y2, BiasSpec(SPEC2.delta, 2))
        np.testing.assert_array_equal(Z2 * (Y2 - full.lower_witness), [1.0, 2.0])
        assert full.interval.lo == 2.0

    def test_zero_intervals_zero_impacts(self, rng):
        z, y = rng.normal(size=5), rng.normal(size=5)
        for budget in (1, 5):
            result = witnessed_range(z, y, BiasSpec(uniform_delta(5, 0.0), budget))
            assert result.interval.lo == result.interval.hi == z @ y
            np.testing.assert_array_equal(result.upper_witness, y)
            np.testing.assert_array_equal(result.lower_witness, y)

    def test_signs(self, rng):
        # a label moved to its end on the attacked side never loses
        for _ in range(20):
            z, y, spec = random_instance(rng, 8, 3)
            full = witnessed_range(z, y, BiasSpec(spec.delta, 8))
            up, down = z * (full.upper_witness - y), z * (y - full.lower_witness)
            assert (up >= 0).all() and (down >= 0).all()
            np.testing.assert_allclose(up, gains(z, spec.delta, "upper"), rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(down, gains(z, spec.delta, "lower"), rtol=1e-12,
                                       atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            decide_exact(np.ones(3), np.ones(3), BiasSpec(uniform_delta(2, 1.0), 1),
                         Decision.threshold())
        with pytest.raises(DimensionMismatch):
            fixed_attack(np.ones(3), np.ones(3), uniform_delta(2, 1.0), "upper", 1)


class TestPredictionRange:
    def test_worked_example(self):
        rng_result = witnessed_range(Z2, Y2, SPEC2)
        assert rng_result.interval.lo == 3.0
        assert rng_result.interval.hi == 7.0
        np.testing.assert_array_equal(rng_result.upper_witness, [3.0, 5.0])
        np.testing.assert_array_equal(rng_result.lower_witness, [3.0, 3.0])

    def test_zero_budget_degenerate(self, rng):
        z, y, spec = random_instance(rng, 6, 0)
        result = witnessed_range(z, y, spec)
        assert result.interval.lo == result.interval.hi == z @ y
        np.testing.assert_array_equal(result.upper_witness, y)
        np.testing.assert_array_equal(result.lower_witness, y)

    def test_matches_brute_force(self, rng):
        for _ in range(40):
            z, y, spec = random_instance(rng, 10, 2)
            fast = witnessed_range(z, y, spec).interval
            slow = brute_force_range(z, y, spec)
            np.testing.assert_allclose(fast.lo, slow.lo, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(fast.hi, slow.hi, rtol=1e-9, atol=1e-12)

    def test_tie_breaks_toward_lowest_index(self):
        z = np.array([1.0, 1.0, 1.0])
        y = np.zeros(3)
        result = witnessed_range(z, y, BiasSpec(uniform_delta(3, 1.0), 1))
        np.testing.assert_array_equal(result.upper_witness, [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(result.lower_witness, [-1.0, 0.0, 0.0])

    def test_zero_impact_labels_left_untouched(self):
        # the second label has huge leeway but zero influence
        z = np.array([1.0, 0.0])
        y = np.array([5.0, 5.0])
        spec = BiasSpec(PerturbationVector(np.array([0.0, -9.0]), np.array([0.0, 9.0])), 2)
        result = witnessed_range(z, y, spec)
        np.testing.assert_array_equal(result.upper_witness, y)
        np.testing.assert_array_equal(result.lower_witness, y)

    @given(dyadic_instances())
    @settings(max_examples=80)
    def test_base_inside_and_witnesses_valid(self, instance):
        z, y, spec = instance
        result = witnessed_range(z, y, spec)
        base = z @ y
        assert result.interval.lo <= base <= result.interval.hi
        # dyadic data keeps witness arithmetic exact, so membership is exact
        assert contains(spec, y, result.upper_witness)
        assert contains(spec, y, result.lower_witness)
        assert z @ result.upper_witness == result.interval.hi
        assert z @ result.lower_witness == result.interval.lo

    def test_witnesses_attain_ends_up_to_rounding(self, rng):
        # Off dyadic data the interval's ends (base plus a sum of selected
        # impacts) and the witnesses' predictions (dot products) agree only up
        # to rounding, so a counterexample escapes unless the interval escapes
        # by no more than that.
        mismatched = 0
        for _ in range(300):
            n = int(rng.integers(2, 30))
            z, y = rng.normal(size=n), rng.normal(size=n)
            spec = BiasSpec(random_delta(rng, n), int(rng.integers(0, n + 1)))
            result = witnessed_range(z, y, spec)
            lo, hi = result.interval.lo, result.interval.hi
            tol = 1e-12 * (np.abs(z) @ (np.abs(y) + 2.0))
            for witness, end in ((result.lower_witness, lo), (result.upper_witness, hi)):
                assert abs(z @ witness - end) <= tol
                mismatched += z @ witness != end
            base = decide_exact(z, y, spec, Decision.threshold()).base_prediction
            for decision in (Decision.band(hi - base), Decision.band(0.5), Decision.threshold()):
                cert = decide_exact(z, y, spec, decision)
                assert cert.robust == bool(decision.keeps(base, lo, hi))
                if not cert.robust:
                    low, high = decision.limits(cert.base_prediction)
                    reached = z @ cert.counterexample
                    assert reached < low + tol or reached > high - tol
        assert mismatched  # the rounding this test allows for does occur

    @given(dyadic_instances())
    @settings(max_examples=60)
    def test_nested_in_budget(self, instance):
        z, y, spec = instance
        if spec.budget >= spec.n:
            return
        small = witnessed_range(z, y, spec).interval
        big = witnessed_range(z, y, BiasSpec(spec.delta, spec.budget + 1)).interval
        assert big.lo <= small.lo and small.hi <= big.hi

    @given(dyadic_instances())
    @settings(max_examples=60)
    def test_exactly_matches_oracle_on_dyadic_grid(self, instance):
        # every operation is exact on the 1/8 grid, so equality must be exact
        z, y, spec = instance
        fast = witnessed_range(z, y, spec).interval
        slow = brute_force_range(z, y, spec)
        assert (fast.lo, fast.hi) == (slow.lo, slow.hi)


def _full_sort_range(z, y, spec):
    """Reference interval by full sorts of the per-label impacts."""
    up = np.sort(np.maximum(z * spec.delta.hi, z * spec.delta.lo))[::-1][: spec.budget]
    down = np.sort(np.minimum(z * spec.delta.hi, z * spec.delta.lo))[: spec.budget]
    base = z @ y
    return base + down.sum(), base + up.sum()


class TestRanges:
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_rows_match_single_ranges_and_oracle(self, rng, symmetric):
        for _ in range(40):
            n = int(rng.integers(1, 11))
            budget = int(rng.integers(0, min(n, 3) + 1))
            _, y, spec = random_instance(rng, n, budget)
            if symmetric:  # one selection serves both ends
                spec = BiasSpec(uniform_delta(n, rng.uniform(0.0, 2.0)), budget)
            Z = rng.normal(0.0, 2.0, (5, n))
            base, lo, hi = ranges(Z, y, spec)
            np.testing.assert_allclose(base, Z @ y, rtol=1e-12, atol=1e-12)
            for i, z in enumerate(Z):
                single = witnessed_range(z, y, spec).interval
                np.testing.assert_allclose([lo[i], hi[i]], [single.lo, single.hi],
                                           rtol=1e-12, atol=1e-12)
                slow = brute_force_range(z, y, spec)
                np.testing.assert_allclose([lo[i], hi[i]], [slow.lo, slow.hi],
                                           rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_budget_zero_and_full(self, rng, symmetric):
        n = 40
        _, y, _ = random_instance(rng, n, 0)
        Z = rng.normal(size=(6, n))
        delta = uniform_delta(n, 0.75) if symmetric else random_delta(rng, n)
        for budget in (0, 1, 7, n):
            spec = BiasSpec(delta, budget)
            base, lo, hi = ranges(Z, y, spec)
            for i, z in enumerate(Z):
                np.testing.assert_allclose([lo[i], hi[i]], _full_sort_range(z, y, spec),
                                           rtol=1e-12)
            if budget == 0:
                np.testing.assert_array_equal(lo, base)
                np.testing.assert_array_equal(hi, base)

    def test_ties_zero_width_intervals_and_zero_rows_exact(self):
        # dyadic values keep every sum exact, so equality is exact
        y = np.array([1.0, -2.0, 0.5, 3.0, 0.0, -1.5])
        lo = np.array([-1.0, -1.0, 0.0, -0.5, 0.0, -2.0])
        hi = np.array([1.0, 1.0, 0.0, 0.5, 0.0, 0.25])
        spec = BiasSpec(PerturbationVector(lo, hi), 2)
        Z = np.array([
            [1.0, 1.0, 1.0, -1.0, -1.0, 0.0],  # ties among the top impacts
            [2.0, -2.0, 8.0, 0.0, 4.0, 0.0],  # big influence only on frozen labels
            np.zeros(6),  # no influence at all
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.5],  # influence only on a lopsided interval
        ])
        base, lo_out, hi_out = ranges(Z, y, spec)
        for i, z in enumerate(Z):
            slow = brute_force_range(z, y, spec)
            assert (base[i], lo_out[i], hi_out[i]) == (z @ y, slow.lo, slow.hi)
        assert lo_out[2] == hi_out[2] == base[2] == 0.0

    def test_targeted_zero_width_everywhere(self, rng):
        n = 12
        spec = BiasSpec(uniform_delta(n, 0.0), 5)
        Z = rng.normal(size=(4, n))
        y = rng.normal(size=n)
        base, lo, hi = ranges(Z, y, spec)
        np.testing.assert_array_equal(lo, base)
        np.testing.assert_array_equal(hi, base)

    def test_blocks_do_not_change_rows(self, rng, monkeypatch):
        n, k = 30, 11
        _, y, spec = random_instance(rng, n, 4)
        X = rng.normal(size=(k, 3))
        C = rng.normal(size=(3, n))
        whole = ranges(X @ C, y, spec)
        factored = ranges(C, y, spec, X)
        monkeypatch.setattr(exact, "ELEMS", 4 * n)  # blocks of 4, 4 and 3 rows
        blocked = ranges(X @ C, y, spec)
        blocked_factored = ranges(C, y, spec, X)
        for a, b in zip(whole, blocked):
            np.testing.assert_array_equal(a, b)
        for a, b, c in zip(whole, factored, blocked_factored):
            np.testing.assert_allclose(b, a, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(c, a, rtol=1e-12, atol=1e-12)

    def test_no_rows(self, rng):
        _, y, spec = random_instance(rng, 5, 2)
        for out in ranges(np.empty((0, 5)), y, spec):
            assert out.shape == (0,)
        for out in ranges(np.ones((2, 5)), y, spec, np.empty((0, 2))):
            assert out.shape == (0,)

    def test_dimension_mismatch(self, rng):
        _, y, spec = random_instance(rng, 5, 2)
        with pytest.raises(DimensionMismatch):
            ranges(np.ones((2, 4)), y, spec)
        with pytest.raises(DimensionMismatch):
            ranges(np.ones(5), y, spec)
        with pytest.raises(DimensionMismatch):
            ranges(np.ones((2, 5)), y, spec, np.ones((3, 3)))


def per_budget(Z, y, delta, budgets, decision, X=None):
    """Reference verdicts: one `ranges` call per budget, judged by `decision.keeps`."""
    k = len(Z if X is None else X)
    rows = [decision.keeps(*ranges(Z, y, BiasSpec(delta, int(b)), X)) for b in budgets]
    return np.array(rows, dtype=bool).reshape(len(budgets), k)


def assert_grid_matches(Z, y, delta, budgets, decision, X=None):
    got = verdicts(Z, y, delta, budgets, decision, X)
    assert got.dtype == bool
    np.testing.assert_array_equal(got, per_budget(Z, y, delta, budgets, decision, X))
    return got


def reach_radii(Z, y, delta, budgets):
    """Band radii at each row's exact upward and downward reach, and one float step below."""
    radii = {0.0}
    for b in budgets:
        base, lo, hi = ranges(Z, y, BiasSpec(delta, int(b)))
        for r in np.concatenate([hi - base, base - lo]):
            radii |= {float(r), float(np.nextafter(r, 0.0))} if r >= 0 else set()
    return sorted(radii)


@st.composite
def grid_instances(draw):
    """(Z, y, delta, budgets, X) with non-dyadic values; symmetric, asymmetric or
    partly zero-width intervals; and an unsorted budget grid with repeats."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["symmetric", "asymmetric", "zero-width"]))
    if kind == "symmetric":
        width = rng.uniform(0.0, 1.5, n)
        delta = PerturbationVector(-width, width)
    else:
        delta = random_delta(rng, n)
        if kind == "zero-width":
            frozen = rng.random(n) < 0.5
            delta = PerturbationVector(np.where(frozen, 0.0, delta.lo),
                                       np.where(frozen, 0.0, delta.hi))
    m, k = draw(st.integers(1, 4)), draw(st.integers(0, 9))
    C = rng.normal(0.0, 1.0 / n, (m, n))
    X = rng.normal(size=(k, m))
    y = rng.normal(0.0, 2.0, n)
    budgets = draw(st.lists(st.integers(0, n), min_size=1, max_size=5))
    return X @ C, y, delta, budgets, (C, X)


class TestVerdicts:
    """`verdicts` equals one `decision.keeps(*ranges(...))` per budget, bit for bit."""

    @given(grid_instances(), st.floats(0.0, 1.0), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_budget_ranges(self, instance, epsilon, factored):
        Z, y, delta, budgets, (C, X) = instance
        for decision in (Decision.threshold(), Decision.band(epsilon)):
            if factored:
                assert_grid_matches(C, y, delta, budgets, decision, X)
            else:
                assert_grid_matches(Z, y, delta, budgets, decision)

    @given(grid_instances())
    @settings(max_examples=60, deadline=None)
    def test_band_radii_at_each_rows_reach(self, instance):
        # the band's edge is a row's exact end, or one float step inside it
        Z, y, delta, budgets, _ = instance
        for radius in reach_radii(Z, y, delta, budgets):
            assert_grid_matches(Z, y, delta, budgets, Decision.band(radius))

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_equal_magnitude_rows(self, symmetric):
        # every gain equals the screen's M, the tightest case for its bound K * M
        n = 37
        rng = np.random.default_rng(5)
        signs = np.where(rng.random((6, n)) < 0.5, -1.0, 1.0)
        Z = signs * np.array([[0.1], [1 / 3], [0.7], [1e-3], [2.0**-20], [3.3]])
        y = rng.normal(size=n)
        delta = uniform_delta(n, 0.3) if symmetric else PerturbationVector(
            np.full(n, -0.3), np.full(n, 0.3 * (1 - 2.0**-30)))
        budgets = [n, 1, 17, 36]
        seen = set()
        for radius in reach_radii(Z, y, delta, budgets):
            seen |= set(assert_grid_matches(Z, y, delta, budgets, Decision.band(radius)).flat)
        assert seen == {True, False}
        assert_grid_matches(Z, y, delta, budgets, Decision.threshold())

    def test_base_exactly_half(self):
        # base 0.5 is class 1: any decrease breaks it, rows without one keep
        y = np.array([1.0, 0.0, 1.0, 0.0])
        Z = np.array([[0.5, 0.0, 0.0, 0.0],  # decreases through label 0
                      [0.25, 0.0, 0.25, 0.0],
                      [0.5, 0.0, 0.0, 0.1],  # label 3 can only rise: pushes up
                      [0.0, 0.5, 0.5, 0.0]])
        assert (Z @ y == 0.5).all()
        delta = classification_delta(y)
        got = assert_grid_matches(Z, y, delta, [0, 1, 2, 4], Decision.threshold())
        np.testing.assert_array_equal(got[0], [True] * 4)
        np.testing.assert_array_equal(got[1], [False, False, False, False])
        # labels 0 and 2 frozen, label 3 may only rise
        frozen = PerturbationVector(np.array([0.0, -1, 0, 0]), np.array([0.0, 1, 0, 1]))
        kept = assert_grid_matches(Z[:3], y, frozen, [4], Decision.threshold())
        np.testing.assert_array_equal(kept, [[True, True, True]])

    @pytest.mark.parametrize("budgets", [[0], [12], [5, 0, 12, 5, 1, 0], []])
    def test_budget_grids(self, rng, budgets):
        n = 12
        _, y, spec = random_instance(rng, n, 0)
        Z = rng.normal(size=(7, n))
        for decision in (Decision.threshold(), Decision.band(0.5), Decision.band(0.0)):
            got = assert_grid_matches(Z, y, spec.delta, budgets, decision)
            assert got.shape == (len(budgets), 7)

    def test_no_rows(self, rng):
        _, y, spec = random_instance(rng, 5, 0)
        for decision in (Decision.threshold(), Decision.band(0.1)):
            assert verdicts(np.empty((0, 5)), y, spec.delta, [0, 2], decision).shape == (2, 0)
            assert verdicts(np.ones((2, 5)), y, spec.delta, [3], decision,
                            np.empty((0, 2))).shape == (1, 0)

    def test_budgets_and_shapes_checked(self, rng):
        _, y, spec = random_instance(rng, 5, 0)
        with pytest.raises(ValueError, match="exceeds"):
            verdicts(np.ones((2, 5)), y, spec.delta, [1, 6], Decision.threshold())
        with pytest.raises(ValueError, match="nonnegative"):
            verdicts(np.ones((2, 5)), y, spec.delta, [-1], Decision.threshold())
        with pytest.raises(DimensionMismatch):
            verdicts(np.ones((2, 4)), y, spec.delta, [1], Decision.threshold())

    @pytest.mark.parametrize("epsilon, partitioned", [(50.0, []), (0.0, [3, 3, 3, 2]),
                                                      (0.35, [3, 2, 1, 2])])
    def test_blocks_settled_none_or_mixed(self, epsilon, partitioned, monkeypatch):
        # 3-row blocks that the screen settles entirely, not at all, or in part:
        # rows 5-7 barely move, so a radius of 0.35 settles them and no other row
        n, k = 24, 11
        rng = np.random.default_rng(8)
        C = rng.normal(0.0, 0.2, (3, n))
        X = rng.normal(size=(k, 3))
        X[5:8] *= 1e-6
        y = rng.normal(size=n)
        delta, budgets = uniform_delta(n, 0.5), [2, 0, 6]
        monkeypatch.setattr(exact, "ELEMS", 3 * n)
        decision = Decision.band(epsilon)
        expected = per_budget(C, y, delta, budgets, decision, X)
        selected = []  # rows partitioned per block
        top_sums = exact._top_sums

        def recording(gain, K, out):
            selected.append(len(gain))
            return top_sums(gain, K, out)

        monkeypatch.setattr(exact, "_top_sums", recording)
        np.testing.assert_array_equal(verdicts(C, y, delta, budgets, decision, X), expected)
        assert selected == partitioned


class TestCertifyRegression:
    def _z2(self):
        # identity features with lam=0 make the influence vector equal x
        _, influence = fit(Dataset(np.eye(2), Y2), 0.0)
        return influence_vector(Z2, influence)

    def test_worked_example_robust(self):
        result = decide_exact(self._z2(), Y2, SPEC2, Decision.band(3.0))
        assert result.robust
        assert result.counterexample is None
        assert result.base_prediction == 5.0
        assert (result.range.interval.lo, result.range.interval.hi) == (3.0, 7.0)

    def test_large_epsilon_always_robust(self, rng):
        z, y, spec = random_instance(rng, 8, 2)
        result = witnessed_range(z, y, spec)
        base = z @ y
        eps = max(result.interval.hi - base, base - result.interval.lo)
        assert decide_exact(z, y, spec, Decision.band(eps)).robust

    def test_worked_example_not_robust(self):
        result = decide_exact(self._z2(), Y2, SPEC2, Decision.band(1.5))
        assert not result.robust
        np.testing.assert_array_equal(result.counterexample, [3.0, 5.0])
        assert Z2 @ result.counterexample == 7.0
        assert abs(Z2 @ result.counterexample - result.base_prediction) > 1.5

    def test_boundary_equality_is_robust(self):
        # V = [3, 7], base 5: epsilon = 2 touches both ends exactly
        result = decide_exact(Z2, Y2, SPEC2, Decision.band(2.0))
        assert result.robust

    def test_counterexample_escapes_band(self, rng):
        for _ in range(30):
            z, y, spec = random_instance(rng, 9, 3)
            base = z @ y
            eps = rng.uniform(0.0, 2.0)
            result = decide_exact(z, y, spec, Decision.band(eps))
            if not result.robust:
                assert abs(z @ result.counterexample - base) > eps

    @given(dyadic_instances())
    @settings(max_examples=40)
    def test_monotone_in_epsilon(self, instance):
        z, y, spec = instance
        if decide_exact(z, y, spec, Decision.band(0.5)).robust:
            assert decide_exact(z, y, spec, Decision.band(1.5)).robust


class TestScaleInvariance:
    def test_verdict_invariant_under_joint_scaling(self, rng):
        for _ in range(100):
            z, y, spec = random_instance(rng, 8, 2)
            eps = rng.uniform(0.1, 3.0)
            verdict = decide_exact(z, y, spec, Decision.band(eps)).robust
            for c in (0.5, 2.0, 10.0):
                scaled = BiasSpec(PerturbationVector(c * spec.delta.lo, c * spec.delta.hi),
                                  spec.budget)
                assert decide_exact(z, y, scaled, Decision.band(c * eps)).robust == verdict


class TestCertifyClassification:
    def test_interval_on_positive_side(self):
        # base 0.7 with reachable predictions [0.55, 0.8]: no flip possible
        z = np.array([0.1, 0.25])
        y = np.array([2.0, 2.0])
        delta = PerturbationVector(np.array([-1.5, 0.0]), np.array([1.0, 0.0]))
        result = decide_exact(z, y, BiasSpec(delta, 1), Decision.threshold())
        assert result.base_prediction == pytest.approx(0.7)
        assert result.range.interval.lo == pytest.approx(0.55)
        assert result.range.interval.hi == pytest.approx(0.8)
        assert result.robust

    def test_interval_crossing_threshold(self):
        z = np.array([0.1, 0.25])
        y = np.array([2.0, 2.0])
        delta = PerturbationVector(np.array([-2.5, 0.0]), np.array([1.0, 0.0]))
        result = decide_exact(z, y, BiasSpec(delta, 1), Decision.threshold())
        assert result.range.interval.lo == pytest.approx(0.45)
        assert not result.robust
        assert result.counterexample is not None

    def test_threshold_base_non_robust_with_width(self):
        z = np.array([0.5])
        y = np.array([1.0])
        result = decide_exact(z, y, BiasSpec(uniform_delta(1, 0.5), 1), Decision.threshold())
        assert result.base_prediction == 0.5
        assert not result.robust
        degenerate = decide_exact(z, y, BiasSpec(uniform_delta(1, 0.0), 1), Decision.threshold())
        assert degenerate.robust

    def test_matches_retraining_oracle(self, rng):
        agree = 0
        for trial in range(30):
            ds = random_dataset(rng, n=8, m=2, binary=True)
            spec = BiasSpec(classification_delta(ds.y), 1)
            x = rng.normal(size=2)
            _, influence = fit(ds, 0.1)
            z = influence_vector(x, influence)
            fast = decide_exact(z, ds.y, spec, Decision.threshold()).robust
            slow = brute_force_classification(x, ds, spec, lam=0.1)
            assert fast == slow
            agree += 1
        assert agree == 30


class TestMinFlips:
    def test_worked_example_exhausts(self):
        # both labels perturbed gives V = [2, 8] inside the closed band [2, 8]
        result = min_flips_from_influence(Z2, Y2, SPEC2.delta, Decision.band(3.0))
        assert result is None

    def test_zero_epsilon_single_flip(self, rng):
        z, y, spec = random_instance(rng, 6, 1)
        if gains(z, spec.delta, "upper").max() > 0 or gains(z, spec.delta, "lower").max() > 0:
            result = min_flips_from_influence(z, y, spec.delta, Decision.band(0.0))
            assert result.flips == 1

    def test_matches_brute_force_sweep(self, rng):
        for _ in range(25):
            z, y, spec = random_instance(rng, 8, 3)
            eps = rng.uniform(0.1, 2.0)
            base = z @ y
            expected = None
            for k in range(1, 4):
                v = brute_force_range(z, y, BiasSpec(spec.delta, k))
                if v.hi > base + eps or v.lo < base - eps:
                    expected = k
                    break
            result = min_flips_from_influence(z, y, spec.delta, Decision.band(eps))
            if expected is None:
                assert result is None or result.flips > 3
            else:
                assert result is not None and result.flips == expected

    def test_witness_breaks_robustness(self, rng):
        for _ in range(20):
            z, y, spec = random_instance(rng, 10, 3)
            eps = rng.uniform(0.05, 1.0)
            result = min_flips_from_influence(z, y, spec.delta, Decision.band(eps))
            if result is not None:
                assert abs(z @ result.witness - z @ y) > eps
                changed = np.count_nonzero(result.witness - y)
                assert changed == result.flips

    def test_dataset_level_entry_point(self, rng):
        ds = random_dataset(rng, n=10, m=3)
        delta = uniform_delta(10, 1.0)
        _, influence = fit(ds, 0.1)
        z = influence_vector(rng.normal(size=3), influence)
        result = min_flips_from_influence(z, ds.y, delta, Decision.band(0.001))
        assert result is None or result.flips >= 1

    def test_one_sided_search(self):
        z = np.array([1.0, 1.0])
        y = np.array([0.5, 0.25])
        delta = PerturbationVector(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        # base 0.75 is class 1 and only upward impacts exist: the class cannot flip
        assert min_flips_from_influence(z, y, delta, Decision.threshold()) is None
        # the same upward moves do break a band
        up = min_flips_from_influence(z, y, delta, Decision.band(0.5))
        assert up.flips == 1 and up.side == "upper"

    def test_symmetric_tie_between_sides_goes_upper(self):
        # one gain array serves both sides, and each breaks the band at k = 1
        z, y = np.array([1.0, -1.0]), np.zeros(2)
        result = min_flips_from_influence(z, y, uniform_delta(2, 1.0), Decision.band(0.5))
        assert (result.flips, result.side, result.prediction) == (1, "upper", 1.0)
        np.testing.assert_array_equal(result.witness, [1.0, 0.0])
        assert argsort_min_flips(z, y, uniform_delta(2, 1.0), Decision.band(0.5))[1] == "upper"

    @given(dyadic_instances(max_n=6))
    @settings(max_examples=60)
    def test_consistent_with_band_verdicts(self, instance):
        # the returned budget is the first at which certification fails
        z, y, spec = instance
        result = min_flips_from_influence(z, y, spec.delta, Decision.band(1.0))
        if result is None:
            for k in range(spec.n + 1):
                assert decide_exact(z, y, BiasSpec(spec.delta, k), Decision.band(1.0)).robust
        else:
            k = result.flips
            assert not decide_exact(z, y, BiasSpec(spec.delta, k), Decision.band(1.0)).robust
            assert decide_exact(z, y, BiasSpec(spec.delta, k - 1), Decision.band(1.0)).robust

    @given(dyadic_instances(max_n=6))
    @settings(max_examples=80)
    def test_consistent_with_threshold_verdicts(self, instance):
        # dyadic values reach 0.5 exactly, so the strict side of the rule is exercised
        z, y, spec = instance
        result = min_flips_from_influence(z, y, spec.delta, Decision.threshold())
        if result is None:
            assert decide_exact(z, y, BiasSpec(spec.delta, spec.n), Decision.threshold()).robust
        else:
            k = result.flips
            assert not decide_exact(z, y, BiasSpec(spec.delta, k), Decision.threshold()).robust
            assert decide_exact(z, y, BiasSpec(spec.delta, k - 1), Decision.threshold()).robust
            assert Decision.label(z @ result.witness) != Decision.label(z @ y)


    @given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.booleans(), st.booleans(),
           st.integers(0, 39))
    @example(n=22, seed=6, symmetric=True, upper=True, short=0)
    @settings(max_examples=200)
    def test_band_verdicts_match_min_flips_at_every_budget(self, n, seed, symmetric, upper,
                                                           short):
        # non-dyadic values round every sum, and the band's edge is one reachable end
        # (`short` labels below the full budget): the verdict at each budget and
        # min-flips must add the same impacts in the same order
        z, y, spec = random_instance(np.random.default_rng(seed), n, 0)
        delta = uniform_delta(n, 1.0) if symmetric else spec.delta
        reach = np.cumsum(np.sort(gains(z, delta, "upper" if upper else "lower"))[::-1])
        base, end = float(z @ y), reach[n - 1 - short % n]
        decision = Decision.band(abs((base + end if upper else base - end) - base))
        result = min_flips_from_influence(z, y, delta, decision)
        for b in range(n + 1):
            keeps = decision.keeps(*ranges(z[None], y, BiasSpec(delta, b)))[0]
            assert keeps == (result is None or b < result.flips), (b, result)

@st.composite
def tied_instances(draw, max_n: int = 6):
    """(z, y, spec) whose gains tie often: z on a coarse grid, unit or flip intervals."""
    n = draw(st.integers(1, max_n))
    z = np.array(draw(st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
                               min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
    delta = uniform_delta(n, 1.0) if draw(st.booleans()) else classification_delta(y)
    return z, y, BiasSpec(delta, 0)


class TestGreedyOrder:
    """Witnesses, minimum flips and fixed attacks all move a prefix of one greedy order."""

    def test_fixed_attack_past_the_helpful_labels(self):
        z = np.array([1.0, 2.0, 0.0, -1.0, 0.5, 3.0, -2.0, 0.0])
        y = np.array([1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0])
        delta = PerturbationVector(np.array([-1.0, 0, 0, -1, -1, 0, -1, -1]),
                                   np.array([0.0, 1, 1, 0, 0, 0, 0, 0]))
        # helpful rows by decreasing gain (2, 2, 1; ties by index), then the
        # zero-gain rows by index, then the wrong-way rows, least damaging
        # first (-0.5, then -1); row 5 cannot move at all
        order = [1, 6, 3, 2, 7, 4, 0]
        for k in range(len(order) + 1):
            attack = fixed_attack(z, y, delta, "upper", k)
            assert sorted(np.flatnonzero(attack != y)) == sorted(order[:k])
            if k <= 3:  # within the helpful rows it is the upper witness
                witness = witnessed_range(z, y, BiasSpec(delta, k)).upper_witness
                np.testing.assert_array_equal(attack, witness)
        np.testing.assert_array_equal(attack, [0.0, 1, 1, 0, 0, 0, 0, 0])
        with pytest.raises(NoAttackExists, match="only 7 labels"):
            fixed_attack(z, y, delta, "upper", 8)

    @given(st.one_of(dyadic_instances(max_n=6), tied_instances()),
           st.sampled_from([Decision.band(0.5), Decision.band(0.0), Decision.threshold()]))
    @settings(max_examples=150)
    def test_min_flips_witness_is_the_range_witness(self, instance, decision):
        z, y, spec = instance
        result = min_flips_from_influence(z, y, spec.delta, decision)
        if result is not None:
            at_k = witnessed_range(z, y, BiasSpec(spec.delta, result.flips))
            witness = at_k.upper_witness if result.side == "upper" else at_k.lower_witness
            np.testing.assert_array_equal(result.witness, witness)


@st.composite
def greedy_instances(draw, max_n: int = 12):
    """(z, y, delta) with integer-valued or dyadic z, so gains tie often, and
    symmetric, flip-only or asymmetric intervals, some of them [0, 0]."""
    n = draw(st.integers(1, max_n))
    values = st.integers(-3, 3).map(float) if draw(st.booleans()) else dyadic(-16, 16)
    z = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["uniform", "flip", "asymmetric"]))
    if kind == "uniform":
        delta = uniform_delta(n, 1.0)
    elif kind == "flip":
        delta = classification_delta(y)
    else:
        lo = draw(st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.0]), min_size=n, max_size=n))
        hi = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=n, max_size=n))
        delta = PerturbationVector(np.array(lo), np.array(hi))
    return z, y, delta


DECISIONS = [Decision.band(0.0), Decision.band(0.5), Decision.band(2.5), Decision.band(1e9),
             Decision.threshold()]


def assert_matches_argsort(z, y, delta, decision, budgets, counts):
    """Min-flips, range witnesses at `budgets` and fixed attacks of `counts` labels are
    bit-identical to the argsort-ordered references."""
    new, old = min_flips_from_influence(z, y, delta, decision), argsort_min_flips(z, y, delta, decision)
    if old is None:
        assert new is None
    else:
        flips, side, witness, prediction = old
        assert (new.flips, new.side, new.prediction) == (flips, side, prediction)
        np.testing.assert_array_equal(new.witness, witness)
    for budget in budgets:
        spec = BiasSpec(delta, budget)
        got = witnessed_range(z, y, spec)
        lower, upper = argsort_witnesses(z, y, spec)
        np.testing.assert_array_equal(got.lower_witness, lower)
        np.testing.assert_array_equal(got.upper_witness, upper)
    for side in ("upper", "lower"):
        for k in counts:
            np.testing.assert_array_equal(fixed_attack(z, y, delta, side, k),
                                          argsort_fixed_attack(z, y, delta, side, k))


class TestPrefixMatchesArgsort:
    """The value-picked greedy prefix equals the first k of a stable argsort, bit for bit."""

    @given(st.lists(st.integers(-2, 3).map(float), min_size=1, max_size=12), st.booleans())
    @settings(max_examples=150)
    def test_prefix_is_the_argsort_prefix(self, values, restrict):
        # by default the candidates are the nonzero gains, which are never negative
        among = np.flatnonzero(np.arange(len(values)) % 3) if restrict else None
        gain = np.array(values) if restrict else np.abs(values)
        order = argsort_greedy(gain, among)
        for k in range(gain.size + 2):  # k = 0, inside and past the candidates
            assert sorted(exact._prefix(gain, k, among)) == sorted(order[:k])

    @given(greedy_instances(), st.sampled_from(DECISIONS))
    @settings(max_examples=200)
    def test_small_instances(self, instance, decision):
        z, y, delta = instance
        n = z.size
        free = np.count_nonzero((delta.lo != 0) | (delta.hi != 0))
        assert_matches_argsort(z, y, delta, decision, range(n + 1), range(free + 1))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_large_tied_instances(self, seed):
        # n >= 2000 integer-valued z: thousands of labels share each gain
        rng = np.random.default_rng(seed)
        n = 2400
        z = rng.integers(-4, 5, n).astype(float)
        y = (rng.random(n) < 0.5).astype(float)
        base = z @ y
        for delta in (classification_delta(y), uniform_delta(n, 1.0), random_delta(rng, n)):
            nonzero = np.count_nonzero(gains(z, delta, "upper"))
            budgets = [0, 1, 7, nonzero - 1, nonzero, min(nonzero + 1, n), n]
            counts = [0, 1, 300, nonzero, min(nonzero + 5, n)]
            for decision in (Decision.threshold(), Decision.band(abs(base) / 3 + 1),
                             Decision.band(0.0)):
                assert_matches_argsort(z, y, delta, decision, budgets, counts)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_large_continuous_instances(self, seed):
        rng = np.random.default_rng(seed)
        z, y, spec = random_instance(rng, 3000, 0)
        for eps in (0.5, 20.0, 1e9):
            assert_matches_argsort(z, y, spec.delta, Decision.band(eps), [0, 40, 2999],
                                   [0, 40, 2500])


class TestBinaryExactness:
    def test_witnesses_stay_binary(self, rng):
        for _ in range(30):
            ds = random_dataset(rng, n=10, m=3, binary=True)
            spec = BiasSpec(classification_delta(ds.y), int(rng.integers(1, 4)))
            _, influence = fit(ds, 0.2)
            z = influence_vector(rng.normal(size=3), influence)
            result = decide_exact(z, ds.y, spec, Decision.threshold())
            for witness in (result.range.lower_witness, result.range.upper_witness):
                assert np.isin(witness, (0.0, 1.0)).all()
