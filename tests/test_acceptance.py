"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain `pytest` runs them as ordinary tests.
"""

import time

import numpy as np

from labelcert import (
    BiasSpec,
    Dataset,
    Decision,
    TargetPredicate,
    apply_targeting,
    certify_grid,
    classification_delta,
    decide_approx_rows,
    decide_exact,
    fit,
    group_rates,
    model_hull,
    robustness_rate,
    synth_classification,
    synth_demographic,
    uniform_delta,
)
from labelcert.approx import interval_predict
from labelcert.bias import PerturbationVector, contains
from labelcert.data import SplitConfig, split, with_bias_column
from labelcert.harness import export_attack
from labelcert.linalg import InfluenceMatrix, influence_vector
from conftest import random_delta, random_instance, sample_bias_members, witnessed_range
from oracle import brute_force_classification, brute_force_hull, brute_force_range


def _report(criterion: str):
    print(f"ACCEPTANCE {criterion}: PASS")


def test_c01_worked_example_goldens():
    """Two-label golden instance: gains, range, and the epsilon=3 verdict, exactly."""
    z = np.array([-1.0, 2.0])
    y = np.array([3.0, 4.0])
    spec = BiasSpec(uniform_delta(2, 1.0), 1)

    # each label's gain is its move at full budget: (1, 2) toward either end
    full = witnessed_range(z, y, BiasSpec(spec.delta, 2))
    assert (z * (full.upper_witness - y)).tolist() == [1.0, 2.0]
    assert (z * (y - full.lower_witness)).tolist() == [1.0, 2.0]

    rng_result = witnessed_range(z, y, spec)
    assert rng_result.interval.lo == 3.0
    assert rng_result.interval.hi == 7.0

    verdict = decide_exact(z, y, spec, Decision.band(3.0))
    assert verdict.robust and verdict.base_prediction == 5.0
    _report("1 (worked-example goldens)")


def test_c02_oracle_equivalence():
    """500 random instances: fast range and hull match brute force to 1e-9, under 60 s."""
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    for _ in range(500):
        n = int(rng.integers(2, 13))
        m = int(rng.integers(1, 5))
        budget = int(rng.integers(0, min(n, 3) + 1))
        z, y, spec = random_instance(rng, n, budget)

        fast = witnessed_range(z, y, spec).interval
        slow = brute_force_range(z, y, spec)
        np.testing.assert_allclose(fast.lo, slow.lo, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(fast.hi, slow.hi, rtol=1e-9, atol=1e-12)

        C = rng.normal(0.0, 2.0, (m, n))
        hull = model_hull(InfluenceMatrix(C, 0.0), y, spec)
        for i, iv in enumerate(brute_force_hull(C, y, spec)):
            np.testing.assert_allclose(hull.lower[i], iv.lo, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(hull.upper[i], iv.hi, rtol=1e-9, atol=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    _report(f"2 (oracle equivalence, 500 instances in {elapsed:.1f}s)")


def test_c03_hull_soundness_and_tightness():
    """Sampled members always land inside the hull; every bound is attained."""
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(3, 12))
        m = int(rng.integers(1, 5))
        budget = int(rng.integers(1, min(n, 3) + 1))
        y = rng.normal(0.0, 2.0, n)
        spec = BiasSpec(random_delta(rng, n), budget)
        C = rng.normal(0.0, 2.0, (m, n))
        hull = model_hull(InfluenceMatrix(C, 0.0), y, spec)

        members = sample_bias_members(rng, y, spec, 1000)
        coords = members @ C.T
        slack = 1e-9 * (1.0 + np.abs(coords))
        assert (coords >= hull.lower - slack).all()
        assert (coords <= hull.upper + slack).all()

        for i in range(m):
            result = witnessed_range(C[i], y, spec)
            for witness, bound in (
                (result.lower_witness, hull.lower[i]),
                (result.upper_witness, hull.upper[i]),
            ):
                np.testing.assert_allclose(C[i] @ witness, bound, rtol=1e-9, atol=1e-12)
                diffs = witness - y
                assert int(np.count_nonzero(diffs)) <= spec.budget
                pad = 1e-12 * (1.0 + np.abs(y))
                assert (diffs >= spec.delta.lo - pad).all()
                assert (diffs <= spec.delta.hi + pad).all()
    _report("3 (hull soundness and tightness)")


def test_c04_approx_never_overrules_exact():
    """A certificate implies exact robustness; incompleteness is demonstrated."""
    rng = np.random.default_rng(4)
    certified = 0
    for _ in range(500):
        X = rng.normal(size=(9, 3))
        y = rng.normal(0.0, 2.0, 9)
        ds = Dataset(X, y)
        spec = BiasSpec(random_delta(rng, 9), int(rng.integers(1, 4)))
        _, influence = fit(ds, 0.4)
        hull = model_hull(influence, ds.y, spec)
        x = rng.normal(size=3)
        epsilon = float(rng.uniform(0.0, 3.0))
        if decide_approx_rows(hull, x[None], Decision.band(epsilon))[0]:
            certified += 1
            z = influence_vector(x, influence)
            assert decide_exact(z, ds.y, spec, Decision.band(epsilon)).robust
    assert certified > 0

    # incompleteness: duplicate feature columns cancel exactly at x = (1, -1)
    # while every hull coordinate keeps positive width
    X = np.array([[1.0, 1.0], [2.0, 2.0], [-1.0, -1.0], [3.0, 3.0]])
    ds = Dataset(X, np.array([1.0, 2.0, -1.0, 3.0]))
    spec = BiasSpec(uniform_delta(4, 1.0), 2)
    _, influence = fit(ds, 1.0)
    hull = model_hull(influence, ds.y, spec)
    x = np.array([1.0, -1.0])
    z = influence_vector(x, influence)
    assert decide_exact(z, ds.y, spec, Decision.band(0.01)).robust
    assert not decide_approx_rows(hull, x[None], Decision.band(0.01))[0]
    _, lo, hi = interval_predict(hull, x[None])
    assert hi[0] - lo[0] > 0.0
    _report(f"4 (soundness one-way, {certified} certificates checked; incompleteness shown)")


def test_c05_scale_invariance():
    """Verdicts are invariant under scaling (c*epsilon, c*delta) for c in {0.5, 2, 10}."""
    rng = np.random.default_rng(5)
    flips_seen = 0
    for _ in range(500):
        n = int(rng.integers(2, 11))
        budget = int(rng.integers(0, min(n, 4) + 1))
        z, y, spec = random_instance(rng, n, budget)
        epsilon = float(rng.uniform(0.05, 3.0))
        verdict = decide_exact(z, y, spec, Decision.band(epsilon)).robust
        flips_seen += 0 if verdict else 1
        for c in (0.5, 2.0, 10.0):
            scaled = BiasSpec(PerturbationVector(c * spec.delta.lo, c * spec.delta.hi),
                              spec.budget)
            assert decide_exact(z, y, scaled, Decision.band(c * epsilon)).robust == verdict
    assert 0 < flips_seen < 500  # both verdicts exercised
    _report("5 (verdict scale invariance, c in {0.5, 2, 10})")


def test_c06_binary_exactness():
    """Flip witnesses stay exactly binary; verdicts match the retraining oracle."""
    rng = np.random.default_rng(6)
    for trial in range(200):
        n = int(rng.integers(4, 13))
        X = rng.normal(size=(n, 3))
        y = (rng.random(n) < 0.5).astype(float)
        groups = tuple(rng.choice(("a", "b"), n))
        ds = Dataset(X, y, group_labels=groups)
        delta = classification_delta(y)
        if trial % 2:  # targeted flips half the time
            delta = apply_targeting(delta, ds, TargetPredicate(value="a"))
        spec = BiasSpec(delta, int(rng.integers(1, min(n, 3) + 1)))
        _, influence = fit(ds, 0.3)
        z = influence_vector(rng.normal(size=3), influence)
        result = decide_exact(z, ds.y, spec, Decision.threshold())
        for witness in (result.range.lower_witness, result.range.upper_witness):
            assert np.isin(witness, (0.0, 1.0)).all()

    for trial in range(100):
        n = int(rng.integers(4, 13))
        X = rng.normal(size=(n, 2))
        y = (rng.random(n) < 0.5).astype(float)
        ds = Dataset(X, y)
        spec = BiasSpec(classification_delta(y), int(rng.integers(1, 3)))
        x = rng.normal(size=2)
        _, influence = fit(ds, 0.2)
        assert (
            decide_exact(influence_vector(x, influence), ds.y, spec, Decision.threshold()).robust
            == brute_force_classification(x, ds, spec, lam=0.2)
        )
    _report("6 (binary exactness, 200 witness + 100 oracle instances)")


LEVELS = (0.04, 0.08, 0.12, 0.16, 0.20)


def _trend_rates(num_features: int, seed: int, lam: float = 1.0):
    """Exact rates at the five bias levels plus the exact - approx gap at 10%, from one fit."""
    ds = synth_classification(1000, num_features, seed=seed)
    train, _, test = split(ds, SplitConfig(seed=seed))
    delta = classification_delta(train.y)
    budgets = {level: max(1, int(train.n * level + 0.5)) for level in (*LEVELS, 0.10)}
    verdicts, _ = certify_grid(fit(train, lam)[1], train.y, test.X, delta, budgets,
                               Decision.threshold())
    rates = {m: {level: float(v.mean()) for level, v in by_level.items()}
             for m, by_level in verdicts.items()}
    return [rates["exact"][level] for level in LEVELS], rates["exact"][0.10] - rates["approx"][0.10]


def test_c07_feature_count_trends():
    """Desk-scale reproduction of the synthetic trends, under 5 minutes."""
    start = time.perf_counter()
    seeds = range(4)
    per_m_rates = {}
    per_m_gap = {}
    for m in (3, 4, 5):
        level_sums = np.zeros(len(LEVELS))
        gaps = []
        for seed in seeds:
            exact, gap = _trend_rates(m, seed)
            # (a) certified rate never increases with the bias level, per run
            assert all(a >= b for a, b in zip(exact, exact[1:])), (m, seed, exact)
            level_sums += np.asarray(exact)
            gaps.append(gap)
        per_m_rates[m] = level_sums / len(list(seeds))
        per_m_gap[m] = float(np.mean(gaps))

    # (b) fewer features are at least as robust at >= 4 of the 5 levels
    wins = sum(r3 >= r5 for r3, r5 in zip(per_m_rates[3], per_m_rates[5]))
    assert wins >= 4, (per_m_rates[3], per_m_rates[5])

    # (c) the exact-vs-approximate gap at 10% bias grows with feature count
    assert per_m_gap[3] < per_m_gap[4] < per_m_gap[5], per_m_gap

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"trend study took {elapsed:.1f}s"
    _report(
        f"7 (trends: monotone rates, 3f>=5f at {wins}/5 levels, "
        f"gaps {per_m_gap[3]:.3f}<{per_m_gap[4]:.3f}<{per_m_gap[5]:.3f}, {elapsed:.0f}s)"
    )


def test_c08_amortization_and_linear_scaling():
    """Hull certification amortizes: >= 3x faster at 10k points; exact scales linearly."""
    rng = np.random.default_rng(8)
    X = rng.normal(size=(5000, 4))
    w = np.array([1.0, -2.0, 0.5, 1.5])
    y = X @ w + 0.5 * rng.normal(size=5000)
    train = Dataset(X, y)
    X_test = rng.normal(size=(10000, 4))
    delta = uniform_delta(5000, 0.5)
    _, influence = fit(train, 0.1)

    def seconds(rows):
        """Wall time per method at budget 50, hull build included in approx."""
        return certify_grid(influence, train.y, rows, delta, {50: 50}, Decision.band(1.0))[1]

    # warm-up so first-call overheads do not pollute the measurement
    seconds(X_test[:50])

    t_small = seconds(X_test[:1000])
    t_big = seconds(X_test)

    assert t_big["approx"] <= t_big["exact"] / 3.0, t_big
    scaling = t_big["exact"] / t_small["exact"]
    assert 5.0 <= scaling <= 20.0, f"scaling factor {scaling:.1f}"
    _report(
        f"8 (amortization: exact {t_big['exact']:.2f}s vs approx "
        f"{t_big['approx']:.2f}s at 10k points; scaling x{scaling:.1f})"
    )


def test_c09_minority_representation_trend():
    """Minority certified rate rises with representation; variance peaks when rare."""
    fractions = (0.1, 0.25, 0.5)
    stats = {}
    for fraction in fractions:
        rates = []
        for seed in range(4):
            ds = with_bias_column(synth_demographic(1200, fraction, seed=seed))
            train, _, test = split(ds, SplitConfig(seed=seed))
            budget = max(1, int(train.n * 0.01 + 0.5))
            spec = BiasSpec(classification_delta(train.y), budget)
            rate = robustness_rate(train, test.X, "classification", spec, None, 0.1, "exact")
            rates.append(group_rates(rate.verdicts, test.group_labels)["minority"])
        stats[fraction] = (float(np.mean(rates)), float(np.var(rates)))

    means = [stats[f][0] for f in fractions]
    variances = [stats[f][1] for f in fractions]
    assert means[0] <= means[1] <= means[2], stats
    assert variances[0] == max(variances), stats
    _report(
        "9 (representation trend: minority rates "
        + " <= ".join(f"{v:.3f}" for v in means)
        + f", variance peaks at 0.1: {variances[0]:.4f})"
    )


def test_c10_attack_self_consistency(tmp_path):
    """Minimal attacks flip the refit prediction; fixed budgets change exactly k rows."""
    rng = np.random.default_rng(10)
    minimal_checked = 0
    for seed in (0, 1):
        ds = synth_classification(60, 3, seed=seed)
        train, _, test = split(ds, SplitConfig(seed=seed))
        delta = classification_delta(train.y)
        _, influence = fit(train, 0.5)
        for row in range(min(6, test.n)):
            x = test.X[row]
            path = tmp_path / f"minimal_{seed}_{row}.csv"
            try:
                summary = export_attack(x, train, delta, influence, "minimal", path)
            except Exception:
                continue  # robust at every budget: nothing to export
            minimal_checked += 1
            assert summary["flipped"], summary
            labels = np.array(
                [float(line.split(",")[1]) for line in path.read_text().splitlines()[1:]]
            )
            refit = fit(Dataset(train.X, labels), 0.5)[0]
            assert (x @ refit.values >= 0.5) != (summary["old_class"] == 1)
            assert contains(BiasSpec(delta, summary["changed_count"]), train.y, labels)
    assert minimal_checked >= 5

    # fixed budgets: the file differs in exactly k rows and stays a bias-set member
    ds = synth_classification(60, 3, seed=2)
    train, _, test = split(ds, SplitConfig(seed=2))
    delta = classification_delta(train.y)
    _, influence = fit(train, 0.5)
    for k in (1, 3, 5):
        path = tmp_path / f"fixed_{k}.csv"
        summary = export_attack(test.X[0], train, delta, influence, k, path)
        labels = np.array(
            [float(line.split(",")[1]) for line in path.read_text().splitlines()[1:]]
        )
        assert int(np.count_nonzero(labels != train.y)) == k
        assert contains(BiasSpec(delta, k), train.y, labels)
    _report(f"10 (attack self-consistency, {minimal_checked} minimal attacks verified)")
