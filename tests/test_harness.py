"""Tests for the experiment harness: rates, sweeps, groups, attacks, timing."""

import dataclasses
import json
import math

import numpy as np
import pytest

from labelcert import (
    BiasSpec,
    Dataset,
    classification_delta,
    fit,
    group_rates,
    robustness_rate,
    synth_classification,
    synth_demographic,
    uniform_delta,
)
from labelcert import exact, harness
from labelcert.approx import model_hull
from labelcert.bias import PerturbationVector, contains
from labelcert.config import ExperimentConfig
from labelcert.data import SplitConfig, split, with_bias_column, write_csv
from labelcert.errors import MissingGroups, NoAttackExists, TooFewRows
from labelcert.exact import Decision, decide_exact
from labelcert.harness import (
    export_attack,
    lambda_sweep,
    render_csv_tables,
    run_experiment,
    write_report,
)
from conftest import random_dataset, random_delta


def _train_test(seed=0, n=240, features=3):
    ds = synth_classification(n, features, seed=seed)
    return split(ds, SplitConfig(seed=seed))


class TestRobustnessRate:
    def test_zero_budget_rate_one(self):
        train, _, test = _train_test()
        spec = BiasSpec(classification_delta(train.y), 0)
        for method in ("exact", "approx"):
            rate = robustness_rate(train, test.X, "classification", spec, None, 0.1, method)
            assert rate.fraction == 1.0
            assert rate.verdicts.all()

    def test_rate_non_increasing_in_budget(self):
        train, _, test = _train_test(seed=1)
        delta = classification_delta(train.y)
        rates = []
        for budget in (0, 2, 8, 20, 40):
            spec = BiasSpec(delta, budget)
            rates.append(
                robustness_rate(train, test.X, "classification", spec, None, 0.1, "exact").fraction
            )
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_exact_at_least_approx(self):
        train, _, test = _train_test(seed=2)
        delta = classification_delta(train.y)
        for budget in (1, 4, 10):
            spec = BiasSpec(delta, budget)
            exact = robustness_rate(train, test.X, "classification", spec, None, 0.1, "exact")
            approx = robustness_rate(train, test.X, "classification", spec, None, 0.1, "approx")
            assert exact.fraction >= approx.fraction
            # per-point soundness: every approx certificate is exact-robust
            assert (~approx.verdicts | exact.verdicts).all()

    def test_regression_band(self, rng):
        train = Dataset(rng.normal(size=(40, 2)), rng.normal(size=40))
        spec = BiasSpec(uniform_delta(40, 0.5), 3)
        rate = robustness_rate(train, rng.normal(size=(10, 2)), "regression", spec, 100.0, 0.1, "exact")
        assert rate.fraction == 1.0


class TestCertifyGrid:
    def test_matches_one_rate_per_spec(self):
        train, _, test = _train_test(seed=3)
        delta = classification_delta(train.y)
        # budget 0 and two names sharing one count
        budgets = {"none": 0, "a": 3, "b": 3, "wide": 12}
        decision = Decision.threshold()
        verdicts, seconds = harness.certify_grid(fit(train, 0.1)[1], train.y, test.X, delta,
                                                 budgets, decision)
        assert set(verdicts) == set(seconds) == {"exact", "approx"}
        for method in ("exact", "approx"):
            assert list(verdicts[method]) == list(budgets)
            for name, count in budgets.items():
                spec = BiasSpec(delta, count)
                rate = robustness_rate(train, test.X, "classification", spec, None, 0.1, method)
                np.testing.assert_array_equal(verdicts[method][name], rate.verdicts)
        assert verdicts["exact"]["none"].all()
        assert not verdicts["approx"]["wide"].all()

    def test_zero_rows(self):
        train, _, _ = _train_test(seed=9, n=60)
        delta = classification_delta(train.y)
        verdicts, seconds = harness.certify_grid(fit(train, 0.1)[1], train.y, np.zeros((0, 3)),
                                                 delta, {"a": 0, "b": 2}, Decision.threshold())
        for method in ("exact", "approx"):
            assert list(verdicts[method]) == ["a", "b"]
            for flags in verdicts[method].values():
                assert flags.dtype == bool and flags.shape == (0,)
            assert seconds[method] >= 0.0
        rate = robustness_rate(train, np.zeros((0, 3)), "classification", BiasSpec(delta, 2),
                               None, 0.1, "exact")
        assert math.isnan(rate.fraction)

    def test_empty_grid(self):
        train, _, test = _train_test(seed=3)
        assert harness.certify_grid(fit(train, 0.1)[1], train.y, test.X,
                                    classification_delta(train.y), {}, Decision.threshold(),
                                    ("exact",))[0] == {"exact": {}}

    @pytest.mark.parametrize("method", ["exact", "approx"])
    @pytest.mark.parametrize("count", [-1, 2.5, "n + 1"])
    def test_rejects_counts_bias_spec_rejects(self, method, count):
        train, _, test = _train_test(seed=3)
        count = train.n + 1 if count == "n + 1" else count
        with pytest.raises(ValueError, match="budget"):
            harness.certify_grid(fit(train, 0.1)[1], train.y, test.X,
                                 classification_delta(train.y), {"bad": count},
                                 Decision.threshold(), (method,))

    def test_both_methods_at_radii_inside_exact_reach(self):
        """With the band radius one float step inside exact's reach, where rounding
        decides exact's verdict, the hull must certify no row that exact rejects, or
        `certify_grid` raises its soundness violation."""
        rng = np.random.default_rng(23)
        for _ in range(300):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(max(4, m + 1), 40))
            ds = random_dataset(rng, n=n, m=m)
            delta = random_delta(rng, n)
            budget = int(rng.integers(1, n + 1))
            _, influence = fit(ds, float(rng.choice([0.0, 0.1, 1.0])))
            x = rng.normal(size=(1, m))
            base, lo, hi = exact.ranges(influence.values, ds.y, BiasSpec(delta, budget), x)
            decision = Decision.band(np.nextafter(max(hi[0] - base[0], base[0] - lo[0]), 0))
            verdicts, _ = harness.certify_grid(influence, ds.y, x, delta, {budget: budget},
                                               decision, ("exact", "approx"))
            assert not (verdicts["approx"][budget] & ~verdicts["exact"][budget]).any()

    def test_unknown_method(self):
        train, _, test = _train_test(seed=3)
        with pytest.raises(ValueError, match="method must be"):
            harness.certify_grid(fit(train, 0.1)[1], train.y, test.X,
                                 classification_delta(train.y), {1: 1}, Decision.threshold(),
                                 ("exact", "hull"))


class TestBlockVerdicts:
    """Block verdicts equal the single-row verdicts, whatever the block boundaries."""

    @pytest.mark.parametrize("k", [0, 1, 7])
    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_match_single_row_verdicts(self, k, task, monkeypatch):
        ds = with_bias_column(synth_classification(80, 3, seed=4))
        X_test = with_bias_column(synth_classification(8, 3, seed=5)).X[:k]
        if task == "classification":
            decision, spec = Decision.threshold(), BiasSpec(classification_delta(ds.y), 2)
        else:
            decision, spec = Decision.band(0.0625), BiasSpec(uniform_delta(ds.n, 0.5), 2)
        _, influence = fit(ds, 0.1)
        hull = model_hull(influence, ds.y, spec)
        # three-row blocks: 7 rows make blocks of 3, 3 and 1
        monkeypatch.setattr(exact, "ELEMS", 3 * ds.n)
        verdicts, _ = harness.certify_grid(influence, ds.y, X_test, spec.delta,
                                           {"b": spec.budget}, decision, ("exact",))
        exact_block = verdicts["exact"]["b"]
        monkeypatch.setattr(exact, "ELEMS", 3 * ds.m)
        approx_block = harness.decide_approx_rows(hull, X_test, decision)
        exact_single = [decide_exact(x @ influence.values, ds.y, spec, decision).robust
                        for x in X_test]
        approx_single = [harness.decide_approx_rows(hull, x[None], decision)[0] for x in X_test]
        assert exact_block.dtype == approx_block.dtype == bool
        np.testing.assert_array_equal(exact_block, np.array(exact_single, dtype=bool))
        np.testing.assert_array_equal(approx_block, np.array(approx_single, dtype=bool))
        if k == 7:  # neither all robust nor all broken
            assert exact_block.any() and not exact_block.all()


class TestLambdaSweep:
    def test_zero_tolerance_picks_argmax_accuracy(self):
        train, val, _ = _train_test(seed=4)
        delta = classification_delta(train.y)
        (_, influence), record = lambda_sweep(train, val, "classification", delta, 4, None,
                                              (0.0, 0.1, 1.0, 1000.0), 0.0)
        best = max(record["accuracies"].values())
        assert record["accuracies"][str(influence.lam)] == best

    def test_tie_breaks_toward_larger_lambda(self, rng):
        # a dataset where two ridge strengths give identical validation output
        train = Dataset(np.eye(4), np.zeros(4))
        val = Dataset(np.eye(4)[:2], np.zeros(2))
        delta = uniform_delta(4, 0.0)  # frozen labels: all rates equal 1.0
        (_, influence), _ = lambda_sweep(train, val, "regression", delta, 0, 1.0, (0.1, 0.2), 0.0)
        assert influence.lam == 0.2

    def test_wider_tolerance_never_lowers_chosen_rate(self):
        train, val, _ = _train_test(seed=5)
        delta = classification_delta(train.y)
        grid = (0.0, 0.1, 1.0, 10.0, 100.0)
        (_, tight_fit), tight = lambda_sweep(train, val, "classification", delta, 6, None, grid,
                                             0.0)
        (_, loose_fit), loose = lambda_sweep(train, val, "classification", delta, 6, None, grid,
                                             2.0)
        assert set(tight["admissible"]) <= set(loose["admissible"])
        assert loose["rates"][str(loose_fit.lam)] >= tight["rates"][str(tight_fit.lam)]

    def test_infinite_tolerance_admits_everything(self):
        train, val, _ = _train_test(seed=6)
        delta = classification_delta(train.y)
        grid = (0.0, 1.0, 10.0)
        (_, influence), record = lambda_sweep(train, val, "classification", delta, 4, None, grid,
                                              math.inf)
        assert record["admissible"] == list(grid)
        best_rate = max(record["rates"].values())
        assert record["rates"][str(influence.lam)] == best_rate

    def test_record_and_chosen_fit(self):
        train, val, _ = _train_test(seed=6)
        delta = classification_delta(train.y)
        (theta, influence), record = lambda_sweep(
            train, val, "classification", delta, 4, None, (0, 1.0), math.inf)
        assert set(record) == {"reference_budget", "accuracies", "admissible", "rates"}
        assert record["reference_budget"] == 4
        assert list(record["accuracies"]) == list(record["rates"]) == ["0.0", "1.0"]
        assert theta.lam == influence.lam
        np.testing.assert_array_equal(theta.values, fit(train, influence.lam)[0].values)

    @pytest.mark.parametrize("tolerance", [-1.0, math.nan])
    def test_negative_or_nan_tolerance_rejected(self, tolerance):
        train, val, _ = _train_test(seed=6)
        with pytest.raises(ValueError, match="accuracy tolerance"):
            lambda_sweep(train, val, "classification", classification_delta(train.y), 4, None,
                         (0.0, 0.1, 1.0), tolerance)

    def test_empty_grid_rejected(self):
        train, val, _ = _train_test(seed=7)
        from labelcert.errors import EmptyGrid

        with pytest.raises(EmptyGrid):
            lambda_sweep(train, val, "classification",
                         classification_delta(train.y), 1, None, (), 0.0)


class TestGroupRates:
    def test_single_group_equals_overall(self):
        verdicts = np.array([True, False, True, True])
        rates = group_rates(verdicts, ("g",) * 4)
        assert rates == {"g": 0.75}

    def test_two_groups_extremes(self):
        verdicts = np.array([True, True, False, False])
        rates = group_rates(verdicts, ("a", "a", "b", "b"))
        assert rates == {"a": 1.0, "b": 0.0}

    def test_missing_groups(self):
        with pytest.raises(MissingGroups):
            group_rates(np.array([True]), None)

    def test_representation_shrinks_minority_gap(self):
        gaps = {}
        for fraction in (0.1, 0.5):
            diffs = []
            for seed in range(4):
                ds = with_bias_column(synth_demographic(1200, fraction, seed=seed))
                train, _, test = split(ds, SplitConfig(seed=seed))
                spec = BiasSpec(classification_delta(train.y), max(1, train.n // 100))
                rate = robustness_rate(train, test.X, "classification", spec, None, 0.1, "exact")
                by_group = group_rates(rate.verdicts, test.group_labels)
                diffs.append(by_group["majority"] - by_group["minority"])
            gaps[fraction] = float(np.mean(diffs))
        assert gaps[0.5] <= gaps[0.1]


class TestExportAttack:
    def _flippable_dataset(self):
        # one training label dominates the prediction at x; flipping it crosses 0.5
        X = np.array([[1.0, 1.0], [0.9, 1.0], [-1.0, 1.0], [-0.9, 1.0], [0.1, 1.0]])
        y = np.array([1.0, 1.0, 0.0, 0.0, 1.0])
        return Dataset(X, y)

    def test_minimal_attack_flips_prediction(self, tmp_path):
        from oracle import brute_force_classification

        ds = self._flippable_dataset()
        delta = classification_delta(ds.y)
        x = np.array([0.2, 1.0])
        # the retraining oracle confirms a single flip suffices on this instance
        assert not brute_force_classification(x, ds, BiasSpec(delta, 1), lam=0.05)
        summary = export_attack(x, ds, delta, fit(ds, 0.05)[1], "minimal",
                                tmp_path / "labels.csv")
        assert summary["flipped"]
        assert summary["changed_count"] == 1
        assert summary["new_class"] != summary["old_class"]
        labels = _read_labels(tmp_path / "labels.csv")
        assert int(np.count_nonzero(labels != ds.y)) == 1
        refit = fit(Dataset(ds.X, labels), 0.05)[0]
        assert (x @ refit.values >= 0.5) != (summary["old_class"] == 1)

    def test_fixed_budget_changes_exact_count(self, tmp_path):
        ds = self._flippable_dataset()
        delta = classification_delta(ds.y)
        x = np.array([0.2, 1.0])
        _, influence = fit(ds, 0.05)
        for k in (0, 1, 3):
            summary = export_attack(x, ds, delta, influence, k, tmp_path / f"labels{k}.csv")
            assert summary["changed_count"] == k
            labels = _read_labels(tmp_path / f"labels{k}.csv")
            assert int(np.count_nonzero(labels != ds.y)) == k
            assert contains(BiasSpec(delta, max(k, 1) if k else 0), ds.y, labels)

    def test_no_attack_when_deltas_frozen(self, tmp_path):
        ds = self._flippable_dataset()
        frozen = uniform_delta(5, 0.0)
        with pytest.raises(NoAttackExists):
            export_attack(np.array([0.2, 1.0]), ds, frozen, fit(ds, 0.05)[1], "minimal",
                          tmp_path / "labels.csv")

    def test_membership_of_exported_labels(self, tmp_path):
        train, _, test = _train_test(seed=8, n=60)
        delta = classification_delta(train.y)
        summary = export_attack(test.X[0], train, delta, fit(train, 0.1)[1], 2,
                                tmp_path / "a.csv")
        labels = _read_labels(tmp_path / "a.csv")
        assert contains(BiasSpec(delta, 2), train.y, labels)
        assert summary["changed_count"] == 2

    def test_new_prediction_is_the_refit_without_refitting(self, tmp_path, monkeypatch):
        # C does not depend on the labels, so x . (C y~) is the refit's prediction bit for bit
        ds = self._flippable_dataset()
        x = np.array([0.2, 1.0])
        _, influence = fit(ds, 0.05)
        monkeypatch.setattr(harness, "fit", None)
        for flips in ("minimal", 2):
            summary = export_attack(x, ds, classification_delta(ds.y), influence, flips,
                                    tmp_path / "labels.csv")
            refit = fit(Dataset(ds.X, _read_labels(tmp_path / "labels.csv")), 0.05)[0]
            assert summary["new_prediction"] == (x * refit.values).sum()

    @pytest.mark.parametrize("flips, body", [
        ("minimal", "0,0,1\r\n1,1,0\r\n2,-0,0\r\n3,0,0\r\n4,1,0\r\n5,0,0\r\n"),
        (2, "0,0,1\r\n1,0,1\r\n2,-0,0\r\n3,0,0\r\n4,1,0\r\n5,0,0\r\n"),
        (6, "0,0,1\r\n1,0,1\r\n2,1,1\r\n3,1,1\r\n4,0,1\r\n5,0.10000000000000001,1\r\n"),
    ])
    def test_label_file_golden_bytes(self, tmp_path, flips, body):
        # -0 survives unchanged rows, and the last row's flip interval stops at 0.1
        X = np.array([[1.0, 1.0], [0.9, 1.0], [-1.0, 1.0], [-0.9, 1.0], [0.1, 1.0], [0.3, 1.0]])
        ds = Dataset(X, np.array([1.0, 1.0, -0.0, 0.0, 1.0, 0.0]))
        delta = PerturbationVector(np.array([-1.0, -1.0, 0.0, 0.0, -1.0, 0.0]),
                                   np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.1]))
        path = tmp_path / "labels.csv"
        export_attack(np.array([0.2, 1.0]), ds, delta, fit(ds, 0.05)[1], flips, path)
        assert path.read_bytes() == ("index,label,changed\r\n" + body).encode()


def _read_labels(path):
    rows = path.read_text().strip().splitlines()[1:]
    return np.array([float(line.split(",")[1]) for line in rows])


class TestRunExperiment:
    def _config(self, tmp_path, ds, folds=1, lambda_grid=(0.1,)):
        path = tmp_path / "data.csv"
        write_csv(ds, path)
        from labelcert.data import schema_for

        return ExperimentConfig(
            task="classification",
            data_path=str(path),
            schema=schema_for(ds),
            split=SplitConfig(seed=3, folds=folds),
            budgets=("0.5%", "2%"),
            lambda_grid=lambda_grid,
            seed=3,
            out_dir=str(tmp_path / "out"),
        )

    def test_deterministic_reports(self, tmp_path):
        ds = synth_classification(200, 3, seed=12)
        config = self._config(tmp_path, ds, lambda_grid=(0.0, 0.1, 1.0))
        a = run_experiment(config)
        b = run_experiment(config)
        a.pop("timings")
        b.pop("timings")
        assert a == b

    def test_one_fit_per_lambda_per_fold(self, tmp_path, monkeypatch):
        ds = synth_classification(200, 3, seed=12)
        config = self._config(tmp_path, ds, folds=2, lambda_grid=(0.0, 0.1, 1.0))
        config = dataclasses.replace(config, accuracy_tolerance=100.0)  # admits every value
        real_fit, lams = harness.fit, []

        def counting_fit(train, lam):
            lams.append(lam)
            return real_fit(train, lam)

        monkeypatch.setattr(harness, "fit", counting_fit)
        report = run_experiment(config)
        assert [len(f["sweep"]["admissible"]) for f in report["per_fold"]] == [3, 3]
        assert sorted(lams) == [0.0, 0.0, 0.1, 0.1, 1.0, 1.0]

    def test_summary_contains_both_methods(self, tmp_path):
        ds = synth_classification(200, 3, seed=13)
        report = run_experiment(self._config(tmp_path, ds))
        summary = report["summary"]
        assert set(summary) == {"exact", "approx"}
        for label in report["budgets"]:
            assert summary["approx"][label]["mean"] <= summary["exact"][label]["mean"]

    def test_fold_aggregation(self, tmp_path):
        ds = synth_classification(200, 3, seed=14)
        report = run_experiment(self._config(tmp_path, ds, folds=4))
        assert [f["fold"] for f in report["per_fold"]] == [0, 1, 2, 3]
        for label in report["budgets"]:
            stats = report["summary"]["exact"][label]
            assert stats["min"] <= stats["mean"] <= stats["max"]

    def test_group_rates_present(self, tmp_path):
        ds = synth_demographic(300, 0.25, seed=15)
        config = self._config(tmp_path, ds)
        report = run_experiment(config)
        fold = report["per_fold"][0]
        assert "minority" in fold["group_rates"]["exact"][report["budgets"][0]]

    def test_soundness_checked_per_point(self, tmp_path, monkeypatch):
        from labelcert import harness

        ds = synth_classification(200, 3, seed=17)
        config = self._config(tmp_path, ds)
        exact = run_experiment(config, methods=("exact",))["per_fold"][0]["verdicts"]["exact"]
        # shifted exact verdicts keep the certified rate but certify a non-robust row
        shifted = {label: np.roll(np.array(v), 1) for label, v in exact.items()}
        first = int(np.flatnonzero(shifted["0.5%"] & ~np.array(exact["0.5%"]))[0])
        labels = iter(("0.5%", "2%"))
        monkeypatch.setattr(harness, "decide_approx_rows", lambda *args: shifted[next(labels)])
        with pytest.raises(RuntimeError, match=rf"test row {first}, .* budget 0\.5%"):
            run_experiment(config)

    @pytest.mark.parametrize("folds", [1, 2])
    def test_bias_file_covers_the_dataset_rows(self, tmp_path, folds):
        ds = synth_classification(100, 3, seed=19)
        config = self._config(tmp_path, ds, folds=folds)
        path = tmp_path / "delta.csv"
        delta = classification_delta(ds.y)
        path.write_text("lo,hi\n" + "".join(f"{lo:g},{hi:g}\n"
                                            for lo, hi in zip(delta.lo, delta.hi)))
        from_file = run_experiment(dataclasses.replace(config, bias_kind="file",
                                                       bias_file=str(path)))
        reference = run_experiment(config)
        from_file.pop("timings")
        reference.pop("timings")
        assert from_file == reference

    def test_written_files(self, tmp_path):
        ds = synth_classification(200, 3, seed=16)
        config = self._config(tmp_path, ds, lambda_grid=(0.0, 0.5))
        report = run_experiment(config)
        json_path = write_report(report, config.out_dir)
        assert json_path.exists()
        out = json_path.parent
        assert (out / "rates.csv").exists()
        assert (out / "verdicts.csv").exists()
        assert (out / "sweep.csv").exists()
        payload = json.loads(json_path.read_text())
        rendered = render_csv_tables(payload, tmp_path / "rerender")
        assert any(p.name == "rates.csv" for p in rendered)

    def test_report_is_the_written_document(self, tmp_path):
        ds = synth_demographic(300, 0.25, seed=18)
        config = self._config(tmp_path, ds, folds=2, lambda_grid=(0.0, 0.1, 1.0))
        report = run_experiment(config)
        assert set(report) == {"task", "seed", "folds", "budgets", "per_fold", "summary",
                               "timings"}
        assert report["budgets"] == ["0.5%", "2%"]
        assert all(f["sweep"] is not None for f in report["per_fold"])
        written = json.loads(write_report(report, config.out_dir).read_text())
        assert written == report == json.loads(json.dumps(report))
