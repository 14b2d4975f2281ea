"""End-to-end tests of the command-line interface."""

import json

import numpy as np
import pytest

from labelcert import BiasSpec, classification_delta, fit, synth_classification, with_bias_column
from labelcert.cli import main
from labelcert.data import SplitConfig, split, write_csv
from labelcert.exact import Decision, classify_from_influence
from labelcert.linalg import influence_vector

CONFIG_TEMPLATE = """
task = "classification"
seed = 5
budgets = ["0.5%", "2%"]
lambda_grid = [0.0, 0.1]
accuracy_tolerance = 0.0

[dataset]
path = "{data}"
label = "label"
features = ["f1", "f2", "f3"]
add_bias_column = true

[split]
train = 0.8
val = 0.1
test = 0.1
"""


@pytest.fixture
def workspace(tmp_path):
    out = tmp_path / "out"
    code = main(["synth", "--kind", "classification", "--n", "200", "--features", "3",
                 "--seed", "5", "--out-dir", str(out)])
    assert code == 0
    data = out / "synth_classification_n200_f3_seed5.csv"
    assert data.exists()
    config = tmp_path / "config.txt"
    config.write_text(CONFIG_TEMPLATE.format(data=data), encoding="utf-8")
    return tmp_path, config, out


# On the workspace data this grid's sweep chooses 100.0, not the grid's first value.
SWEPT = (('budgets = ["0.5%", "2%"]', 'budgets = ["1%", "2%", "5%"]'),
         ("lambda_grid = [0.0, 0.1]", "lambda_grid = [0.0, 100.0]"),
         ("accuracy_tolerance = 0.0", "accuracy_tolerance = 5.0"))


def _rewrite(config, tail=""):
    text = config.read_text()
    for old, new in SWEPT:
        assert old in text
        text = text.replace(old, new)
    config.write_text(text + tail, encoding="utf-8")


def _min_flips_rows(out):
    """(row, k) per line of min_flips.csv; k is None when no budget breaks the row."""
    lines = (out / "min_flips.csv").read_text().splitlines()[1:]
    return [(int(row), int(flips) if flips else None)
            for row, flips, _ in (line.split(",") for line in lines)]


def _certify_fold0(config, out):
    assert main(["certify", "--method", "exact", "--config", str(config),
                 "--out-dir", str(out)]) == 0
    return json.loads((out / "report.json").read_text())["per_fold"][0]


def _assert_agrees_with_fold(rows, fold):
    """Each k breaks at every budget >= k and holds below it, as certify says."""
    for budget, flags in fold["verdicts"]["exact"].items():
        assert len(rows) == len(flags)
        count = fold["budget_counts"][budget]
        for row, flips in rows:
            assert flags[row] == (flips is None or count < flips), (budget, row, flips)


class TestSynth:
    def test_demographic_generator(self, tmp_path):
        out = tmp_path / "d"
        code = main(["synth", "--kind", "demographic", "--n", "100",
                     "--minority-fraction", "0.25", "--seed", "1", "--out-dir", str(out)])
        assert code == 0
        files = list(out.glob("synth_demographic_*.csv"))
        assert len(files) == 1
        header = files[0].read_text().splitlines()[0]
        assert header == "f1,f2,label,group"


class TestCertify:
    def test_writes_report_and_tables(self, workspace):
        tmp_path, config, out = workspace
        code = main(["certify", "--config", str(config), "--out-dir", str(out)])
        assert code == 0
        payload = json.loads((out / "report.json").read_text())
        assert set(payload["summary"]) == {"exact", "approx"}
        assert (out / "rates.csv").exists()
        assert (out / "verdicts.csv").exists()

    def test_seed_flag_seeds_the_split(self, workspace):
        # the config sets seed = 5 and no [split] seed
        tmp_path, config, out = workspace
        reseeded = tmp_path / "reseeded.txt"
        reseeded.write_text(config.read_text().replace("seed = 5", "seed = 99"))
        reports = []
        for path, flags in ((config, ["--seed", "99"]), (reseeded, []), (config, [])):
            run_out = tmp_path / f"run{len(reports)}"
            assert main(["certify", "--config", str(path), "--out-dir", str(run_out),
                         *flags]) == 0
            payload = json.loads((run_out / "report.json").read_text())
            payload.pop("timings")
            reports.append(payload)
        assert reports[0] == reports[1]
        assert reports[0]["per_fold"] != reports[2]["per_fold"]

    def test_single_method(self, workspace):
        tmp_path, config, out = workspace
        code = main(["certify", "--method", "exact", "--config", str(config),
                     "--out-dir", str(out)])
        assert code == 0
        payload = json.loads((out / "report.json").read_text())
        assert set(payload["summary"]) == {"exact"}


class TestSweep:
    def test_sweep_table(self, workspace):
        tmp_path, config, out = workspace
        code = main(["sweep", "--config", str(config), "--out-dir", str(out)])
        assert code == 0
        assert (out / "sweep.csv").exists()
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "fold,lambda,accuracy,admissible,val_rate"
        assert len(lines) == 3  # two lambda values, one fold


class TestMinFlips:
    def test_per_row_output(self, workspace):
        tmp_path, config, out = workspace
        code = main(["min-flips", "--config", str(config), "--out-dir", str(out)])
        assert code == 0
        lines = (out / "min_flips.csv").read_text().strip().splitlines()
        assert lines[0] == "row,flips,prediction"
        assert len(lines) == 21  # 20 test rows

    def test_single_row(self, workspace):
        tmp_path, config, out = workspace
        code = main(["min-flips", "--config", str(config), "--index", "3",
                     "--out-dir", str(out)])
        assert code == 0
        lines = (out / "min_flips.csv").read_text().strip().splitlines()
        assert len(lines) == 2 and lines[1].startswith("3,")

    def test_agrees_with_classification_verdicts(self, tmp_path):
        # each reported k is the smallest budget at which the class can flip
        dataset = synth_classification(400, 3, seed=1)
        write_csv(dataset, tmp_path / "data.csv")
        config = tmp_path / "config.txt"
        config.write_text(
            f'task = "classification"\nseed = 1\nlambda_grid = [0.1]\n'
            f'[dataset]\npath = "{tmp_path / "data.csv"}"\nlabel = "label"\n'
            f'features = ["f1", "f2", "f3"]\nadd_bias_column = true\n',
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["min-flips", "--config", str(config), "--out-dir", str(out)]) == 0
        rows = [line.split(",") for line in (out / "min_flips.csv").read_text().splitlines()[1:]]

        train, _, test = split(with_bias_column(dataset), SplitConfig(seed=1))
        _, influence = fit(train, 0.1)
        delta = classification_delta(train.y)
        assert len(rows) == test.n == 40
        for row, flips, _ in rows:
            z = influence_vector(test.X[int(row)], influence)

            def robust(k):
                return classify_from_influence(z, train.y, BiasSpec(delta, k)).robust

            if not flips:
                assert robust(train.n), row
            else:
                assert not robust(int(flips)) and robust(int(flips) - 1), row

    def test_agrees_with_certify_at_the_swept_lambda(self, workspace):
        tmp_path, config, out = workspace
        _rewrite(config)
        fold = _certify_fold0(config, out)
        assert fold["chosen_lambda"] == 100.0
        assert main(["min-flips", "--config", str(config), "--out-dir", str(out)]) == 0
        rows = _min_flips_rows(out)
        _assert_agrees_with_fold(rows, fold)
        assert any(flips is not None for _, flips in rows)

        # breaks at k and holds at k - 1 under the fit at the swept lambda
        train, _, test = split(with_bias_column(synth_classification(200, 3, seed=5)),
                               SplitConfig(seed=5))
        _, influence = fit(train, fold["chosen_lambda"])
        delta = classification_delta(train.y)
        for row, flips in rows:
            z = influence_vector(test.X[row], influence)

            def robust(k):
                return classify_from_influence(z, train.y, BiasSpec(delta, k)).robust

            if flips is None:
                assert robust(train.n), row
            else:
                assert not robust(flips) and robust(flips - 1), row

    def test_writes_fold_zero_rows(self, workspace):
        tmp_path, config, out = workspace
        _rewrite(config, tail="folds = 2\n")  # appended to the [split] table
        fold = _certify_fold0(config, out)
        assert main(["min-flips", "--config", str(config), "--out-dir", str(out)]) == 0
        rows = _min_flips_rows(out)
        assert [row for row, _ in rows] == list(range(100))  # half of the 200 rows
        _assert_agrees_with_fold(rows, fold)


class TestHull:
    def test_export_round_trip(self, workspace):
        from labelcert import load_hull

        tmp_path, config, out = workspace
        code = main(["hull", "--config", str(config), "--budget", "2%",
                     "--out-dir", str(out)])
        assert code == 0
        hull = load_hull(out / "hull.json")
        assert hull.m == 4  # three features plus the bias column
        assert (hull.lower <= hull.upper).all()

    def test_lam_flag_overrides_the_grid(self, workspace):
        tmp_path, config, out = workspace
        assert main(["hull", "--config", str(config), "--lam", "0.5",
                     "--out-dir", str(out)]) == 0
        assert json.loads((out / "hull.json").read_text())["lam"] == 0.5

    def test_default_lam_is_the_swept_one(self, workspace):
        tmp_path, config, out = workspace
        _rewrite(config)
        fold = _certify_fold0(config, out)
        assert main(["hull", "--config", str(config), "--out-dir", str(out)]) == 0
        assert json.loads((out / "hull.json").read_text())["lam"] == fold["chosen_lambda"]
        assert fold["chosen_lambda"] != 0.0  # not the grid's first value


    def test_loaded_hull_certifies_like_certify(self, workspace):
        # a saved hull alone reproduces certify's approx verdicts at the first budget
        from labelcert import load_hull
        from labelcert.approx import decide_approx_rows

        tmp_path, config, out = workspace
        _rewrite(config)
        assert main(["certify", "--method", "approx", "--config", str(config),
                     "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert main(["hull", "--config", str(config), "--out-dir", str(out)]) == 0
        hull = load_hull(out / "hull.json")

        _, _, test = split(with_bias_column(synth_classification(200, 3, seed=5)),
                           SplitConfig(seed=5))
        expected = report["per_fold"][0]["verdicts"]["approx"][report["budgets"][0]]
        verdicts = decide_approx_rows(hull, test.X, Decision.threshold())
        assert verdicts.tolist() == expected
        assert any(expected) and not all(expected)


class TestAttack:
    def test_minimal_attack_summary(self, workspace):
        tmp_path, config, out = workspace
        code = main(["attack", "--config", str(config), "--index", "0",
                     "--flips", "minimal", "--out-dir", str(out)])
        summary_path = out / "attack_summary_row0.json"
        if code == 0:
            summary = json.loads(summary_path.read_text())
            assert summary["flipped"]
            assert (out / "attack_labels_row0.csv").exists()
        else:
            assert code == 2  # legitimately robust at every budget

    def test_fixed_budget_attack(self, workspace):
        tmp_path, config, out = workspace
        code = main(["attack", "--config", str(config), "--index", "1",
                     "--flips", "4", "--out-dir", str(out)])
        assert code == 0
        summary = json.loads((out / "attack_summary_row1.json").read_text())
        assert summary["changed_count"] == 4

    def test_regression_config_is_rejected(self, tmp_path, capsys):
        # the attack moves the class threshold, which a regression band is not
        write_csv(synth_classification(400, 3, seed=1), tmp_path / "data.csv")
        config = tmp_path / "config.txt"
        config.write_text(
            f'task = "regression"\nepsilon = 0.05\nbudgets = [5]\nlambda_grid = [0.1]\n'
            f'[bias]\nkind = "uniform"\nhalfwidth = 0.5\n'
            f'[dataset]\npath = "{tmp_path / "data.csv"}"\nlabel = "label"\n'
            f'features = ["f1", "f2", "f3"]\n',
            encoding="utf-8",
        )
        out = tmp_path / "out"
        code = main(["attack", "--config", str(config), "--index", "0",
                     "--flips", "minimal", "--out-dir", str(out)])
        assert code == 2
        assert "classification" in capsys.readouterr().err
        assert not any(path.is_file() for path in out.rglob("*"))


class TestReport:
    def test_rerender(self, workspace, tmp_path):
        _, config, out = workspace
        assert main(["certify", "--config", str(config), "--out-dir", str(out)]) == 0
        rerender = tmp_path / "rerender"
        code = main(["report", "--report", str(out / "report.json"),
                     "--out-dir", str(rerender)])
        assert code == 0
        assert (rerender / "rates.csv").read_text() == (out / "rates.csv").read_text()


class TestErrors:
    @pytest.mark.parametrize("content", [
        None,  # no such file
        "{not json",
        "[1, 2]",
        "5",
        '{"budgets": ["1"], "per_fold": []}',
        '{"summary": {}, "per_fold": []}',
        '{"summary": {}, "budgets": ["1"]}',
        '{"summary": {"exact": {}}, "budgets": ["1%"], "per_fold": []}',
        '{"summary": {}, "budgets": [], "per_fold": [{}]}',
        '{"summary": [], "budgets": 3, "per_fold": 5}',
    ])
    def test_unreadable_report(self, tmp_path, content, capsys):
        report = tmp_path / "report.json"
        if content is not None:
            report.write_text(content, encoding="utf-8")
        out = tmp_path / "tables"
        code = main(["report", "--report", str(report), "--out-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(report) in err
        assert not list(tmp_path.rglob("*.csv"))

    def test_missing_dataset_returns_error_code(self, tmp_path):
        config = tmp_path / "config.txt"
        config.write_text('task = "classification"\n', encoding="utf-8")
        assert main(["certify", "--config", str(config), "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command", ["min-flips", "attack"])
    @pytest.mark.parametrize("index", ["-1", "20"])  # the workspace has 20 test rows
    def test_index_out_of_range(self, workspace, command, index, capsys):
        tmp_path, config, out = workspace
        before = set(out.iterdir())
        code = main([command, "--config", str(config), "--index", index, "--out-dir", str(out)])
        assert code == 2
        assert "--index" in capsys.readouterr().err
        assert set(out.iterdir()) == before  # no file written

    def test_out_dir_that_is_a_file(self, tmp_path, capsys):
        target = tmp_path / "F"
        target.write_text("not a directory", encoding="utf-8")
        code = main(["synth", "--kind", "classification", "--n", "50", "--out-dir", str(target)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--out-dir" in err

    def test_no_feature_column_returns_error_code(self, workspace, capsys):
        tmp_path, config, out = workspace
        text = config.read_text().replace('features = ["f1", "f2", "f3"]', "features = []")
        config.write_text(text.replace("add_bias_column = true", "add_bias_column = false"),
                          encoding="utf-8")
        assert main(["certify", "--config", str(config), "--out-dir", str(out)]) == 2
        assert "'features'" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_missing_config_file_returns_error_code(self, tmp_path):
        missing = tmp_path / "missing.toml"
        assert main(["certify", "--config", str(missing), "--out-dir", str(tmp_path)]) == 2

    def test_misspelt_key_returns_error_code(self, workspace, capsys):
        tmp_path, config, out = workspace
        config.write_text("lamda_grid = [0.1]\n" + config.read_text(), encoding="utf-8")
        assert main(["certify", "--config", str(config), "--out-dir", str(out)]) == 2
        assert "lamda_grid" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("entry", ["inf%", "1e400%", "nan%"])
    def test_nonfinite_budget_returns_error_code(self, workspace, entry, capsys):
        tmp_path, config, out = workspace
        text = config.read_text().replace('budgets = ["0.5%", "2%"]', f'budgets = ["{entry}"]')
        config.write_text(text, encoding="utf-8")
        assert main(["certify", "--config", str(config), "--out-dir", str(out)]) == 2
        assert f"budget entry '{entry}'" in capsys.readouterr().err
        assert not (out / "report.json").exists()
        code = main(["hull", "--config", str(config), "--budget", entry, "--out-dir", str(out)])
        assert code == 2
        assert f"budget entry '{entry}'" in capsys.readouterr().err
        assert not (out / "hull.json").exists()

    def test_overflowing_percentage_budget_returns_error_code(self, workspace, capsys):
        tmp_path, config, out = workspace
        text = config.read_text().replace('budgets = ["0.5%", "2%"]', 'budgets = ["1e308%"]')
        config.write_text(text, encoding="utf-8")
        assert main(["certify", "--config", str(config), "--out-dir", str(out)]) == 2
        assert "budget '1e308%' exceeds the" in capsys.readouterr().err
        assert not (out / "report.json").exists()
        code = main(["hull", "--config", str(config), "--budget", "1e308%", "--out-dir", str(out)])
        assert code == 2
        assert "budget '1e308%' exceeds the" in capsys.readouterr().err
        assert not (out / "hull.json").exists()

    @pytest.mark.parametrize("command", ["certify", "sweep"])
    @pytest.mark.parametrize("tolerance", ["-1", "nan"])
    def test_bad_accuracy_tolerance_returns_error_code(self, workspace, command, tolerance,
                                                       capsys):
        tmp_path, config, out = workspace
        text = config.read_text().replace("accuracy_tolerance = 0.0",
                                          f"accuracy_tolerance = {tolerance}")
        config.write_text(text, encoding="utf-8")
        assert main([command, "--config", str(config), "--out-dir", str(out)]) == 2
        assert "accuracy tolerance" in capsys.readouterr().err
        assert not (out / "report.json").exists()
