"""End-to-end tests of the command-line interface."""

import json

import numpy as np
import pytest

from labelcert import BiasSpec, classification_delta, fit, synth_classification, with_bias_column
from labelcert.cli import main
from labelcert.data import SplitConfig, split, write_csv
from labelcert.exact import classify_from_influence
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

    def test_missing_config_file_returns_error_code(self, tmp_path):
        missing = tmp_path / "missing.toml"
        assert main(["certify", "--config", str(missing), "--out-dir", str(tmp_path)]) == 2

    def test_misspelt_key_returns_error_code(self, workspace, capsys):
        tmp_path, config, out = workspace
        config.write_text("lamda_grid = [0.1]\n" + config.read_text(), encoding="utf-8")
        assert main(["certify", "--config", str(config), "--out-dir", str(out)]) == 2
        assert "lamda_grid" in capsys.readouterr().err
        assert not (out / "report.json").exists()
