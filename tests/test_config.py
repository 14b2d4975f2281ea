"""Tests for the config file grammar and experiment config assembly."""

import re
from pathlib import Path

import numpy as np
import pytest

from labelcert import BiasSpec, Dataset, classification_delta, synth_classification, uniform_delta
from labelcert.config import (
    ExperimentConfig,
    build_delta,
    config_from_dict,
    load_experiment_config,
    parse_config_text,
    resolve_budget,
)
from labelcert.errors import ParseError
from labelcert.harness import run_experiment

SAMPLE = """
# experiment settings
task = "classification"
seed = 7
budgets = ["1%", "2%", 5]
lambda_grid = [0.0, 0.1, 1.0]
accuracy_tolerance = 2.0

[dataset]
path = "income.csv"   # a trailing comment
label = "income"
features = ["age", "hours"]
group = "race"
add_bias_column = true

[split]
train = 0.8
val = 0.1
test = 0.1
folds = 1

[bias]
kind = "classification"

[targeting]
group = "minority"
negate = false
"""


class TestParser:
    def test_sample_document(self):
        doc = parse_config_text(SAMPLE)
        assert doc["task"] == "classification"
        assert doc["seed"] == 7
        assert doc["budgets"] == ["1%", "2%", 5]
        assert doc["lambda_grid"] == [0.0, 0.1, 1.0]
        assert doc["dataset"]["path"] == "income.csv"
        assert doc["dataset"]["add_bias_column"] is True
        assert doc["split"]["train"] == 0.8
        assert doc["targeting"]["group"] == "minority"

    def test_hash_inside_string_kept(self):
        doc = parse_config_text('name = "a#b"\n')
        assert doc["name"] == "a#b"

    def test_bad_lines_rejected(self):
        old_grammar = ("just words\n", "[unclosed\n", 'x = "open\n', "x = [1, 2\n")
        # accepted by the earlier hand-written parser, invalid TOML
        toml_only = (
            "x = .5\n",
            "x = 1.\n",
            "x = 1\nx = 2\n",  # duplicate key
            "[a]\nx = 1\n[b]\n[a]\ny = 2\n",  # re-opened table
            'path = "C:\\data"\n',  # unknown escape sequence
        )
        for text in old_grammar + toml_only:
            with pytest.raises(ParseError):
                parse_config_text(text)

    def test_value_types(self):
        doc = parse_config_text('a = 3\nb = 2.5\nc = true\nd = "s"\ne = [1, "x"]\n')
        assert doc["a"] == 3 and isinstance(doc["a"], int)
        assert doc["b"] == 2.5
        assert doc["c"] is True
        assert doc["d"] == "s"
        assert doc["e"] == [1, "x"]

    def test_determinism(self):
        assert parse_config_text(SAMPLE) == parse_config_text(SAMPLE)


class TestExperimentConfig:
    def test_from_sample(self):
        config = config_from_dict(parse_config_text(SAMPLE))
        assert config.task == "classification"
        assert config.schema.label == "income"
        assert config.schema.add_bias_column
        assert config.targeting.value == "minority"
        assert config.budgets == ("1%", "2%", 5)
        assert config.reference_budget == "2%"  # middle of the grid

    def test_overrides_win(self):
        config = config_from_dict(parse_config_text(SAMPLE), seed=99, out_dir="elsewhere")
        assert config.seed == 99
        assert config.out_dir == "elsewhere"

    def test_none_overrides_ignored(self):
        config = config_from_dict(parse_config_text(SAMPLE), seed=None)
        assert config.seed == 7

    def test_empty_document_takes_the_declared_defaults(self):
        assert config_from_dict({}) == ExperimentConfig()

    def test_seed_override_seeds_the_split(self):
        doc = parse_config_text(SAMPLE)  # seed = 7, no [split] seed
        assert config_from_dict(doc).split.seed == 7
        assert config_from_dict(doc, seed=99).split.seed == 99

    def test_explicit_split_seed_kept(self):
        doc = parse_config_text(SAMPLE)
        doc["split"]["seed"] = 4
        config = config_from_dict(doc, seed=99)
        assert (config.seed, config.split.seed) == (99, 4)

    def test_integer_epsilon_coerced(self):
        config = config_from_dict({"task": "regression", "epsilon": 2})
        assert config.epsilon == 2.0 and isinstance(config.epsilon, float)

    def test_regression_requires_epsilon(self):
        with pytest.raises(ValueError):
            ExperimentConfig(task="regression", epsilon=None)
        ExperimentConfig(task="regression", epsilon=1.0)

    @pytest.mark.parametrize("epsilon", [-1.0, float("nan")])
    def test_negative_or_nan_epsilon_rejected(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must be >= 0"):
            ExperimentConfig(task="regression", epsilon=epsilon)
        with pytest.raises(ValueError, match="epsilon must be >= 0"):
            config_from_dict(parse_config_text(f"task = \"regression\"\nepsilon = {epsilon}\n"))

    def test_empty_budgets_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(budgets=())

    def test_empty_lambda_grid_rejected(self):
        with pytest.raises(ValueError, match="lambda grid"):
            ExperimentConfig(lambda_grid=())

    def test_readme_config_block(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```toml\n(.*?)```", readme, flags=re.DOTALL)
        assert len(blocks) == 1
        config = config_from_dict(parse_config_text(blocks[0]))
        assert config.schema.categorical == ("group",)
        assert config.targeting.value == "Black"
        assert config.epsilon == 2000.0

    def test_file_loading(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text(SAMPLE, encoding="utf-8")
        config = load_experiment_config(path)
        assert config.schema.features == ("age", "hours")


class TestKeyChecks:
    @pytest.mark.parametrize(
        "text, key",
        [
            ("lamda_grid = [0.1]\n", "lamda_grid"),  # misspelt key
            ("[split]\nfold = 5\n", "split.fold"),  # misspelt key in a table
            ("budgets = 5\n", "budgets"),  # scalar where a list belongs
            ('dataset = "x"\n', "dataset"),  # not a table
            ("seed = true\n", "seed"),  # a bool is not an int
            ('lambda_grid = [0.1, "1"]\n', "lambda_grid"),  # wrong list element
            ("[split]\nfolds = 2.0\n", "split.folds"),
            ('[dataset]\nadd_bias_column = "false"\n', "dataset.add_bias_column"),
            ("[dataset.extra]\npath = 1\n", "dataset.extra"),  # nested table
            ("[outputs]\ndir = 1\n", "outputs"),  # unknown table
        ],
    )
    def test_rejected_with_key_named(self, text, key):
        doc = parse_config_text(text)
        with pytest.raises(ParseError, match=re.escape(repr(key))):
            config_from_dict(doc)

    def test_integers_accepted_as_numbers(self):
        config = config_from_dict(parse_config_text("epsilon = 2\nlambda_grid = [0, 1]\n"))
        assert config.epsilon == 2.0 and isinstance(config.epsilon, float)
        assert config.lambda_grid == (0.0, 1.0)

    def test_file_errors_name_key(self, tmp_path):
        path = tmp_path / "config.toml"
        path.write_text(SAMPLE.replace("lambda_grid", "lamda_grid"), encoding="utf-8")
        with pytest.raises(ParseError, match="lamda_grid"):
            load_experiment_config(path)


class TestResolveBudget:
    def test_absolute(self):
        assert resolve_budget(5, 100) == 5
        assert resolve_budget("5", 100) == 5  # CLI passes strings through
        assert resolve_budget(np.int64(5), 100) == 5

    def test_percentage_rounds_to_nearest(self):
        assert resolve_budget("1%", 800) == 8
        assert resolve_budget("2.6%", 100) == 3

    def test_nonzero_percentage_floor_one(self):
        assert resolve_budget("0.01%", 100) == 1
        assert resolve_budget("0%", 100) == 0

    def test_exceeding_training_size_rejected(self):
        with pytest.raises(ValueError):
            resolve_budget(101, 100)

    def test_malformed_entry(self):
        with pytest.raises(ValueError):
            resolve_budget("five", 100)

    @pytest.mark.parametrize("entry", ["inf%", "1e400%", "nan%", "-1%", "five%"])
    def test_nonfinite_or_negative_percentage_rejected(self, entry):
        with pytest.raises(ValueError, match=f"budget entry '{entry}'"):
            resolve_budget(entry, 100)

    @pytest.mark.parametrize("entry", ["1e308%", "1.7976931348623157e308%", "101%"])
    def test_percentage_past_the_training_size_rejected(self, entry):
        # 1e308% of 3200 overflows to inf before rounding
        with pytest.raises(ValueError, match=f"budget '{entry}' exceeds the 3200 training labels"):
            resolve_budget(entry, 3200)

    @pytest.mark.parametrize("entry", [2.5, -0.5, True, float("inf"), float("nan"), None])
    def test_non_integer_entry_rejected(self, entry):
        with pytest.raises(ValueError, match=re.escape(f"budget entry {entry!r}")):
            resolve_budget(entry, 100)

    def test_non_integer_entry_rejected_by_run_experiment(self):
        config = ExperimentConfig(task="classification", budgets=(5, 2.5))
        with pytest.raises(ValueError, match="budget entry 2.5"):
            run_experiment(config, synth_classification(100, 3, seed=1))


class TestBuildDelta:
    def _train(self):
        return Dataset(
            np.array([[1.0], [2.0], [3.0]]),
            np.array([1.0, 0.0, 1.0]),
            group_labels=("a", "b", "a"),
        )

    def test_uniform(self):
        config = ExperimentConfig(task="regression", epsilon=1.0,
                                  bias_kind="uniform", bias_halfwidth=2.0)
        delta = build_delta(config, self._train())
        np.testing.assert_array_equal(delta.lo, [-2.0, -2.0, -2.0])

    def test_classification_default(self):
        config = ExperimentConfig(task="classification")
        delta = build_delta(config, self._train())
        expected = classification_delta(self._train().y)
        np.testing.assert_array_equal(delta.lo, expected.lo)
        np.testing.assert_array_equal(delta.hi, expected.hi)

    def test_targeting_applied(self):
        from labelcert import TargetPredicate

        config = ExperimentConfig(task="classification",
                                  targeting=TargetPredicate(value="a"))
        delta = build_delta(config, self._train())
        assert delta.lo[1] == delta.hi[1] == 0.0
        assert delta.lo[0] == -1.0

    def test_file_deltas(self, tmp_path):
        path = tmp_path / "delta.csv"
        path.write_text("lo,hi\n-1,1\n-2,0\n0,3\n", encoding="utf-8")
        config = ExperimentConfig(task="regression", epsilon=1.0,
                                  bias_kind="file", bias_file=str(path))
        delta = build_delta(config, self._train())
        np.testing.assert_array_equal(delta.hi, [1.0, 0.0, 3.0])

    def test_file_needs_one_interval_per_row(self, tmp_path):
        path = tmp_path / "delta.csv"
        path.write_text("lo,hi\n-1,1\n0,3\n", encoding="utf-8")
        config = ExperimentConfig(task="regression", epsilon=1.0,
                                  bias_kind="file", bias_file=str(path))
        with pytest.raises(ParseError, match="2 intervals for 3 dataset rows"):
            build_delta(config, self._train())

    def test_file_refuses_non_finite_bounds(self, tmp_path):
        path = tmp_path / "delta.csv"
        path.write_text("lo,hi\n-1,1\nnan,0\n0,3\n", encoding="utf-8")
        config = ExperimentConfig(task="regression", epsilon=1.0,
                                  bias_kind="file", bias_file=str(path))
        with pytest.raises(ParseError, match="^row 3, column 'lo': cannot parse 'nan'"):
            build_delta(config, self._train())

    @pytest.mark.parametrize("line", ["0.5,1.0", "1,-1"])
    def test_file_refuses_interval_without_zero(self, tmp_path, line):
        path = tmp_path / "delta.csv"
        path.write_text(f"lo,hi\n-1,1\n{line}\n0,3\n", encoding="utf-8")
        config = ExperimentConfig(task="regression", epsilon=1.0,
                                  bias_kind="file", bias_file=str(path))
        with pytest.raises(ParseError, match="delta.csv.*does not contain 0"):
            build_delta(config, self._train())

    def test_build_spec_resolves_budget(self):
        config = ExperimentConfig(task="classification", budgets=("33.4%",))
        train = self._train()
        spec = BiasSpec(build_delta(config, train), resolve_budget("33.4%", train.n))
        assert spec.budget == 1
