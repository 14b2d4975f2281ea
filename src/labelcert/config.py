"""Experiment configuration: a TOML file plus CLI overrides.

The file is TOML, parsed by the standard library's ``tomllib``.
`config_from_dict` checks the document against one table of allowed keys and
value types per TOML table; an unknown key, a section that is not a table or
a value of the wrong type raises a `ParseError` naming the key.  Every CLI
flag overrides the corresponding file entry.
"""

from __future__ import annotations

import math
import numbers
import tomllib
from dataclasses import dataclass, field
from pathlib import Path

from .bias import (
    PerturbationVector,
    TargetPredicate,
    apply_targeting,
    classification_delta,
    uniform_delta,
)
from .data import DatasetSchema, SplitConfig, read_delta_csv
from .errors import ParseError
from .linalg import Dataset


def parse_config_text(text: str) -> dict:
    """Parse TOML text into nested dicts; keys are not checked here."""
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ParseError(f"invalid TOML: {exc}") from None


@dataclass
class ExperimentConfig:
    """Everything one experiment run needs; built from a config file plus overrides."""

    task: str = "classification"
    data_path: str | None = None
    schema: DatasetSchema | None = None
    split: SplitConfig = field(default_factory=SplitConfig)
    bias_kind: str = "classification"  # uniform | classification | file
    bias_halfwidth: float = 0.0
    bias_file: str | None = None
    targeting: TargetPredicate | None = None
    budgets: tuple = ("1%",)
    epsilon: float | None = None
    lambda_grid: tuple = (0.0,)
    accuracy_tolerance: float = 0.0
    reference_budget: object = None
    seed: int = 0
    out_dir: str = "out"

    def __post_init__(self) -> None:
        if self.task not in ("regression", "classification"):
            raise ValueError(f"task must be regression or classification, got {self.task!r}")
        if not self.budgets:
            raise ValueError("budget grid must be nonempty")
        if not self.lambda_grid:
            raise ValueError("lambda grid must be nonempty")
        if self.task == "regression" and self.epsilon is None:
            raise ValueError("regression experiments require an epsilon")
        if self.epsilon is not None:
            self.epsilon = float(self.epsilon)
            if not self.epsilon >= 0:
                raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.bias_kind not in ("uniform", "classification", "file"):
            raise ValueError(f"unknown bias kind {self.bias_kind!r}")
        self.budgets = tuple(self.budgets)
        self.lambda_grid = tuple(float(l) for l in self.lambda_grid)
        if self.reference_budget is None:
            self.reference_budget = self.budgets[len(self.budgets) // 2]


_NUMBER = (int, float)
_BUDGET = (str, int)  # a label count or "N%" of the training size

# Allowed keys and value types per table (None is the top level); a one-element
# list means "list of".  The top-level keys that name tables must hold tables.
_KEYS: dict = {
    None: dict(task=str, seed=int, budgets=[_BUDGET], lambda_grid=[_NUMBER],
               accuracy_tolerance=_NUMBER, reference_budget=_BUDGET, epsilon=_NUMBER,
               out_dir=str),
    "dataset": dict(path=str, label=str, features=[str], group=str, categorical=[str],
                    add_bias_column=bool),
    "split": dict(train=_NUMBER, val=_NUMBER, test=_NUMBER, seed=int, folds=int),
    "bias": dict(kind=str, halfwidth=_NUMBER, file=str),
    "targeting": dict(group=(str, int), feature_index=int, value=_NUMBER, negate=bool),
}


def _has_type(value, kind) -> bool:
    if isinstance(kind, list):
        return isinstance(value, list) and all(_has_type(v, kind[0]) for v in value)
    # bool subclasses int, but true/false is never a count or a number here
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _check_keys(doc: dict, table: str | None = None) -> None:
    """Raise ParseError naming the first unknown, misplaced or mistyped key."""
    for key, value in doc.items():
        name = key if table is None else f"{table}.{key}"
        if table is None and key in _KEYS:
            if not isinstance(value, dict):
                raise ParseError(f"{key!r} must be a [{key}] table, got {value!r}")
            _check_keys(value, key)
        elif key not in _KEYS[table]:
            raise ParseError(f"unknown config key {name!r}")
        elif not _has_type(value, _KEYS[table][key]):
            raise ParseError(f"config key {name!r} has the wrong type: {value!r}")


def _schema_from_dict(d: dict) -> DatasetSchema:
    return DatasetSchema(
        label=d["label"],
        features=tuple(d.get("features", ())),
        group=d.get("group"),
        categorical=tuple(d.get("categorical", ())),
        add_bias_column=d.get("add_bias_column", False),
    )


def _targeting_from_dict(d: dict) -> TargetPredicate:
    negate = d.get("negate", False)
    if "group" in d:
        return TargetPredicate(value=d["group"], negate=negate)
    if "feature_index" in d and "value" in d:
        return TargetPredicate(value=d["value"], feature_index=d["feature_index"], negate=negate)
    raise ParseError("[targeting] needs either 'group' or 'feature_index' + 'value'")


def config_from_dict(doc: dict, **overrides) -> ExperimentConfig:
    """Assemble an ExperimentConfig from a parsed document plus keyword overrides.

    The document's keys and value types are checked first.  Overrides with
    value None are ignored, so CLI flags can be passed through unconditionally.
    Only keys that the document or an override sets are passed on; every
    default lives on ExperimentConfig or SplitConfig.  The split is seeded by
    `[split] seed` when the document sets it, else by the effective `seed`.
    """
    _check_keys(doc)
    dataset = doc.get("dataset", {})
    # top-level scalars are named as ExperimentConfig's fields; [bias] keys get a prefix
    kwargs = {key: value for key, value in doc.items() if key not in _KEYS}
    if "path" in dataset:
        kwargs["data_path"] = dataset["path"]
    if "label" in dataset:
        kwargs["schema"] = _schema_from_dict(dataset)
    kwargs.update({f"bias_{key}": value for key, value in doc.get("bias", {}).items()})
    if "targeting" in doc:
        kwargs["targeting"] = _targeting_from_dict(doc["targeting"])
    kwargs.update({key: value for key, value in overrides.items() if value is not None})
    if "split" not in kwargs:
        seed = {"seed": kwargs["seed"]} if "seed" in kwargs else {}
        kwargs["split"] = SplitConfig(**{**seed, **doc.get("split", {})})
    return ExperimentConfig(**kwargs)


def load_experiment_config(path: str | Path | None, **overrides) -> ExperimentConfig:
    """Read and check a TOML config file (none: all defaults), then apply overrides."""
    doc = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ParseError(f"{path}: {exc}") from exc
        doc = parse_config_text(text)
    return config_from_dict(doc, **overrides)


def resolve_budget(entry, train_size: int) -> int:
    """Turn a budget grid entry into a label count.

    Percentages of the training size round to nearest and never collapse a
    nonzero percentage to zero labels.
    """
    if isinstance(entry, bool) or not isinstance(entry, (str, numbers.Integral)):
        raise ValueError(f"budget entry {entry!r} must be an integer or 'N%'")
    text = str(entry).strip()
    if text.endswith("%"):
        try:
            pct = float(text[:-1])
        except ValueError:
            pct = math.nan
        if not (math.isfinite(pct) and pct >= 0):
            raise ValueError(f"budget entry {entry!r} must be a finite percentage >= 0")
        # a huge percentage overflows to inf; clamped, it fails the size check below
        count = int(min(pct / 100.0 * train_size + 0.5, train_size + 1))
        if pct > 0:
            count = max(count, 1)
    else:
        try:
            count = int(text)
        except ValueError:
            raise ValueError(f"budget entry {entry!r} must be an integer or 'N%'") from None
        if count < 0:
            raise ValueError(f"budget must be >= 0, got {entry!r}")
    if count > train_size:
        raise ValueError(f"budget {entry!r} exceeds the {train_size} training labels")
    return count


def build_delta(config: ExperimentConfig, dataset: Dataset) -> PerturbationVector:
    """Materialize the configured perturbation vector: one interval per dataset row.

    A bias file holds one `lo,hi` row per dataset row, in dataset order; each
    fold takes its training rows' intervals from the result.  A bias file whose
    intervals do not make a perturbation vector raises ParseError naming it.
    """
    if config.bias_kind == "uniform":
        delta = uniform_delta(dataset.n, config.bias_halfwidth)
    elif config.bias_kind == "classification":
        delta = classification_delta(dataset.y)
    else:
        if config.bias_file is None:
            raise ValueError("bias kind 'file' requires a file path")
        lo, hi = read_delta_csv(config.bias_file)
        if lo.size != dataset.n:
            raise ParseError(
                f"{config.bias_file}: {lo.size} intervals for {dataset.n} dataset rows"
            )
        try:
            delta = PerturbationVector(lo, hi)
        except ValueError as exc:
            raise ParseError(f"{config.bias_file}: {exc}") from None
    if config.targeting is not None:
        delta = apply_targeting(delta, dataset, config.targeting)
    return delta
