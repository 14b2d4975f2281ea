"""Experiment harness: budget grids, rate tables, ridge sweeps, group breakdowns, attacks.

Everything here is deterministic given the experiment config and seed; wall
clock measurements are kept in a separate report section so the rest of a
report is reproducible bit for bit.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .approx import decide_approx_rows, model_hull
from .bias import BiasSpec, PerturbationVector, contains
from .config import ExperimentConfig, build_delta, resolve_budget
from .data import fold_rows, load_csv, write_columns
from .errors import (
    DimensionMismatch,
    EmptyGrid,
    LabelCertError,
    MissingGroups,
    NoAttackExists,
    TooFewRows,
)
from .exact import Decision, fixed_attack, min_flips_from_influence, verdicts
from .linalg import Dataset, InfluenceMatrix, ModelCoefficients, fit, influence_vector


def load_dataset(config: ExperimentConfig) -> Dataset:
    """The configured CSV dataset; classification requires {0, 1} labels."""
    if config.data_path is None or config.schema is None:
        raise LabelCertError("config must provide [dataset] path and label/features")
    return load_csv(
        config.data_path,
        config.schema,
        require_binary_labels=config.task == "classification",
    )


@dataclass(frozen=True)
class CertifiedRate:
    """Fraction of test points certified robust, with the per-point verdicts."""

    fraction: float
    verdicts: np.ndarray


def certify_grid(influence, train_y, X, delta, budgets, decision, methods=("exact", "approx")):
    """Certify the rows of X from one fit at every named budget, by each method.

    `budgets` maps the caller's budget names to label counts over the one
    perturbation vector `delta`.  exact: one `verdicts` call for the whole grid,
    over blocks of X . C, which partitions each row once at the largest budget and
    skips the rows a rounding-safe bound already settles; approx: one coefficient
    hull per budget, and one interval dot product per row of X over its box.  Returns
    `(verdicts, seconds)`: `verdicts[method][name]` is a boolean array over the rows
    of X, and `seconds[method]` the wall time of that method, hull builds included.
    When both methods run, every approx verdict is checked against exact per row;
    the hull's allowance covers exact's rounding, so a band verdict never fails it
    (see `approx.interval_predict`).
    """
    flags, seconds = {}, {}
    for method in methods:
        start = time.perf_counter()
        if method == "exact":
            grid = verdicts(influence.values, train_y, delta, list(budgets.values()), decision, X)
            flags[method] = dict(zip(budgets, grid))
        elif method == "approx":
            flags[method] = {
                name: decide_approx_rows(model_hull(influence, train_y, BiasSpec(delta, count)),
                                         X, decision)
                for name, count in budgets.items()
            }
        else:
            raise ValueError(f"method must be 'exact' or 'approx', got {method!r}")
        seconds[method] = time.perf_counter() - start
    if {"exact", "approx"} <= flags.keys():
        for name in budgets:
            unsound = np.flatnonzero(flags["approx"][name] & ~flags["exact"][name])
            if unsound.size:
                raise RuntimeError(
                    f"soundness violation: approx certified test row {unsound[0]}, "
                    f"which exact finds non-robust, at budget {name}"
                )
    return flags, seconds


def _fraction(verdicts: np.ndarray) -> float:
    return float(verdicts.mean()) if verdicts.size else float("nan")


def robustness_rate(
    train: Dataset,
    X_test: np.ndarray,
    task: str,
    spec: BiasSpec,
    epsilon: float | None,
    lam: float,
    method: str,
) -> CertifiedRate:
    """Certified fraction of the test rows under one method at one budget."""
    verdicts, _ = certify_grid(fit(train, lam)[1], train.y, X_test, spec.delta,
                               {spec.budget: spec.budget}, Decision.for_task(task, epsilon),
                               (method,))
    flags = verdicts[method][spec.budget]
    return CertifiedRate(_fraction(flags), flags)


def _accuracy(theta: ModelCoefficients, X: np.ndarray, y: np.ndarray, task: str) -> float:
    """Validation score: classification accuracy, or negative MSE for regression."""
    preds = X @ theta.values
    if task == "classification":
        return float(np.mean(Decision.label(preds) == (y == 1.0)))
    return -float(np.mean((preds - y) ** 2))


def lambda_sweep(
    train: Dataset,
    val: Dataset,
    task: str,
    delta: PerturbationVector,
    reference_budget: int,
    epsilon: float | None,
    lambda_grid,
    tolerance_pct: float,
) -> tuple:
    """Pick the ridge strength: best certified rate among accuracy-admissible values.

    A value is admissible when its validation accuracy is within
    `tolerance_pct` percentage points of the best over the grid (for
    regression the tolerance applies relative to the best negative MSE).
    Ties in certified rate resolve toward the larger ridge strength.  Each
    grid value is fitted once; both scores use that fit.

    Returns `(chosen_fit, record)`: the chosen value's `(theta, influence)`
    fit, whose `influence.lam` is the choice, and the `sweep` entry of
    report.json, with `accuracies` over the grid and the exact `rates` at the
    reference budget over the `admissible` values, both keyed by `str(lam)`.
    """
    grid = tuple(float(l) for l in lambda_grid)
    if not grid:
        raise EmptyGrid("lambda grid is empty")
    if not tolerance_pct >= 0:
        raise ValueError(f"accuracy tolerance must be >= 0, got {tolerance_pct}")
    fits = {lam: fit(train, lam) for lam in grid}
    accuracies = {lam: _accuracy(fits[lam][0], val.X, val.y, task) for lam in grid}
    best = max(accuracies.values())
    if task == "classification":
        floor = best - tolerance_pct / 100.0
    else:
        floor = best - tolerance_pct / 100.0 * max(abs(best), 1e-12)
    admissible = [lam for lam in grid if accuracies[lam] >= floor]
    decision = Decision.for_task(task, epsilon)
    rates = {}
    for lam in admissible:
        verdicts, _ = certify_grid(fits[lam][1], train.y, val.X, delta,
                                   {reference_budget: reference_budget}, decision, ("exact",))
        rates[lam] = _fraction(verdicts["exact"][reference_budget])
    chosen = None
    for lam in sorted(admissible):
        if chosen is None or rates[lam] >= rates[chosen]:
            chosen = lam
    record = {
        "reference_budget": reference_budget,
        "accuracies": {str(lam): accuracies[lam] for lam in grid},
        "admissible": admissible,
        "rates": {str(lam): rates[lam] for lam in admissible},
    }
    return fits[chosen], record


def group_rates(verdicts: np.ndarray, groups) -> dict:
    """Certified fraction per distinct group value."""
    if groups is None:
        raise MissingGroups("no group labels available for these rows")
    groups = tuple(groups)
    if len(groups) != len(verdicts):
        raise DimensionMismatch(f"{len(verdicts)} verdicts but {len(groups)} group labels")
    if not groups:
        raise MissingGroups("empty group label vector")
    verdicts = np.asarray(verdicts, dtype=bool)
    out = {}
    for g in sorted(set(groups)):
        mask = np.array([x == g for x in groups])
        out[g] = float(verdicts[mask].mean())
    return out


def fold_fits(dataset: Dataset, config: ExperimentConfig):
    """Yield `(train, val, test, delta, (theta, influence), sweep_record)` per fold.

    Each fold's rows come from `fold_rows` (`val` is None when the fold has
    none), and `delta` holds the training rows' intervals of the dataset's
    perturbation vector.  The fit is at the grid's one value or the sweep's
    choice; `sweep_record` is None without a sweep.  Lazy: `next(...)` fits
    fold 0 only.
    """
    full = build_delta(config, dataset)
    for train_rows, val_rows, test_rows in fold_rows(dataset.n, config.split):
        train, test = dataset.subset(train_rows), dataset.subset(test_rows)
        val = dataset.subset(val_rows) if val_rows.size else None
        delta = PerturbationVector(full.lo[train_rows], full.hi[train_rows])
        sweep_record = None
        if len(config.lambda_grid) > 1:
            if val is None:
                raise TooFewRows("lambda sweep needs a nonempty validation split")
            fitted, sweep_record = lambda_sweep(
                train, val, config.task, delta,
                resolve_budget(config.reference_budget, train.n), config.epsilon,
                config.lambda_grid, config.accuracy_tolerance,
            )
        else:
            fitted = fit(train, config.lambda_grid[0])
        yield train, val, test, delta, fitted, sweep_record


def _run_fold(fold_index, train, val, test, delta, fitted, sweep_record,
              config: ExperimentConfig, methods, timings) -> dict:
    """Certify one fitted fold's test rows at every budget of the grid: its `per_fold` entry."""
    theta, influence = fitted
    accuracy = _accuracy(theta, val.X, val.y, config.task) if val is not None else None
    budget_counts = {str(e): resolve_budget(e, train.n) for e in config.budgets}
    verdicts, seconds = certify_grid(influence, train.y, test.X, delta, budget_counts,
                                     Decision.for_task(config.task, config.epsilon), methods)
    for m, spent in seconds.items():
        timings[m] = timings.get(m, 0.0) + spent
    return {
        "fold": fold_index,
        "chosen_lambda": influence.lam,
        "accuracy": accuracy,
        "budget_counts": budget_counts,
        "rates": {m: {b: _fraction(v) for b, v in verdicts[m].items()} for m in methods},
        "group_rates": {m: {b: group_rates(v, test.group_labels) for b, v in verdicts[m].items()}
                        if test.group_labels is not None else {} for m in methods},
        "verdicts": {m: {b: v.tolist() for b, v in verdicts[m].items()} for m in methods},
        "sweep": sweep_record,
    }


def run_experiment(
    config: ExperimentConfig,
    dataset: Dataset | None = None,
    methods=("exact", "approx"),
) -> dict:
    """Full pipeline: split, choose the ridge strength, certify the grid, aggregate folds.

    Returns the report.json document that `write_report` writes; `timings`
    is its only nondeterministic part.
    """
    if dataset is None:
        dataset = load_dataset(config)
    timings: dict = {}
    per_fold = []
    for fold_index, fold in enumerate(fold_fits(dataset, config)):
        per_fold.append(_run_fold(fold_index, *fold, config, methods, timings))

    budgets = [str(b) for b in config.budgets]
    summary: dict = {}
    for m in methods:
        summary[m] = {}
        for label in budgets:
            values = [f["rates"][m][label] for f in per_fold]
            summary[m][label] = {
                "mean": float(np.mean(values)),
                "min": float(np.min(values)),
                "max": float(np.max(values)),
            }
    return {
        "task": config.task,
        "seed": config.seed,
        "folds": config.split.folds,
        "budgets": budgets,
        "per_fold": per_fold,
        "summary": summary,
        "timings": timings,
    }


def write_report(report: dict, out_dir: str | Path) -> Path:
    """Persist the report.json document plus plot-ready CSV tables; returns the JSON path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / "report.json"
    json_path.write_text(json.dumps(report, indent=2, sort_keys=True))
    render_csv_tables(report, out)
    return json_path


def render_csv_tables(payload: dict, out_dir: str | Path) -> list[Path]:
    """Re-render a report dict into rates/groups/verdicts/sweep CSV tables.

    Every table is rendered in memory before any file is written, so a
    malformed payload raises (KeyError, TypeError, ...) and writes nothing.
    The groups and sweep tables are written only when they have rows.
    """
    methods = sorted(payload["summary"].keys())
    stats = ("mean", "min", "max")
    rates = [[label, *(payload["summary"][m][label][s] for m in methods for s in stats)]
             for label in payload["budgets"]]
    groups, sweep = [], []
    for fold in payload["per_fold"]:
        for m, by_budget in fold["group_rates"].items():
            for label, by_group in by_budget.items():
                groups += ([fold["fold"], m, label, group, rate]
                           for group, rate in sorted(by_group.items()))
        info = fold.get("sweep")
        if info:
            admissible = set(info["admissible"])
            sweep += ([fold["fold"], lam_label, acc, int(float(lam_label) in admissible),
                       info["rates"].get(lam_label, "")]
                      for lam_label, acc in info["accuracies"].items())
    verdicts = (
        [fold["fold"], m, label, row_index, int(flag)]
        for fold in payload["per_fold"]
        for m, by_budget in fold["verdicts"].items()
        for label, flags in by_budget.items()
        for row_index, flag in enumerate(flags)
    )
    tables = [
        ("rates.csv", ["budget", *(f"{m}_{s}" for m in methods for s in stats)], rates),
        ("groups.csv", ["fold", "method", "budget", "group", "rate"], groups) if groups else None,
        ("verdicts.csv", ["fold", "method", "budget", "row", "robust"], verdicts),
        ("sweep.csv", ["fold", "lambda", "accuracy", "admissible", "val_rate"], sweep)
        if sweep else None,
    ]
    out = Path(out_dir)
    texts = {}
    for name, header, rows in filter(None, tables):
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(header)
        writer.writerows(rows)
        texts[out / name] = buffer.getvalue()
    out.mkdir(parents=True, exist_ok=True)
    for path, text in texts.items():
        path.write_text(text, newline="")
    return list(texts)


def export_attack(
    x: np.ndarray,
    dataset: Dataset,
    delta: PerturbationVector,
    influence: InfluenceMatrix,
    flips,
    labels_path: str | Path,
) -> dict:
    """Write a poisoned label file that attacks the thresholded prediction of x.

    `influence` is the model's influence matrix C on `dataset`.  `flips` is
    either "minimal" (the smallest k that flips the class, from the min-flips
    search) or a fixed count k.  Either way the file moves the first k labels
    of the greedy order toward the other class, so it differs from the
    original labels in exactly k rows.  `new_prediction` is x . (C y~) for the
    poisoned labels y~, which a refit would reproduce bit for bit, since C does
    not depend on the labels.  So it checks that y~ stays in the bias set and
    what class C y~ gives; it does not check C itself.
    """
    y = dataset.y
    z = influence_vector(x, influence)
    base = float(z @ y)

    if flips == "minimal":
        result = min_flips_from_influence(z, y, delta, Decision.threshold())
        if result is None:
            raise NoAttackExists(
                "no reachable label perturbation changes this prediction"
            )
        mode, side, k = "minimal", result.side, result.flips
    else:
        k = int(flips)
        if not 0 <= k <= dataset.n:
            raise ValueError(f"flip count must be in [0, {dataset.n}], got {flips!r}")
        # under the threshold only the end toward the other class can break
        mode, side = "fixed", "lower" if Decision.label(base) else "upper"
    y_tilde = fixed_attack(z, y, delta, side, k)
    changed = np.flatnonzero(y_tilde != y)
    if not contains(BiasSpec(delta, k), y, y_tilde):
        raise RuntimeError("internal error: exported attack escapes the bias set")
    new_pred = float((x * (influence.values @ y_tilde)).sum())
    old_class, new_class = Decision.label(base), Decision.label(new_pred)

    write_columns(labels_path, ("index", "label", "changed"),
                  (np.arange(dataset.n), y_tilde, y_tilde != y))

    return {
        "mode": mode,
        "requested": k,
        "changed_rows": changed.tolist(),
        "changed_count": int(changed.size),
        "old_prediction": base,
        "new_prediction": new_pred,
        "old_class": int(old_class),
        "new_class": int(new_class),
        "flipped": bool(new_class != old_class),
        "labels_path": str(labels_path),
    }
