"""Command-line front end.

Subcommands: certify, min-flips, hull, sweep, synth, attack, report.  Every
subcommand accepts --seed, --config, and --out-dir.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .approx import model_hull, save_hull
from .bias import BiasSpec
from .config import load_experiment_config, resolve_budget
from .data import synth_classification, synth_demographic, write_columns, write_csv
from .errors import LabelCertError
from .exact import Decision, min_flips_from_influence
from .harness import (
    export_attack,
    fold_fits,
    load_dataset,
    render_csv_tables,
    run_experiment,
    write_report,
)
from .linalg import influence_vector


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--config", type=str, default=None, help="experiment config file")
    parser.add_argument("--out-dir", type=str, default=None, help="output directory")


def _load_config(args, **extra):
    overrides = dict(seed=args.seed, out_dir=args.out_dir)
    overrides.update(extra)
    config = load_experiment_config(args.config, **overrides)
    try:
        Path(config.out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise LabelCertError(f"--out-dir {config.out_dir} is not a usable directory: {exc}")
    return config


def _fold0(args, **extra):
    """Config plus fold 0 of `fold_fits`: the rows, Δ and fit `certify` reports first."""
    config = _load_config(args, **extra)
    return config, next(fold_fits(load_dataset(config), config))


def _test_row(index: int, test) -> int:
    """Check a --index against the test split before anything is written."""
    if not 0 <= index < test.n:
        raise LabelCertError(f"--index must be in [0, {test.n}) for this test split, got {index}")
    return index


def cmd_synth(args) -> int:
    config = _load_config(args)
    seed = config.seed
    out = Path(config.out_dir)
    if args.kind == "classification":
        dataset = synth_classification(args.n, args.features, seed)
        path = out / f"synth_classification_n{args.n}_f{args.features}_seed{seed}.csv"
    else:
        dataset = synth_demographic(args.n, args.minority_fraction, seed)
        path = out / f"synth_demographic_n{args.n}_mf{args.minority_fraction}_seed{seed}.csv"
    write_csv(dataset, path)
    print(path)
    return 0


def cmd_certify(args) -> int:
    config = _load_config(args)
    methods = ("exact", "approx") if args.method == "both" else (args.method,)
    report = run_experiment(config, methods=methods)
    json_path = write_report(report, config.out_dir)
    for method, by_budget in sorted(report["summary"].items()):
        for label in report["budgets"]:
            print(f"{method} budget={label} rate={by_budget[label]['mean']:.4f}")
    print(json_path)
    return 0


def cmd_sweep(args) -> int:
    config = _load_config(args)
    report = run_experiment(config)
    json_path = write_report(report, config.out_dir)
    for fold in report["per_fold"]:
        info = fold.get("sweep")
        chosen = fold["chosen_lambda"]
        if info:
            for lam_label, acc in info["accuracies"].items():
                rate = info["rates"].get(lam_label)
                marker = "*" if float(lam_label) == chosen else " "
                rate_text = f"{rate:.4f}" if rate is not None else "-"
                print(f"fold={fold['fold']} lambda={lam_label}{marker} "
                      f"accuracy={acc:.4f} val_rate={rate_text}")
        else:
            print(f"fold={fold['fold']} lambda={chosen} (single-value grid)")
    print(json_path)
    return 0


def cmd_min_flips(args) -> int:
    config, (train, _, test, delta, (_, influence), _) = _fold0(args)
    decision = Decision.for_task(config.task, config.epsilon)
    rows = [_test_row(args.index, test)] if args.index is not None else range(test.n)
    # lazily, so that no witness outlives its row; an unbreakable row has empty cells
    results = (min_flips_from_influence(influence_vector(test.X[i], influence), train.y, delta,
                                        decision) for i in rows)
    cells = [("", "") if r is None else (str(r.flips), "%.17g" % r.prediction) for r in results]
    out_path = Path(config.out_dir) / "min_flips.csv"
    write_columns(out_path, ("row", "flips", "prediction"), (np.asarray(rows), *zip(*cells)))
    print(out_path)
    return 0


def cmd_hull(args) -> int:
    # --lam replaces the grid; --budget stays local so the sweep's reference budget holds
    config, (train, _, _, delta, (_, influence), _) = _fold0(
        args, lambda_grid=None if args.lam is None else [args.lam])
    budget = args.budget if args.budget is not None else config.budgets[0]
    spec = BiasSpec(delta, resolve_budget(budget, train.n))
    hull = model_hull(influence, train.y, spec)
    out_path = Path(config.out_dir) / "hull.json"
    save_hull(hull, out_path)
    print(out_path)
    return 0


def cmd_attack(args) -> int:
    config, (train, _, test, delta, (_, influence), _) = _fold0(args)
    if config.task != "classification":
        raise LabelCertError(f"attack needs a classification task, got {config.task!r}")
    index = _test_row(args.index, test)
    if args.flips == "minimal":
        flips = "minimal"
    else:
        try:
            flips = int(args.flips)
        except ValueError:
            raise LabelCertError(f"--flips must be 'minimal' or a count, got {args.flips!r}")
    out = Path(config.out_dir)
    labels_path = out / f"attack_labels_row{index}.csv"
    summary = export_attack(test.X[index], train, delta, influence, flips, labels_path)
    summary_path = out / f"attack_summary_row{index}.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True))
    print(summary_path)
    return 0


def cmd_report(args) -> int:
    try:
        payload = json.loads(Path(args.report).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise LabelCertError(f"cannot read report {args.report}: {exc}") from exc
    config = _load_config(args)
    try:
        paths = render_csv_tables(payload, config.out_dir)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise LabelCertError(
            f"report {args.report} is malformed: {type(exc).__name__} {exc}"
        ) from exc
    for path in paths:
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="labelcert",
        description="Certify linear regression predictions against bounded "
        "training-label perturbations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    p.add_argument("--kind", choices=("classification", "demographic"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--features", type=int, default=3)
    p.add_argument("--minority-fraction", type=float, default=0.25)
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("certify", help="certify the test split; write report + tables")
    p.add_argument("--method", choices=("exact", "approx", "both"), default="both")
    _add_common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("sweep", help="ridge-strength sweep under an accuracy tolerance")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("min-flips", help="smallest breaking budget per test row")
    p.add_argument("--index", type=int, default=None, help="single test row (default: all)")
    _add_common(p)
    p.set_defaults(func=cmd_min_flips)

    p = sub.add_parser("hull", help="build and export the coefficient hull")
    p.add_argument("--budget", type=str, default=None, help="override the first grid entry")
    p.add_argument("--lam", type=float, default=None, help="ridge strength override")
    _add_common(p)
    p.set_defaults(func=cmd_hull)

    p = sub.add_parser("attack", help="export a poisoned label file for one test row")
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--flips", type=str, default="minimal", help="'minimal' or a count")
    _add_common(p)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("report", help="re-render a report JSON into CSV tables")
    p.add_argument("--report", type=str, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LabelCertError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
