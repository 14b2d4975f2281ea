#!/usr/bin/env python3
"""How feature count shapes certified robustness on synthetic classification data.

For each feature count the script certifies a held-out test split at a grid
of bias levels (label-flip budgets as a fraction of the training size) with
both certifiers, averaged over seeds, and writes one plot-ready CSV.  Each
(feature count, seed) is fitted once and certified at every level by both
certifiers, with every approximate certificate checked against exact.
"""

import argparse
import csv
from pathlib import Path

import numpy as np

from labelcert import Decision, certify_grid, classification_delta, fit, synth_classification
from labelcert.data import SplitConfig, split


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=1000, help="dataset size (even)")
    parser.add_argument("--seeds", type=int, default=4, help="number of seeds to average")
    parser.add_argument("--lam", type=float, default=1.0, help="ridge strength")
    parser.add_argument("--levels", type=float, nargs="+",
                        default=[0.04, 0.08, 0.12, 0.16, 0.20],
                        help="bias levels as fractions of the training size")
    parser.add_argument("--out", type=str, default="feature_count_trend.csv")
    args = parser.parse_args()

    rows = []
    for m in (3, 4, 5):
        # rates[method][level]: one certified fraction per seed, all from one fit
        rates = {method: {level: [] for level in args.levels} for method in ("exact", "approx")}
        for seed in range(args.seeds):
            ds = synth_classification(args.n, m, seed=seed)
            train, _, test = split(ds, SplitConfig(seed=seed))
            delta = classification_delta(train.y)
            budgets = {level: max(1, int(train.n * level + 0.5)) for level in args.levels}
            verdicts, _ = certify_grid(fit(train, args.lam)[1], train.y, test.X, delta, budgets,
                                       Decision.threshold())
            for method, by_level in verdicts.items():
                for level, flags in by_level.items():
                    rates[method][level].append(float(flags.mean()))
        for level in args.levels:
            rows.append([m, level, float(np.mean(rates["exact"][level])),
                         float(np.mean(rates["approx"][level]))])
            print(f"features={m} level={level:.2f} "
                  f"exact={rows[-1][2]:.3f} approx={rows[-1][3]:.3f}")

    out = Path(args.out)
    with open(out, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["features", "bias_level", "exact_rate", "approx_rate"])
        writer.writerows(rows)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
