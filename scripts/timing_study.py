#!/usr/bin/env python3
"""Wall-clock comparison of the two certifiers as the test set grows.

The exact certifier selects over every training label for each test point
that its rounding-safe screen does not settle; the hull certifier pays a
one-time hull build and then costs one m-wide range per point.
"""

import argparse

import numpy as np

from labelcert import BiasSpec, Dataset, timing_report, uniform_delta


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--train-n", type=int, default=5000)
    parser.add_argument("--features", type=int, default=4)
    parser.add_argument("--budget", type=int, default=50)
    parser.add_argument("--halfwidth", type=float, default=0.5)
    parser.add_argument("--epsilon", type=float, default=1.0)
    parser.add_argument("--lam", type=float, default=0.1)
    parser.add_argument("--points", type=int, nargs="+", default=[100, 1000, 10000])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    X = rng.normal(size=(args.train_n, args.features))
    w = rng.normal(size=args.features)
    train = Dataset(X, X @ w + 0.5 * rng.normal(size=args.train_n))
    spec = BiasSpec(uniform_delta(args.train_n, args.halfwidth), args.budget)
    X_test = rng.normal(size=(max(args.points), args.features))

    timing_report(train, X_test[:50], "regression", spec, args.epsilon, args.lam)  # warm-up
    print(f"{'points':>8} {'exact_s':>10} {'approx_s':>10} {'speedup':>8}")
    for count in args.points:
        report = timing_report(train, X_test[:count], "regression", spec,
                               args.epsilon, args.lam)
        speedup = report["exact_seconds"] / max(report["approx_seconds"], 1e-9)
        print(f"{count:>8} {report['exact_seconds']:>10.3f} "
              f"{report['approx_seconds']:>10.3f} {speedup:>8.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
