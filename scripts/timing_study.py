#!/usr/bin/env python3
"""Wall-clock comparison of the two certifiers as the test set grows.

Both certifiers run on one ridge fit of a synthetic regression set at one
budget, through `certify_grid`, which reports the wall time of each method;
the fit is not timed, and the approx time includes the hull build.  The
exact certifier selects over every training label for each test point that
its rounding-safe screen does not settle; the hull certifier pays a one-time
hull build and then two matrix products per block of test points, an
interval dot product over m coefficients per point.  Prints a header and one
row per `--points` value.
"""

import argparse

import numpy as np

from labelcert import Dataset, Decision, certify_grid, fit, uniform_delta


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
    delta = uniform_delta(args.train_n, args.halfwidth)
    X_test = rng.normal(size=(max(args.points), args.features))
    _, influence = fit(train, args.lam)

    def seconds(rows):
        return certify_grid(influence, train.y, rows, delta, {args.budget: args.budget},
                            Decision.band(args.epsilon))[1]

    seconds(X_test[:50])  # warm-up
    print(f"{'points':>8} {'exact_s':>10} {'approx_s':>10} {'speedup':>8}")
    for count in args.points:
        spent = seconds(X_test[:count])
        speedup = spent["exact"] / max(spent["approx"], 1e-9)
        print(f"{count:>8} {spent['exact']:>10.3f} {spent['approx']:>10.3f} {speedup:>8.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
