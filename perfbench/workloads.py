"""The four benchmark workloads.

Each workload builds its inputs from the seed (`setup`), runs one timed pass
through labelcert's public entry points (`timed`), reads the pass's outputs
back (`collect`, untimed) and checks them (`check`, untimed).  `FULL` holds
the benchmark sizes and `SMOKE` the reduced sizes used by the smoke test and
for warm-up.  Calls go through module attributes (`harness.robustness_rate`,
`cli.main`) so that the traced run can wrap them.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from labelcert import cli, harness
from labelcert.bias import BiasSpec, classification_delta, uniform_delta
from labelcert.data import SplitConfig, split, synth_classification, with_bias_column, write_csv
from labelcert.exact import certify_from_influence, classify_from_influence
from labelcert.linalg import Dataset, fit, influence_vector

from checks import (
    check_exact_sample,
    check_soundness,
    ridge_influence,
    sample_rows,
)

# Points per budget checked against the exact reference (and, in
# hull-wide-approx, for soundness, since exact does not run in its pass).
REFERENCE_SAMPLE = 48


class BenchError(RuntimeError):
    """A timed operation failed, so the pass has no output to measure."""


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
    return h.hexdigest()


class Workload:
    name = ""
    FULL: dict = {}
    SMOKE: dict = {}

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.seed = seed
        self.p = dict(self.SMOKE if smoke else self.FULL)
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)


def _regression_data(rng, n_train: int, n_test: int, m: int):
    X = rng.normal(size=(n_train, m))
    w = rng.normal(size=m)
    y = X @ w + 0.5 * rng.normal(size=n_train)
    return Dataset(X, y), rng.normal(size=(n_test, m))


class RegExactC08(Workload):
    """The c08 regression instance through robustness_rate, exact and approx."""

    name = "reg-exact-c08"
    FULL = dict(n_train=5000, features=4, halfwidth=0.5, budget=50, lam=0.1,
                epsilon=0.03, n_test=2000)
    SMOKE = dict(FULL, n_train=400, budget=5, n_test=60)

    def setup(self) -> None:
        p = self.p
        rng = np.random.default_rng(self.seed)
        self.train, self.X_test = _regression_data(rng, p["n_train"], p["n_test"], p["features"])
        self.spec = BiasSpec(uniform_delta(p["n_train"], p["halfwidth"]), p["budget"])

    def timed(self) -> None:
        p = self.p
        self._out = {
            method: harness.robustness_rate(
                self.train, self.X_test, "regression", self.spec, p["epsilon"], p["lam"], method
            ).verdicts
            for method in ("exact", "approx")
        }

    def collect(self):
        out = self._out
        return out, _digest(out["exact"].tobytes(), out["approx"].tobytes()), 2 * self.p["n_test"]

    def check(self, out, checks) -> None:
        p = self.p
        check_soundness(checks, self.name, out["exact"], out["approx"])
        delta = self.spec.delta
        check_exact_sample(
            checks, self.name, ridge_influence(self.train.X, p["lam"]), self.X_test,
            sample_rows(p["n_test"], REFERENCE_SAMPLE, self.seed), self.train.y,
            delta.lo, delta.hi, p["budget"], p["epsilon"], out["exact"],
        )


class HullWideApprox(Workload):
    """Wide regression through robustness_rate(method="approx") at three budgets."""

    name = "hull-wide-approx"
    FULL = dict(n_train=20000, features=32, halfwidth=0.5, budgets=(50, 100, 200), lam=0.1,
                epsilon=0.3, n_test=30000)
    SMOKE = dict(FULL, n_train=600, features=8, budgets=(2, 5, 10), n_test=200)

    def setup(self) -> None:
        p = self.p
        rng = np.random.default_rng(self.seed)
        self.train, self.X_test = _regression_data(rng, p["n_train"], p["n_test"], p["features"])
        delta = uniform_delta(p["n_train"], p["halfwidth"])
        self.specs = [BiasSpec(delta, b) for b in p["budgets"]]

    def timed(self) -> None:
        p = self.p
        self._out = [
            harness.robustness_rate(
                self.train, self.X_test, "regression", spec, p["epsilon"], p["lam"], "approx"
            ).verdicts
            for spec in self.specs
        ]

    def collect(self):
        out = self._out
        return out, _digest(*(v.tobytes() for v in out)), len(out) * self.p["n_test"]

    def check(self, out, checks) -> None:
        # Exact never runs in the timed pass; run it here on a fixed sample.
        p = self.p
        _, influence = fit(self.train, p["lam"])
        C = ridge_influence(self.train.X, p["lam"])
        rows = sample_rows(p["n_test"], REFERENCE_SAMPLE, self.seed)
        for spec, approx in zip(self.specs, out):
            label = f"{self.name} budget={spec.budget}"
            exact = np.zeros(p["n_test"], dtype=bool)
            for i in rows:
                z = self.X_test[i] @ influence.values
                exact[i] = certify_from_influence(z, self.train.y, spec, p["epsilon"]).robust
            check_soundness(checks, label, exact[rows], approx[rows])
            check_exact_sample(
                checks, label, C, self.X_test, rows, self.train.y,
                spec.delta.lo, spec.delta.hi, spec.budget, p["epsilon"], exact,
            )


CONFIG = """\
task = "classification"
seed = {seed}
budgets = {budgets}
lambda_grid = {lambda_grid}
accuracy_tolerance = {tolerance}
[dataset]
path = "{data}"
label = "label"
features = ["f1", "f2", "f3", "f4", "f5"]
add_bias_column = true
[split]
seed = {seed}
[bias]
kind = "classification"
"""


def run_cli(*argv: str) -> None:
    """One in-process `labelcert` invocation; its console output is discarded."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main(list(argv))
    if code != 0:
        raise BenchError(f"labelcert {' '.join(argv)} exited {code}: {err.getvalue().strip()}")


class CliWorkload(Workload):
    """Synthetic classification CSV plus config file, driven through `labelcert.cli.main`."""

    def setup(self) -> None:
        p = self.p
        dataset = synth_classification(p["rows"], 5, self.seed)
        self.data_path = self.workdir / "data.csv"
        self.config_path = self.workdir / "experiment.cfg"
        self.out = self.workdir / "out"
        write_csv(dataset, self.data_path)
        self.config_path.write_text(CONFIG.format(
            seed=self.seed, budgets=json.dumps(list(p["budgets"])),
            lambda_grid=json.dumps(list(p["lambda_grid"])), tolerance=p["tolerance"],
            data=self.data_path.resolve(),
        ))
        self.dataset = dataset

    def cli(self, command: str, *args: str, out: Path | None = None) -> None:
        run_cli(command, "--config", str(self.config_path),
                "--out-dir", str(out or self.out), *args)

    def splits(self):
        """The train and test splits the CLI certifies, rebuilt for the checks."""
        train, _, test = split(with_bias_column(self.dataset), SplitConfig(seed=self.seed))
        return train, test


class CliCertifySweep(CliWorkload):
    """`labelcert certify --method both` with a ridge sweep, in process."""

    name = "cli-certify-sweep"
    FULL = dict(rows=4000, budgets=("0.1%", "0.5%", "1%"), lambda_grid=(0.0, 0.1, 1.0),
                tolerance=2.0)
    SMOKE = dict(FULL, rows=400)

    def timed(self) -> None:
        self.cli("certify", "--method", "both")

    def collect(self):
        payload = json.loads((self.out / "report.json").read_text())
        payload.pop("timings", None)
        count = sum(
            len(flags)
            for fold in payload["per_fold"]
            for by_budget in fold["verdicts"].values()
            for flags in by_budget.values()
        )
        return payload, _digest(json.dumps(payload, sort_keys=True)), count

    def check(self, payload, checks) -> None:
        train, test = self.splits()
        fold = payload["per_fold"][0]
        C = ridge_influence(train.X, fold["chosen_lambda"])
        rows = sample_rows(test.n, REFERENCE_SAMPLE, self.seed)
        for label in payload["budgets"]:
            exact = fold["verdicts"]["exact"][label]
            approx = fold["verdicts"]["approx"][label]
            check_soundness(checks, f"{self.name} budget={label}", exact, approx)
            budget = max(1, int(float(label.rstrip("%")) / 100.0 * train.n + 0.5))
            check_exact_sample(
                checks, f"{self.name} budget={label}", C, test.X, rows, train.y,
                -train.y, 1.0 - train.y, budget, None, exact,
            )


class CliMinflipsAttack(CliWorkload):
    """`labelcert min-flips` over every test row, then minimal and fixed attacks."""

    name = "cli-minflips-attack"
    FULL = dict(rows=12000, budgets=("1%",), lambda_grid=(0.1,), tolerance=0.0,
                attack_rows=3, fixed_flips=48)
    SMOKE = dict(FULL, rows=400, attack_rows=2, fixed_flips=4)

    def timed(self) -> None:
        self.cli("min-flips")
        for i in range(self.p["attack_rows"]):
            self.cli("attack", "--index", str(i), "--flips", "minimal", out=self.out / "minimal")
            self.cli("attack", "--index", str(i), "--flips", str(self.p["fixed_flips"]),
                     out=self.out / "fixed")

    def collect(self):
        texts = {"min_flips": (self.out / "min_flips.csv").read_text()}
        for mode in ("minimal", "fixed"):
            for i in range(self.p["attack_rows"]):
                texts[f"{mode}/{i}"] = (self.out / mode / f"attack_labels_row{i}.csv").read_text()
        rows = texts["min_flips"].count("\n") - 1
        return texts, _digest(*(texts[k] for k in sorted(texts))), rows + 2 * self.p["attack_rows"]

    def check(self, texts, checks) -> None:
        train, test = self.splits()
        self._check_min_flips(texts["min_flips"], train, test, checks)
        C = ridge_influence(train.X, self.p["lambda_grid"][0])
        theta = C @ train.y
        for i in range(self.p["attack_rows"]):
            base_class = test.X[i] @ theta >= 0.5
            for mode in ("minimal", "fixed"):
                y_tilde = np.array(
                    [float(line.split(",")[1]) for line in texts[f"{mode}/{i}"].splitlines()[1:]]
                )
                binary = np.isin(y_tilde, (0.0, 1.0)).all()
                if mode == "minimal":
                    # A minimal attack flips the class when the model is refit.
                    flipped = (test.X[i] @ (C @ y_tilde) >= 0.5) != base_class
                    checks.record(binary and flipped, f"minimal attack row {i} does not flip")
                else:
                    changed = int(np.count_nonzero(y_tilde != train.y))
                    checks.record(binary and changed == self.p["fixed_flips"],
                                  f"fixed attack row {i} changes {changed} rows")

    def _check_min_flips(self, text, train, test, checks) -> None:
        """Each reported k is the smallest budget at which the class can flip.

        Robust at the reported k is the recorded CLI defect (min-flips counts
        excursions that cannot change the class); every other mismatch is new.
        """
        _, influence = fit(train, self.p["lambda_grid"][0])
        delta = classification_delta(train.y)
        lines = text.splitlines()[1:]
        checks.record(len(lines) == test.n, f"min-flips wrote {len(lines)} of {test.n} rows")
        for line in lines:
            row, flips, _ = line.split(",")
            i = int(row)
            z = influence_vector(test.X[i], influence)

            def robust(k: int) -> bool:
                return classify_from_influence(z, train.y, BiasSpec(delta, k)).robust

            if not flips:
                checks.record(robust(train.n), f"min-flips row {i}: breakable but reported none")
                continue
            k = int(flips)
            breaks_at_k = not robust(k)
            ok = breaks_at_k and robust(k - 1)
            checks.record(ok, f"min-flips row {i}: k={k} breaks={breaks_at_k}",
                          known_defect=not breaks_at_k)


WORKLOADS = {w.name: w for w in (RegExactC08, HullWideApprox, CliCertifySweep, CliMinflipsAttack)}
