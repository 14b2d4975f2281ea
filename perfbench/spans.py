"""Span recording for the traced benchmark run.

Spans come from the outside: `Tracer.install` replaces the public functions
that `labelcert.harness`, `labelcert.cli` and `labelcert.approx` call through
their module globals with timing wrappers, and `Tracer.remove` puts the
originals back.  Nothing under `src/labelcert` knows about tracing.

Every span records its name, start, end and parent (the span that was open
when it started).  Spans stay in memory until the run ends; `save` writes
them out.  A layer's self time is a span's duration minus the time its child
spans cover.  The benchmark runs with a single labelcert worker, so spans of
one pass nest on one thread.
"""

from __future__ import annotations

import importlib
import time

import numpy as np

# Public function -> layer, for every name the benchmark wraps.  A name that
# a later refactor removes from a module is skipped, and its count reads 0.
LAYER_OF = {
    "fit": "linalg",
    "solve_ridge": "linalg",
    "influence_matrix": "linalg",
    "influence_vector": "linalg",
    "certify_from_influence": "exact",
    "classify_from_influence": "exact",
    "prediction_range": "exact",
    "min_flips_from_influence": "exact",
    "model_hull": "approx",
    "certify_approx": "approx",
    "certify_approx_classification": "approx",
    "load_csv": "data",
    "split": "data",
    "kfold": "data",
    "robustness_rate": "harness",
    "lambda_sweep": "harness",
    "run_experiment": "harness",
    "write_report": "harness",
    "export_attack": "harness",
    "main": "cli",
}
WRAPPED_MODULES = ("labelcert.harness", "labelcert.cli", "labelcert.approx")
ROOT = "bench.pass"


# Per-span value recorded from the wrapped function's return value.
OBSERVE = {
    "certify_from_influence": lambda result: float(result.robust),
    "classify_from_influence": lambda result: float(result.robust),
    "certify_approx": lambda result: float(result.certified),
    "certify_approx_classification": lambda result: float(result.certified),
    "load_csv": lambda result: float(result.n),
}


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # One tuple (name id, parent index, start, end, value) per span.
        self.spans: list = []
        self._stack: list[int] = [-1]
        self._saved: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        nid = self._name_id(f"{LAYER_OF[name]}.{name}")
        observe = OBSERVE.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (nid, parent, start, end, 0.0)
            if observe is not None:
                spans[index] = (nid, parent, start, end, observe(result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every listed global of the three modules."""
        for module_name in WRAPPED_MODULES:
            module = importlib.import_module(module_name)
            for name in LAYER_OF:
                fn = getattr(module, name, None)
                if callable(fn):
                    self._saved.append((module, name, fn))
                    setattr(module, name, self._wrap(fn, name))

    def remove(self) -> None:
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def run_pass(self, fn) -> range:
        """Call fn() inside a root span with the wrappers installed.

        Returns the index range of this pass's spans; the root span comes first.
        """
        first = len(self.spans)
        nid = self._name_id(ROOT)
        self.spans.append(None)
        self._stack.append(first)
        self.install()
        start = time.perf_counter()
        try:
            fn()
        finally:
            end = time.perf_counter()
            self.remove()
            self._stack.pop()
            self.spans[first] = (nid, -1, start, end, 0.0)
        return range(first, len(self.spans))

    def arrays(self, rows: range | None = None) -> dict:
        """Spans as columns; parents re-indexed to positions within `rows`."""
        rows = range(len(self.spans)) if rows is None else rows
        table = np.array(self.spans[rows.start : rows.stop], dtype=float).reshape(-1, 5)
        parent = table[:, 1].astype(np.int64)
        parent = np.where(parent >= 0, parent - rows.start, -1)
        return {
            "name": table[:, 0].astype(np.int64),
            "parent": parent,
            "start": table[:, 2],
            "end": table[:, 3],
            "value": table[:, 4],
        }

    def save(self, path, meta: str) -> None:
        """Write every recorded span (compressed .npz) with a JSON metadata string."""
        cols = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), meta=np.array(meta), **cols)


def pass_metrics(names: list[str], cols: dict) -> dict:
    """Per-layer metrics of one traced pass, from its span columns.

    Time metrics named `<layer>.self_s` are self times and, together with
    `bench.self_s` (benchmark glue inside the pass), sum to the pass's wall
    time.  `approx.hull_s`, `harness.sweep_s`, `harness.report_s` and
    `harness.attack_s` are inclusive durations of those calls.
    """
    name, parent = cols["name"], cols["parent"]
    dur = cols["end"] - cols["start"]
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child

    # A span lies under lambda_sweep when its parent is the sweep or under it.
    sweep_ids = [i for i, n in enumerate(names) if n == "harness.lambda_sweep"]
    in_sweep = np.zeros(name.size, dtype=bool)
    for i in range(name.size):
        p = parent[i]
        if p >= 0 and (in_sweep[p] or name[p] in sweep_ids):
            in_sweep[i] = True

    def mask(*funcs: str) -> np.ndarray:
        ids = [i for i, n in enumerate(names) if n.split(".", 1)[1] in funcs]
        return np.isin(name, ids)

    def layer(prefix: str) -> float:
        ids = [i for i, n in enumerate(names) if n.split(".", 1)[0] == prefix]
        return float(self_time[np.isin(name, ids)].sum())

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    fits = mask("fit", "solve_ridge", "influence_matrix")
    verdict = mask("certify_from_influence", "classify_from_influence")
    approx_call = mask("certify_approx", "certify_approx_classification")
    hull = mask("model_hull")
    minflips = mask("min_flips_from_influence")
    load = mask("load_csv")
    attack = mask("export_attack")
    exact_calls = int(verdict.sum())
    exact_busy = float(self_time[verdict].sum())
    approx_calls = int(approx_call.sum())
    approx_busy = float(self_time[approx_call].sum())
    return {
        "linalg.fit_calls": int(fits.sum()),
        "linalg.fit_s": float(self_time[fits].sum()),
        "linalg.influence_vector_s": float(self_time[mask("influence_vector")].sum()),
        "linalg.self_s": layer("linalg"),
        "exact.calls": exact_calls,
        "exact.busy_s": exact_busy,
        "exact.us_per_call": ratio(exact_busy * 1e6, exact_calls),
        "exact.robust_frac": ratio(float(cols["value"][verdict].sum()), exact_calls),
        "exact.range_calls": int(mask("prediction_range").sum()),
        "exact.min_flips_calls": int(minflips.sum()),
        "exact.min_flips_s": float(self_time[minflips].sum()),
        "exact.self_s": layer("exact"),
        "approx.hull_builds": int(hull.sum()),
        "approx.hull_s": float(dur[hull].sum()),
        "approx.calls": approx_calls,
        "approx.busy_s": approx_busy,
        "approx.us_per_call": ratio(approx_busy * 1e6, approx_calls),
        "approx.certified_frac": ratio(float(cols["value"][approx_call].sum()), approx_calls),
        "approx.self_s": layer("approx"),
        "harness.self_s": layer("harness"),
        "harness.sweep_s": float(dur[mask("lambda_sweep")].sum()),
        "harness.sweep_verdicts": int((verdict & in_sweep).sum()),
        "harness.report_s": float(dur[mask("write_report")].sum()),
        "harness.attack_calls": int(attack.sum()),
        "harness.attack_s": float(dur[attack].sum()),
        "data.load_s": float(dur[load].sum()),
        "data.rows_loaded": int(cols["value"][load].sum()),
        "data.split_s": float(dur[mask("split", "kfold")].sum()),
        "data.self_s": layer("data"),
        "cli.invocations": int(mask("main").sum()),
        "cli.self_s": layer("cli"),
        "bench.self_s": layer("bench"),
    }
