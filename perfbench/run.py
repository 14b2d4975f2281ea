#!/usr/bin/env python3
"""labelcert benchmark: four workloads, end-to-end metrics, and a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload reg-exact-c08 --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 2 --trace 1 --smoke

One workload runs per process, with one labelcert worker (LABELCERT_WORKERS
is removed from the environment).  The run sets up several times and reports
the median set-up time, then repeats timed passes for `--seconds` seconds,
at least MIN_PASSES times.  With `--trace 0` it reports the end-to-end
metrics; with `--trace 1` it alternates untraced and traced passes and
reports the per-layer metrics from the traced ones.  Outputs of the first
pass are checked for correctness after the timed section, and every later
pass must reproduce them (one check in all, so that `attempted` does not
depend on how many passes fit in `--seconds`).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  `attempted` counts outputs
checked and `failed` those that failed a check (their ratio is failed_frac).
`correct` is false when any check fails other than the recorded CLI
min-flips defect, which is counted in `failed`.  The line before it records
the seed, sizes, machine and environment.  `--workload all` runs each
workload in its own process, one after the other, and prints every metric
by name and unit.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("reg-exact-c08", "hull-wide-approx", "cli-certify-sweep", "cli-minflips-attack")
SETUP_REPS = 3
MIN_PASSES = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="labelcert benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, same checks")
    return parser.parse_args(argv)


def environment(workers_env: str | None) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k, "unset") for k in BLAS_ENV},
        "labelcert_workers": "unset" if workers_env is None else f"removed (was {workers_env})",
    }


IMPORT_PROBE = """
import sys, time
sys.path[:0] = [{src!r}, {here!r}]
start = time.perf_counter()
import workloads
print(time.perf_counter() - start)
"""


def import_seconds() -> float:
    """Time to import numpy, scipy and labelcert in a fresh interpreter."""
    code = IMPORT_PROBE.format(src=str(ROOT / "src"), here=str(HERE))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120)
    return float(proc.stdout.strip().splitlines()[-1])


def run_workload(args) -> int:
    workers_env = os.environ.pop("LABELCERT_WORKERS", None)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from checks import Checks
    from spans import Tracer, pass_metrics

    cls = workloads.WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_out"
    work = out_dir / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        load = cls(args.seed, args.smoke, work / "main")
        warm = cls(args.seed, True, work / "warm")
        # Set-up: imports (in a fresh interpreter), inputs, files, warm-up pass.
        setups = []
        for _ in range(SETUP_REPS):
            imports = import_seconds()
            t0 = time.perf_counter()
            load.setup()
            warm.setup()
            warm.timed()
            setups.append(imports + time.perf_counter() - t0)

        checks = Checks()
        tracer = Tracer() if args.trace else None
        walls, layer_rows = [], []
        first = first_digest = None
        differing = []
        results = 0
        min_passes = 2 * MIN_PASSES if args.trace else MIN_PASSES
        passes = 0
        began = time.perf_counter()
        while passes < min_passes or time.perf_counter() - began < args.seconds:
            if tracer is not None and passes % 2:
                rows = tracer.run_pass(load.timed)
                layer_rows.append(pass_metrics(tracer.names, tracer.arrays(rows)))
            else:
                t0 = time.perf_counter()
                load.timed()
                walls.append(time.perf_counter() - t0)
            output, digest, results = load.collect()
            if first is None:
                first, first_digest = output, digest
            elif digest != first_digest:
                differing.append(passes)
            passes += 1
        checks.record(not differing, f"passes {differing} output differs from pass 0")
        load.check(first, checks)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        wall_s = statistics.median(walls)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if tracer is None:
            metrics = with_units({
                "wall_s": wall_s,
                "verdicts_per_s": results / wall_s,
                "setup_s": statistics.median(setups),
                "peak_rss_mb": peak_rss_mb,
            }, spec["end_to_end"])
        else:
            metrics = with_units(layer_metrics(layer_rows, wall_s, checks), spec["per_layer"])
        info = {
            "workload": args.workload,
            "seed": args.seed,
            "smoke": args.smoke,
            "params": load.p,
            "trace": args.trace,
            "passes": passes,
            "results_per_pass": results,
            "wall_s_passes": walls,
            "setup_s_reps": setups,
            "checks": dataclasses.asdict(checks),
            "env": environment(workers_env),
        }
        if tracer is not None:
            spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
            tracer.save(spans_path, json.dumps(info, default=str))
            info["spans_file"] = str(spans_path.relative_to(ROOT))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"info": info}, default=str))
    print(json.dumps({
        "correct": checks.unexpected == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


def layer_metrics(layer_rows: list, untraced_wall: float, checks) -> dict:
    """Median over traced passes of each per-layer metric, plus trace and check figures."""
    metrics = {name: statistics.median(row[name] for row in layer_rows) for name in layer_rows[0]}
    traced_wall = statistics.median(
        sum(v for k, v in row.items() if k.endswith(".self_s")) for row in layer_rows
    )
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    metrics["checks.failed_frac"] = checks.failed / max(checks.attempted, 1)
    metrics["checks.known_defect"] = checks.known_defect
    return metrics


def with_units(metrics: dict, declared: list) -> dict:
    """Metrics in BENCHMARK.json order with their declared units; the names must match."""
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(names)}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}


def run_all(args) -> int:
    """Each workload in its own process, one at a time; print every metric by name."""
    combined, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        combined[name] = result
        frac = result["failed"] / result["attempted"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} failed_frac={frac:.6g}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:28s} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps({"workloads": combined}))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "labelcert" / "__init__.py").is_file():
        print(f"error: no labelcert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
