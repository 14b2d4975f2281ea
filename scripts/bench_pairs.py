#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, summarised for a performance claim.

Runs `perfbench/run.py --trace 0` of each checkout in turn, `--pairs` times
each, alternating which side runs first: pair i runs the parent first when i
is odd.  Then it runs one `--trace 1` of each side, for the per-layer
metrics.  Every run lasts the benchmark's `run_seconds` (1 s with `--smoke`,
which also passes `--smoke` to `run.py`).  Both checkouts must hold the same
`perfbench/` and `BENCHMARK.json`.

    python scripts/bench_pairs.py --parent ../parent --change . \\
        --workload hull-wide-approx --seed 3 --pairs 10 --out BENCH_x.json

For each end-to-end metric the output records every run's value, each
side's median and quartiles, the number of pairs the change won (ties count
for neither side) and a verdict:

- "gain": at least 10 pairs, the change won at least nine tenths of them,
  and its median is better than the parent's by more than the distance
  between the parent's quartiles.
- "worse": the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json.
- "unresolved": neither, but one side's quartile distance is wider than the
  bound, and not every change run is better than every parent run.
- "within bound": otherwise.

With `--out`, the result is merged into that file under the key
"<workload> seed <seed>", so several invocations build one file; otherwise
it is printed.  The exit status is 1 when a run fails or reports `correct`
false or a failed check, and 2 when the two benchmarks differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

MIN_CLAIM_PAIRS = 10
CLAIM_WIN_SHARE = 0.9
RUN_FIELDS = ("correct", "failed", "attempted")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes and 1 s runs")
    parser.add_argument("--out", type=Path, help="JSON file to merge the result into")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    return args


def benchmark_files(root: Path) -> dict:
    """Bytes of everything that decides what the benchmark runs and measures."""
    files = [root / "BENCHMARK.json", *sorted((root / "perfbench").glob("*.py"))]
    return {str(f.relative_to(root)): f.read_bytes() for f in files}


def run(root: Path, workload: str, seed: int, seconds: float, trace: int, smoke: bool):
    """One `run.py` process: (info, result), or None when it exits non-zero."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        print(f"{root}: {' '.join(cmd[1:])} exited {proc.returncode}\n{proc.stderr}",
              file=sys.stderr)
        return None
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def commit(root: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    dirty = subprocess.run(["git", "-C", str(root), "status", "--porcelain"],
                           capture_output=True, text=True).stdout.strip()
    return proc.stdout.strip() + (" with uncommitted changes" if dirty else "")


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(parent: list, change: list, better: str, bound: float) -> dict:
    """Medians, quartiles, pairs won and verdict for one metric's paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    p, c = quartiles(parent), quartiles(change)
    won = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    gain = sign * (c["median"] - p["median"])
    spread = max(((s["q3"] - s["q1"]) / abs(s["median"]) for s in (p, c) if s["median"]),
                 default=0.0)
    if (len(parent) >= MIN_CLAIM_PAIRS and won >= CLAIM_WIN_SHARE * len(parent)
            and gain > p["q3"] - p["q1"]):
        verdict = "gain"
    elif -gain > bound * abs(p["median"]):
        verdict = "worse"
    elif spread > bound and not min(sign * b for b in change) > max(sign * a for a in parent):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"parent": p, "change": c, "pairs_won_by_change": f"{won} of {len(parent)}",
            "verdict": verdict}


def main(argv=None) -> int:
    args = parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if benchmark_files(sides["parent"]) != benchmark_files(sides["change"]):
        print("error: perfbench/ or BENCHMARK.json differs between the checkouts",
              file=sys.stderr)
        return 2
    spec = json.loads((sides["parent"] / "BENCHMARK.json").read_text())
    seconds = 1.0 if args.smoke else spec["run_seconds"]
    metrics = spec["end_to_end"]

    runs = {side: {name: [] for name in [m["name"] for m in metrics] + list(RUN_FIELDS)}
            for side in sides}
    order, host, status = [], None, 0
    for i in range(1, args.pairs + 1):
        for side in ("parent", "change") if i % 2 else ("change", "parent"):
            order.append(side[0])
            out = run(sides[side], args.workload, args.seed, seconds, 0, args.smoke)
            if out is None:
                return 1
            info, result = out
            host = host or info["env"]
            for name in runs[side]:
                value = result[name] if name in RUN_FIELDS else result["metrics"][name]["value"]
                runs[side][name].append(value)
            status |= not result["correct"] or result["failed"] > 0
    traced = {}
    for side, root in sides.items():
        out = run(root, args.workload, args.seed, seconds, 1, args.smoke)
        if out is None:
            return 1
        traced[side] = out[1]
        status |= not out[1]["correct"] or out[1]["failed"] > 0

    summary = {}
    for m in metrics:
        entry = summarise(runs["parent"][m["name"]], runs["change"][m["name"]],
                          m["better"], m["bound"])
        summary[m["name"]] = {"parent": entry["parent"], "change": entry["change"]}
        summary[f"{m['name']}_pairs_won_by_change"] = entry["pairs_won_by_change"]
        summary[f"{m['name']}_verdict"] = entry["verdict"]

    key = f"{args.workload} seed {args.seed}"
    smoke = " --smoke" if args.smoke else ""
    command = (f"python3 perfbench/run.py --workload {args.workload} --seed {args.seed} "
               f"--seconds {seconds:g} --trace 0{smoke}")
    doc = {"command": "python3 perfbench/run.py --workload <workload> --seed <seed> "
                      f"--seconds {seconds:g} --trace <0|1>{smoke}",
           "host": host, "note": "", "summary": {}, "end_to_end_trace0": {},
           "parent": {"commit": commit(sides["parent"]), "workloads": {}},
           "change": {"commit": commit(sides["change"]), "workloads": {}}}
    if args.out is not None and args.out.exists():
        doc = json.loads(args.out.read_text())
    doc["summary"][key] = summary
    doc["end_to_end_trace0"][key] = {
        "command": command,
        "order": f"{' '.join(order)} (p = parent, c = change; "
                 "pair i runs parent first when i is odd)",
        "parent": runs["parent"],
        "change": runs["change"],
    }
    for side in sides:
        doc[side]["workloads"][key] = traced[side]
    text = json.dumps(doc, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    for m in metrics:
        name = m["name"]
        print(f"{key} {name}: parent {summary[name]['parent']['median']:.6g}, "
              f"change {summary[name]['change']['median']:.6g}, "
              f"won {summary[f'{name}_pairs_won_by_change']}, {summary[f'{name}_verdict']}",
              file=sys.stderr)
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
