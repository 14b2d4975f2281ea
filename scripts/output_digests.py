#!/usr/bin/env python3
"""Output digests of the four benchmark workloads, for comparing two checkouts.

Runs `setup`, `timed` and `collect` of each workload in
`perfbench/workloads.py` once, at full size, and prints one JSON object that
maps each workload name to the digest of its outputs.  The extra key
`cli-minflips-attack/summaries` digests that workload's attack summaries,
which its `collect` does not read.  Two checkouts that print the same object
at the same seed produce the same verdicts, reports, attack files and
summaries.  Run it from the root of a checkout:

    python scripts/output_digests.py --seed 3
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402


def summaries_digest(out: Path) -> str:
    """Digest of the minimal and fixed attack summaries, in sorted path order, without
    `labels_path`, which names the output directory."""
    summaries = []
    for path in sorted(out.glob("*/attack_summary_row*.json")):
        summary = json.loads(path.read_text())
        del summary["labels_path"]
        summaries.append(json.dumps(summary, sort_keys=True))
    return workloads._digest(*summaries)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, cls in workloads.WORKLOADS.items():
            load = cls(args.seed, False, Path(tmp) / name)
            load.setup()
            load.timed()
            _, digests[name], _ = load.collect()
            if name == "cli-minflips-attack":
                digests[f"{name}/summaries"] = summaries_digest(load.out)
    print(json.dumps(digests, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
