#!/usr/bin/env python3
"""Output digests of the four benchmark workloads, for comparing two checkouts.

Runs `setup`, `timed` and `collect` of each workload in
`perfbench/workloads.py` once, at full size, and prints one JSON object that
maps each workload name to the digest of its outputs.  Two checkouts that
print the same object at the same seed produce the same verdicts, reports
and attack files.  Run it from the root of a checkout:

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
    print(json.dumps(digests, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
