"""The summary rules of `scripts/bench_pairs.py`, on fixed run values."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_reproduces_a_committed_summary():
    # BENCH_25-csv.json was summarised by hand; the script's quartiles and wins match it
    doc = json.loads((ROOT / "BENCH_25-csv.json").read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, runs in doc["end_to_end_trace0"].items():
        for m in spec["end_to_end"]:
            entry = bench_pairs.summarise(runs["parent"][m["name"]], runs["change"][m["name"]],
                                          m["better"], m["bound"])
            recorded = doc["summary"][key]
            assert entry["parent"] == pytest.approx(recorded[m["name"]]["parent"], rel=1e-12)
            assert entry["change"] == pytest.approx(recorded[m["name"]]["change"], rel=1e-12)
            assert entry["pairs_won_by_change"] == recorded[f"{m['name']}_pairs_won_by_change"]


@pytest.mark.parametrize("parent, change, better, verdict, won", [
    # ten clear wins beyond the parent's quartile distance
    ([1.0, 1.1, 0.9, 1.05, 0.95] * 2, [0.5, 0.55, 0.45, 0.52, 0.48] * 2, "lower", "gain",
     "10 of 10"),
    ([1.0, 1.1, 0.9, 1.05, 0.95] * 2, [2.0, 2.2, 1.8, 2.1, 1.9] * 2, "higher", "gain",
     "10 of 10"),
    # the same wins over two pairs are too few to claim
    ([1.0, 1.1], [0.5, 0.55], "lower", "within bound", "2 of 2"),
    # ties count for neither side
    ([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], "lower", "within bound", "0 of 3"),
    # 40% slower against a 25% bound
    ([1.0, 1.02, 0.98], [1.4, 1.42, 1.38], "lower", "worse", "0 of 3"),
    # spread wider than the bound, medians close
    ([1.0, 2.0, 0.5, 1.5], [1.1, 0.6, 1.9, 1.4], "lower", "unresolved", "2 of 4"),
    # spread as wide, but every change run beats every parent run
    ([2.0, 3.0, 2.5, 4.0], [0.5, 1.0, 1.9, 0.7], "lower", "within bound", "4 of 4"),
])
def test_verdicts(parent, change, better, verdict, won):
    entry = bench_pairs.summarise(parent, change, better, 0.25)
    assert (entry["verdict"], entry["pairs_won_by_change"]) == (verdict, won)


def test_refuses_checkouts_with_different_benchmarks(tmp_path, capsys):
    for side in ("parent", "change"):
        shutil.copytree(ROOT / "perfbench", tmp_path / side / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path / side)
    (tmp_path / "change" / "BENCHMARK.json").write_text("{}")
    status = bench_pairs.main(["--parent", str(tmp_path / "parent"),
                               "--change", str(tmp_path / "change"),
                               "--workload", "reg-exact-c08", "--seed", "3", "--pairs", "2"])
    assert status == 2
    assert "differs" in capsys.readouterr().err
