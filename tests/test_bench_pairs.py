import importlib.util
import json
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
SPEC = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

LOWER = {"unit": "s", "better": "lower", "bound": 0.25}
HIGHER = {"unit": "1/s", "better": "higher", "bound": 0.25}
# 20 parent runs 10.00 .. 10.19: a quartile spread of about 0.1
PARENT = [10.0 + 0.01 * i for i in range(20)]


def judged(change, failed=(0, 0), parent=PARENT):
    """The gain verdict on pass_s for one workload of synthetic runs."""
    workload = {
        "metrics": {"pass_s": bench_pairs.compare(LOWER, parent, change)},
        "failed": {"parent": failed[0], "change": failed[1]},
    }
    return bench_pairs.verdict(workload, "pass_s", len(parent))


def test_eighteen_of_twenty_wins_past_the_spread_is_a_gain():
    got = judged([9.0] * 18 + [11.0] * 2)
    assert got["wins"] == 18 and got["wins_needed"] == 18
    assert got["median_gap"] > got["parent_quartile_spread"]
    assert got["gain"]


def test_seventeen_of_twenty_wins_is_no_gain():
    got = judged([9.0] * 17 + [11.0] * 3)
    assert got["wins"] == 17 and got["median_gap"] > got["parent_quartile_spread"]
    assert not got["gain"]


@pytest.mark.parametrize("spec", [LOWER, HIGHER])
def test_ties_count_for_neither_side(spec):
    assert bench_pairs.compare(spec, PARENT, PARENT)["change_better_pairs"] == 0


def test_tied_pairs_are_no_wins_toward_a_gain():
    # 17 better runs and 3 tied ones fall one win short
    got = judged([9.0] * 17 + PARENT[17:])
    assert got["wins"] == 17 and not got["gain"]


def test_parent_spread_past_the_bound_is_unresolved():
    wide = [1.0, 2.0] * 10  # quartile spread 1.0 against a median of 1.5
    assert bench_pairs.compare(LOWER, wide, [0.5] * 19 + [3.0])["check"] == "unresolved"
    # a change better in every run than every parent run is resolved
    assert bench_pairs.compare(LOWER, wide, [0.5] * 20)["check"] == "within bound"
    assert bench_pairs.compare(LOWER, PARENT, [20.0] * 20)["check"] == "worse than bound"


def test_more_failed_operations_at_the_change_is_no_gain():
    change = [9.0] * 20
    assert judged(change)["gain"]
    assert not judged(change, failed=(0, 1))["gain"]
    assert judged(change, failed=(2, 2))["gain"]



@pytest.mark.parametrize("argv, seconds", [([], 7), (["--seconds", "3"], 3)])
def test_seconds_default_to_run_seconds_of_the_change(tmp_path, monkeypatch, argv, seconds):
    # one workload and one metric; every run reads 1.0
    spec = {"run_seconds": 7, "workloads": [{"name": "games"}],
            "end_to_end": [{"name": "pass_s", **LOWER}]}
    run = {"correct": True, "failed": 0, "attempted": 1, "metrics": {"pass_s": {"value": 1.0}}}
    ran = []

    def run_bench(checkout, seed, seconds):
        ran.append(seconds)
        return {"games": run}

    monkeypatch.setattr(bench_pairs, "git", lambda *args: json.dumps(spec) if args[0] == "show" else "c0ffee")
    monkeypatch.setattr(bench_pairs, "extract", lambda commit, into: into)
    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    out = tmp_path / "bench.json"
    argv = ["--parent", "HEAD~1", "--pairs", "2", "--out", str(out), "--workdir", str(tmp_path), *argv]
    assert bench_pairs.main(argv) == 0
    assert ran == [seconds] * 4
    assert json.loads(out.read_text())["command"].endswith(f"--seconds {seconds} --seed <pair>")
