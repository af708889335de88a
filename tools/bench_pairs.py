"""Compare two commits on the perfbench benchmark in alternating pairs.

Each pair runs `python3 perfbench/run.py --workload all --seconds S --seed
<pair>` (S defaults to `run_seconds` in the change's `BENCHMARK.json`) once
on the parent commit and once on the change, each in a fresh
`git archive` extraction of its commit. Odd pairs run the change first, even
pairs the parent first. The end-to-end metrics of every run are written to
one JSON file in the layout of the repository's `BENCH_*.json` files. With
`--claim` it holds a verdict on the claimed metric: a gain needs the change
better in at least nine tenths of the pairs (ties count for neither side)
and the medians apart by more than the parent's quartile spread. Without
it, `claimed` and `verdict` are null. Every metric is checked against the
bound `BENCHMARK.json` gives it.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --pairs 20 \\
        --claim games:pass_s --out BENCH_32.json

Standard library only; the benchmark itself runs under `python3`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=REPO, check=True, capture_output=True, text=True
    ).stdout.strip()


def extract(commit: str, into: Path) -> Path:
    """A fresh copy of `commit`'s files under `into`."""
    if into.exists():
        shutil.rmtree(into)
    into.mkdir(parents=True)
    archive = into.with_suffix(".tar")
    with archive.open("wb") as out:
        subprocess.run(["git", "archive", commit], cwd=REPO, check=True, stdout=out)
    with tarfile.open(archive) as tar:
        tar.extractall(into, filter="data")
    archive.unlink()
    return into


def run_bench(checkout: Path, seed: int, seconds: int) -> dict:
    """{workload: result} of one benchmark run; exit code 1 (a wrong output)
    is kept as `correct: false`, any other failure stops the comparison."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all",
           "--seconds", str(seconds), "--seed", str(seed)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode not in (0, 1):
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def side(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4)  # exclusive method
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}


def compare(spec: dict, parent: list[float], change: list[float]) -> dict:
    """One metric's entry: sides, per-pair wins, and its check against the
    bound. `unresolved` means the parent's own spread exceeds the bound and
    not every change run beats every parent run."""
    lower = spec["better"] == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    old, new = side(parent), side(change)
    worse = (new["median"] / old["median"] - 1.0) * (1 if lower else -1)
    all_better = max(change) < min(parent) if lower else min(change) > max(parent)
    if (old["q3"] - old["q1"]) / old["median"] > spec["bound"] and not all_better:
        check = "unresolved"
    else:
        check = "worse than bound" if worse > spec["bound"] else "within bound"
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "change_better_pairs": wins,
        "median_change_frac": statistics.median(c / p - 1.0 for p, c in zip(parent, change)),
        "check": check,
        "parent": old,
        "change": new,
    }


def verdict(workload: dict, metric: str, pairs: int) -> dict:
    """The gain rule on one metric: wins in at least 9/10 of the pairs, the
    medians apart, in the better direction, by more than the parent's
    quartile spread, and no more failed operations than at the parent."""
    entry = workload["metrics"][metric]
    old, new = entry["parent"], entry["change"]
    gap = old["median"] - new["median"]
    if entry["better"] != "lower":
        gap = -gap
    spread = old["q3"] - old["q1"]
    needed = -(-9 * pairs // 10)
    return {
        "wins": entry["change_better_pairs"],
        "wins_needed": needed,
        "median_gap": gap,
        "parent_quartile_spread": spread,
        "gain": entry["change_better_pairs"] >= needed and gap > spread
        and workload["failed"]["change"] <= workload["failed"]["parent"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit measured as the parent")
    parser.add_argument("--change", default="HEAD", help="commit measured as the change")
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--seconds", type=int,
                        help="seconds per workload (default: run_seconds of the change's BENCHMARK.json)")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC", help="the metric a gain is claimed on")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, help="where the copies go (default: a temp dir)")
    args = parser.parse_args(argv)
    claim_workload, _, claim_metric = (args.claim or "").partition(":")
    if args.pairs < 2 or (args.seconds is not None and args.seconds < 1):
        parser.error("--pairs must be >= 2 and --seconds >= 1")

    commits = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}
    spec = json.loads(git("show", f"{commits['change']}:BENCHMARK.json"))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    work = args.workdir or Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for pair in range(1, args.pairs + 1):
        order = ("change", "parent") if pair % 2 else ("parent", "change")
        for name in order:
            checkout = extract(commits[name], work / name)
            results[name].append(run_bench(checkout, pair, args.seconds))
            if args.claim:
                got = results[name][-1][claim_workload]["metrics"][claim_metric]["value"]
                print(f"pair {pair} {name}: {args.claim} = {got:.6g}", file=sys.stderr)
    if args.workdir is None:
        shutil.rmtree(work)

    workloads = {}
    for w in (entry["name"] for entry in spec["workloads"]):
        both = {name: [run[w] for run in runs] for name, runs in results.items()}
        workloads[w] = {
            "correct": {n: all(r["correct"] for r in rs) for n, rs in both.items()},
            "failed": {n: sum(r["failed"] for r in rs) for n, rs in both.items()},
            "attempted": {n: sum(r["attempted"] for r in rs) for n, rs in both.items()},
            "metrics": {
                m["name"]: compare(
                    m,
                    [r["metrics"][m["name"]]["value"] for r in both["parent"]],
                    [r["metrics"][m["name"]]["value"] for r in both["change"]],
                )
                for m in spec["end_to_end"]
            },
        }
    doc = {
        "what": (f"perfbench end-to-end metrics at the parent commit and at the change, "
                 f"{args.pairs} pairs; odd pairs ran the change first, even pairs the parent first"),
        "command": f"python3 perfbench/run.py --workload all --seconds {args.seconds} --seed <pair>",
        "pairs": list(range(1, args.pairs + 1)),
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
        },
        "change_checkout": "git archive of each commit, extracted fresh before each run",
        "quartiles": "statistics.quantiles(n=4), exclusive method",
        "claimed": {"workload": claim_workload, "metric": claim_metric} if args.claim else None,
        "verdict": verdict(workloads[claim_workload], claim_metric, args.pairs) if args.claim else None,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(doc["verdict"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
