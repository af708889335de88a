"""Benchmark of entangle-games: lossy node sweep, decoherence sweep and game
solves, timed end to end and, in a separate traced run, per module.

    python3 perfbench/run.py --workload games --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all       # each workload in turn

Each workload runs in its own fresh single-threaded process (worker.py) with
a pinned environment. Set-up time is the median over SETUP_PROBES fresh
processes that only set up. Every time is divided by the host factor
measured next to it (see calibrate.py), so times read as seconds at a fixed
host speed; the raw ones are kept in the record. The last line of standard output is
one JSON object: `correct`, `attempted`, `failed` and `metrics`, which are
the end-to-end metrics of BENCHMARK.json with `--trace 0` and its per-layer
metrics with `--trace 1`. The full record, with the environment and the raw
per-pass numbers, goes to `.perfbench_out/` in the checkout. The exit code
is 1 when any output was wrong, 2 when the benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import host_factor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("sweep-nodes-lossy", "sweep-decoherence", "games")
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60
# after the measured seconds: the pass in flight, its check and the exit
FINISH_TIMEOUT_S = 100


class BenchError(Exception):
    """The benchmark cannot run or finish in this checkout."""


def pinned_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("ENTANGLE_GAMES_THREADS", None)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",  # every run compiles the sources alike
    )
    env.pop("PYTHONPATH", None)
    return env


def spawn_worker(args: list[str], timeout_s: float) -> tuple[float, str]:
    """Run worker.py; (seconds from spawn to `ready`, last line of output)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=pinned_env(), cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if ready.strip() != "ready":
            proc.wait(timeout=timeout_s)
            raise BenchError(f"worker failed during set-up (exit {proc.returncode})")
        rest, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {timeout_s:.0f} s")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    lines = [line for line in rest.splitlines() if line.strip()]
    return setup_s, lines[-1] if lines else ""


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # a checkout without git history
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        cpu_model = platform.processor() or None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "commit": commit,
        "source_sha256": source_digest(),
    }


def run_workload(
    workload: str, seed: int, seconds: int, trace: int, reference_dir: Path
) -> tuple[dict, dict]:
    """(the result line's object, the full record written to OUT)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "entangle_games" / "__init__.py").is_file():
        raise BenchError(f"no entangle_games sources under {ROOT / 'src'}")
    workdir = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    common = [
        "--workload", workload, "--seed", str(seed),
        "--reference", str(reference_dir / f"{workload}.json"), "--workdir", str(workdir),
    ]
    load_before = os.getloadavg()
    setups = []  # (seconds, host factor)
    try:
        if not trace:
            for _ in range(SETUP_PROBES):
                setup_s, calibration = spawn_worker([*common, "--probe"], PROBE_TIMEOUT_S)
                setups.append((setup_s, host_factor(float(calibration))))
        _, line = spawn_worker(
            [*common, "--seconds", str(seconds), "--trace", str(trace)],
            seconds + FINISH_TIMEOUT_S,
        )
        raw = json.loads(line)
        if trace:
            shutil.move(str(workdir / "spans.jsonl.gz"), OUT / f"spans-{workload}-seed{seed}.jsonl.gz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    load_after = os.getloadavg()

    untraced = [p for p in raw["passes"] if not p["traced"]]
    traced = [p for p in raw["passes"] if p["traced"]]
    pass_s = statistics.median(p["norm_wall_s"] for p in untraced)
    measured: dict[str, float] = {
        "pass_s": pass_s,
        "cpu_s": statistics.median(p["norm_cpu_s"] for p in untraced),
        "ops_per_s": raw["ops_per_pass"] / pass_s,
        "peak_rss_mb": raw["peak_rss_mb"],
        "failed_frac": raw["failed"] / raw["attempted"],
    }
    if setups:
        measured["setup_s"] = statistics.median(s / f for s, f in setups)
    if traced:
        for name in traced[0]["layers"]:
            measured[name] = statistics.median(p["layers"][name] for p in traced)
        measured["trace.overhead_frac"] = (
            statistics.median(p["norm_wall_s"] for p in traced) / pass_s - 1.0
        )
        # every traced pass, not the median one, must be covered by spans
        measured["trace.coverage_frac"] = min(p["layers"]["trace.coverage_frac"] for p in traced)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in section if m["name"] not in measured]
    if missing:
        raise BenchError(f"no measurement for {missing}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in section}
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    record = {
        **result,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "reference": raw["reference"],
        "failures": raw["failures"],
        "setup_samples": [{"seconds": s, "host_factor": f} for s, f in setups],
        "raw_pass_wall_s": statistics.median(p["wall_s"] for p in untraced),
        "median_host_factor": statistics.median(
            p["wall_s"] / p["norm_wall_s"] for p in raw["passes"]
        ),
        "untraced_passes": len(untraced),
        "traced_passes": len(traced),
        "ops_per_pass": raw["ops_per_pass"],
        "passes": raw["passes"],
        "environment": {
            **environment(), **raw["versions"],
            "loadavg_before": load_before, "loadavg_after": load_after,
        },
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    return result, record


def report(result: dict, record: dict) -> None:
    """Human-readable lines: every metric by name with its unit."""
    print(
        f"# {record['workload']} seed={record['seed']} "
        f"passes={record['untraced_passes']} untraced + {record['traced_passes']} traced "
        f"(pass = {record['ops_per_pass']} ops) reference={record['reference']}"
    )
    print(f"#   failed_frac = {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} of {result['attempted']})")
    print(f"#   (raw median pass wall time {record['raw_pass_wall_s']:.6g} s, "
          f"host factor {record['median_host_factor']:.4g})")
    for name, metric in result["metrics"].items():
        print(f"#   {name} = {metric['value']:.6g} {metric['unit']}")
    for failure in record["failures"]:
        print(f"#   FAILED {failure}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference-dir", type=Path, default=HERE / "reference",
                        help="directory of <workload>.json reference outputs")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, record = run_workload(name, args.seed, args.seconds, args.trace, args.reference_dir)
            report(result, record)
            results[name] = result
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
