"""One workload in one fresh process: set up, then time passes.

Started by run.py with a pinned environment. It prints `ready` once set-up
is done (imports, fixtures and topologies, the reference, one untimed
warm-up op) and, unless `--probe`, then runs passes for `--seconds` and
prints one JSON line with the raw per-pass numbers. Outputs are checked
after each pass, outside its timing.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path

import tracer as tracing
from calibrate import host_factor, kernel

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_program():
    """Import the package from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import entangle_games

    where = Path(entangle_games.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"entangle_games imported from {where}, not from {src}")


def _cpu_s() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="set up, print ready, exit")
    parser.add_argument("--reference", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--record", action="store_true",
                        help="print the extracted outputs of one pass instead of timing")
    args = parser.parse_args()

    _import_program()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    stored = json.loads(args.reference.read_text()) if args.reference.exists() else {}
    reference = stored.get("seeds", {}).get(str(args.seed))
    if reference is not None and stored.get("ops_per_pass") != workload.ops_per_pass:
        raise SystemExit(f"reference {args.reference} was recorded for another pass size")
    workload.warm_up()
    print("ready", flush=True)
    if args.probe:
        print(repr(kernel()))  # the host speed right after set-up
        return 0

    if args.record:
        results = [item for _, op in workload.ops(args.workdir / "pass") for item in op()]
        record = workload.extract(results)
        n, problems = workload.check(results, record, None)
        if problems:
            raise SystemExit(f"invariants fail at seed {args.seed}: {problems}")
        print(json.dumps({"ops_per_pass": workload.ops_per_pass, "record": record}))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    passes, attempted, failures = _measure(args, workload, reference, tracer)

    if tracer is not None:
        tracer.write_spans(args.workdir / "spans.jsonl.gz")
    print(json.dumps({
        "passes": passes,
        "attempted": attempted,
        "failures": failures[:20],
        "failed": len(failures),
        "ops_per_pass": workload.ops_per_pass,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reference": "stored" if reference is not None else "invariants-only",
        "versions": _versions(),
    }))
    return 0


def _measure(args, workload, reference, tracer):
    """Passes until `args.seconds` have gone by, each checked after its
    timing and bracketed by calibration samples; with a tracer, every second
    pass is traced."""
    passes = []
    failures: list[str] = []
    attempted = 0
    deadline = time.perf_counter() + args.seconds
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        out = args.workdir / f"pass-{index}"
        if traced:
            tracer.reset_pass()
            tracer.install()
        try:
            results, record, error = _run_pass(workload, out, tracer, index)
        finally:
            if traced:
                tracer.uninstall()
        record["traced"] = traced
        wall = record["wall_s"]
        if error is None:
            try:
                n, problems = workload.check(results, workload.extract(results), reference)
            except Exception as exc:  # unreadable or malformed outputs fail the pass
                n, problems = 1, [f"pass {index}: {type(exc).__name__}: {exc}"]
        else:
            n, problems = 1, [error]
        if traced:
            record["layers"] = _layer_numbers(tracer, wall, out)
            if tracer.counters["fidelity_below_quarter"]:
                problems.append(f"pass {index}: a successful trial has fidelity below 1/4")
        attempted += n
        failures.extend(problems)
        record["attempted"] = n
        record["failed"] = len(problems)
        passes.append(record)
        index += 1
        untraced_done = any(not p["traced"] for p in passes)
        traced_done = tracer is None or any(p["traced"] for p in passes)
        if time.perf_counter() >= deadline and untraced_done and traced_done:
            return passes, attempted, failures


def _run_pass(workload, out: Path, tracer, index: int):
    """Run a pass op by op, sampling the host speed between ops.

    Returns (outputs, timings, error). Each op's wall and CPU time is also
    divided by the host factor of the calibration samples on either side of
    it; the calibration itself is outside every op's time.
    """
    results = []
    totals = dict.fromkeys(("wall_s", "cpu_s", "norm_wall_s", "norm_cpu_s"), 0.0)
    totals["ops"] = []
    error = None
    before = kernel()
    for name, op in workload.ops(out):
        if tracer is not None:
            tracer.op_id = f"{index}/{name}"
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            results.extend(op())
        except Exception as exc:  # any failure of the program fails the pass
            error = f"pass {index} op {name}: {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        after = kernel()
        factor = host_factor(before, after)
        before = after
        totals["wall_s"] += wall
        totals["cpu_s"] += cpu
        totals["norm_wall_s"] += wall / factor
        totals["norm_cpu_s"] += cpu / factor
        totals["ops"].append({"op": name, "wall_s": wall, "host_factor": factor})
        if error is not None:
            break
    return results, totals, error


def _layer_numbers(tracer, wall: float, out_dir: Path) -> dict[str, float]:
    """Per-layer numbers of one traced pass, named as in BENCHMARK.json."""
    calls, self_s, counters = tracer.calls, tracer.self_s, tracer.counters
    out: dict[str, float] = {}
    for _, _, span, timed in tracing.TARGETS:
        out[f"{span}.calls"] = calls.get(span, 0)
        if timed:
            out[f"{span}.self_s"] = self_s.get(span, 0.0)
    for span in ("coalition.quantum_coalition_form", "coalition.classical_coalition_form"):
        durations = tracer.durations.get(span)
        out[f"{span}.ms_p50"] = 1e3 * _percentile(durations, 0.50) if durations else 0.0
        out[f"{span}.ms_p99"] = 1e3 * _percentile(durations, 0.99) if durations else 0.0
    trials = calls.get("simulation.run_trial", 0)
    out["simulation.trial_success_ratio"] = counters["trial_successes"] / trials if trials else 0.0
    evaluations = calls.get("coalition.evaluate", 0)
    out["coalition.evaluate.distinct_ratio"] = len(tracer.distinct) / evaluations if evaluations else 0.0
    for counter, name in (
        ("quantum_rounds", "coalition.quantum_rounds"),
        ("merge_ops", "coalition.merge_ops"),
        ("split_ops", "coalition.split_ops"),
        ("consensus_rounds", "consensus.rounds"),
        ("tie_events", "consensus.tie_events"),
        ("switches", "consensus.switches"),
        ("wardrop_iterations", "equilibrium.wardrop_iterations"),
        ("nash_iterations", "equilibrium.nash_iterations"),
    ):
        out[name] = counters[counter]
    out["cli.bytes_written"] = sum(f.stat().st_size for f in out_dir.rglob("*") if f.is_file())
    covered = tracer.covered_s()
    out["trace.coverage_frac"] = covered / wall
    for module in ("topology", "quantum", "simulation", "coalition", "consensus", "equilibrium", "cli"):
        share = sum(s for span, s in self_s.items() if span.startswith(module + "."))
        out[f"{module}.share"] = share / wall
    return out


def _versions() -> dict[str, str]:
    import networkx
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
    }


if __name__ == "__main__":
    sys.exit(main())
