"""Self-test of the benchmark's output check.

    python3 perfbench/selftest.py

1. A reference with one sweep mean perturbed, and one with a wrong
   coalition path, must each give failed_frac > 0 and a non-zero exit.
2. Clean runs, untraced and traced, pass, and every metric name they print
   appears in BENCHMARK.json.
3. In a directory holding only BENCHMARK.json and the benchmark, without
   the program's sources, the benchmark exits non-zero and prints no result.

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

from run import HERE, OUT, ROOT

SEED = "0"


def bench(*args: str, root: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(root / HERE.name / "run.py"), "--seed", SEED, "--seconds", "1", *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines: list[str]) -> dict | None:
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def corrupted_reference(workload: str, corrupt) -> Path:
    ref_dir = OUT / f"selftest-reference-{workload}"
    shutil.rmtree(ref_dir, ignore_errors=True)
    shutil.copytree(HERE / "reference", ref_dir)
    path = ref_dir / f"{workload}.json"
    doc = json.loads(path.read_text())
    corrupt(doc["seeds"][SEED])
    path.write_text(json.dumps(doc))
    return ref_dir


def perturb_sweep_mean(record: dict) -> None:
    key = "6.0|quantum_game_quantum_net|normalized_delay_us"
    record["rows"][key][0] += 1e-6


def wrong_coalition_path(record: dict) -> None:
    record["classical-backbone-10"]["path"][1] += 1


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    ok = True

    def report(name: str, passed: bool, detail: str = "") -> None:
        nonlocal ok
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {name}{': ' + detail if detail else ''}")

    for workload, corrupt in (
        ("sweep-nodes-lossy", perturb_sweep_mean),
        ("games", wrong_coalition_path),
    ):
        ref_dir = corrupted_reference(workload, corrupt)
        code, lines = bench("--workload", workload, "--reference-dir", str(ref_dir))
        shutil.rmtree(ref_dir)
        result = result_of(lines)
        caught = code != 0 and result is not None and result["failed"] > 0
        report(f"{corrupt.__name__} is caught on {workload}", caught,
               f"exit {code}, failed {result and result['failed']}")

    for trace in ("0", "1"):
        code, lines = bench("--workload", "games", "--trace", trace)
        result = result_of(lines)
        printed = set(re.findall(r"^#\s+(\S+) = ", "\n".join(lines), re.M))
        printed |= set(result["metrics"]) if result else set()
        unknown = sorted(printed - known)
        report(f"clean games run with --trace {trace}",
               code == 0 and result is not None and result["failed"] == 0 and not unknown,
               f"exit {code}, names not in BENCHMARK.json: {unknown}")

    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("--workload", "games", root=bare)
    shutil.rmtree(bare)
    report("no program sources: non-zero exit, no result", code != 0 and result_of(lines) is None,
           f"exit {code}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
