"""Record the reference outputs that run.py checks every pass against.

    python3 perfbench/record.py            # all workloads, seeds 0..10

Run it only at a commit whose outputs are trusted; a pass whose outputs break
an invariant is refused. Each workload's file holds one extracted pass per
seed; seeds not recorded are checked against the invariants alone.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import HERE, OUT, WORKLOADS, environment, spawn_worker

RECORDED_SEEDS = range(0, 11)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    args = parser.parse_args()
    env = environment()
    for workload in args.workload or WORKLOADS:
        seeds = {}
        ops_per_pass = None
        for seed in RECORDED_SEEDS:
            workdir = OUT / f"record-{workload}-{seed}"
            try:
                _, line = spawn_worker(
                    ["--workload", workload, "--seed", str(seed), "--record",
                     "--reference", str(workdir / "none.json"), "--workdir", str(workdir)],
                    600,
                )
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            doc = json.loads(line)
            ops_per_pass = doc["ops_per_pass"]
            seeds[str(seed)] = doc["record"]
            print(f"{workload} seed {seed} recorded", file=sys.stderr)
        reference = {
            "recorded_at": {"commit": env["commit"], "source_sha256": env["source_sha256"]},
            "ops_per_pass": ops_per_pass,
            "seeds": seeds,
        }
        path = HERE / "reference" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(reference, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
