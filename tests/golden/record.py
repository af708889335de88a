"""Golden outputs of the command-line front end.

`COMMANDS` is a fixed list of `entangle-games` invocations. `run_all` runs
each in process, in a fresh temporary `--out` directory, and records its
exit code and the sha256 of its stdout, its stderr and every file it wrote.
The temporary directory's path is replaced by `<out>` in stdout and stderr
before hashing. `manifest.json` holds the records and the numpy version they
were made with; `tests/test_golden.py` compares a fresh run against it.

After a change that alters outputs on purpose, rewrite the manifest with

    python tests/golden/record.py

(the package must be importable: installed, or with PYTHONPATH=src).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

from entangle_games.cli import main

MANIFEST = Path(__file__).resolve().parent / "manifest.json"

_LOSSY_COUNTS = list(range(2, 11))

# (name, argv without --config and --out, config document or None); every
# command runs at most 300 trials
COMMANDS = [
    # the eight commands of acceptance criterion 9
    ("gen-s1", ["gen", "--scenario", "1", "--seed", "11"], None),
    ("gen-s2", ["gen", "--scenario", "2", "--seed", "11"], None),
    ("coalition-c", ["coalition", "--variant", "classical", "--seed", "11"], None),
    ("coalition-q", ["coalition", "--variant", "quantum", "--seed", "11"], None),
    ("consensus-c", ["consensus", "--variant", "classical", "--seed", "11"], None),
    ("consensus-q", ["consensus", "--variant", "quantum", "--seed", "11"], None),
    ("sweep-nodes", ["sweep", "--kind", "nodes", "--seed", "11"],
     {"trials": 25, "node_counts": [2, 3, 4], "link": {"gen_prob": 0.8}}),
    ("sweep-deco", ["sweep", "--kind", "decoherence", "--seed", "11"],
     {"trials": 25, "rates": [1e-6, 1e-5, 1e-4]}),
    # lossy node sweeps, whose timing sums every hop's wait
    ("sweep-nodes-p0.2", ["sweep", "--kind", "nodes", "--seed", "0"],
     {"trials": 300, "node_counts": _LOSSY_COUNTS, "link": {"gen_prob": 0.2}}),
    ("sweep-nodes-p1-3", ["sweep", "--kind", "nodes", "--seed", "0"],
     {"trials": 300, "node_counts": _LOSSY_COUNTS, "link": {"gen_prob": 1 / 3}}),
    # the coalition game on the two-tree topology, and unentangled
    ("coalition-s2", ["coalition", "--scenario", "2", "--variant", "quantum", "--seed", "7"], None),
    ("coalition-gamma0", ["coalition", "--variant", "quantum", "--gamma", "0", "--seed", "7"],
     None),
    # the referee game with 10 players over 2 paths, and at a partial gamma
    ("coalition-q-small", ["coalition", "--variant", "quantum", "--seed", "3"],
     {"n_leaders": 4, "end_nodes_per_leader": 1, "repeaters_per_pair": 1}),
    ("coalition-gamma0.7", ["coalition", "--variant", "quantum", "--gamma", "0.7", "--seed", "7"],
     None),
    ("chsh", ["chsh"], None),
    # one configuration, infeasible scenario and capacity error each
    ("exit-2", ["gen"], {"link": {"gen_prob": 1.5}}),
    ("exit-3", ["sweep", "--kind", "nodes"],
     {"trials": 300, "link": {"latency_us": 1e7, "gen_prob": 0.1}, "node_counts": [4, 20]}),
    ("exit-4", ["coalition"], {"probabilistic_links": True, "variant": "classical"}),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_command(argv: list[str], config: dict | None) -> dict:
    """Exit code and hashes of one command, run in process."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        out = work / "out"
        argv = [*argv, "--out", str(out)]
        if config is not None:
            path = work / "config.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        files = sorted(p for p in out.rglob("*") if p.is_file()) if out.exists() else []
        return {
            "exit": code,
            "stdout": _sha256(stdout.getvalue().replace(tmp, "<out>").encode()),
            "stderr": _sha256(stderr.getvalue().replace(tmp, "<out>").encode()),
            "files": {p.relative_to(out).as_posix(): _sha256(p.read_bytes()) for p in files},
        }


def run_all() -> dict:
    """The manifest a fresh run of COMMANDS gives."""
    return {
        "numpy": np.__version__,
        "commands": {name: run_command(argv, config) for name, argv, config in COMMANDS},
    }


if __name__ == "__main__":
    MANIFEST.write_text(json.dumps(run_all(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST}")
