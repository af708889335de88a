"""Sweeps at a million trials, one check per fresh interpreter, because each
check bounds the peak memory of its whole process.

    PYTHONPATH=src python -W error tools/million_trial_sweeps.py nodes
    PYTHONPATH=src python -W error tools/million_trial_sweeps.py decoherence
    PYTHONPATH=src python -W error tools/million_trial_sweeps.py lossy

`nodes` and `decoherence` run sweeps whose every cell draws nothing, so it
is one trial: each stddev is 0.0, each mean the `--trials 1` value, and the
peak stays far below a million trials' columns. `lossy` runs an 11-hop cell
pair at a million trials: its streams step one hop at a time over each
chunk of trials, and the peak guards what a chunk holds at once, its stream
words, draws and clocks. Its sweep.json and the decoherence sweep's are the
indented dump of their own rows. Each check prints its peak and fails with
an AssertionError.
"""

import json
import os
import resource
import sys
import tempfile

from entangle_games.cli import main


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def check_constant(kind: str) -> None:
    with tempfile.TemporaryDirectory() as out:
        config = os.path.join(out, "config.json")
        with open(config, "w") as fh:
            json.dump({"link": {"gen_prob": 1.0}, "node_counts": [10]} if kind == "nodes"
                      else {}, fh)
        rows = {}
        for trials in (1_000_000, 1):
            dest = os.path.join(out, str(trials))
            argv = ["sweep", "--kind", kind, "--config", config, "--trials", str(trials),
                    "--out", dest, "--quiet"]
            assert main(argv) == 0, argv
            if trials > 1:
                peak = peak_mb()
            with open(os.path.join(dest, "sweep.json")) as fh:
                rows[trials] = json.load(fh)["rows"]
        many, one = rows[1_000_000], rows[1]
        assert all(r["stddev"] == 0.0 and r["n"] == 1_000_000 for r in many), kind
        key = lambda r: (r["x"], r["regime"], r["metric"], r["mean"])
        assert list(map(key, many)) == list(map(key, one)), kind
        assert peak < 100, (kind, peak)
        print(kind, f"{peak:.1f} MB")


def check_lossy() -> None:
    with tempfile.TemporaryDirectory() as out:
        config = os.path.join(out, "config.json")
        with open(config, "w") as fh:
            json.dump({"link": {"gen_prob": 0.8}, "node_counts": [10]}, fh)
        lossy = os.path.join(out, "lossy")
        argv = ["sweep", "--kind", "nodes", "--config", config, "--trials", "1000000",
                "--out", lossy, "--quiet"]
        assert main(argv) == 0, argv
        peak = peak_mb()
        assert peak < 256, peak
        print(f"{peak:.1f} MB")
        decoherence = os.path.join(out, "decoherence")
        assert main(["sweep", "--kind", "decoherence", "--out", decoherence, "--quiet"]) == 0
        for dest in (lossy, decoherence):
            with open(os.path.join(dest, "sweep.json")) as fh:
                text = fh.read()
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", dest


if __name__ == "__main__":
    [kind] = sys.argv[1:]
    if kind == "lossy":
        check_lossy()
    elif kind in ("nodes", "decoherence"):
        check_constant(kind)
    else:
        sys.exit(f"unknown kind {kind!r}: nodes, decoherence or lossy")
