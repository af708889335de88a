"""The benchmark's workloads: inputs made from the seed, the ops of one pass,
and the checks on what a pass produced.

Each workload is a closed loop with one caller: `ops` lists a pass's
operations, each started when the previous one returns, and every pass of a
run repeats the same inputs. Each op returns (name, output) pairs; `extract`
turns a pass's outputs into the JSON-able record kept as the reference, and
`check` compares them against that record (when one is stored for the seed)
and against invariants that hold for every seed.

Pass sizes are smaller than the paper's 1000-trial sweeps so that one run
fits several passes; the grids, regimes and link settings are the paper's.
"""

from __future__ import annotations

import json
import math
from functools import partial
from pathlib import Path

import numpy as np

from entangle_games import cli
from entangle_games import coalition as co
from entangle_games import consensus as cons
from entangle_games import equilibrium as eq
from entangle_games import simulation as sim
from entangle_games import topology as topo

# trials per sweep cell in one pass: 20 cells x 300 = 6,000 trials on the
# node sweep, 10 cells x 300 = 3,000 on the decoherence sweep
NODE_SWEEP_TRIALS = 300
DECOHERENCE_SWEEP_TRIALS = 300
LOSSY_GEN_PROB = 0.8

BACKBONE_COUNTS = (10, 12, 14)
GAMMA0_CALLS = 200
CLUSTER_CALLS = 20
TWO_TREE_SIZES = [40, 40]
WARDROP_INSTANCES = 100

VALUE_ATOL = 1e-9  # reference values; covers last-bit drift
ORACLE_ATOL = 1e-6  # Wardrop flows against water-filling, and the gap


class Mismatch(Exception):
    """An output differs from its reference or breaks an invariant."""


def _cli(argv: list[str]) -> None:
    code = cli.main([*argv, "--quiet"])
    if code != 0:
        raise Mismatch(f"entangle-games {' '.join(argv)} exited {code}")


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


class _Sweep:
    """A sweep pass is one `entangle-games sweep` command per grid point,
    so the host speed can be sampled between grid points."""

    kind = ""
    trials = 0
    series = 0
    grid_key = ""
    config: dict = {}

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.grid = self.config[self.grid_key]
        self.config_files = []
        for i, x in enumerate(self.grid):
            path = workdir / f"config-{i}.json"
            path.write_text(json.dumps({**self.config, self.grid_key: [x], "trials": self.trials}))
            self.config_files.append(path)
        self.cells = len(self.grid) * self.series
        self.ops_per_pass = self.cells * self.trials

    def _sweep(self, config: Path, out: Path) -> list[tuple[str, Path]]:
        _cli(["sweep", "--kind", self.kind, "--config", str(config),
              "--seed", str(self.seed), "--out", str(out)])
        return [(out.name, out)]

    def warm_up(self) -> None:
        small = self.workdir / "warm-up.json"
        small.write_text(json.dumps({**self.config, self.grid_key: self.grid[:1], "trials": 5}))
        self._sweep(small, self.workdir / "warm-up")

    def ops(self, out: Path):
        return [
            (f"sweep-{i}", partial(self._sweep, config, out / f"sweep-{i}"))
            for i, config in enumerate(self.config_files)
        ]

    def extract(self, results) -> dict:
        rows = {}
        for _, out in results:
            doc = json.loads((out / "sweep.json").read_text())
            for r in doc["rows"]:
                rows[f"{r['x']!r}|{r['regime']}|{r['metric']}"] = [r["mean"], r["stddev"], r["n"]]
        return {"rows": rows}

    def check(self, results, record: dict, reference: dict | None) -> tuple[int, list[str]]:
        """(cells attempted, failure messages); a cell fails as a whole."""
        failed: dict[str, str] = {}
        cells: dict[str, dict[str, list]] = {}
        for key, value in record["rows"].items():
            x, regime, metric = key.split("|")
            cells.setdefault(f"{x}|{regime}", {})[metric] = value
        if len(cells) != self.cells:
            return self.cells, [f"sweep has {len(cells)} cells, expected {self.cells}"]
        for cell, metrics in sorted(cells.items()):
            problem = _sweep_invariants(metrics, self.trials)
            if problem is None and reference is not None:
                problem = _sweep_against(cell, metrics, reference)
            if problem is not None:
                failed[cell] = f"{cell}: {problem}"
        return self.cells, list(failed.values())


def _sweep_invariants(metrics: dict[str, list], trials: int) -> str | None:
    if len(metrics) != len(sim.METRIC_FIELDS):
        return f"metrics {sorted(metrics)}"
    for metric, (mean, std, n) in metrics.items():
        if not (math.isfinite(mean) and math.isfinite(std)) or n != trials:
            return f"{metric} not finite or n={n}"
    success = metrics["success"][0]
    if not 0.0 <= success <= 1.0:
        return f"success ratio {success}"
    # each successful trial has fidelity >= 1/4, failed ones >= 0
    if metrics["end_to_end_fidelity"][0] < 0.25 * success - 1e-12:
        return "mean fidelity below a quarter of the success ratio"
    return None


def _sweep_against(cell: str, metrics: dict[str, list], reference: dict) -> str | None:
    for metric, (mean, std, n) in metrics.items():
        want = reference["rows"].get(f"{cell}|{metric}")
        if want is None:
            return f"{metric} missing from reference"
        exact = metric in ("hops", "success")
        if n != want[2] or (mean != want[0] if exact else abs(mean - want[0]) > VALUE_ATOL):
            return f"{metric} mean {mean!r} != reference {want[0]!r}"
        if abs(std - want[1]) > VALUE_ATOL:
            return f"{metric} stddev {std!r} != reference {want[1]!r}"
    return None


class SweepNodesLossy(_Sweep):
    kind = "nodes"
    trials = NODE_SWEEP_TRIALS
    series = len(sim.ALL_REGIMES)
    grid_key = "node_counts"
    config = {"link": {"gen_prob": LOSSY_GEN_PROB}, "node_counts": [2, 4, 6, 8, 10]}


class SweepDecoherence(_Sweep):
    kind = "decoherence"
    trials = DECOHERENCE_SWEEP_TRIALS
    series = 2
    grid_key = "rates"
    config = {"rates": list(sim.DECOHERENCE_SWEEP_RATES)}


# ---------------------------------------------------------------------------
# games
# ---------------------------------------------------------------------------


def line_topology(n, gen_prob=0.9, latency_us=100.0, payoff=0.95, decoherence_rate=1e-4,
                  coherence_us=50_000.0):
    """The n-node chain of the test suite's `five_line` fixture."""
    nodes = tuple(topo.Node(i, topo.NodeRole.REPEATER, float(i), 0.0) for i in range(n))
    params = topo.LinkParams(
        latency_us=latency_us,
        coherence_us=coherence_us,
        decoherence_rate=decoherence_rate,
        gen_prob=gen_prob,
    )
    links = tuple(topo.Link(i, i + 1, params, latency_us, payoff) for i in range(n - 1))
    return topo.NetworkTopology(nodes, links, topo.ScenarioTag.CUSTOM)


def wardrop_instances(seed: int) -> list[tuple[list[tuple[float, float]], float]]:
    """Random affine-latency instances drawn as in acceptance criterion 4."""
    rng = np.random.default_rng([seed, 4])
    out = []
    for _ in range(WARDROP_INSTANCES):
        m = int(rng.integers(2, 6))
        coeffs = [(float(rng.uniform(0, 2)), float(rng.uniform(0.1, 2))) for _ in range(m)]
        out.append((coeffs, float(rng.uniform(0.2, 5.0))))
    return out


def waterfill(coeffs, demand):
    """Exact Wardrop flows for affine latencies a + b x (the criterion-4 oracle)."""
    order = sorted(range(len(coeffs)), key=lambda i: coeffs[i][0])
    for k in range(1, len(coeffs) + 1):
        used = order[:k]
        inv = sum(1.0 / coeffs[i][1] for i in used)
        c = (demand + sum(coeffs[i][0] / coeffs[i][1] for i in used)) / inv
        if all(c >= coeffs[i][0] - 1e-12 for i in used) and (
            k == len(coeffs) or c <= coeffs[order[k]][0] + 1e-12
        ):
            flows = [0.0] * len(coeffs)
            for i in used:
                flows[i] = (c - coeffs[i][0]) / coeffs[i][1]
            return flows
    raise Mismatch("water-filling oracle found no consistent used set")


_BETA = 0.3
# (name, cost functions, analytic equilibrium, tolerance): criterion 5
NASH_FIXTURES = (
    ("separable", (lambda x, y: (x - 0.5) ** 2, lambda x, y: (y - 0.5) ** 2), (0.5, 0.5), 1e-6),
    ("coupled", (lambda x, y: (x - 0.5 * y) ** 2, lambda x, y: (y - 0.5 * x) ** 2), (0.0, 0.0), 1e-6),
    (
        "calibrated",
        (
            lambda x, y: (x - (0.695 + _BETA * (y - 0.74))) ** 2,
            lambda x, y: (y - (0.74 + _BETA * (x - 0.695))) ** 2,
        ),
        (0.695, 0.74),
        1e-3,
    ),
)


def _coalition_record(out) -> dict:
    return {
        "path": list(out.path),
        "members": sorted(out.stable_coalition.members),
        "value": out.stable_coalition.value,
        "rounds": out.rounds,
    }


def _consensus_record(out) -> dict:
    return {
        "path": list(out.path),
        "switches": [s.to_json_dict() for s in out.switches],
        "total_cost": out.total_cost,
        "fidelity": out.end_to_end_fidelity,
        "converged": out.converged,
        "rounds": out.rounds,
    }


class Games:
    """Coalition, consensus and equilibrium solves; no trial sweep."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.backbones = [(n, sim.backbone_topology(n)) for n in BACKBONE_COUNTS]
        self.backbone_game = co.CoalitionGameConfig(source=2, destination=3)
        self.line = line_topology(5)
        self.line_game = co.CoalitionGameConfig(
            source=0, destination=4, target_throughput=5000.0, hop_cost=0.05
        )
        self.gamma0_seeds = range(1000 * seed, 1000 * seed + GAMMA0_CALLS)
        self.cluster_seeds = range(1000 * seed + 500, 1000 * seed + 500 + CLUSTER_CALLS)
        self.two_tree = topo.build_scenario2(TWO_TREE_SIZES, seed=seed)
        self.two_tree_ends = (1, TWO_TREE_SIZES[0] + 2)
        self.wardrop = [
            (eq.WardropProblem(tuple(eq.AffineLatency(a, b) for a, b in coeffs), demand, tol=1e-8),
             waterfill(coeffs, demand))
            for coeffs, demand in wardrop_instances(seed)
        ]
        self.nash = [
            (name, eq.BestResponseProblem(costs, tol=1e-6), want, atol)
            for name, costs, want, atol in NASH_FIXTURES
        ]
        # the line game adds one classical solve for the gamma=0 check
        coalition_ops = len(self.backbones) + 2 + 1 + GAMMA0_CALLS + CLUSTER_CALLS
        consensus_ops = 2 * 2
        self.ops_per_pass = coalition_ops + consensus_ops + len(self.wardrop) + len(self.nash)

    def warm_up(self) -> None:
        model = co.ValueModel(self.line_game, self.line)
        co.quantum_coalition_form(self.line_game, self.line, gamma=0.0, seed=1000 * self.seed + 999, model=model)
        eq.solve_wardrop(self.wardrop[0][0])

    def ops(self, out: Path):
        """The pass in seven chunks of one to two seconds each. The line-game
        chunks share one ValueModel, as acceptance criterion 2 does."""
        line = {}

        def backbone(n, topology):
            return [(f"classical-backbone-{n}", co.classical_coalition_form(self.backbone_game, topology))]

        def cli_coalition(variant):
            dest = out / f"coalition-{variant}"
            _cli(["coalition", "--variant", variant, "--seed", str(self.seed), "--out", str(dest)])
            return [(f"cli-coalition-{variant}", dest)]

        def line_classical():
            line["model"] = co.ValueModel(self.line_game, self.line)
            return [("line-classical", co.classical_coalition_form(
                self.line_game, self.line, model=line["model"]))]

        def line_quantum(label, gamma, seeds):
            return [
                (f"line-{label}-{s}", co.quantum_coalition_form(
                    self.line_game, self.line, gamma=gamma, seed=s, model=line["model"]))
                for s in seeds
            ]

        def consensus():
            results = []
            for variant in ("classical", "quantum"):
                dest = out / f"consensus-{variant}"
                _cli(["consensus", "--variant", variant, "--seed", str(self.seed), "--out", str(dest)])
                results.append((f"cli-consensus-{variant}", dest))
                results.append((f"two-tree-{variant}", cons.run_consensus(
                    self.two_tree, *self.two_tree_ends, variant=variant, seed=self.seed)))
            return results

        def solvers():
            results = [(f"wardrop-{i}", eq.solve_wardrop(problem))
                       for i, (problem, _) in enumerate(self.wardrop)]
            results += [(f"nash-{name}", eq.solve_nash_best_response(problem))
                        for name, problem, _, _ in self.nash]
            return results

        def chain(*parts):
            return lambda: [item for part in parts for item in part()]

        (n1, t1), (n2, t2), (n3, t3) = self.backbones
        gamma0, cluster = list(self.gamma0_seeds), list(self.cluster_seeds)
        half, half_cluster = len(gamma0) // 2, len(cluster) // 2
        return [
            ("backbones-small", chain(partial(backbone, n1, t1), partial(backbone, n2, t2))),
            ("backbone-large", partial(backbone, n3, t3)),
            ("line-gamma0-a", chain(partial(cli_coalition, "classical"), line_classical,
                                    partial(line_quantum, "gamma0", 0.0, gamma0[:half]))),
            ("line-gamma0-b", partial(line_quantum, "gamma0", 0.0, gamma0[half:])),
            ("line-cluster-a", partial(line_quantum, "cluster", math.pi / 2.0, cluster[:half_cluster])),
            ("line-cluster-b", partial(line_quantum, "cluster", math.pi / 2.0, cluster[half_cluster:])),
            ("mesh-consensus-solvers", chain(partial(cli_coalition, "quantum"), consensus, solvers)),
        ]

    def extract(self, results) -> dict:
        """Reference record: every coalition and consensus outcome. Solver
        outputs are left out; they are checked against oracles instead."""
        record = {}
        for name, value in results:
            if name.startswith("cli-"):
                doc = json.loads((value / "outcome.json").read_text())
                if name.startswith("cli-coalition"):
                    record[name] = {k: doc[k] for k in ("path", "members", "value", "rounds")}
                else:
                    record[name] = {
                        "path": doc["path"], "switches": doc["switches"],
                        "total_cost": doc["total_cost"], "fidelity": doc["end_to_end_fidelity"],
                        "converged": doc["converged"], "rounds": doc["rounds"],
                    }
            elif name.startswith(("classical-", "line-")):
                record[name] = _coalition_record(value)
            elif name.startswith("two-tree-"):
                record[name] = _consensus_record(value)
        return record

    def check(self, results, record: dict, reference: dict | None) -> tuple[int, list[str]]:
        failures = []
        outputs = dict(results)
        classical_path = record["line-classical"]["path"]
        for name, value in record.items():
            problem = _finite(value)
            if problem is None and name.startswith("line-gamma0-") and value["path"] != classical_path:
                problem = f"gamma=0 path {value['path']} != classical path {classical_path}"
            if problem is None and reference is not None:
                problem = _against(value, reference.get(name), name)
            if problem is not None:
                failures.append(f"{name}: {problem}")
        for i, (_, flows) in enumerate(self.wardrop):
            name = f"wardrop-{i}"
            res = outputs[name]
            if not res.gap <= ORACLE_ATOL or any(
                abs(got - want) > ORACLE_ATOL for got, want in zip(res.flows, flows)
            ):
                failures.append(f"{name}: flows {res.flows} gap {res.gap} vs oracle {flows}")
        for fixture, _, want, atol in self.nash:
            res = outputs[f"nash-{fixture}"]
            if not res.converged or any(abs(a - w) > atol for a, w in zip(res.actions, want)):
                failures.append(f"nash-{fixture}: {res.actions} vs {want}")
        attempted = len(results)
        if attempted != self.ops_per_pass:
            failures.append(f"{attempted} ops, expected {self.ops_per_pass}")
        return attempted, failures


def _finite(value) -> str | None:
    if isinstance(value, float):
        return None if math.isfinite(value) else f"non-finite {value}"
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            problem = _finite(item)
            if problem:
                return problem
    return None


def _against(got, want, where: str) -> str | None:
    """Exact comparison except floats, which agree within VALUE_ATOL."""
    if want is None:
        return f"no reference for {where}"
    if isinstance(got, bool) or isinstance(want, bool) or isinstance(got, str):
        return None if got == want else f"{got!r} != {want!r}"
    if isinstance(got, (int, float)) and isinstance(want, (int, float)):
        if isinstance(got, int) and isinstance(want, int):
            return None if got == want else f"{got} != {want}"
        return None if abs(got - want) <= VALUE_ATOL else f"{got!r} != {want!r}"
    if isinstance(got, dict) and isinstance(want, dict):
        if sorted(got) != sorted(want):
            return f"keys {sorted(got)} != {sorted(want)}"
        for key in got:
            problem = _against(got[key], want[key], f"{where}.{key}")
            if problem:
                return f"{key}: {problem}"
        return None
    if isinstance(got, list) and isinstance(want, list):
        if len(got) != len(want):
            return f"{got!r} != {want!r}"
        for a, b in zip(got, want):
            problem = _against(a, b, where)
            if problem:
                return problem
        return None
    return f"{got!r} != {want!r}"


WORKLOADS = {
    "sweep-nodes-lossy": SweepNodesLossy,
    "sweep-decoherence": SweepDecoherence,
    "games": Games,
}
