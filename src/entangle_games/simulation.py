"""Metric sweeps over distribution trials (normalized delay vs. network size,
end-to-end fidelity vs. link decoherence rate) and the node sweep's path
choice. The trials, their timing model and seeding contract are in
`trial`, whose names that sweep callers read are re-exported here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from . import coalition as co
from .consensus import run_consensus
from .errors import ParameterError, check_seed
from .topology import LinkParams, NetworkTopology, build_scenario1, canonical_two_tree_topology
from .trial import ALL_REGIMES, METRIC_FIELDS, Regime, SimConfig, aggregate, run_trials
# unused here: perfbench/tracer.py resolves run_trial in this module
from .trial import run_trial  # noqa: F401


# ---------------------------------------------------------------------------
# sweep results
# ---------------------------------------------------------------------------


# a row's keys sit 6 spaces deep in sweep.json
_ROWS_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))


@dataclass
class SweepResult:
    x_label: str
    x_values: list[float]
    series: list[str]
    n: int
    cells: dict[tuple[float, str], tuple[dict[str, float], dict[str, float]]]

    def rows(self) -> list[tuple]:
        out = []
        for (x, series), (means, stds) in self.cells.items():
            for metric in METRIC_FIELDS:
                out.append((x, series, metric, means[metric], stds[metric], self.n))
        out.sort(key=lambda r: (r[0], r[1], r[2]))
        return out

    def to_csv(self) -> str:
        lines = ["x,regime,metric,mean,stddev,n"]
        for x, series, metric, mean, std, n in self.rows():
            lines.append(f"{x!r},{series},{metric},{mean!r},{std!r},{n}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "x_label": self.x_label,
            "x_values": list(self.x_values),
            "n": self.n,
            "rows": [
                {"x": x, "regime": series, "metric": metric, "mean": mean, "stddev": std, "n": n}
                for x, series, metric, mean, std, n in self.rows()
            ],
        }

    def to_json(self) -> str:
        """`json.dumps(self.to_json_dict(), indent=2, sort_keys=True)` and a
        newline, with the rows encoded in one call of json's C encoder, which
        json uses only without indent. Its item separator, a newline and the
        6-space indent of a row's keys, lays out each row's keys as the
        indented dump does. Rows are flat dicts, and the encoder writes a raw
        newline only in a separator, so a separator between a closing and an
        opening brace is a break between rows; it becomes the indented dump's
        row break. Floats are written by float.__repr__ either way."""
        doc = self.to_json_dict()
        rows = _ROWS_ENCODER.encode(doc["rows"])
        if doc["rows"]:
            rows = rows[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
            rows = f"[\n    {{\n      {rows}\n    }}\n  ]"
        # "n" sorts before "rows", so the first match is the rows key
        doc["rows"] = []
        text = json.dumps(doc, indent=2, sort_keys=True)
        return text.replace('"rows": []', f'"rows": {rows}', 1) + "\n"

    def mean_of(self, x: float, series: str, metric: str) -> float:
        return self.cells[(x, series)][0][metric]


# ---------------------------------------------------------------------------
# node-count sweep
# ---------------------------------------------------------------------------


def backbone_topology(count: int, link_defaults: LinkParams | None = None) -> NetworkTopology:
    """Sweep topology for a given coordinating-node count: two leaders joined
    by a (count - 2)-repeater chain, one end-node on each leader.

    The count parameter is the number of infrastructure nodes playing the
    game (leaders plus repeaters); the end-nodes are the fixed communicating
    pair. Probabilistic extras stay off so the delay trend isolates the
    hop/swap scaling.
    """
    if count < 2:
        raise ParameterError(f"node count must be >= 2, got {count}")
    return build_scenario1(
        2,
        1,
        count - 2,
        link_defaults=link_defaults,
        probabilistic_links=False,
        placement="geometric",
    )


def select_path(topology: NetworkTopology, source: int, destination: int) -> list[int]:
    """The path every regime of the node sweep runs on: the classical
    coalition game's. A backbone has one source->destination path, and every
    coalition outcome that holds a path carries it, so the hop-shortest path
    and both games' paths are that one path. Where no coalition forms, the
    game raises UnreachableError, as it would in the first game regime."""
    return co.classical_coalition_form(co.CoalitionGameConfig(source, destination), topology).path


def sweep_nodes(
    base_cfg: SimConfig,
    node_counts: list[int],
    seed: int = 0,
    link_defaults: LinkParams | None = None,
) -> SweepResult:
    """Normalized-delay sweep across network sizes for each strategy regime."""
    check_seed(seed)
    if not node_counts or any(a >= b for a, b in zip(node_counts, node_counts[1:])):
        raise ParameterError(f"node_counts must be non-empty and strictly ascending, got {list(node_counts)}")
    # the regimes that run under one timing model, in order; each group's
    # trials draw and time in one run_trials call
    groups: dict[bool, list[tuple[int, Regime]]] = {}
    for ri, regime in enumerate(ALL_REGIMES):
        groups.setdefault(regime.quantum_net, []).append((ri, regime))
    cells = {}
    for xi, count in enumerate(node_counts):
        topology = backbone_topology(count, link_defaults)
        # build_scenario1 ids: leaders 0 and 1, then their end-nodes 2 and 3
        path = select_path(topology, 2, 3)
        for members in groups.values():
            cfg = replace(base_cfg, regime=members[0][1])
            seeds = [(seed, xi, ri) for ri, _ in members]
            keys = [(float(count), regime.value) for _, regime in members]
            # no name holds the block, so it is freed before the next group's
            cells.update(zip(keys, map(aggregate, run_trials(topology, path, cfg, seeds))))
    return SweepResult(
        x_label="node_count",
        x_values=[float(c) for c in node_counts],
        series=[r.value for r in ALL_REGIMES],
        n=base_cfg.trials,
        cells=cells,
    )


# ---------------------------------------------------------------------------
# decoherence sweep
# ---------------------------------------------------------------------------

# default rate grid: two orders of magnitude, shallow enough that the
# depolarized fidelity keeps a numerically strict slope above its 1/4 floor
DECOHERENCE_SWEEP_RATES = (1e-6, 3e-6, 1e-5, 3e-5, 1e-4)

# cost units to microseconds for the sweep fixture; stretched link latencies
# make one extra swap cheaper than one slow hop, so the coin-settled tie can
# matter
SWEEP_COST_TO_US = 10.0


def sweep_decoherence(base_cfg: SimConfig, rates: list[float], seed: int = 0) -> SweepResult:
    """End-to-end fidelity sweep over link decoherence rates.

    For each rate the two-tree consensus fixture is built with that rate on
    every link, consensus runs per variant from leaf 1 to leaf 8, and the
    converged path is measured over `trials` quantum-net trials. The sweep
    reads only each game's path and realized topology, never its consensus
    fidelity, so that trial never runs. Trial seeds pair across variants so
    the comparison is noise-matched.
    """
    check_seed(seed)
    if not rates or any(a >= b for a, b in zip(rates, rates[1:])) or rates[0] < 0:
        raise ParameterError(
            f"rates must be non-empty, strictly ascending and non-negative, got {list(rates)}"
        )
    cfg = replace(base_cfg, regime=Regime.QUANTUM_GAME_QUANTUM_NET)
    variants = ("classical", "quantum")
    cells = {}
    for xi, rate in enumerate(rates):
        rated = canonical_two_tree_topology(
            link_defaults=LinkParams(decoherence_rate=rate), cost_to_us=SWEEP_COST_TO_US
        )
        for variant in variants:
            outcome = run_consensus(rated, 1, 8, variant=variant, seed=seed)
            [rows] = run_trials(outcome.realized_topology, outcome.path, cfg, [(seed, xi)])
            cells[(float(rate), variant)] = aggregate(rows)
    return SweepResult(
        x_label="decoherence_rate",
        x_values=[float(r) for r in rates],
        series=list(variants),
        n=base_cfg.trials,
        cells=cells,
    )
