"""Command-line front end: topology generation, game runs, metric sweeps, and
the CHSH demo, with JSON config files, flag overrides, and seed-reproducible
outputs.

Exit codes: 0 success, 2 configuration error, 3 infeasible scenario
(unreachable destination), 4 capacity overflow. Output files land in the
configured directory under fixed names (topology.json, outcome.json,
trace.jsonl, sweep.csv, sweep.json) so downstream diffing stays stable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import coalition as co
from . import consensus as cons
from . import quantum as q
from . import simulation as sim
from . import topology as topo
from .errors import (
    CapacityError, ParameterError, UnreachableError, check_seed, is_int, is_number,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_CAPACITY = 4


# RunConfig field annotations (strings, as annotations are postponed) mapped
# to the check a JSON value must pass; ints are accepted where floats are
_TYPE_CHECKS = {
    "int": is_int,
    "float": is_number,
    "bool": lambda v: isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "list[int]": lambda v: isinstance(v, list) and all(map(is_int, v)),
    "list[float]": lambda v: isinstance(v, list) and all(map(is_number, v)),
}


def _typed(key: str, value, annotation: str):
    """`value` unchanged if it fits the field annotation, else a ParameterError
    naming `key`."""
    optional = annotation.endswith(" | None")
    check = _TYPE_CHECKS[annotation.removesuffix(" | None")]
    if (value is None and optional) or (value is not None and check(value)):
        return value
    raise ParameterError(f"config key {key} must be {annotation}, got {value!r}")


def _read_json(path: str, what: str):
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ParameterError(f"cannot read {what} {path}: {exc.strerror}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParameterError(f"{what} {path} is not valid JSON: {exc}") from exc


@dataclasses.dataclass
class RunConfig:
    """Full run description; every field has a JSON key of the same name
    (link parameters and game weights sit in nested objects)."""

    scenario: int = 1
    n_leaders: int = 3
    end_nodes_per_leader: int = 4
    repeaters_per_pair: int = 2
    tree_sizes: list[int] | None = None
    probabilistic_links: bool = False
    mu: float = 0.5
    lam: float = 0.5
    delta: float | None = None
    latency_us: float = topo.DEFAULT_LATENCY_US
    coherence_us: float = topo.DEFAULT_COHERENCE_US
    decoherence_rate: float = topo.DEFAULT_DECOHERENCE_RATE
    gen_prob: float = topo.DEFAULT_GEN_PROB
    source: int | None = None
    destination: int | None = None
    variant: str = "classical"
    gamma: float = math.pi / 2.0
    weight_fidelity: float = 1.0
    weight_cost: float = 1.0
    sync_step_us: float = 300.0
    qubit_lifetime_us: float = 500.0
    trials: int = 1000
    node_counts: list[int] = dataclasses.field(default_factory=lambda: [2, 4, 6, 8, 10])
    rates: list[float] = dataclasses.field(
        default_factory=lambda: list(sim.DECOHERENCE_SWEEP_RATES)
    )
    topology_file: str | None = None
    out_dir: str = "out"
    seed: int = 0
    quiet: bool = False

    _NESTED = {
        "link": ("latency_us", "coherence_us", "decoherence_rate", "gen_prob"),
        "weights": ("fidelity", "cost"),
    }

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        annotations = {f.name: f.type for f in dataclasses.fields(cls)}
        flat: dict = {}
        for key, value in doc.items():
            if key in cls._NESTED:
                if not isinstance(value, dict):
                    raise ParameterError(f"config key {key} must be an object, got {value!r}")
                extra = set(value) - set(cls._NESTED[key])
                if extra:
                    raise ParameterError(f"unknown config key(s) in {key}: {sorted(extra)}")
                for sub, sub_value in value.items():
                    name = sub if key == "link" else f"weight_{sub}"
                    flat[name] = _typed(f"{key}.{sub}", sub_value, annotations[name])
            elif key in annotations:
                flat[key] = _typed(key, value, annotations[key])
            else:
                raise ParameterError(f"unknown config key: {key}")
        cfg = cls(**flat)
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        doc = {}
        skip = set(self._NESTED["link"]) | {"weight_fidelity", "weight_cost"}
        for f in dataclasses.fields(self):
            if f.name in skip:
                continue
            doc[f.name] = getattr(self, f.name)
        doc["link"] = {k: getattr(self, k) for k in self._NESTED["link"]}
        doc["weights"] = {"fidelity": self.weight_fidelity, "cost": self.weight_cost}
        return doc

    def validate(self) -> None:
        if self.scenario not in (1, 2):
            raise ParameterError(f"scenario must be 1 or 2, got {self.scenario}")
        if self.variant not in ("classical", "quantum"):
            raise ParameterError(f"variant must be classical or quantum, got {self.variant!r}")
        check_seed(self.seed)
        q.check_angle(self.gamma)
        cons.check_weights(self.weights())
        self.link_params()  # raises with the offending field named
        if self.delta is not None:
            topo.LinkModelParams(self.mu, self.lam, self.delta)
        else:
            topo.LinkModelParams(self.mu, self.lam, 1.0)

    def link_params(self) -> topo.LinkParams:
        return topo.LinkParams(
            latency_us=self.latency_us,
            coherence_us=self.coherence_us,
            decoherence_rate=self.decoherence_rate,
            gen_prob=self.gen_prob,
        )

    def sim_config(self, regime: sim.Regime) -> sim.SimConfig:
        return sim.SimConfig(
            sync_step_us=self.sync_step_us,
            qubit_lifetime_us=self.qubit_lifetime_us,
            trials=self.trials,
            regime=regime,
        )

    def weights(self) -> tuple[float, float]:
        return (self.weight_fidelity, self.weight_cost)


def load_config(args: argparse.Namespace) -> RunConfig:
    doc = {}
    if args.config:
        doc = _read_json(args.config, "config file")
        if not isinstance(doc, dict):
            raise ParameterError("config file must hold a JSON object")
    cfg = RunConfig.from_dict(doc)
    for flag in ("seed", "scenario", "variant", "gamma", "trials"):
        value = getattr(args, flag, None)
        if value is not None:
            setattr(cfg, flag, value)
    if getattr(args, "out", None) is not None:
        cfg.out_dir = args.out
    if getattr(args, "quiet", False):
        cfg.quiet = True
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# topology plumbing
# ---------------------------------------------------------------------------


def _build_topology(cfg: RunConfig) -> topo.NetworkTopology:
    if cfg.topology_file:
        return topo.NetworkTopology.from_json_dict(_read_json(cfg.topology_file, "topology_file"))
    if cfg.scenario == 1:
        model = None
        if cfg.delta is not None:
            model = topo.LinkModelParams(cfg.mu, cfg.lam, cfg.delta)
        return topo.build_scenario1(
            cfg.n_leaders,
            cfg.end_nodes_per_leader,
            cfg.repeaters_per_pair,
            link_defaults=cfg.link_params(),
            model=model,
            seed=cfg.seed,
            probabilistic_links=cfg.probabilistic_links,
        )
    if cfg.tree_sizes is None:
        return topo.canonical_two_tree_topology(link_defaults=cfg.link_params())
    return topo.build_scenario2(
        cfg.tree_sizes, seed=cfg.seed, link_defaults=cfg.link_params()
    )


def _endpoints(cfg: RunConfig, topology: topo.NetworkTopology) -> tuple[int, int]:
    if cfg.source is not None and cfg.destination is not None:
        return cfg.source, cfg.destination
    if cfg.topology_file:
        raise ParameterError("source and destination are required with topology_file")
    if cfg.scenario == 1:
        # first end-node of the first two leaders
        n, m = cfg.n_leaders, cfg.end_nodes_per_leader
        return n, n + m
    if cfg.tree_sizes is None:
        return 1, 8  # canonical fixture demo pair
    return 1, cfg.tree_sizes[0] + 2  # first leaves of the two trunk trees


def _write(path: Path, text: str, quiet: bool) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    if not quiet:
        print(f"wrote {path}")


def _write_outcome(cfg: RunConfig, outcome: dict, trace: list[dict]) -> None:
    """outcome.json and one JSON line per trace record in trace.jsonl."""
    out_dir = Path(cfg.out_dir)
    _write(out_dir / "outcome.json", json.dumps(outcome, indent=2, sort_keys=True) + "\n", cfg.quiet)
    lines = "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in trace)
    _write(out_dir / "trace.jsonl", lines, cfg.quiet)


def _say(cfg: RunConfig, message: str) -> None:
    if not cfg.quiet:
        print(message)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_gen(cfg: RunConfig) -> int:
    topology = _build_topology(cfg)
    out = Path(cfg.out_dir) / "topology.json"
    _write(out, topology.to_json(), cfg.quiet)
    _say(cfg, f"nodes: {len(topology.nodes)} links: {len(topology.links)}")
    return EXIT_OK


def cmd_coalition(cfg: RunConfig) -> int:
    topology = _build_topology(cfg)
    source, destination = _endpoints(cfg, topology)
    game = co.CoalitionGameConfig(source=source, destination=destination)
    if cfg.variant == "quantum":
        outcome = co.quantum_coalition_form(game, topology, gamma=cfg.gamma, seed=cfg.seed)
    else:
        outcome = co.classical_coalition_form(game, topology)
    _write_outcome(cfg, outcome.to_json_dict(), outcome.history)
    _say(
        cfg,
        f"path: {' -> '.join(map(str, outcome.path))}\n"
        f"coalition value: {outcome.stable_coalition.value:.6f} over "
        f"{len(outcome.stable_coalition.members)} members in {outcome.rounds} rounds",
    )
    return EXIT_OK


def cmd_consensus(cfg: RunConfig) -> int:
    if cfg.scenario != 2 and not cfg.topology_file:
        cfg.scenario = 2
    topology = _build_topology(cfg)
    source, destination = _endpoints(cfg, topology)
    outcome = cons.run_consensus(
        topology,
        source,
        destination,
        weights=cfg.weights(),
        variant=cfg.variant,
        seed=cfg.seed,
        sim_config=cfg.sim_config(sim.Regime.QUANTUM_GAME_QUANTUM_NET),
    )
    _write_outcome(cfg, outcome.to_json_dict(), outcome.trace)
    _say(
        cfg,
        f"path: {' -> '.join(map(str, outcome.path))}\n"
        f"total cost: {outcome.total_cost:.3f} fidelity: {outcome.end_to_end_fidelity:.6f} "
        f"converged: {outcome.converged} switches: {len(outcome.switches)}",
    )
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, kind: str) -> int:
    base = cfg.sim_config(sim.Regime.QUANTUM_GAME_QUANTUM_NET)
    if kind == "nodes":
        result = sim.sweep_nodes(base, cfg.node_counts, seed=cfg.seed, link_defaults=cfg.link_params())
    elif kind == "decoherence":
        result = sim.sweep_decoherence(base, cfg.rates, seed=cfg.seed)
    else:
        raise ParameterError(f"unknown sweep kind {kind!r}")
    out_dir = Path(cfg.out_dir)
    _write(out_dir / "sweep.csv", result.to_csv(), cfg.quiet)
    _write(out_dir / "sweep.json", result.to_json(), cfg.quiet)
    metric = "normalized_delay_us" if kind == "nodes" else "end_to_end_fidelity"
    for series in result.series:
        means = " ".join(
            f"{x:g}:{result.mean_of(x, series, metric):.4f}" for x in result.x_values
        )
        _say(cfg, f"{series} {metric}: {means}")
    return EXIT_OK


def cmd_chsh(cfg: RunConfig) -> int:
    classical, _ = q.chsh_classical_optimum()
    quantum = q.chsh_win_probability(q.QUANTUM_OPTIMAL)
    print(f"classical optimum (exhaustive over 16 deterministic strategies): {classical:.6f}")
    print(f"quantum optimum (density-matrix Bell-pair statistics):           {quantum:.6f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON config file; flags override its values")
    shared.add_argument("--seed", type=int, default=None)
    shared.add_argument("--out", help="output directory")
    shared.add_argument("--scenario", type=int, choices=(1, 2), default=None)
    shared.add_argument("--variant", choices=("classical", "quantum"), default=None)
    shared.add_argument("--gamma", type=float, default=None)
    shared.add_argument("--trials", type=int, default=None)
    shared.add_argument("--quiet", action="store_true")

    parser = argparse.ArgumentParser(
        prog="entangle-games",
        description="Entanglement-distribution games on fixed network topologies.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("gen", parents=[shared], help="generate and write a topology")
    commands.add_parser("coalition", parents=[shared], help="run the coalition game")
    commands.add_parser("consensus", parents=[shared], help="run the next-hop consensus game")
    sweep = commands.add_parser("sweep", parents=[shared], help="run a metric sweep")
    sweep.add_argument("--kind", choices=("nodes", "decoherence"), default="nodes")
    commands.add_parser("chsh", parents=[shared], help="print the CHSH win probabilities")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        if args.command == "gen":
            return cmd_gen(cfg)
        if args.command == "coalition":
            return cmd_coalition(cfg)
        if args.command == "consensus":
            return cmd_consensus(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.kind)
        if args.command == "chsh":
            return cmd_chsh(cfg)
        raise ParameterError(f"unknown command {args.command!r}")
    except ParameterError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UnreachableError as exc:
        print(f"infeasible scenario: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())
