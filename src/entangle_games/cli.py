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
import functools
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
        "link": topo.LINK_PARAMS,
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

    def validate(self) -> None:
        if self.scenario not in (1, 2):
            raise ParameterError(f"scenario must be 1 or 2, got {self.scenario}")
        if self.variant not in ("classical", "quantum"):
            raise ParameterError(f"variant must be classical or quantum, got {self.variant!r}")
        check_seed(self.seed)
        q.check_angle(self.gamma)
        cons.check_weights(self.weights())
        self.link_params()  # raises with the offending field named
        topo.LinkModelParams(self.mu, self.lam, self.delta)

    def link_params(self) -> topo.LinkParams:
        return topo.LinkParams(**{name: getattr(self, name) for name in topo.LINK_PARAMS})

    def sim_config(self) -> sim.SimConfig:
        """Trial settings, in the quantum-game, quantum-net regime."""
        return sim.SimConfig(
            sync_step_us=self.sync_step_us,
            qubit_lifetime_us=self.qubit_lifetime_us,
            trials=self.trials,
            regime=sim.Regime.QUANTUM_GAME_QUANTUM_NET,
        )

    def weights(self) -> tuple[float, float]:
        return (self.weight_fidelity, self.weight_cost)


def load_config(args: argparse.Namespace) -> RunConfig:
    """The run's settings: the config file's keys, each flag the command was
    given in place of its key, typed and validated once by from_dict."""
    doc = {}
    if args.config:
        doc = _read_json(args.config, "config file")
        if not isinstance(doc, dict):
            raise ParameterError("config file must hold a JSON object")
    _, _, keys = _COMMANDS[args.command]
    flags = {"out_dir": args.out, "quiet": args.quiet, **{key: getattr(args, key) for key in keys}}
    doc.update((key, value) for key, value in flags.items() if value is not None)
    if args.command == "consensus" and not doc.get("topology_file"):
        # consensus plays the scenario-2 network unless given a topology file
        if doc.setdefault("scenario", 2) != 2:
            raise ParameterError(
                f"config key scenario must be 2 for consensus, got {doc['scenario']!r}"
            )
    return RunConfig.from_dict(doc)


# ---------------------------------------------------------------------------
# topology plumbing
# ---------------------------------------------------------------------------


def _build_topology(cfg: RunConfig) -> topo.NetworkTopology:
    if cfg.topology_file:
        return topo.NetworkTopology.from_json_dict(_read_json(cfg.topology_file, "topology_file"))
    if cfg.scenario == 1:
        return topo.build_scenario1(
            cfg.n_leaders,
            cfg.end_nodes_per_leader,
            cfg.repeaters_per_pair,
            link_defaults=cfg.link_params(),
            model=topo.LinkModelParams(cfg.mu, cfg.lam, cfg.delta),
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
    if cfg.source is not None or cfg.destination is not None:
        missing, given = ("source", "destination") if cfg.source is None else ("destination", "source")
        raise ParameterError(f"config key {missing} is required with {given}")
    if cfg.topology_file:
        raise ParameterError("source and destination are required with topology_file")
    if cfg.scenario == 1:
        # first end-node of the first two leaders
        n, m = cfg.n_leaders, cfg.end_nodes_per_leader
        return n, n + m
    if cfg.tree_sizes is None:
        return 1, 8  # canonical fixture demo pair
    return 1, cfg.tree_sizes[0] + 2  # first leaves of the two trunk trees


def _write(cfg: RunConfig, files: dict[str, str]) -> None:
    """A command's files, name to text, in order under cfg.out_dir, which is
    made once. A directory or file that cannot be written is a configuration
    error that names it."""
    path = out_dir = Path(cfg.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            path = out_dir / name
            path.write_text(text)
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc.strerror}") from exc
    for name in files:
        _say(cfg, f"wrote {out_dir / name}")


def _game_files(outcome: dict, trace: list[dict]) -> dict[str, str]:
    """A game's outcome.json and one JSON line per trace record in trace.jsonl."""
    return {
        "outcome.json": json.dumps(outcome, indent=2, sort_keys=True) + "\n",
        "trace.jsonl": "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in trace),
    }


def _say(cfg: RunConfig, message: str) -> None:
    if not cfg.quiet:
        print(message)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_gen(cfg: RunConfig) -> int:
    topology = _build_topology(cfg)
    _write(cfg, {"topology.json": topology.to_json()})
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
    _write(cfg, _game_files(outcome.to_json_dict(), outcome.history))
    _say(
        cfg,
        f"path: {' -> '.join(map(str, outcome.path))}\n"
        f"coalition value: {outcome.stable_coalition.value:.6f} over "
        f"{len(outcome.stable_coalition.members)} members in {outcome.rounds} rounds",
    )
    return EXIT_OK


def cmd_consensus(cfg: RunConfig) -> int:
    topology = _build_topology(cfg)
    source, destination = _endpoints(cfg, topology)
    outcome = cons.run_consensus(
        topology,
        source,
        destination,
        weights=cfg.weights(),
        variant=cfg.variant,
        seed=cfg.seed,
        sim_config=cfg.sim_config(),
    )
    _write(cfg, _game_files(outcome.to_json_dict(), outcome.trace))
    _say(
        cfg,
        f"path: {' -> '.join(map(str, outcome.path))}\n"
        f"total cost: {outcome.total_cost:.3f} fidelity: {outcome.end_to_end_fidelity:.6f} "
        f"converged: {outcome.converged} switches: {len(outcome.switches)}",
    )
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, kind: str) -> int:
    base = cfg.sim_config()
    if kind == "nodes":
        result = sim.sweep_nodes(base, cfg.node_counts, seed=cfg.seed, link_defaults=cfg.link_params())
    else:
        result = sim.sweep_decoherence(base, cfg.rates, seed=cfg.seed)
    _write(cfg, {"sweep.csv": result.to_csv(), "sweep.json": result.to_json()})
    if cfg.quiet:
        return EXIT_OK
    metric = "normalized_delay_us" if kind == "nodes" else "end_to_end_fidelity"
    for series in result.series:
        means = " ".join(
            f"{x:g}:{result.mean_of(x, series, metric):.4f}" for x in result.x_values
        )
        print(f"{series} {metric}: {means}")
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


# each command's function, help and the config keys it takes as flags; every
# command also takes --config, --out and --quiet, and sweep takes --kind
_COMMANDS = {
    "gen": (cmd_gen, "generate and write a topology", ("seed", "scenario")),
    "coalition": (cmd_coalition, "run the coalition game", ("seed", "scenario", "variant", "gamma")),
    "consensus": (cmd_consensus, "run the next-hop consensus game", ("seed", "variant")),
    "sweep": (cmd_sweep, "run a metric sweep", ("seed", "trials")),
    "chsh": (cmd_chsh, "print the CHSH win probabilities", ()),
}

_FLAGS = {
    "seed": {"type": int},
    "scenario": {"type": int, "choices": (1, 2)},
    "variant": {"choices": ("classical", "quantum")},
    "gamma": {"type": float},
    "trials": {"type": int},
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing never changes it."""
    parser = argparse.ArgumentParser(
        prog="entangle-games",
        description="Entanglement-distribution games on fixed network topologies.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, keys) in _COMMANDS.items():
        command = commands.add_parser(name, help=help_text)
        command.add_argument("--config", help="JSON config file; flags override its values")
        command.add_argument("--out", help="output directory")
        command.add_argument("--quiet", action="store_true", default=None)
        for key in keys:
            command.add_argument(f"--{key}", **_FLAGS[key])
        if name == "sweep":
            command.add_argument("--kind", choices=("nodes", "decoherence"), default="nodes")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        run, _, _ = _COMMANDS[args.command]
        return run(cfg, args.kind) if args.command == "sweep" else run(cfg)
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
