"""Two-way next-hop consensus over the tree network.

Every non-leader node owns a choice between exactly two uplink candidates,
each carrying a latency cost and a fidelity payoff. The options live only in
`topology.choices`, which no game changes; the game's state is the map
{choosing node: its current next hop}. Rounds evaluate every node on its own
two options and apply switches in ascending node order; a switch that would
loop the next-hop pointer chain is blocked and recorded.

Both variants switch on strict utility improvement. The quantum variant also
settles utility ties with a shared-Bell-pair coin flip (both parties record
the same bit); on tie-free fixtures the two variants behave identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import quantum as q
from .errors import ParameterError, UnreachableError, check_seed
from .topology import ChoiceOption, Link, LinkParams, NetworkTopology, NodeRole, connected_components
from .trial import SimConfig, run_trial

TIE_EPSILON = 1e-6


@dataclass(frozen=True)
class SwitchRecord:
    node: int
    from_hop: int
    to_hop: int
    d_cost: float
    d_payoff: float

    def to_json_dict(self) -> dict:
        return {
            "node": self.node,
            "from": self.from_hop,
            "to": self.to_hop,
            "d_cost": self.d_cost,
            "d_payoff": self.d_payoff,
        }


@dataclass
class ConsensusOutcome:
    """A finished consensus game. `end_to_end_fidelity` is one distribution
    trial of `path` on `realized_topology` under `sim_config` (default
    SimConfig()), drawn from `default_rng([seed, 0xC0F1])`; it runs when the
    property is first read, and later reads return the same value."""

    path: list[int]
    switches: list[SwitchRecord]
    total_cost: float
    converged: bool
    rounds: int = 0
    tie_events: list[dict] = field(default_factory=list)
    blocked: list[dict] = field(default_factory=list)
    trace: list[dict] = field(default_factory=list)
    realized_topology: NetworkTopology | None = None
    seed: int = 0
    sim_config: SimConfig | None = None

    @cached_property
    def end_to_end_fidelity(self) -> float:
        rng = np.random.default_rng([self.seed, 0xC0F1])
        trial = run_trial(self.realized_topology, self.path, self.sim_config or SimConfig(), rng)
        return trial.end_to_end_fidelity

    def to_json_dict(self) -> dict:
        return {
            "path": list(self.path),
            "switches": [s.to_json_dict() for s in self.switches],
            "total_cost": self.total_cost,
            "end_to_end_fidelity": self.end_to_end_fidelity,
            "converged": self.converged,
            "rounds": self.rounds,
            "tie_events": list(self.tie_events),
            "blocked": list(self.blocked),
        }


def check_weights(weights: tuple[float, float]) -> None:
    """(fidelity, cost) utility weights must be finite, non-negative and not
    both zero."""
    w_f, w_c = weights
    if not (0 <= w_f < math.inf and 0 <= w_c < math.inf) or w_f == w_c == 0:
        raise ParameterError(f"weights must be finite, non-negative and not both zero, got {weights}")


def hop_utility(option: ChoiceOption, weights: tuple[float, float], cost_scale: float) -> float:
    """w_f * payoff - w_c * cost / cost_scale.

    `cost_scale` is the larger cost of the node's two options, which maps the
    cost term onto [0, 1] and makes it commensurable with the fidelity term.
    """
    check_weights(weights)
    w_f, w_c = weights
    if not cost_scale > 0:
        raise ParameterError(f"cost_scale must be > 0, got {cost_scale}")
    return w_f * option.payoff - w_c * option.cost / cost_scale


def _check_cost(cost: float) -> None:
    # a hop's cost is its latency and scales the utility's cost term
    if not cost > 0:
        raise ParameterError(f"latency_cost must be > 0, got {cost}")


def choice_state(topology: NetworkTopology) -> dict[int, int]:
    """Each choosing node's initial next hop: the option with a live link."""
    state: dict[int, int] = {}
    for node_id, options in sorted(topology.choices.items()):
        linked = [o.next_hop for o in options if topology.link_between(node_id, o.next_hop)]
        if len(linked) != 1:
            raise ParameterError(
                f"node {node_id}: expected exactly one live option link, found {len(linked)}"
            )
        for o in options:
            _check_cost(o.cost)
        state[node_id] = linked[0]
    return state


def utility_table(
    choices: dict[int, tuple[ChoiceOption, ChoiceOption]], weights
) -> dict[int, tuple[float, float]]:
    """Each node's utility of its first and of its second option. A node's
    options never change, so one table serves every round of a game."""
    table = {}
    for node, options in choices.items():
        scale = max(o.cost for o in options)
        table[node] = tuple(hop_utility(o, weights, scale) for o in options)
    return table


def _creates_cycle(state: dict[int, int], node: int, new_hop: int) -> bool:
    """Would pointing `node` at `new_hop` loop the next-hop chain?"""
    seen = {node}
    cursor = new_hop
    while cursor in state:
        if cursor in seen:
            return True
        seen.add(cursor)
        cursor = state[cursor]
    return False


def consensus_round(
    state: dict[int, int],
    choices: dict[int, tuple[ChoiceOption, ChoiceOption]],
    utilities: dict[int, tuple[float, float]],
    rng: np.random.Generator | None = None,
    settled: set[int] | None = None,
) -> tuple[dict[int, int], list[SwitchRecord], list[dict], list[dict]]:
    """One simultaneous-decision round: every node decides between its two
    `choices`, scored in `utilities` (the game's `utility_table`), and the
    moves commit in ascending node order.

    A node switches iff its alternative hop has strictly higher utility. With
    `rng` (the quantum round), utilities within TIE_EPSILON are a tie, settled
    by a shared coin between the node and its candidate hop; both parties see
    the same bit (bit 1 = take the alternative). A settled tie is final: nodes
    in `settled` (updated in place) hold their hop in later rounds, so the
    rounds still reach a fixed point. A move that would loop the next-hop
    chain is blocked. Returns (new state, switches, tie events, blocked
    moves); coin-settled moves appear in the tie events, not in the switches.
    """
    settled = settled if settled is not None else set()
    new_state = dict(state)
    switches: list[SwitchRecord] = []
    ties: list[dict] = []
    blocked: list[dict] = []
    for node in sorted(state):
        current = state[node]
        i = 0 if choices[node][0].next_hop == current else 1  # the current option's index
        taken, other = choices[node][i], choices[node][1 - i]
        cur, alt = utilities[node][i], utilities[node][1 - i]
        tie = rng is not None and abs(alt - cur) <= TIE_EPSILON
        if tie:
            if node in settled:
                continue
            bit_a, bit_b, agree = q.coin_flip_consensus(rng, 0.0)
            settled.add(node)
            target = other.next_hop if bit_a == 1 else current
            ties.append(
                {"node": node, "bit_node": bit_a, "bit_hop": bit_b, "agree": agree,
                 "chosen": target}
            )
            if target == current:
                continue
        elif alt > cur:
            target = other.next_hop
        else:
            continue
        if _creates_cycle(new_state, node, target):
            blocked.append({"node": node, "to": target, "reason": "cycle"})
            continue
        if not tie:
            switches.append(SwitchRecord(
                node, current, target, other.cost - taken.cost, other.payoff - taken.payoff
            ))
        new_state[node] = target
    return new_state, switches, ties, blocked


# ---------------------------------------------------------------------------
# full run
# ---------------------------------------------------------------------------


def _tree_components(topology: NetworkTopology):
    leader = {n.id for n in topology.nodes if n.role is NodeRole.LEADER}
    trees = {
        u: [v for v in nbrs if not (u in leader and v in leader)]
        for u, nbrs in topology.adjacency.items()
    }
    return connected_components(trees)


def _chain_to_leader(state: dict[int, int], start: int, topology: NetworkTopology) -> list[int]:
    chain = [start]
    cursor = start
    while topology.nodes[cursor].role is not NodeRole.LEADER:
        if cursor in state:
            cursor = state[cursor]
        else:
            # choice-less node (single-leaf tree): follow its only uplink
            ups = list(topology.adjacency[cursor])
            if len(ups) != 1:
                raise UnreachableError(
                    f"node {cursor} has no choice set and {len(ups)} links; uplink ambiguous"
                )
            cursor = ups[0]
        if cursor in chain:
            raise ParameterError(f"next-hop links loop at node {cursor}")
        chain.append(cursor)
    return chain


def current_path(
    state: dict[int, int], topology: NetworkTopology, source: int, destination: int
) -> list[int]:
    """Source chain up to its leader, across the trunk, down to the destination."""
    up = _chain_to_leader(state, source, topology)
    down = _chain_to_leader(state, destination, topology)
    if up[-1] == down[-1]:
        raise ParameterError("source and destination resolve to the same leader")
    if topology.link_between(up[-1], down[-1]) is None:
        raise UnreachableError(f"leaders {up[-1]} and {down[-1]} share no link")
    return up + list(reversed(down))


def realize_topology(topology: NetworkTopology, state: dict[int, int]) -> NetworkTopology:
    """Topology with every choosing node's link moved onto its current hop.

    A switch removes the old option's link and adds the new one; the new
    link inherits the old link's physical parameters with its latency rescaled
    by the same cost-to-microseconds ratio the old link used.
    """
    links = {l.endpoints(): l for l in topology.links}
    for node, hop in state.items():
        new_key = frozenset((node, hop))
        if new_key in links:
            continue
        first, second = topology.choices[node]
        taken, other = (first, second) if hop == first.next_hop else (second, first)
        old_key = frozenset((node, other.next_hop))
        if old_key not in links:
            raise ParameterError(f"node {node}: neither option link exists to move")
        old_link = links.pop(old_key)
        old = old_link.params
        ratio = old.latency_us / old_link.cost if old_link.cost > 0 else 1.0
        latency = max(taken.cost * ratio, 1e-9)
        params = LinkParams(latency, old.coherence_us, old.decoherence_rate, old.gen_prob)
        links[new_key] = Link(node, hop, params, taken.cost, taken.payoff)
    return NetworkTopology(topology.nodes, tuple(links.values()), topology.scenario, topology.choices)


def path_cost_and_payoff(topology: NetworkTopology, path: list[int]) -> tuple[float, float]:
    """Sum of hop costs and product of hop fidelity payoffs along a path; a
    hop takes the weights of an option of either end, else of its link."""
    total, fidelity = 0.0, 1.0
    for a, b in zip(path, path[1:]):
        options = [o for o in topology.choices.get(a, ()) if o.next_hop == b]
        options += [o for o in topology.choices.get(b, ()) if o.next_hop == a]
        if options:
            hop = options[0]
        else:
            hop = topology.link_between(a, b)
            if hop is None:
                raise UnreachableError(f"path hop {a}-{b} has no link or choice")
            _check_cost(hop.cost)
        total += hop.cost
        fidelity *= hop.payoff
    return total, fidelity


def run_consensus(
    topology: NetworkTopology,
    source: int,
    destination: int,
    weights: tuple[float, float] = (1.0, 1.0),
    variant: str = "classical",
    seed: int = 0,
    sim_config: SimConfig | None = None,
) -> ConsensusOutcome:
    """Iterate consensus rounds until a fixed point, at most 2 * |nodes| of
    them, then score the path.

    `variant` is "classical" or "quantum" (ties settled by the seeded shared
    coin). Each choosing node's two hops are scored once per game. The
    end-to-end fidelity of the converged path comes from one distribution
    trial of the `trial` module under `sim_config` (default SimConfig()),
    drawn from `default_rng([seed, 0xC0F1])`; it runs when the outcome's
    `end_to_end_fidelity` is first read, with that generator and so the same
    value. The per-round trace carries the static product-of-payoffs proxy
    instead, which needs no sampling.
    """
    if variant not in ("classical", "quantum"):
        raise ParameterError(f"unknown variant {variant!r}")
    check_seed(seed)
    check_weights(weights)
    for endpoint in (source, destination):
        if not 0 <= endpoint < len(topology.nodes):
            raise ParameterError(f"node {endpoint} not in topology")
        if topology.nodes[endpoint].role is NodeRole.LEADER:
            raise ParameterError(f"node {endpoint} is a leader; endpoints must be leaves")
    comp_of = {n: i for i, comp in enumerate(_tree_components(topology)) for n in comp}
    if comp_of[source] == comp_of[destination]:
        raise ParameterError("source and destination must sit in different trees")

    state = choice_state(topology)
    utilities = utility_table(topology.choices, weights)
    rng = np.random.default_rng(seed) if variant == "quantum" else None

    switches: list[SwitchRecord] = []
    tie_events: list[dict] = []
    blocked: list[dict] = []
    trace: list[dict] = []
    settled: set[int] = set()
    converged = False
    # at least one round runs: the endpoints are two distinct nodes
    for rounds in range(1, 2 * len(topology.nodes) + 1):
        state, new_switches, new_ties, new_blocked = consensus_round(
            state, topology.choices, utilities, rng, settled
        )
        blocked.extend(new_blocked)
        switches.extend(new_switches)
        tie_events.extend({"round": rounds, **t} for t in new_ties)
        path = current_path(state, topology, source, destination)
        total_cost, proxy = path_cost_and_payoff(topology, path)
        trace.append(
            {
                "round": rounds,
                "switches": [s.to_json_dict() for s in new_switches],
                "total_cost": total_cost,
                "fidelity": proxy,
            }
        )
        if not new_switches and not new_ties:
            converged = True
            break

    return ConsensusOutcome(
        path=path,
        switches=switches,
        total_cost=total_cost,
        converged=converged,
        rounds=rounds,
        tie_events=tie_events,
        blocked=blocked,
        trace=trace,
        realized_topology=realize_topology(topology, state),
        seed=seed,
        sim_config=sim_config,
    )
