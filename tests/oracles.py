"""Reference helpers that only the tests use: the builders' invariants, a
stability check for the classical game, the decoherence time law, the linear
cluster state, the identity rotation, a per-column trial aggregate, the
gate kernels and coin count that `quantum` used before `rotate` and `cdf_of`,
the referee's best response before it read only the paying outcomes, the
referee game's loop when it drew a double in every round, the node sweep's
per-regime path choice before it took the classical game's, and the
consensus game's helpers from when it copied each node's options into a
`ChoiceSet`. Those preserve the old game's every step: the order and
messages of its input checks (a node's live-link count, then its options'
costs; a link's cost where a path hop falls back on it), its hop scores and
its realized links' rescaled latencies."""

import itertools
import math
from dataclasses import dataclass

import networkx as nx
import numpy as np

from entangle_games import coalition as co
from entangle_games import consensus as cons
from entangle_games import quantum as q
from entangle_games import topology as topo
from entangle_games.errors import CapacityError, ParameterError, UnreachableError, check_seed
from entangle_games.topology import Link, LinkParams, NetworkTopology, NodeRole
from entangle_games.trial import METRIC_FIELDS, Regime

IDENTITY = q.SingleQubitUnitary(0.0, 0.0)

_ROLES = {
    topo.ScenarioTag.SCENARIO1: {topo.NodeRole.LEADER, topo.NodeRole.REPEATER, topo.NodeRole.END_NODE},
    topo.ScenarioTag.SCENARIO2: {topo.NodeRole.LEADER, topo.NodeRole.LEAF},
}


def assert_builder_invariants(t):
    """What every builder returns: the graph the CLI's input check accepts,
    only the roles its scenario allows, links whose latency is below their
    coherence, and in scenario 2 a forest with exactly one leader-leader
    link, whose choices sit off the leaders and offer two distinct hops."""
    assert topo._structure_errors(t) == []
    assert {n.role for n in t.nodes} <= _ROLES.get(t.scenario, set(topo.NodeRole))
    assert all(l.params.latency_us < l.params.coherence_us for l in t.links)
    if t.scenario is topo.ScenarioTag.SCENARIO2:
        leaders = {n.id for n in t.nodes if n.role is topo.NodeRole.LEADER}
        assert sum(l.endpoints() <= leaders for l in t.links) == 1
        assert nx.is_forest(t.graph())
        for node, opts in t.choices.items():
            assert node not in leaders and opts[0].next_hop != opts[1].next_hop


def stability_violations(model, partition):
    """Improving merges or splits still available; empty at a stable point."""
    out = []
    if co._find_merge(model, partition) is not None:
        out.append("an improving merge remains")
    if co._find_split(model, partition) is not None:
        out.append("an improving split remains")
    return out


def depolarizing_strength(rate, elapsed):
    """Channel strength accumulated by a decoherence rate over elapsed time.

    p = 1 - exp(-rate * elapsed); exponential decay is the time law of all
    per-link decoherence.
    """
    if rate < 0.0 or elapsed < 0.0:
        raise ParameterError("rate and elapsed time must be non-negative")
    return 1.0 - math.exp(-rate * elapsed)


def make_cluster_state(m, cz_phase=math.pi):
    """Linear cluster state on `m` qubits: |+>^m then CZ on each adjacent pair.

    `cz_phase` scales the entangling controlled-phase; pi gives the standard
    cluster state, 0 leaves the unentangled product state.
    """
    if not 2 <= m <= q.MAX_QUBITS:
        raise CapacityError(f"cluster state size {m} outside supported range 2..{q.MAX_QUBITS}")
    state = q.StateVector(np.full(2**m, 2 ** (-m / 2.0), dtype=complex))
    for i in range(m - 1):
        state = q.apply_controlled_phase(state, i, i + 1, cz_phase)
    return state


def list_aggregate(columns):
    """Reference aggregate: np.mean and np.std(ddof=1) of each metric column,
    in METRIC_FIELDS order, each column reduced on its own as a 1-D array."""
    columns = [np.array(column, dtype=float) for column in columns]
    if len(columns[0]) == 0:
        raise ParameterError("cannot aggregate an empty trial list")
    means, stds = {}, {}
    with np.errstate(over="ignore", invalid="ignore"):
        for f, column in zip(METRIC_FIELDS, columns, strict=True):
            means[f] = float(np.mean(column))
            stds[f] = float(np.std(column, ddof=1)) if len(column) > 1 else 0.0
    for f in METRIC_FIELDS:
        for stat, value in (("mean", means[f]), ("stddev", stds[f])):
            if not math.isfinite(value):
                raise ParameterError(
                    f"{f} {stat} is {value}: the configured times overflow the float range"
                )
    return means, stds


# ---------------------------------------------------------------------------
# `quantum` before its one gate kernel and outcome CDF, kept verbatim: the
# tensordot kernels of `apply_unitary` and `apply_channel`, and the
# accumulate-and-count draw of `coin_flip_consensus`
# ---------------------------------------------------------------------------


def _apply_matrix_vec(amps: np.ndarray, n: int, qubit: int, u: np.ndarray) -> np.ndarray:
    psi = amps.reshape((2,) * n)
    psi = np.tensordot(u, psi, axes=([1], [qubit]))
    psi = np.moveaxis(psi, 0, qubit)
    return np.ascontiguousarray(psi).reshape(-1)


def _apply_matrix_dm(rho: np.ndarray, n: int, qubit: int, u: np.ndarray) -> np.ndarray:
    # U rho U^dagger: act on the row index axis `qubit` and the conjugated
    # column index axis `n + qubit`.
    t = rho.reshape((2,) * (2 * n))
    t = np.tensordot(u, t, axes=([1], [qubit]))
    t = np.moveaxis(t, 0, qubit)
    t = np.tensordot(u.conj(), t, axes=([1], [n + qubit]))
    t = np.moveaxis(t, 0, n + qubit)
    return np.ascontiguousarray(t).reshape(rho.shape)


def counted_coin_flip(rng: np.random.Generator, angle: float) -> tuple[int, int, bool]:
    """`coin_flip_consensus` with its own accumulate-and-count draw."""
    q.check_angle(angle, "angle")
    same, differ = math.cos(angle) ** 2 / 2.0, math.sin(angle) ** 2 / 2.0
    cdf = list(itertools.accumulate((same, differ, differ, same)))
    draw = rng.random()
    outcome = sum(step / cdf[-1] <= draw for step in cdf)
    bit_a, bit_b = outcome >> 1, outcome & 1
    return bit_a, bit_b, bit_a == bit_b


# ---------------------------------------------------------------------------
# the referee game's best response over the full played state
# ---------------------------------------------------------------------------


def full_state_best_response(engine, player_index: int, amps: np.ndarray, own: int) -> int:
    """`_QuantumRound.best_response` before it gathered its form on the
    paying outcomes only, verbatim: it un-rotates the player's qubit in the
    whole state `amps`, transposes it, and contracts all 2**(m - 1) columns
    of the player's bit-1 half against its shares, zeros included."""
    shape = (2**player_index, 2, -1)
    psi = q.rotate(amps, player_index, co.GRID_MATRICES[own].conj().T).reshape(shape)
    psi = psi.transpose(1, 0, 2).reshape(2, -1)
    w = engine.share.reshape(shape)[:, 1].reshape(-1)
    form = (psi * w) @ psi.conj().T
    scores = (co._JOIN_ROWS @ form.reshape(-1)).real.tolist()
    tol = co._tolerance(*scores)
    best = 0
    for k, val in enumerate(scores):
        if val > scores[best] + tol:
            best = k
    return best


# ---------------------------------------------------------------------------
# the referee game's loop when it drew in every round
# ---------------------------------------------------------------------------


def per_round_draw_quantum_coalition_form(cfg, topology, gamma=math.pi / 2.0, seed=0, model=None):
    """`coalition.quantum_coalition_form` when it made `default_rng(seed)`
    up front and drew one double in every round, certain or not, verbatim
    but for reading each engine round's (profile, CDF) and its module's
    names. Round limits are read from `coalition`, as the game reads them."""
    check_seed(seed)
    model = model or co.ValueModel(cfg, topology)
    engine = model.referee_rounds.get(gamma)
    if engine is None:
        players = tuple(model.candidate_nodes())
        if len(players) > q.MAX_QUBITS:
            raise CapacityError(f"{len(players)} candidate players exceed {q.MAX_QUBITS}")
        engine = model.referee_rounds[gamma] = co._QuantumRound(model, players, gamma)
    m = len(engine.players)
    draw = np.random.default_rng(seed).random
    history: list[dict] = []
    # (value, outcome) of the best-valued outcome seen that holds a path
    best_seen: tuple[float, int] | None = None
    last, streak = None, 0
    stable: int | None = None
    rounds = 0

    for rounds in range(1, co.MAX_ROUNDS + 1):
        profile, cdf = engine.round(rounds - 1)[:2]
        # one uniform searched in the outcome CDF, as Generator.choice(n,
        # p=table) and q.measure_computational draw
        outcome = int(cdf.searchsorted(draw(), side="right"))
        outcome_bits, members, _, value, path = engine.outcome(outcome)
        history.append(
            {
                "round": rounds,
                "strategies": engine.strategies(profile),
                "outcome": outcome_bits,
                "members": list(members),
                "value": value,
            }
        )
        # the plain comparison spares most rounds working out the tolerance
        if path is not None and (
            best_seen is None
            or value > best_seen[0] and value > best_seen[0] + co._tolerance(value, best_seen[0])
        ):
            best_seen = (value, outcome)
        streak = streak + 1 if outcome == last else 1
        last = outcome
        if streak >= co.CONFIRM_WINDOW:
            stable = outcome
            break

    if stable is not None and engine.paths[stable] is not None:
        chosen = stable
    elif best_seen is not None:
        chosen = best_seen[1]
    else:
        # the profile the last best response left: none follows a
        # confirmed round
        marginals = engine.join_marginals(rounds if stable is None else rounds - 1)
        # grid strategies give marginals of exactly 1/2 up to rounding
        chosen = sum(1 << (m - 1 - i) for i in range(m) if marginals[i] >= 0.5 - co.STRICT_EPS)
        if engine.paths[chosen] is None:
            chosen = 2**m - 1  # the grand coalition

    _, _, members, value, path = engine.outcome(chosen)
    coalition = co.Coalition(members, value)
    return co.CoalitionOutcome(
        stable_coalition=coalition,
        path=list(path),
        per_node_payoff=model.split_payoffs(coalition),
        rounds=rounds,
        history=history,
        referee=co.find_referee(topology, cfg.source),
    )


# ---------------------------------------------------------------------------
# the node sweep's path choice per regime
# ---------------------------------------------------------------------------


def per_regime_select_path(topology, source, destination, regime, seed, player_count):
    """`simulation.select_path` when it chose a path per regime, verbatim but
    for its no-game branch, which asks networkx for the hop-shortest path: a
    lone listed path unplayed where a game would return it, the quantum game
    for more than two players within the qubit cap, else the classical game.
    The node sweep called it with seed parts [seed, xi, ri] and the count as
    `player_count`."""
    if regime is Regime.NO_GAME_CLASSICAL_NET:
        try:
            return nx.shortest_path(topology.graph(), source, destination)
        except nx.NetworkXNoPath:
            raise UnreachableError(f"no path between {source} and {destination}") from None
    cfg = co.CoalitionGameConfig(source=source, destination=destination)
    quantum = (
        regime is Regime.QUANTUM_GAME_QUANTUM_NET
        and 2 < player_count
        and player_count + 2 <= q.MAX_QUBITS
    )
    if quantum:
        check_seed(seed)  # the game checks the seed before its path table
    model = co.ValueModel(cfg, topology)
    if len(model.paths) == 1:
        _, score, path = model.paths[0]
        if (len(path) <= q.MAX_QUBITS) if quantum else (score > co._tolerance(score)):
            return list(path)
    if quantum:
        return co.quantum_coalition_form(cfg, topology, seed=seed, model=model).path
    return co.classical_coalition_form(cfg, topology, model).path


# ---------------------------------------------------------------------------
# `consensus` when each node's state was a `ChoiceSet` that copied its two
# options' costs and payoffs into `HopEstimate`s, kept verbatim but for
# `check_weights`' module
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HopEstimate:
    latency_cost: float
    fidelity_payoff: float

    def __post_init__(self) -> None:
        if not self.latency_cost > 0:
            raise ParameterError(f"latency_cost must be > 0, got {self.latency_cost}")
        if not 0.0 <= self.fidelity_payoff <= 1.0:
            raise ParameterError(f"fidelity_payoff must be in [0, 1], got {self.fidelity_payoff}")


@dataclass(frozen=True)
class ChoiceSet:
    """One node's two-way choice and its currently selected next hop."""

    node: int
    options: tuple[int, int]
    estimates: tuple[HopEstimate, HopEstimate]
    current: int

    def __post_init__(self) -> None:
        if self.options[0] == self.options[1]:
            raise ParameterError(f"node {self.node}: choice options must be distinct")
        if self.current not in self.options:
            raise ParameterError(f"node {self.node}: current hop {self.current} not among options")

    def estimate_for(self, hop: int) -> HopEstimate:
        return self.estimates[self.options.index(hop)]

    def alternative(self) -> int:
        return self.options[1] if self.current == self.options[0] else self.options[0]


def hop_utility(est: HopEstimate, weights: tuple[float, float], cost_scale: float) -> float:
    """w_f * fidelity_payoff - w_c * latency_cost / cost_scale.

    `cost_scale` is the maximum cost in the node's choice set, which maps the
    cost term onto [0, 1] and makes it commensurable with the fidelity term.
    """
    cons.check_weights(weights)
    w_f, w_c = weights
    if not cost_scale > 0:
        raise ParameterError(f"cost_scale must be > 0, got {cost_scale}")
    return w_f * est.fidelity_payoff - w_c * est.latency_cost / cost_scale


def choice_state(topology: NetworkTopology) -> dict[int, ChoiceSet]:
    """Initial per-node choices; the current hop is the one with a live link."""
    state: dict[int, ChoiceSet] = {}
    for node_id, (opt_a, opt_b) in sorted(topology.choices.items()):
        linked = [o.next_hop for o in (opt_a, opt_b) if topology.link_between(node_id, o.next_hop)]
        if len(linked) != 1:
            raise ParameterError(
                f"node {node_id}: expected exactly one live option link, found {len(linked)}"
            )
        state[node_id] = ChoiceSet(
            node=node_id,
            options=(opt_a.next_hop, opt_b.next_hop),
            estimates=(
                HopEstimate(opt_a.cost, opt_a.payoff),
                HopEstimate(opt_b.cost, opt_b.payoff),
            ),
            current=linked[0],
        )
    return state


def _creates_cycle(state: dict[int, ChoiceSet], node: int, new_hop: int) -> bool:
    """Would pointing `node` at `new_hop` loop the next-hop chain?"""
    seen = {node}
    cursor = new_hop
    while cursor in state:
        if cursor in seen:
            return True
        seen.add(cursor)
        cursor = state[cursor].current
    return False


def _chain_to_leader(state: dict[int, ChoiceSet], start: int, topology: NetworkTopology) -> list[int]:
    chain = [start]
    cursor = start
    while topology.nodes[cursor].role is not NodeRole.LEADER:
        if cursor in state:
            cursor = state[cursor].current
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
    state: dict[int, ChoiceSet], topology: NetworkTopology, source: int, destination: int
) -> list[int]:
    """Source chain up to its leader, across the trunk, down to the destination."""
    up = _chain_to_leader(state, source, topology)
    down = _chain_to_leader(state, destination, topology)
    if up[-1] == down[-1]:
        raise ParameterError("source and destination resolve to the same leader")
    if topology.link_between(up[-1], down[-1]) is None:
        raise UnreachableError(f"leaders {up[-1]} and {down[-1]} share no link")
    return up + list(reversed(down))


def realize_topology(topology: NetworkTopology, state: dict[int, ChoiceSet]) -> NetworkTopology:
    """Topology with every choosing node's link moved onto its current hop.

    A switch removes the old option's link and adds the new one; the new
    link inherits the old link's physical parameters with its latency rescaled
    by the same cost-to-microseconds ratio the old link used.
    """
    links = {l.endpoints(): l for l in topology.links}
    for node, cs in state.items():
        old_hop = cs.alternative()
        old_key = frozenset((node, old_hop))
        new_key = frozenset((node, cs.current))
        if new_key in links:
            continue
        if old_key not in links:
            raise ParameterError(f"node {node}: neither option link exists to move")
        old_link = links.pop(old_key)
        est = cs.estimate_for(cs.current)
        old = old_link.params
        ratio = old.latency_us / old_link.cost if old_link.cost > 0 else 1.0
        latency = max(est.latency_cost * ratio, 1e-9)
        params = LinkParams(latency, old.coherence_us, old.decoherence_rate, old.gen_prob)
        links[new_key] = Link(node, cs.current, params, est.latency_cost, est.fidelity_payoff)
    return NetworkTopology(topology.nodes, tuple(links.values()), topology.scenario, topology.choices)


def path_cost_and_payoff(
    state: dict[int, ChoiceSet], topology: NetworkTopology, path: list[int]
) -> tuple[float, float]:
    """Sum of hop costs and product of hop fidelity payoffs along a path."""
    total, fidelity = 0.0, 1.0
    for a, b in zip(path, path[1:]):
        if a in state and b in state[a].options:
            est = state[a].estimate_for(b)
        elif b in state and a in state[b].options:
            est = state[b].estimate_for(a)
        else:
            link = topology.link_between(a, b)
            if link is None:
                raise UnreachableError(f"path hop {a}-{b} has no link or choice")
            est = HopEstimate(link.cost, link.payoff)
        total += est.latency_cost
        fidelity *= est.fidelity_payoff
    return total, fidelity
