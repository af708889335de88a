"""Coalition formation for an entangled source-to-destination path.

Classical variant: merge-and-split over candidate node coalitions, accepting
any merge (pairwise or wider) or two-way split that strictly increases the
combined characteristic value of the coalitions involved. The search tries
only moves that can pay: merges of groups that are unions of path covers
(the coalitions meeting one listed path's nodes), and splits of coalitions
worth less than -STRICT_EPS; it returns the same first improving move as an
exhaustive search in the same order. Quantum variant:
the referee (the leader next to the source) prepares an entangled multi-party
state, each player rotates its own qubit, and the measured bitstring selects
the candidate coalition; strategies evolve by discretized best response until
CONFIRM_WINDOW rounds in a row measure one coalition, for at most MAX_ROUNDS
rounds. A best response scores the whole 9x9 rotation grid at once, as a 2x2
Hermitian form gathered from the played amplitudes on the paying outcomes
where the player joins: outsiders receive nothing, so no other outcome scores.
The players are the candidate nodes, and every game starts from the all-join
profile. No best response reads a measured outcome, so every game walks one
strategy trajectory: round r + 1 plays round r's profile with player r mod m's
strategy replaced by its best response, and the seed only picks which outcomes
are drawn. A ValueModel keeps one referee engine per gamma, which extends the
trajectory as far as the games that share it play, keeping each round's
profile and outcome CDF, which a draw searches as Generator.choice would.
Round r + 1 depends only on round r's profile and r mod m, so once such a
pair recurs the trajectory repeats the cycle it closes and the engine plays
no more best responses; a grid Nash equilibrium is a cycle of m rounds. Every
coalition the game reports is an outcome (drawn, decoded or grand), so the
engine scores all outcomes in one vectorized pass over the path table, into
one table by outcome (value, path, member share) and, per player, the paying
outcomes where it joins, the only ones its best responses read. It keeps the
amplitudes of the last round: the next round's profile, at most one player's
strategy away, is at most one rotation from it, and a best response gathers
them on its paying outcomes and undoes its own rotation on the 2x2 form.

The characteristic value of a node set combines the three routing objectives:
rate capped at the target throughput, plus path fidelity, minus a per-hop
operation cost. A coalition's members split its value equally; outsiders
receive nothing and cannot tax the coalition, so payoffs always sum to the
coalition value. Ties between values are decided with a tolerance of
STRICT_EPS relative to their magnitude (absolute below 1), so that rounding
noise never picks among points that tie exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from . import quantum as q
from .errors import CapacityError, ParameterError, UnreachableError, check_seed
from .topology import NetworkTopology, NodeRole, simple_paths

STRICT_EPS = 1e-12
MAX_PATHS = 10_000
MAX_ROUNDS = 60
CONFIRM_WINDOW = 3


def _tolerance(*values: float) -> float:
    """Tie tolerance between compared values: STRICT_EPS, scaled by the
    largest magnitude above 1, so rounding noise never decides a tie."""
    return STRICT_EPS * max(1.0, *map(abs, values))


@dataclass(frozen=True)
class Coalition:
    members: frozenset[int]
    value: float


@dataclass(frozen=True)
class CoalitionGameConfig:
    source: int
    destination: int
    target_throughput: float = 1000.0  # e-bits per second
    hop_cost: float = 0.05

    def __post_init__(self) -> None:
        if self.source == self.destination:
            raise ParameterError("source and destination must differ")
        if not self.target_throughput > 0:
            raise ParameterError(f"target_throughput must be > 0, got {self.target_throughput}")
        if self.hop_cost < 0:
            raise ParameterError(f"hop_cost must be >= 0, got {self.hop_cost}")


@dataclass
class CoalitionOutcome:
    stable_coalition: Coalition
    path: list[int]
    per_node_payoff: dict[int, float]
    rounds: int
    history: list[dict] = field(default_factory=list)
    referee: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "members": sorted(self.stable_coalition.members),
            "value": self.stable_coalition.value,
            "path": list(self.path),
            "per_node_payoff": {str(k): v for k, v in sorted(self.per_node_payoff.items())},
            "rounds": self.rounds,
            "referee": self.referee,
        }


def link_rate(link) -> float:
    """Entanglement rate of one link in e-bits per second.

    Attempts are paced by the link round-trip, so the rate is the success
    probability per attempt divided by the latency in seconds.
    """
    return link.params.gen_prob / (link.params.latency_us * 1e-6)


class ValueModel:
    """Characteristic-value evaluator over one path table: the simple
    source->destination paths, at most `MAX_PATHS`. Each coalition's value is
    split equally among its members."""

    def __init__(self, cfg: CoalitionGameConfig, topology: NetworkTopology) -> None:
        n = len(topology.nodes)
        if not (0 <= cfg.source < n and 0 <= cfg.destination < n):
            raise ParameterError("source/destination must be nodes of the topology")
        self.cfg = cfg
        self.topology = topology
        found = list(islice(
            simple_paths(topology.adjacency, cfg.source, cfg.destination), MAX_PATHS + 1
        ))
        if len(found) > MAX_PATHS:
            raise CapacityError(
                f"more than {MAX_PATHS} simple paths between {cfg.source} and {cfg.destination}"
            )
        # kept in DFS order: filtering it gives the order a DFS inside
        # the node set would, which the tie-break in evaluate depends on
        self.paths = [(frozenset(p), self.path_score(p), tuple(p)) for p in found]
        # referee engines of the quantum game, by gamma
        self.referee_rounds: dict[float, _QuantumRound] = {}

    def path_score(self, path: list[int]) -> float:
        rate = math.inf
        fidelity = 1.0
        for a, b in zip(path, path[1:]):
            link = self.topology.adjacency[a][b]
            rate = min(rate, link_rate(link))
            fidelity *= link.payoff
        hops = len(path) - 1
        return min(self.cfg.target_throughput, rate) + fidelity - self.cfg.hop_cost * hops

    def evaluate(self, members: frozenset[int]) -> tuple[float, tuple[int, ...] | None]:
        """(value, best path) for a node set; (0.0, None) when no path exists."""
        members = frozenset(members)
        best_score, best_path = 0.0, None
        for nodes, score, path in self.paths:
            if not nodes <= members:
                continue
            tol = _tolerance(score, best_score)
            if best_path is None or score > best_score + tol or (
                abs(score - best_score) <= tol and path < best_path
            ):
                best_score, best_path = score, path
        return best_score, best_path

    def value(self, members) -> float:
        return self.evaluate(frozenset(members))[0]

    def candidate_nodes(self) -> list[int]:
        """Nodes lying on at least one simple source->destination path."""
        if not self.paths:
            raise UnreachableError(f"no path between {self.cfg.source} and {self.cfg.destination}")
        return sorted(frozenset().union(*(nodes for nodes, _, _ in self.paths)))

    def split_payoffs(self, coalition: Coalition) -> dict[int, float]:
        """Each member's equal share of the coalition's value."""
        members = sorted(coalition.members)
        return {m: coalition.value / len(members) for m in members}


# ---------------------------------------------------------------------------
# classical merge-and-split
# ---------------------------------------------------------------------------


def _find_merge(model: ValueModel, partition: list[frozenset[int]]):
    """First coalition group whose union strictly beats the sum of its parts.

    Pairs are tried before wider merges so the dynamics stay local when they
    can; wider merges are what let zero-value singletons assemble a full path.
    Groups go by size, then lexicographically by the rank of their parts'
    sorted members.

    Only unions of path covers are tried, where a listed path's cover is the
    set of parts meeting its nodes. Every other group is skipped without
    changing which group comes first: a part of such a group lies in no cover
    of a path its union holds, so the part holds no path, is worth 0, and the
    group without it holds the same paths, is worth the same and is tried
    earlier.
    """
    order = sorted(range(len(partition)), key=lambda i: sorted(partition[i]))
    rank_of = {m: r for r, i in enumerate(order) for m in partition[i]}
    covers = {
        frozenset(rank_of[m] for m in nodes)
        for nodes, _, _ in model.paths
        if rank_of.keys() >= nodes
    }
    unions: set[frozenset[int]] = set()
    for cover in covers:
        unions |= {cover | u for u in unions}
        unions.add(cover)
    values = [model.value(p) for p in partition]
    for ranks in sorted((sorted(u) for u in unions if len(u) > 1), key=lambda g: (len(g), g)):
        group = tuple(order[r] for r in ranks)
        union = frozenset().union(*(partition[i] for i in group))
        value, parts = model.value(union), sum(values[i] for i in group)
        if value > parts + _tolerance(value, parts):
            return group, union
    return None


def _find_split(model: ValueModel, partition: list[frozenset[int]]):
    # Every listed path holds the source, so at most one side of a split
    # holds one, and no side is worth more than the whole up to the tie
    # tolerance (the earliest-wins scan in evaluate ends within it of the
    # best score). So only a coalition worth less than -STRICT_EPS can split
    # profitably; its 2-way splits are scanned in full, and the scan stops
    # no later than the first split that separates the endpoints.
    for i, coalition in enumerate(partition):
        if len(coalition) < 2:
            continue
        whole = model.value(coalition)
        if whole >= -_tolerance(whole):
            continue
        members = sorted(coalition)
        # enumerate 2-way splits; fix members[0] on one side to halve the count
        for mask in range(2 ** (len(members) - 1) - 1):
            left = frozenset(
                m for j, m in enumerate(members) if j == 0 or (mask >> (j - 1)) & 1
            )
            right = coalition - left
            parts = model.value(left) + model.value(right)
            if parts > whole + _tolerance(parts, whole):
                return i, left, right
    return None


def classical_coalition_form(
    cfg: CoalitionGameConfig,
    topology: NetworkTopology,
    model: ValueModel | None = None,
) -> CoalitionOutcome:
    """Merge-and-split until no operation strictly increases combined value.

    The iteration starts from singletons of the candidate nodes (those on some
    source->destination path). Every accepted operation strictly increases the
    partition's total value, which is bounded, so termination is guaranteed.
    The game draws nothing, so its result depends on its arguments alone.
    """
    model = model or ValueModel(cfg, topology)
    candidates = model.candidate_nodes()
    partition: list[frozenset[int]] = [frozenset([n]) for n in candidates]
    history: list[dict] = []
    rounds = 0
    while True:
        merge = _find_merge(model, partition)
        split = _find_split(model, partition) if merge is None else None
        if merge is None and split is None:
            break
        rounds += 1
        if merge is not None:
            group, union = merge
            partition = [p for i, p in enumerate(partition) if i not in group]
            partition.append(union)
            history.append(
                {"round": rounds, "op": "merge", "members": sorted(union), "value": model.value(union)}
            )
        else:
            i, left, right = split
            partition = [p for j, p in enumerate(partition) if j != i] + [left, right]
            history.append(
                {
                    "round": rounds,
                    "op": "split",
                    "members": [sorted(left), sorted(right)],
                    "value": model.value(left) + model.value(right),
                }
            )

    best = max(partition, key=lambda p: (model.value(p), -len(p)))
    value, path = model.evaluate(best)
    if path is None:
        raise UnreachableError(
            f"stable partition contains no coalition with a {cfg.source}->{cfg.destination} path"
        )
    coalition = Coalition(best, value)
    return CoalitionOutcome(
        stable_coalition=coalition,
        path=list(path),
        per_node_payoff=model.split_payoffs(coalition),
        rounds=rounds,
        history=history,
    )


# ---------------------------------------------------------------------------
# quantum variant
# ---------------------------------------------------------------------------


def referee_state(n_players: int, gamma: float) -> q.StateVector:
    """Shared state the referee hands out, at entangling level gamma.

    Each qubit is rotated from |0> by gamma and neighboring qubits pick up a
    controlled phase of 2*gamma: gamma = 0 leaves the unentangled |0...0>
    (each player's rotation alone decides its bit), while gamma = pi/2
    produces exactly the linear cluster state.
    """
    q.check_angle(gamma)
    if not 2 <= n_players <= q.MAX_QUBITS:
        raise CapacityError(
            f"{n_players} players outside supported range 2..{q.MAX_QUBITS}"
        )
    c, s = math.cos(gamma / 2.0), math.sin(gamma / 2.0)
    # (c, s) per qubit times exp(2i gamma) per adjacent pair of 1 bits, one
    # qubit at a time: each new lowest bit pairs with the one before it
    amps = np.array([c, s], dtype=complex)
    for _ in range(n_players - 1):
        amps = np.outer(amps, [c, s])
        amps[1::2, 1] *= np.exp(2j * gamma)
        amps = amps.reshape(-1)
    return q.StateVector(amps)


def find_referee(topology: NetworkTopology, source: int) -> int:
    """The leader adjacent to the source arbitrates; the source itself if none."""
    for nb in sorted(topology.adjacency[source]):
        if topology.nodes[nb].role is NodeRole.LEADER:
            return nb
    return source


THETA_GRID = np.linspace(0.0, math.pi, 9)
PHI_GRID = np.linspace(0.0, 2.0 * math.pi, 9, endpoint=False)

# fixed best-response search grid of (theta, phi), theta-major; ties keep the
# earliest entry
GRID_STRATEGIES = tuple((float(theta), float(phi)) for theta in THETA_GRID for phi in PHI_GRID)
GRID_MATRICES = np.stack([q.SingleQubitUnitary(*tp).matrix() for tp in GRID_STRATEGIES])
# every player starts proposing to join: theta = pi flips its bit
ALL_JOIN = GRID_STRATEGIES.index((math.pi, 0.0))
# _JOIN_ROWS[g, 2b + c] = U_g[1, b] conj(U_g[1, c]): grid point g's weight on
# entry (b, c) of a best response's 2x2 form
_JOIN_ROWS = (GRID_MATRICES[:, 1, :, None] * GRID_MATRICES[:, 1, None, :].conj()).reshape(-1, 4)


class _QuantumRound:
    """Per-game machinery: one table indexed by outcome, and the game's one
    strategy trajectory. Outcome b holds player i when bit m - 1 - i is set;
    `values[b]` and `paths[b]` are what `ValueModel.evaluate` gives for its
    coalition, and `share[b]` is each member's equal share of the value.

    A profile is a tuple of the players' indices into GRID_STRATEGIES. Round 0
    plays the all-join profile, and round r + 1 plays round r's profile with
    player r mod m replaced by its grid best response. No best response reads
    a measured outcome, so the trajectory depends on the game alone: the
    engine extends it on demand and keeps each round's profile and outcome
    CDF, for every game that shares it, until a (profile, r mod m) pair
    recurs. `period` is then the length of the cycle, which starts at round
    len(trajectory) - 1 - period. It keeps the amplitudes of the last round
    only, as the next round's profile is at most one rotation away.

    `strategies(profile)` builds a profile's history record of the players'
    (theta, phi) once; the history records of every game that shares the
    engine hold that same dict, so callers must treat them as read-only.
    """

    def __init__(self, model: ValueModel, players: tuple[int, ...], gamma: float):
        self.players = players
        self.base = referee_state(len(players), gamma)
        m = len(players)
        self.values, self.paths = self._values(model)
        outcomes = np.arange(2**m)
        sizes = sum((outcomes >> k) & 1 for k in range(m))
        self.share = self.values / np.maximum(sizes, 1)  # outcome 0 is the empty coalition
        # per player: the (2, k) positions of its bit-0 and bit-1 amplitudes
        # on the k paying outcomes where it joins, and their shares
        paying = np.flatnonzero(self.share)
        joined = [(paying[paying & bit != 0], bit) for bit in (1 << np.arange(m)[::-1]).tolist()]
        self._paying = [(np.array([j - bit, j]), self.share[j]) for j, bit in joined]
        self._amps = self.base.amplitudes
        for i in range(m):
            self._amps = q.rotate(self._amps, i, GRID_MATRICES[ALL_JOIN])
        # (profile, CDF of its outcome table) of each round
        self.trajectory = [((ALL_JOIN,) * m, q.cdf_of(np.abs(self._amps) ** 2))]
        # round at which each (profile, r mod m) first appeared, and the
        # length of the cycle once one of them recurs
        self._first = {((ALL_JOIN,) * m, 0): 0}
        self.period: int | None = None
        self._outcomes: dict[int, tuple] = {}
        self._strategies: dict[tuple[int, ...], dict[int, list[float]]] = {}

    def _values(self, model: ValueModel) -> tuple[np.ndarray, list]:
        """`model.evaluate` of every outcome's coalition, as (values, paths):
        evaluate's earliest-wins scan over the path table, run on all
        outcomes at once."""
        m = len(self.players)
        bit_of = {p: 1 << (m - 1 - i) for i, p in enumerate(self.players)}
        ranked = sorted(path for _, _, path in model.paths)
        rank_of = {path: r for r, path in enumerate(ranked)}
        outcomes = np.arange(2**m)
        best = np.zeros(2**m)
        unheld = len(rank_of)  # rank of outcomes that hold no path yet
        rank = np.full(2**m, unheld)
        for nodes, score, path in model.paths:
            if not bit_of.keys() >= nodes:
                continue
            mask = sum(bit_of[n] for n in nodes)
            r = rank_of[path]
            tol = STRICT_EPS * np.maximum(1.0, np.maximum(abs(score), np.abs(best)))
            tie = (np.abs(score - best) <= tol) & (r < rank)
            take = ((outcomes & mask) == mask) & ((rank == unheld) | (score > best + tol) | tie)
            best = np.where(take, score, best)
            rank = np.where(take, r, rank)
        ranked.append(None)  # at rank `unheld`
        return best, [ranked[r] for r in rank.tolist()]

    def coalition_of(self, outcome_bits: int) -> frozenset[int]:
        m = len(self.players)
        return frozenset(
            p for i, p in enumerate(self.players) if (outcome_bits >> (m - 1 - i)) & 1
        )

    def outcome(self, outcome_bits: int) -> tuple:
        """(bitstring, sorted members, members, value, path) of an outcome,
        built the first time it is asked for."""
        got = self._outcomes.get(outcome_bits)
        if got is None:
            members = self.coalition_of(outcome_bits)
            bits = format(outcome_bits, f"0{len(self.players)}b")
            value, path = float(self.values[outcome_bits]), self.paths[outcome_bits]
            got = self._outcomes[outcome_bits] = (bits, tuple(sorted(members)), members, value, path)
        return got

    def strategies(self, profile: tuple[int, ...]) -> dict[int, list[float]]:
        """{player: [theta, phi]} of a profile, built the first time it is
        asked for and shared from then on."""
        got = self._strategies.get(profile)
        if got is None:
            got = self._strategies[profile] = {
                p: list(GRID_STRATEGIES[k]) for p, k in zip(self.players, profile)
            }
        return got

    def round(self, r: int) -> tuple[tuple[int, ...], np.ndarray]:
        """Profile and outcome CDF of round r, counted from 0; a round past
        the trajectory's end is mapped into its cycle."""
        m = len(self.players)
        while len(self.trajectory) <= r and self.period is None:
            n = len(self.trajectory)
            profile, cdf = self.trajectory[-1]
            i = (n - 1) % m
            k = self.best_response(i, self._amps, profile[i])
            if k != profile[i]:
                turn = GRID_MATRICES[k] @ GRID_MATRICES[profile[i]].conj().T
                self._amps = q.rotate(self._amps, i, turn)
                profile = profile[:i] + (k,) + profile[i + 1:]
                cdf = q.cdf_of(np.abs(self._amps) ** 2)
            self.trajectory.append((profile, cdf))
            first = self._first.setdefault((profile, n % m), n)
            if first < n:
                self.period = n - first
        if r >= len(self.trajectory):
            start = len(self.trajectory) - 1 - self.period
            r = start + (r - start) % self.period
        return self.trajectory[r]

    def join_marginals(self, r: int) -> np.ndarray:
        """P(bit i = 1) of each player i in round r's outcome table, read
        from the steps of its CDF."""
        table = np.diff(self.round(r)[1], prepend=0.0)
        return np.array(
            [table.reshape(2**i, 2, -1)[:, 1].ravel().sum() for i in range(len(self.players))]
        )

    def best_response(self, player_index: int, amps: np.ndarray, own: int) -> int:
        """Exact expected-payoff argmax over the 9x9 (theta, phi) grid, for the
        player at `player_index` of the played amplitudes `amps`, who plays
        grid point `own` in them.

        With psi[b] the other players' amplitudes where the player's qubit
        is b, playing U puts U[1, 0] psi[0] + U[1, 1] psi[1] where it joins,
        the only outcomes with payoff w, so the expected payoff is
        sum_bc U[1, b] conj(U[1, c]) form[b, c], form = (psi w) psi^dagger
        = V (a w a^dagger) V^dagger, with a the played amplitudes gathered on
        its paying outcomes and V = U_own^dagger. Ties keep the earliest grid
        point (theta-major order), so updates are reproducible.
        """
        pairs, w = self._paying[player_index]
        a = amps[pairs]
        u = GRID_MATRICES[own]
        form = u.conj().T @ ((a * w) @ a.conj().T) @ u
        scores = (_JOIN_ROWS @ form.reshape(-1)).real
        tol = STRICT_EPS * max(1.0, np.abs(scores).max())  # _tolerance(*scores)
        scores = scores.tolist()
        best = 0
        for k, val in enumerate(scores):
            if val > scores[best] + tol:
                best = k
        return best


def quantum_coalition_form(
    cfg: CoalitionGameConfig,
    topology: NetworkTopology,
    gamma: float = math.pi / 2.0,
    seed: int = 0,
    model: ValueModel | None = None,
) -> CoalitionOutcome:
    """Referee-mediated coalition formation over an entangled shared state.

    Each round the referee distributes one qubit of `referee_state` per
    player, every player applies its strategy rotation, and the measured
    bitstring picks the candidate coalition (bit 1 = join). Its members split
    the coalition's value equally; between rounds one player at a time
    replaces its strategy with a grid best response. The game stops once
    the same outcome is measured in CONFIRM_WINDOW consecutive rounds, or
    after MAX_ROUNDS rounds.

    The reported coalition is the stabilized one when it carries a
    source->destination path; otherwise the best-valued path-carrying
    coalition seen in any round; otherwise the maximum-likelihood decoding
    (join iff P(bit=1) >= 1/2 - STRICT_EPS) of the final strategy state, with the grand
    candidate coalition as the last resort (it always carries a path).

    The players are the candidate nodes (those on some source->destination
    path), so together they always hold a path, and each starts proposing to
    join (theta = pi): the all-in starting point whose gamma = 0 behavior
    coincides with the classical game on path fixtures.

    A history record's `strategies` dict is shared with every record of the
    same profile, also in other games on the same `model`: treat it as
    read-only.
    """
    check_seed(seed)
    model = model or ValueModel(cfg, topology)
    engine = model.referee_rounds.get(gamma)
    if engine is None:
        players = tuple(model.candidate_nodes())
        if len(players) > q.MAX_QUBITS:
            raise CapacityError(f"{len(players)} candidate players exceed {q.MAX_QUBITS}")
        engine = model.referee_rounds[gamma] = _QuantumRound(model, players, gamma)
    m = len(engine.players)
    draw = np.random.default_rng(seed).random
    history: list[dict] = []
    # (value, outcome) of the best-valued outcome seen that holds a path
    best_seen: tuple[float, int] | None = None
    last, streak = None, 0
    stable: int | None = None
    rounds = 0

    for rounds in range(1, MAX_ROUNDS + 1):
        profile, cdf = engine.round(rounds - 1)
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
            or value > best_seen[0] and value > best_seen[0] + _tolerance(value, best_seen[0])
        ):
            best_seen = (value, outcome)
        streak = streak + 1 if outcome == last else 1
        last = outcome
        if streak >= CONFIRM_WINDOW:
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
        chosen = sum(1 << (m - 1 - i) for i in range(m) if marginals[i] >= 0.5 - STRICT_EPS)
        if engine.paths[chosen] is None:
            chosen = 2**m - 1  # the grand coalition

    _, _, members, value, path = engine.outcome(chosen)
    coalition = Coalition(members, value)
    return CoalitionOutcome(
        stable_coalition=coalition,
        path=list(path),
        per_node_payoff=model.split_payoffs(coalition),
        rounds=rounds,
        history=history,
        referee=find_referee(topology, cfg.source),
    )
