"""Fixed network topologies: the leader/repeater/end-node mesh, the two-tree
leaf network, and the distance-decay random link model.

Topologies are immutable after construction; all randomness is drawn from an
explicit seed, so identical arguments always produce byte-identical serialized
output.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import ParameterError, is_number

SCHEMA_VERSION = 1

# Quality defaults for links created by the builders. gen_prob = 1.0 keeps the
# trend sweeps deterministic; stochastic configs override it per link.
DEFAULT_LATENCY_US = 25.0
DEFAULT_COHERENCE_US = 20_000.0
DEFAULT_DECOHERENCE_RATE = 1e-4
DEFAULT_GEN_PROB = 1.0
DEFAULT_LINK_PAYOFF = 0.9


class NodeRole(Enum):
    LEADER = "leader"
    REPEATER = "repeater"
    END_NODE = "end_node"
    LEAF = "leaf"


class ScenarioTag(Enum):
    SCENARIO1 = 1
    SCENARIO2 = 2
    CUSTOM = "custom"


@dataclass(frozen=True)
class Node:
    id: int
    role: NodeRole
    x: float
    y: float


@dataclass(frozen=True)
class LinkParams:
    """Physical parameters of one undirected link."""

    latency_us: float = DEFAULT_LATENCY_US
    coherence_us: float = DEFAULT_COHERENCE_US
    decoherence_rate: float = DEFAULT_DECOHERENCE_RATE
    gen_prob: float = DEFAULT_GEN_PROB

    def __post_init__(self) -> None:
        # rates divide by the latency in seconds, which must not underflow to 0
        if not self.latency_us * 1e-6 > 0:
            raise ParameterError(f"latency_us must be > 0 in seconds too, got {self.latency_us}")
        if not self.coherence_us > 0:
            raise ParameterError(f"coherence_us must be > 0, got {self.coherence_us}")
        if not (self.decoherence_rate >= 0 and math.isfinite(self.decoherence_rate)):
            raise ParameterError(f"decoherence_rate must be finite and >= 0, got {self.decoherence_rate}")
        if not 0 < self.gen_prob <= 1:
            raise ParameterError(f"gen_prob must be in (0, 1], got {self.gen_prob}")


# LinkParams' field names in order: a link's keys in topology files and the
# config's "link" object
LINK_PARAMS = tuple(f.name for f in fields(LinkParams))


@dataclass(frozen=True)
class Link:
    """Undirected edge with physical params and abstract game weights.

    `cost` is the latency-based game cost and `payoff` the fidelity-based game
    payoff used by the consensus game and the classical fidelity proxy.
    """

    a: int
    b: int
    params: LinkParams
    cost: float
    payoff: float

    def __post_init__(self) -> None:
        _check_payoff(self.payoff)

    def endpoints(self) -> frozenset[int]:
        return frozenset((self.a, self.b))


@dataclass(frozen=True)
class ChoiceOption:
    """One candidate next hop of a two-way choice, with its game weights."""

    next_hop: int
    cost: float
    payoff: float

    def __post_init__(self) -> None:
        _check_payoff(self.payoff)


def _fields(doc, where: str, **kinds) -> list:
    """Values of the keys of one topology document object, each checked
    against its kind (int, float, list or an Enum); numbers as written. A
    float is any finite number, since json reads NaN, Infinity and ints of
    any size."""
    if not isinstance(doc, dict):
        raise ParameterError(f"topology {where} must be an object, got {doc!r}")
    out = []
    for key, kind in kinds.items():
        if key not in doc:
            raise ParameterError(f"topology {where} lacks key {key!r}")
        value = doc[key]
        if issubclass(kind, Enum) and value in [m.value for m in kind]:
            value = kind(value)
        elif isinstance(value, bool) or not (
            is_number(value) if kind is float else isinstance(value, kind)
        ):
            raise ParameterError(
                f"topology {where} key {key!r} holds {value!r}, expected {kind.__name__}"
            )
        out.append(value)
    return out


def _check_payoff(payoff: float) -> None:
    # the classical fidelity proxy multiplies payoffs along a path
    if not 0.0 <= payoff <= 1.0:
        raise ParameterError(f"payoff must be in [0, 1], got {payoff}")


@dataclass(frozen=True)
class LinkModelParams:
    """Control parameters of the distance-decay link probability model;
    `delta` None stands for the largest node distance of the deployment,
    which `build_scenario1` resolves."""

    mu: float
    lam: float
    delta: float | None = None

    def __post_init__(self) -> None:
        if not 0 < self.mu <= 1:
            raise ParameterError(f"mu must be in (0, 1], got {self.mu}")
        if not 0 < self.lam <= 1:
            raise ParameterError(f"lambda must be in (0, 1], got {self.lam}")
        if self.delta is not None and not self.delta > 0:
            raise ParameterError(f"delta must be > 0, got {self.delta}")

    @classmethod
    def for_positions(cls, mu: float, lam: float, positions) -> "LinkModelParams":
        """Build params with delta set to the maximum pairwise node distance,
        taken over blocks of rows so no n x n array is held."""
        pts = np.asarray(positions, dtype=float)
        if len(pts) < 2:
            raise ParameterError("need at least two positions to derive delta")
        rows = max(1, 2**20 // len(pts))
        delta = float(np.max([
            np.sqrt(((pts[i:i + rows, None, :] - pts[None, :, :]) ** 2).sum(axis=2)).max()
            for i in range(0, len(pts), rows)
        ]))
        if delta <= 0:
            raise ParameterError("positions are all coincident; delta would be 0")
        return cls(mu, lam, delta)


def link_probability(d: float, params: LinkModelParams) -> float:
    """Probability that a link exists between two nodes at distance d.

    p = mu * exp(-d / (delta * lambda)); delta is the maximum node distance of
    the deployment, so the result lies in (0, mu].
    """
    if d < 0:
        raise ParameterError(f"distance must be >= 0, got {d}")
    if params.delta is None:
        raise ParameterError("delta is unset; build_scenario1 resolves it from node positions")
    return params.mu * math.exp(-d / (params.delta * params.lam))


@dataclass(frozen=True)
class NetworkTopology:
    """Typed node set plus undirected link set; immutable once built."""

    nodes: tuple[Node, ...]
    links: tuple[Link, ...]
    scenario: ScenarioTag
    choices: dict[int, tuple[ChoiceOption, ChoiceOption]] = field(default_factory=dict)

    def link_between(self, a: int, b: int) -> Link | None:
        return self.adjacency.get(a, {}).get(b)

    @cached_property
    def adjacency(self) -> dict[int, dict[int, Link]]:
        """{node id: {neighbour: link}}, neighbours in order of first
        appearance in `links`; of duplicate links the first listed wins."""
        adjacency: dict[int, dict[int, Link]] = {n.id: {} for n in self.nodes}
        for link in self.links:
            adjacency.setdefault(link.a, {}).setdefault(link.b, link)
            adjacency.setdefault(link.b, {}).setdefault(link.a, link)
        return adjacency

    def graph(self) -> "networkx.Graph":
        """networkx view; rebuilt on each call so the topology stays immutable.
        Needs networkx, which the package itself does not."""
        import networkx as nx

        g = nx.Graph()
        for n in self.nodes:
            g.add_node(n.id, role=n.role)
        for l in self.links:
            g.add_edge(l.a, l.b, link=l, latency=l.params.latency_us, cost=l.cost)
        return g

    def with_link_updates(self, **param_overrides) -> "NetworkTopology":
        """Copy with every link's LinkParams fields replaced by the overrides."""
        new_links = tuple(
            replace(l, params=replace(l.params, **param_overrides)) for l in self.links
        )
        return replace(self, links=new_links)

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        doc = {
            "schema": SCHEMA_VERSION,
            "scenario": self.scenario.value,
            "nodes": [
                {"id": n.id, "role": n.role.value, "x": n.x, "y": n.y} for n in self.nodes
            ],
            "links": [
                {"a": l.a, "b": l.b, **vars(l.params), "cost": l.cost, "payoff": l.payoff}
                for l in self.links
            ],
        }
        if self.choices:
            doc["choices"] = [
                {
                    "node": node_id,
                    "options": [
                        {"next_hop": o.next_hop, "cost": o.cost, "payoff": o.payoff}
                        for o in opts
                    ],
                }
                for node_id, opts in sorted(self.choices.items())
            ]
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json_dict(cls, doc: dict) -> "NetworkTopology":
        schema = doc.get("schema") if isinstance(doc, dict) else None
        if schema != SCHEMA_VERSION:
            raise ParameterError(f"unsupported topology schema {schema!r}")
        node_docs, link_docs, scenario = _fields(doc, "document", nodes=list, links=list, scenario=ScenarioTag)
        nodes = []
        for i, d in enumerate(node_docs):
            node_id, role, x, y = _fields(d, f"node {i}", id=int, role=NodeRole, x=float, y=float)
            nodes.append(Node(node_id, role, float(x), float(y)))
        links = []
        for i, d in enumerate(link_docs):
            a, b, *params, cost, payoff = _fields(
                d, f"link {i}", a=int, b=int, **dict.fromkeys(LINK_PARAMS, float), cost=float,
                payoff=float,
            )
            links.append(Link(a, b, LinkParams(*params), float(cost), float(payoff)))
        choices = {}
        for i, c in enumerate(_fields(doc, "document", choices=list)[0] if "choices" in doc else []):
            node_id, option_docs = _fields(c, f"choice {i}", node=int, options=list)
            options = (
                _fields(o, f"choice {i} option {j}", next_hop=int, cost=float, payoff=float)
                for j, o in enumerate(option_docs)
            )
            choices[node_id] = tuple(
                ChoiceOption(hop, float(cost), float(payoff)) for hop, cost, payoff in options
            )
        topology = cls(tuple(sorted(nodes, key=lambda n: n.id)), tuple(links), scenario, choices)
        errors = _structure_errors(topology)
        if errors:
            raise ParameterError("malformed topology: " + "; ".join(errors))
        return topology


def _structure_errors(topology: NetworkTopology) -> list[str]:
    """Violations of the graph every game relies on: node ids 0..n-1, links
    between two distinct nodes, at most one link per node pair, and choices
    of two options at a node, each naming a node as its next hop."""
    out: list[str] = []
    ids = [n.id for n in topology.nodes]
    if ids != list(range(len(ids))):
        out.append(f"node ids must be the dense range 0..{len(ids) - 1}, got {ids}")
    seen: set[frozenset[int]] = set()
    for l in topology.links:
        tag = f"link {l.a}-{l.b}"
        if l.a == l.b:
            out.append(f"{tag}: self-loop")
        elif not (0 <= l.a < len(ids) and 0 <= l.b < len(ids)):
            out.append(f"{tag}: endpoint is not a node id")
        elif l.endpoints() in seen:
            out.append(f"{tag}: duplicate edge")
        seen.add(l.endpoints())
    for node_id, opts in topology.choices.items():
        tag = f"choice at node {node_id}"
        if not 0 <= node_id < len(ids):
            out.append(f"{tag}: node is not a node id")
        if len(opts) != 2:
            out.append(f"{tag}: needs exactly two options, got {len(opts)}")
        out += [
            f"{tag}: next_hop {o.next_hop} is not a node id"
            for o in opts
            if not 0 <= o.next_hop < len(ids)
        ]
    return out


# ---------------------------------------------------------------------------
# graph search over an adjacency map {node: neighbours}, each link listed at
# both of its ends
# ---------------------------------------------------------------------------


def simple_paths(
    adjacency: Mapping[int, Iterable[int]], source: int, target: int
) -> Iterator[list[int]]:
    """Simple source->target paths, depth first with neighbours in adjacency
    order, never expanding through the target: the order of networkx 3.6's
    all_simple_paths, on which the earliest-wins tie-break of coalition
    scoring depends."""
    if source == target:
        yield [source]
        return
    path, on_path, stack = [source], {source}, [iter(adjacency[source])]
    while stack:
        node = next((v for v in stack[-1] if v not in on_path), None)
        if node is None:
            stack.pop()
            on_path.discard(path.pop())
        elif node == target:
            yield path + [node]
        else:
            path.append(node)
            on_path.add(node)
            stack.append(iter(adjacency[node]))


def connected_components(adjacency: Mapping[int, Iterable[int]]) -> list[set[int]]:
    """Node sets of the connected components, in order of their first node."""
    seen: set[int] = set()
    components = []
    for start in adjacency:
        if start in seen:
            continue
        component, stack = {start}, [start]
        while stack:
            for v in adjacency[stack.pop()]:
                if v not in component:
                    component.add(v)
                    stack.append(v)
        seen |= component
        components.append(component)
    return components


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build_scenario1(
    n_leaders: int,
    end_nodes_per_leader: int,
    repeaters_per_pair: int,
    link_defaults: LinkParams | None = None,
    model: LinkModelParams | None = None,
    seed: int = 0,
    probabilistic_links: bool = True,
    placement: str = "random",
) -> NetworkTopology:
    """Leader mesh: N leaders, M end-nodes each, L-repeater chains per leader pair.

    Leaders form a complete graph for N <= 3 and a ring above, and every
    link has the fidelity payoff DEFAULT_LINK_PAYOFF. Node positions are
    drawn uniformly in the unit square from `seed`, or placed on a fixed
    circular layout with placement="geometric". On top of the fixed
    skeleton, extra links between not-yet-linked node pairs are sampled with
    the distance-decay probability when `probabilistic_links` is set. Extra
    links never replace skeleton links, so the scenario's connectivity is
    preserved. `model` defaults to mu = lam = 0.5, and a `delta` of None is
    resolved to the largest distance between the placed nodes.
    """
    if n_leaders < 2:
        raise ParameterError(f"need at least 2 leaders, got {n_leaders}")
    if end_nodes_per_leader < 1:
        raise ParameterError(f"need at least 1 end-node per leader, got {end_nodes_per_leader}")
    if repeaters_per_pair < 0:
        raise ParameterError(f"repeater count must be >= 0, got {repeaters_per_pair}")
    if placement not in ("random", "geometric"):
        raise ParameterError(f"unknown placement {placement!r}")
    defaults = link_defaults or LinkParams()

    rng = np.random.default_rng(seed)
    if n_leaders <= 3:
        pairs = [(i, j) for i in range(n_leaders) for j in range(i + 1, n_leaders)]
    else:
        pairs = [(i, (i + 1) % n_leaders) for i in range(n_leaders)]

    nodes: list[Node] = []

    def add_node(role: NodeRole, pos: tuple[float, float]) -> int:
        node_id = len(nodes)
        if placement == "random":
            x, y = float(rng.random()), float(rng.random())
        else:
            x, y = pos
        nodes.append(Node(node_id, role, x, y))
        return node_id

    def leader_pos(i: int) -> tuple[float, float]:
        angle = 2.0 * math.pi * i / n_leaders - math.pi / 2.0
        return 0.5 + 0.35 * math.cos(angle), 0.5 + 0.35 * math.sin(angle)

    leaders = [add_node(NodeRole.LEADER, leader_pos(i)) for i in range(n_leaders)]
    ends = {}
    for i, leader in enumerate(leaders):
        lx, ly = leader_pos(i)
        fan = []
        for k in range(end_nodes_per_leader):
            angle = 2.0 * math.pi * (i + (k + 1) / (end_nodes_per_leader + 1)) / n_leaders
            fan.append(
                add_node(NodeRole.END_NODE, (lx + 0.12 * math.cos(angle), ly + 0.12 * math.sin(angle)))
            )
        ends[leader] = fan

    links: list[Link] = []

    def add_link(a: int, b: int, params: LinkParams) -> None:
        links.append(Link(a, b, params, cost=params.latency_us, payoff=DEFAULT_LINK_PAYOFF))

    for leader in leaders:
        for e in ends[leader]:
            add_link(leader, e, defaults)
    for la, lb in pairs:
        (ax, ay), (bx, by) = leader_pos(leaders.index(la)), leader_pos(leaders.index(lb))
        chain = [
            add_node(
                NodeRole.REPEATER,
                (
                    ax + (bx - ax) * (k + 1) / (repeaters_per_pair + 1),
                    ay + (by - ay) * (k + 1) / (repeaters_per_pair + 1),
                ),
            )
            for k in range(repeaters_per_pair)
        ]
        hops = [la, *chain, lb]
        for u, v in zip(hops, hops[1:]):
            add_link(u, v, defaults)

    if probabilistic_links:
        model = model or LinkModelParams(0.5, 0.5)
        if model.delta is None:
            model = LinkModelParams.for_positions(model.mu, model.lam, [(n.x, n.y) for n in nodes])
        existing = {l.endpoints() for l in links}
        dist = lambda a, b: math.hypot(nodes[a].x - nodes[b].x, nodes[a].y - nodes[b].y)
        for a in range(len(nodes)):
            for b in range(a + 1, len(nodes)):
                if frozenset((a, b)) in existing:
                    continue
                if rng.random() < link_probability(dist(a, b), model):
                    add_link(a, b, defaults)

    return NetworkTopology(tuple(nodes), tuple(links), ScenarioTag.SCENARIO1)


def build_scenario2(
    tree_sizes: list[int],
    link_weights: dict[tuple[int, int], tuple[float, float]] | None = None,
    seed: int = 0,
    link_defaults: LinkParams | None = None,
    cost_to_us: float = 1.0,
) -> NetworkTopology:
    """Two-way-choice tree network: one leader per tree plus leaf fans.

    Nodes are numbered leader-first per tree. Each leaf's recorded choice set
    is {its leader, the next leaf of the same tree}; single-leaf trees have no
    alternative and therefore no choice set. The first two leaders share the
    single fixed inter-tree link.

    `link_weights` maps ordered (node, next_hop) pairs to (latency cost,
    fidelity payoff) and overrides the seeded defaults, which draw costs from
    60..100 and payoffs from 0.3..0.8. The generator `default_rng(seed)` is
    made at the first weight missing from `link_weights`, so a table that
    gives every weight draws nothing. Latency in microseconds is
    cost * `cost_to_us`.
    """
    if len(tree_sizes) < 2:
        raise ParameterError(f"need at least 2 trees, got {len(tree_sizes)}")
    for size in tree_sizes:
        if size < 1:
            raise ParameterError(f"every tree needs at least 1 leaf, got {size}")
    defaults = link_defaults or LinkParams()
    weights = dict(link_weights or {})
    rng = None

    def weight_for(node: int, hop: int) -> tuple[float, float]:
        nonlocal rng
        if (node, hop) in weights:
            return weights[(node, hop)]
        rng = rng or np.random.default_rng(seed)
        cost = float(rng.integers(60, 101))
        payoff = round(float(rng.uniform(0.3, 0.8)), 2)
        return cost, payoff

    nodes: list[Node] = []
    leaders: list[int] = []
    leaves_by_tree: list[list[int]] = []
    for t, size in enumerate(tree_sizes):
        leader_id = len(nodes)
        nodes.append(Node(leader_id, NodeRole.LEADER, float(t), 0.0))
        leaders.append(leader_id)
        leaves = []
        for k in range(size):
            leaf_id = len(nodes)
            nodes.append(Node(leaf_id, NodeRole.LEAF, float(t) + 0.1 * (k + 1), 1.0))
            leaves.append(leaf_id)
        leaves_by_tree.append(leaves)

    links: list[Link] = []
    choices: dict[int, tuple[ChoiceOption, ChoiceOption]] = {}

    def params_for(cost: float) -> LinkParams:
        return replace(defaults, latency_us=max(cost * cost_to_us, 1e-9))

    for leader, leaves in zip(leaders, leaves_by_tree):
        for idx, leaf in enumerate(leaves):
            up_cost, up_payoff = weight_for(leaf, leader)
            links.append(Link(leaf, leader, params_for(up_cost), up_cost, up_payoff))
            if len(leaves) > 1:
                sibling = leaves[(idx + 1) % len(leaves)]
                alt_cost, alt_payoff = weight_for(leaf, sibling)
                choices[leaf] = (
                    ChoiceOption(leader, up_cost, up_payoff),
                    ChoiceOption(sibling, alt_cost, alt_payoff),
                )

    trunk_cost, trunk_payoff = weight_for(leaders[0], leaders[1])
    links.append(Link(leaders[0], leaders[1], params_for(trunk_cost), trunk_cost, trunk_payoff))

    return NetworkTopology(tuple(nodes), tuple(links), ScenarioTag.SCENARIO2, choices)


# ---------------------------------------------------------------------------
# canonical fixtures
# ---------------------------------------------------------------------------

# Weight table for the canonical two-tree demo (trees of 4 and 5 leaves,
# leaders 0 and 5). Node 1's pair is the worked example: switching its uplink
# from leader 0 (cost 100, payoff 0.3) to sibling 2 (cost 60, payoff 0.8) is
# the one strictly improving move. Node 8's two options tie exactly in
# utility at unit weights (0.9 - 200/200 == 0.15 - 50/200), which is what
# arms the coin-flip consensus of the quantum variant; every other leaf is
# already on its better option.
CANONICAL_TWO_TREE_SIZES = [4, 5]
CANONICAL_TWO_TREE_WEIGHTS: dict[tuple[int, int], tuple[float, float]] = {
    (1, 0): (100.0, 0.3),
    (1, 2): (60.0, 0.8),
    (2, 0): (70.0, 0.6),
    (2, 3): (90.0, 0.4),
    (3, 0): (80.0, 0.5),
    (3, 4): (95.0, 0.4),
    (4, 0): (90.0, 0.7),
    (4, 1): (85.0, 0.4),
    (6, 5): (60.0, 0.8),
    (6, 7): (75.0, 0.5),
    (7, 5): (65.0, 0.7),
    (7, 8): (80.0, 0.45),
    (8, 5): (200.0, 0.9),
    (8, 9): (50.0, 0.15),
    (9, 5): (70.0, 0.75),
    (9, 10): (85.0, 0.5),
    (10, 5): (80.0, 0.65),
    (10, 6): (100.0, 0.55),
    (0, 5): (50.0, 0.9),
}


def canonical_two_tree_topology(
    link_defaults: LinkParams | None = None, cost_to_us: float = 1.0
) -> NetworkTopology:
    """The labeled two-tree demo network used by the consensus examples."""
    return build_scenario2(
        CANONICAL_TWO_TREE_SIZES,
        link_weights=CANONICAL_TWO_TREE_WEIGHTS,
        seed=0,
        link_defaults=link_defaults,
        cost_to_us=cost_to_us,
    )


def canonical_leader_mesh_topology() -> NetworkTopology:
    """The 21-node demo mesh: 3 leaders, 4 end-nodes each, 2-repeater chains.

    Fixed circular coordinates, no probabilistic extras; the deterministic
    baseline for the coalition-game examples.
    """
    return build_scenario1(
        3,
        4,
        2,
        seed=0,
        probabilistic_links=False,
        placement="geometric",
    )
