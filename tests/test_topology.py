import json
import math
from dataclasses import replace

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entangle_games import simulation as sim
from entangle_games import topology as topo
from entangle_games.errors import ParameterError

from oracles import assert_builder_invariants


def test_link_probability_at_zero_distance_is_mu():
    params = topo.LinkModelParams(mu=0.7, lam=0.5, delta=10)
    assert topo.link_probability(0.0, params) == pytest.approx(0.7)


def test_link_probability_one_decay_length():
    params = topo.LinkModelParams(mu=1.0, lam=0.5, delta=10)
    assert topo.link_probability(5.0, params) == pytest.approx(math.exp(-1.0))


def test_link_probability_scaled():
    params = topo.LinkModelParams(mu=0.5, lam=1.0, delta=10)
    assert topo.link_probability(10.0, params) == pytest.approx(0.5 * math.exp(-1.0))


@pytest.mark.parametrize("mu,lam,delta", [(0.0, 0.5, 1), (1.5, 0.5, 1), (0.5, 0.0, 1), (0.5, 0.5, 0)])
def test_link_model_params_domain(mu, lam, delta):
    with pytest.raises(ParameterError):
        topo.LinkModelParams(mu, lam, delta)


def test_link_probability_negative_distance():
    with pytest.raises(ParameterError):
        topo.link_probability(-1.0, topo.LinkModelParams(0.5, 0.5, 1.0))


def test_link_probability_needs_a_resolved_delta():
    with pytest.raises(ParameterError, match="delta"):
        topo.link_probability(0.5, topo.LinkModelParams(0.5, 0.5))


def test_link_probability_monotonicity():
    rng = np.random.default_rng(0)
    for _ in range(200):
        mu, lam = rng.uniform(0.05, 1.0, size=2)
        delta = rng.uniform(0.1, 20.0)
        d = rng.uniform(0.0, 30.0)
        base = topo.link_probability(d, topo.LinkModelParams(mu, lam, delta))
        assert topo.link_probability(d + rng.uniform(0, 5), topo.LinkModelParams(mu, lam, delta)) <= base
        assert topo.link_probability(d, topo.LinkModelParams(min(mu + 0.01, 1.0), lam, delta)) >= base
        assert topo.link_probability(d, topo.LinkModelParams(mu, min(lam + 0.01, 1.0), delta)) >= base
        assert topo.link_probability(d, topo.LinkModelParams(mu, lam, delta + 1.0)) >= base
        assert 0.0 < base <= mu


# ---------------------------------------------------------------------------
# scenario 1 builder
# ---------------------------------------------------------------------------


def test_leader_mesh_node_count():
    # 3 leaders pairwise adjacent, 4 end-nodes each, 2 repeaters per pair
    t = topo.build_scenario1(3, 4, 2, probabilistic_links=False)
    assert len(t.nodes) == 3 + 12 + 6 == 21


def test_degenerate_pair_directly_linked():
    t = topo.build_scenario1(2, 1, 0, probabilistic_links=False)
    assert len(t.nodes) == 4
    assert t.link_between(0, 1) is not None  # leaders 0 and 1


@pytest.mark.parametrize(
    "t", [topo.canonical_leader_mesh_topology(), topo.canonical_two_tree_topology()]
)
def test_link_between_finds_every_link_both_ways(t):
    for l in t.links:
        assert t.link_between(l.a, l.b) is l
        assert t.link_between(l.b, l.a) is l
    linked = {l.endpoints() for l in t.links}
    a, b = next((a, b) for a in range(len(t.nodes)) for b in range(a + 1, len(t.nodes))
                if frozenset((a, b)) not in linked)
    assert t.link_between(a, b) is None
    # a copy with a second link on the same endpoints keeps the first, and
    # an updated copy looks up its own links
    first = t.links[0]
    dup = replace(t, links=t.links + (replace(first, payoff=0.1),))
    assert dup.link_between(first.b, first.a) is first
    slower = t.with_link_updates(latency_us=99.0)
    assert slower.link_between(first.a, first.b).params.latency_us == 99.0


@pytest.mark.parametrize("mu,lam", [(0.05, 0.5), (0.5, 0.5), (1.0, 0.3), (0.8, 1.0)])
def test_link_model_without_delta_takes_the_largest_node_distance(mu, lam):
    skeleton = topo.build_scenario1(3, 4, 2, seed=4, probabilistic_links=False)
    positions = [(n.x, n.y) for n in skeleton.nodes]
    delta = topo.LinkModelParams.for_positions(mu, lam, positions).delta
    assert delta == pytest.approx(max(math.dist(a, b) for a in positions for b in positions))
    got = topo.build_scenario1(3, 4, 2, model=topo.LinkModelParams(mu, lam), seed=4)
    want = topo.build_scenario1(3, 4, 2, model=topo.LinkModelParams(mu, lam, delta), seed=4)
    assert got == want
    if (mu, lam) == (0.5, 0.5):
        assert got == topo.build_scenario1(3, 4, 2, seed=4)


def dense_max_distance(positions) -> float:
    """The largest pairwise distance from the full n x n x 2 difference array."""
    pts = np.asarray(positions, dtype=float)
    return float(np.max(np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))))


@settings(max_examples=40, deadline=None)
@given(
    # up to 1,024 points fit one block of rows; past it, two or three blocks
    n=st.integers(2, 40) | st.integers(1025, 1500),
    kind=st.sampled_from(["uniform", "grid", "coincident"]),
    scale=st.sampled_from([1.0, 1e3, 1e150, 1e200]),
    seed=st.integers(0, 2**32 - 1),
)
def test_for_positions_matches_the_dense_distance(n, kind, scale, seed):
    # same differences, squares, sums and roots as the dense formula, so
    # delta is bit-identical; squares past the float range give inf in both
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        positions = rng.uniform(-scale, scale, (n, 2))
    elif kind == "grid":
        positions = rng.integers(-3, 4, (n, 2)) * scale
    else:
        positions = np.full((n, 2), scale)
    with np.errstate(over="ignore"):
        want = dense_max_distance(positions)
        if not want > 0:
            with pytest.raises(ParameterError, match="coincident"):
                topo.LinkModelParams.for_positions(0.5, 0.5, positions)
            return
        got = topo.LinkModelParams.for_positions(0.5, 0.5, positions.tolist()).delta
    assert got.hex() == want.hex()


def test_builder_determinism():
    a = topo.build_scenario1(3, 2, 1, seed=5)
    b = topo.build_scenario1(3, 2, 1, seed=5)
    assert a.to_json() == b.to_json()
    c = topo.build_scenario1(3, 2, 1, seed=6)
    assert c.to_json() != a.to_json()


def test_probabilistic_links_only_add_edges():
    bare = topo.build_scenario1(3, 2, 1, seed=9, probabilistic_links=False)
    rich = topo.build_scenario1(3, 2, 1, seed=9, probabilistic_links=True)
    bare_edges = {l.endpoints() for l in bare.links}
    rich_edges = {l.endpoints() for l in rich.links}
    assert bare_edges <= rich_edges


def test_builder_rejects_bad_args():
    with pytest.raises(ParameterError):
        topo.build_scenario1(1, 1, 0)
    with pytest.raises(ParameterError):
        topo.build_scenario1(2, 0, 0)
    with pytest.raises(ParameterError):
        topo.build_scenario1(2, 1, -1)


def test_built_mesh_passes_validation():
    for seed in range(5):
        t = topo.build_scenario1(4, 2, 1, seed=seed)
        assert_builder_invariants(t)


# ---------------------------------------------------------------------------
# scenario 2 builder
# ---------------------------------------------------------------------------


def test_two_tree_counts():
    t = topo.build_scenario2([5, 4])
    assert len(t.nodes) == 11
    leader_edges = [
        l
        for l in t.links
        if t.nodes[l.a].role is topo.NodeRole.LEADER and t.nodes[l.b].role is topo.NodeRole.LEADER
    ]
    assert len(leader_edges) == 1


def test_minimal_trees_form_path_graph():
    t = topo.build_scenario2([1, 1])
    assert len(t.nodes) == 4
    g = t.graph()
    assert nx.is_tree(g)
    assert sorted(d for _, d in g.degree()) == [1, 1, 2, 2]


def test_single_tree_rejected():
    with pytest.raises(ParameterError):
        topo.build_scenario2([5])


def test_canonical_choice_set_weights():
    t = topo.canonical_two_tree_topology()
    up, alt = t.choices[1]
    assert (up.next_hop, up.cost, up.payoff) == (0, 100.0, 0.3)
    assert (alt.next_hop, alt.cost, alt.payoff) == (2, 60.0, 0.8)


def test_every_multi_leaf_tree_node_has_choice_set():
    t = topo.build_scenario2([3, 2], seed=1)
    leaves = [n.id for n in t.nodes if n.role is topo.NodeRole.LEAF]
    assert set(t.choices) == set(leaves)
    for node_id, (a, b) in t.choices.items():
        assert a.next_hop != b.next_hop


def test_full_weight_table_creates_no_generator(monkeypatch):
    want = topo.canonical_two_tree_topology().to_json()

    def no_generator(*args):
        raise AssertionError("build_scenario2 made a generator")

    monkeypatch.setattr(topo.np.random, "default_rng", no_generator)
    assert topo.canonical_two_tree_topology().to_json() == want
    with pytest.raises(AssertionError, match="made a generator"):
        topo.build_scenario2([2, 2])


def _eager_weights(sizes, given_weights, seed):
    """Every link weight of `build_scenario2(sizes, given_weights, seed)`: the
    given ones, and the rest drawn in the builder's visiting order from a
    generator made up front, as the builder made it before it drew lazily."""
    rng = np.random.default_rng(seed)
    weights = {}

    def visit(node, hop):
        if (node, hop) in given_weights:
            weights[(node, hop)] = given_weights[(node, hop)]
        else:
            weights[(node, hop)] = (float(rng.integers(60, 101)),
                                    round(float(rng.uniform(0.3, 0.8)), 2))

    leader = 0
    for size in sizes:
        leaves = list(range(leader + 1, leader + size + 1))
        for idx, leaf in enumerate(leaves):
            visit(leaf, leader)
            if size > 1:
                visit(leaf, leaves[(idx + 1) % size])
        leader += size + 1
    visit(0, sizes[0] + 1)
    return weights


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(1, 5), min_size=2, max_size=3), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_partial_weight_table_draws_as_before(sizes, seed, data):
    keys = sorted(_eager_weights(sizes, {}, 0))
    given_keys = data.draw(st.lists(st.sampled_from(keys), unique=True))
    given_weights = {key: (50.0 + i, 0.5) for i, key in enumerate(given_keys)}
    want = topo.build_scenario2(sizes, _eager_weights(sizes, given_weights, seed))
    got = topo.build_scenario2(sizes, given_weights, seed=seed)
    assert got.to_json() == want.to_json()


def test_built_trees_pass_validation():
    for sizes in ([5, 4], [1, 1], [2, 3, 2]):
        assert_builder_invariants(topo.build_scenario2(sizes, seed=3))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_json_roundtrip_identity():
    for t in (
        topo.build_scenario1(3, 2, 1, seed=4),
        topo.canonical_two_tree_topology(),
    ):
        again = topo.NetworkTopology.from_json_dict(json.loads(t.to_json()))
        assert again.to_json() == t.to_json()
        assert again.choices == t.choices


def test_json_schema_fields():
    doc = topo.canonical_two_tree_topology().to_json_dict()
    assert doc["schema"] == 1
    assert {"id", "role", "x", "y"} <= set(doc["nodes"][0])
    assert {
        "a",
        "b",
        "latency_us",
        "coherence_us",
        "decoherence_rate",
        "gen_prob",
        "cost",
        "payoff",
    } <= set(doc["links"][0])


def test_unknown_schema_version_rejected():
    doc = topo.canonical_two_tree_topology().to_json_dict()
    doc["schema"] = 99
    with pytest.raises(ParameterError):
        topo.NetworkTopology.from_json_dict(doc)


@pytest.mark.parametrize("payoff", [-0.1, 1.5, 7.5, math.nan])
def test_out_of_range_payoff_rejected(payoff):
    with pytest.raises(ParameterError, match="payoff"):
        topo.Link(0, 1, topo.LinkParams(), 1.0, payoff)
    with pytest.raises(ParameterError, match="payoff"):
        topo.ChoiceOption(1, 1.0, payoff)
    doc = topo.canonical_two_tree_topology().to_json_dict()
    doc["choices"][0]["options"][1]["payoff"] = payoff
    with pytest.raises(ParameterError, match="payoff"):
        topo.NetworkTopology.from_json_dict(doc)


# ---------------------------------------------------------------------------
# graph search, against networkx
# ---------------------------------------------------------------------------


@st.composite
def _random_graphs(draw):
    """Topologies on 1-8 nodes whose links, self-loops included, join
    distinct node pairs in a random order and orientation."""
    n = draw(st.integers(1, 8))
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    links = tuple(
        topo.Link(*(pair if draw(st.booleans()) else pair[::-1]), topo.LinkParams(), 1.0, 0.5)
        for pair in draw(st.lists(st.sampled_from(pairs), unique=True))
    )
    nodes = tuple(topo.Node(i, topo.NodeRole.REPEATER, float(i), 0.0) for i in range(n))
    return topo.NetworkTopology(nodes, links, topo.ScenarioTag.CUSTOM)


@settings(max_examples=300, deadline=None)
@given(t=_random_graphs(), data=st.data())
def test_graph_search_matches_networkx(t, data):
    g = t.graph()
    adjacency = t.adjacency
    for u in g.nodes:
        assert list(adjacency[u]) == list(g.neighbors(u))
    for a, b in g.edges:
        assert adjacency[a][b] is adjacency[b][a] is g.edges[a, b]["link"]
    assert topo.connected_components(adjacency) == list(nx.connected_components(g))
    ends = st.integers(0, len(t.nodes) - 1)
    source, target = data.draw(ends), data.draw(ends)
    assert list(topo.simple_paths(adjacency, source, target)) == list(
        nx.all_simple_paths(g, source, target)
    )


@pytest.mark.parametrize("count", range(2, 21))
def test_shortest_path_matches_networkx_on_backbones(count):
    # a backbone is a tree: between any two nodes its one simple path is the
    # shortest, which the node sweep's regimes all take
    t = sim.backbone_topology(count)
    g = t.graph()
    for source in g.nodes:
        for target in g.nodes:
            paths = list(topo.simple_paths(t.adjacency, source, target))
            assert paths == [nx.shortest_path(g, source, target)]


def test_first_of_duplicate_links_is_the_one_read():
    first, second = (topo.Link(0, 1, topo.LinkParams(), 1.0, p) for p in (0.25, 0.75))
    nodes = tuple(topo.Node(i, topo.NodeRole.REPEATER, float(i), 0.0) for i in range(2))
    t = topo.NetworkTopology(nodes, (first, second), topo.ScenarioTag.CUSTOM)
    assert t.adjacency[0][1] is t.adjacency[1][0] is t.link_between(0, 1) is first
    assert list(t.adjacency[0]) == [1]
