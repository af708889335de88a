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
        assert topo.validate(t) == []


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


def test_built_trees_pass_validation():
    for sizes in ([5, 4], [1, 1], [2, 3, 2]):
        assert topo.validate(topo.build_scenario2(sizes, seed=3)) == []


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_flags_self_loop():
    t = topo.build_scenario1(2, 1, 0, probabilistic_links=False)
    loop = topo.Link(0, 0, topo.LinkParams(), 1.0, 0.9)
    bad = replace(t, links=t.links + (loop,))
    violations = topo.validate(bad)
    assert any("self-loop" in v and "0-0" in v for v in violations)


def test_validate_reports_links_to_missing_nodes():
    # the leader-edge scan must not index the node list by a bad endpoint:
    # 99 is past its end, and -1 would read the last node's role
    t = topo.canonical_two_tree_topology()
    for far in (99, -1):
        bad = replace(t, links=t.links + (topo.Link(0, far, topo.LinkParams(), 1.0, 0.9),))
        assert topo.validate(bad) == [f"link 0-{far}: endpoint is not a node id"]


def test_validate_flags_unusable_link():
    params = topo.LinkParams(latency_us=500.0, coherence_us=400.0)
    t = topo.build_scenario1(2, 1, 0, link_defaults=params, probabilistic_links=False)
    violations = topo.validate(t)
    assert any("unusable" in v for v in violations)


def test_validate_flags_duplicate_edge():
    t = topo.build_scenario1(2, 1, 0, probabilistic_links=False)
    dup = replace(t, links=t.links + (t.links[0],))
    assert any("duplicate" in v for v in topo.validate(dup))


def test_validate_flags_wrong_roles_for_scenario():
    t = topo.canonical_two_tree_topology()
    bad_nodes = (replace(t.nodes[1], role=topo.NodeRole.REPEATER),) + t.nodes[1:]
    bad = replace(t, nodes=tuple(sorted(bad_nodes, key=lambda n: n.id)))
    assert any("role" in v for v in topo.validate(bad))


def test_validate_flags_extra_leader_edge():
    t = topo.canonical_two_tree_topology()
    extra = topo.Link(2, 6, topo.LinkParams(), 1.0, 0.5)
    bad = replace(t, links=t.links + (extra,))
    assert any("forest" in v for v in topo.validate(bad))


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
    assert topo.is_forest(adjacency) == nx.is_forest(g)
    ends = st.integers(0, len(t.nodes) - 1)
    source, target = data.draw(ends), data.draw(ends)
    assert list(topo.simple_paths(adjacency, source, target)) == list(
        nx.all_simple_paths(g, source, target)
    )
    lengths = dict(nx.all_pairs_shortest_path_length(g))
    for source in g.nodes:
        for target in g.nodes:
            path = topo.shortest_path(adjacency, source, target)
            if target in lengths[source]:
                assert len(path) == lengths[source][target] + 1
                assert path[0] == source and path[-1] == target
                assert all(b in adjacency[a] for a, b in zip(path, path[1:]))
            else:
                assert path is None


@pytest.mark.parametrize("count", range(2, 21))
def test_shortest_path_matches_networkx_on_backbones(count):
    t = sim.backbone_topology(count)
    g = t.graph()
    for source in g.nodes:
        for target in g.nodes:
            assert topo.shortest_path(t.adjacency, source, target) == nx.shortest_path(g, source, target)


def test_first_of_duplicate_links_is_the_one_read():
    first, second = (topo.Link(0, 1, topo.LinkParams(), 1.0, p) for p in (0.25, 0.75))
    nodes = tuple(topo.Node(i, topo.NodeRole.REPEATER, float(i), 0.0) for i in range(2))
    t = topo.NetworkTopology(nodes, (first, second), topo.ScenarioTag.CUSTOM)
    assert t.adjacency[0][1] is t.adjacency[1][0] is t.link_between(0, 1) is first
    assert list(t.adjacency[0]) == [1]
