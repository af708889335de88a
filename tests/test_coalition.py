import contextlib
import gc
import math
import time
import weakref
from itertools import combinations

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entangle_games import coalition as co
from entangle_games import quantum as q
from entangle_games import simulation as sim
from entangle_games import topology as topo
from entangle_games.errors import CapacityError, ParameterError, UnreachableError

from conftest import line_topology
from oracles import full_state_best_response, make_cluster_state, stability_violations


def five_line_cfg():
    return co.CoalitionGameConfig(
        source=0, destination=4, target_throughput=5000.0, hop_cost=0.05
    )


# ---------------------------------------------------------------------------
# characteristic value
# ---------------------------------------------------------------------------


def test_value_zero_without_both_endpoints(five_line):
    model = co.ValueModel(five_line_cfg(), five_line)
    assert model.value({1, 2, 3}) == 0.0
    assert model.value({0, 1}) == 0.0


def test_value_two_node_closed_form():
    t = line_topology(2, gen_prob=1.0, latency_us=1000.0, payoff=1.0)
    cfg = co.CoalitionGameConfig(source=0, destination=1, target_throughput=500.0, hop_cost=0.0)
    # per-attempt rate r = 1 / latency_seconds = 1000 e-bits/s, capped at 500
    assert co.ValueModel(cfg, t).value({0, 1}) == pytest.approx(500.0 + 1.0)


def test_value_rate_cap_inactive_when_target_large():
    t = line_topology(2, gen_prob=0.5, latency_us=1000.0, payoff=1.0)
    cfg = co.CoalitionGameConfig(source=0, destination=1, target_throughput=9999.0, hop_cost=0.0)
    assert co.ValueModel(cfg, t).value({0, 1}) == pytest.approx(500.0 + 1.0)


def test_value_monotone_under_growth(five_line):
    # brute force over all subsets: adding a node never lowers the value
    cfg = five_line_cfg()
    model = co.ValueModel(cfg, five_line)
    nodes = range(5)
    for r in range(1, 6):
        for s in combinations(nodes, r):
            base = model.value(frozenset(s))
            for n in nodes:
                assert model.value(frozenset(s) | {n}) + 1e-12 >= base


def test_value_reads_the_first_of_duplicate_links():
    params = topo.LinkParams(latency_us=1000.0, gen_prob=1.0)
    links = tuple(topo.Link(0, 1, params, 1000.0, p) for p in (0.25, 0.75))
    nodes = tuple(topo.Node(i, topo.NodeRole.REPEATER, float(i), 0.0) for i in range(2))
    t = topo.NetworkTopology(nodes, links, topo.ScenarioTag.CUSTOM)
    cfg = co.CoalitionGameConfig(source=0, destination=1, target_throughput=500.0, hop_cost=0.0)
    assert co.ValueModel(cfg, t).value({0, 1}) == 500.0 + 0.25


def test_config_domain_checks():
    with pytest.raises(ParameterError):
        co.CoalitionGameConfig(source=1, destination=1)
    with pytest.raises(ParameterError):
        co.CoalitionGameConfig(source=0, destination=1, target_throughput=0.0)
    with pytest.raises(ParameterError):
        co.CoalitionGameConfig(source=0, destination=1, hop_cost=-1.0)


class SubgraphValueModel:
    """The value model before the path table, kept as the oracle: one DFS
    per node set over the networkx graph's neighbour lists restricted to the
    set, memoized. Its tie tolerance scales with the compared scores, as
    evaluate's does."""

    def __init__(self, cfg, topology):
        self.cfg = cfg
        self.topology = topology
        self.graph = topology.graph()
        self._neighbours = {u: list(nbrs) for u, nbrs in self.graph.adj.items()}
        self._cache = {}

    def _paths_within(self, members: frozenset[int]):
        """Simple source->destination paths inside `members`, depth first,
        each node's neighbours in the graph's order."""
        cfg = self.cfg
        if cfg.source not in members or cfg.destination not in members:
            return
        within = {u: [v for v in self._neighbours[u] if v in members] for u in members}
        path = [cfg.source]

        def walk(u):
            for v in within[u]:
                if v == cfg.destination:
                    yield [*path, v]
                elif v not in path:
                    path.append(v)
                    yield from walk(v)
                    path.pop()

        yield from walk(cfg.source)

    def path_score(self, path: list[int]) -> float:
        rate = math.inf
        fidelity = 1.0
        for a, b in zip(path, path[1:]):
            link = self.graph.edges[a, b]["link"]
            rate = min(rate, co.link_rate(link))
            fidelity *= link.payoff
        hops = len(path) - 1
        return min(self.cfg.target_throughput, rate) + fidelity - self.cfg.hop_cost * hops

    def evaluate(self, members: frozenset[int]) -> tuple[float, tuple[int, ...] | None]:
        """(value, best path) for a node set; (0.0, None) when no path exists."""
        members = frozenset(members)
        hit = self._cache.get(members)
        if hit is not None:
            return hit
        best_score, best_path = -math.inf, None
        for path in self._paths_within(members):
            score = self.path_score(path)
            tol = co.STRICT_EPS * max(1.0, abs(score), abs(best_score))
            if best_path is None or score > best_score + tol or (
                abs(score - best_score) <= tol and tuple(path) < best_path
            ):
                best_score, best_path = score, tuple(path)
        result = (best_score, best_path) if best_path is not None else (0.0, None)
        self._cache[members] = result
        return result

    def candidate_nodes(self) -> list[int]:
        """Nodes lying on at least one simple source->destination path."""
        cfg = self.cfg
        if not nx.has_path(self.graph, cfg.source, cfg.destination):
            raise UnreachableError(
                f"no path between {cfg.source} and {cfg.destination}"
            )
        nodes: set[int] = set()
        for path in nx.all_simple_paths(self.graph, cfg.source, cfg.destination):
            nodes.update(path)
        return sorted(nodes)


@st.composite
def _random_graph_games(draw, targets=(1.0, 1000.0, 5000.0, 1e5), hop_cost=st.floats(0.0, 0.5)):
    n = draw(st.integers(3, 8))
    graph = nx.gnp_random_graph(n, draw(st.floats(0.2, 1.0)), seed=draw(st.integers(0, 2**16)))
    # shared values make exact ties between paths common; payoffs about 0.6
    # of a tie tolerance apart (STRICT_EPS times a score near 1, 1000 or
    # 1e5) make chains of scores each within the tolerance of the next,
    # where the earliest-wins scan depends on the order of the paths
    step = draw(st.sampled_from([6e-13, 6e-10, 6e-8]))
    gen_prob = st.sampled_from([0.5, 1.0]) | st.floats(0.05, 1.0)
    latency = st.sampled_from([10.0, 25.0, 200.0]) | st.floats(10.0, 5000.0)
    payoff = (
        st.sampled_from([0.3, 1.0])
        | st.sampled_from([0.9 + k * step for k in range(4)])
        | st.floats(0.0, 1.0)
    )
    links = tuple(
        topo.Link(a, b, topo.LinkParams(latency_us=lat, gen_prob=draw(gen_prob)), lat, draw(payoff))
        for a, b in graph.edges
        for lat in [draw(latency)]
    )
    nodes = tuple(topo.Node(i, topo.NodeRole.REPEATER, float(i), 0.0) for i in range(n))
    ends = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    source, destination = draw(ends)
    cfg = co.CoalitionGameConfig(
        source=source,
        destination=destination,
        target_throughput=draw(st.sampled_from(targets)),
        hop_cost=draw(hop_cost),
    )
    return cfg, topo.NetworkTopology(nodes, links, topo.ScenarioTag.CUSTOM)


def _near_tie_fan():
    """Three two-hop paths 0-m-4 with scores s, s + 1.2e-9 and s + 6e-10 in
    enumeration order, where s = 1000.8 makes the tie tolerance 1.0008e-9:
    (0, 2, 4) wins as listed, another path under any other order (sorted by
    path or score, or reversed)."""
    nodes = tuple(topo.Node(i, topo.NodeRole.REPEATER, float(i), 0.0) for i in range(5))
    fan = [(1, 0.9), (3, 0.9 + 12e-10), (2, 0.9 + 6e-10)]
    links = [topo.Link(0, m, topo.LinkParams(), 25.0, payoff) for m, payoff in fan]
    links += [topo.Link(m, 4, topo.LinkParams(), 25.0, 1.0) for m, _ in fan]
    t = topo.NetworkTopology(nodes, tuple(links), topo.ScenarioTag.CUSTOM)
    return co.CoalitionGameConfig(source=0, destination=4), t


@settings(max_examples=300, deadline=None)
@given(game=_random_graph_games())
@example(game=_near_tie_fan())
def test_path_table_matches_subgraph_oracle(game):
    cfg, t = game
    model = co.ValueModel(cfg, t)
    oracle = SubgraphValueModel(cfg, t)
    try:
        want = oracle.candidate_nodes()
    except UnreachableError as exc:
        with pytest.raises(UnreachableError) as got:
            model.candidate_nodes()
        assert str(got.value) == str(exc)
    else:
        assert model.candidate_nodes() == want
    n = len(t.nodes)
    for r in range(n + 1):
        for members in combinations(range(n), r):
            assert model.evaluate(frozenset(members)) == oracle.evaluate(frozenset(members))


# ---------------------------------------------------------------------------
# classical merge-and-split
# ---------------------------------------------------------------------------


def test_two_node_direct_link():
    t = line_topology(2)
    cfg = co.CoalitionGameConfig(source=0, destination=1)
    out = co.classical_coalition_form(cfg, t)
    assert out.stable_coalition.members == frozenset({0, 1})
    assert out.rounds == 1
    assert out.path == [0, 1]


def test_five_line_matches_exhaustive_oracle(five_line):
    cfg = five_line_cfg()
    model = co.ValueModel(cfg, five_line)
    best_value = max(
        model.value(frozenset(s))
        for r in range(1, 6)
        for s in combinations(range(5), r)
    )
    out = co.classical_coalition_form(cfg, five_line)
    assert out.stable_coalition.value == pytest.approx(best_value)
    assert out.stable_coalition.members == frozenset(range(5))


def test_mesh_coalition_is_exactly_best_path_nodes():
    # uniform links make the single-chain route the value maximizer; the
    # stable coalition holds those endpoints and nothing else
    t = topo.canonical_leader_mesh_topology()
    cfg = co.CoalitionGameConfig(source=3, destination=7, hop_cost=0.05)
    out = co.classical_coalition_form(cfg, t)
    assert out.path == [3, 0, 15, 16, 1, 7]
    assert out.stable_coalition.members == frozenset(out.path)


def test_payoff_conservation(five_line):
    out = co.classical_coalition_form(five_line_cfg(), five_line)
    assert sum(out.per_node_payoff.values()) == pytest.approx(
        out.stable_coalition.value, abs=1e-9
    )


def test_stability_no_improving_operation_remains(five_line):
    cfg = five_line_cfg()
    model = co.ValueModel(cfg, five_line)
    out = co.classical_coalition_form(cfg, five_line, model=model)
    members = out.stable_coalition.members
    rest = [frozenset([n]) for n in range(5) if n not in members]
    assert stability_violations(model, [members, *rest]) == []


def test_exhaustive_stability_on_six_node_fixture():
    t = line_topology(6)
    cfg = co.CoalitionGameConfig(source=0, destination=5)
    model = co.ValueModel(cfg, t)
    out = co.classical_coalition_form(cfg, t, model=model)
    partition = [out.stable_coalition.members]
    seen = set(out.stable_coalition.members)
    partition.extend(frozenset([n]) for n in range(6) if n not in seen)
    assert stability_violations(model, partition) == []


@pytest.mark.parametrize("n, want", [(2, ({0}, {1})), (3, ({0}, {1, 2}))])
def test_split_search_starts_with_the_first_member_alone(n, want):
    # a hop cost of 1e5 makes the whole line worth far less than its parts
    cfg = co.CoalitionGameConfig(source=0, destination=n - 1, hop_cost=1e5)
    model = co.ValueModel(cfg, line_topology(n))
    whole = frozenset(range(n))
    assert model.value(whole) < -9e4
    assert co._find_split(model, [whole]) == (0, *map(frozenset, want))
    assert stability_violations(model, [whole]) == ["an improving split remains"]


def tolerance(*values):
    return co.STRICT_EPS * max(1.0, *map(abs, values))


def exhaustive_find_merge(model, partition):
    """`_find_merge` before the path-cover pruning, kept as the oracle with
    the tie tolerance that scales with the compared values."""
    order = sorted(range(len(partition)), key=lambda i: sorted(partition[i]))
    for k in range(2, len(partition) + 1):
        for group in combinations(order, k):
            parts = [partition[i] for i in group]
            union = frozenset().union(*parts)
            value, total = model.value(union), sum(model.value(p) for p in parts)
            if value > total + tolerance(value, total):
                return group, union
    return None


def exhaustive_find_split(model, partition):
    """`_find_split` before the pruning, kept as the oracle apart from its
    mask range, which now starts at mask 0 as `_find_split`'s does, and its
    tie tolerance, which scales with the compared values."""
    for i, coalition in enumerate(partition):
        if len(coalition) < 2:
            continue
        members = sorted(coalition)
        whole = model.value(coalition)
        # enumerate 2-way splits; fix members[0] on one side to halve the count
        for mask in range(2 ** (len(members) - 1) - 1):
            left = frozenset(
                m for j, m in enumerate(members) if j == 0 or (mask >> (j - 1)) & 1
            )
            right = coalition - left
            parts = model.value(left) + model.value(right)
            if parts > whole + tolerance(parts, whole):
                return i, left, right
    return None


@st.composite
def _random_partitions(draw):
    # hop costs up to 3000 make many coalitions worth less than zero, where
    # the split search keeps its full scan
    cfg, t = draw(_random_graph_games(
        targets=(1.0, 1000.0, 5000.0), hop_cost=st.floats(0.0, 0.5) | st.floats(0.0, 3000.0)
    ))
    n = len(t.nodes)
    # label -1 leaves a node out; the other labels name the parts
    labels = st.integers(-1, draw(st.integers(0, n - 1)))
    by_node = draw(st.lists(labels, min_size=n, max_size=n))
    parts = [
        frozenset(v for v in range(n) if by_node[v] == label)
        for label in sorted(set(by_node) - {-1})
    ]
    return co.ValueModel(cfg, t), draw(st.permutations(parts))


def _wider_than_minimal_cover():
    """A direct link 0-3 too slow to pay for its hop, and two equal two-hop
    paths 0-2-3 (listed first) and 0-1-3. From singletons the first improving
    group is {0}, {1}, {3}: wider than the cover {0}, {3} of the direct link,
    and first in rank order although its path is listed second."""
    nodes = tuple(topo.Node(i, topo.NodeRole.REPEATER, float(i), 0.0) for i in range(4))
    slow = topo.LinkParams(latency_us=1e6, gen_prob=0.01)
    links = [topo.Link(0, 3, slow, 1e6, 0.0)]
    good = [(0, 2), (2, 3), (0, 1), (1, 3)]
    links += [topo.Link(a, b, topo.LinkParams(), 25.0, 0.9) for a, b in good]
    t = topo.NetworkTopology(nodes, tuple(links), topo.ScenarioTag.CUSTOM)
    cfg = co.CoalitionGameConfig(source=0, destination=3)
    return co.ValueModel(cfg, t), [frozenset([v]) for v in (3, 2, 1, 0)]


def _union_of_two_covers():
    """Scores 1.5 + {0, 0.3, 0.9, 1.5} * 1.5e-12 on the paths 0-5-9 (inside
    the part A = {0, 5, 9, 10}), 0-1-9, 0-2-9 and 0-2-10-9, listed in that
    order, where the tie tolerance is 1.5e-12. The earliest-wins scan keeps
    each of the covers {A, {1}} and {A, {2}} within the tolerance of the
    part's own value, while their union reaches 0-2-10-9 by way of 0-1-9 and
    improves: the first improving group is a union of two covers and the
    cover of no single path."""
    nodes = tuple(topo.Node(i, topo.NodeRole.REPEATER, float(i), 0.0) for i in range(11))
    payoffs = {
        (0, 5): 1.0, (5, 9): 0.5,
        (0, 1): 1.0, (1, 9): 0.5 + 0.45e-12,
        (0, 2): 1.0, (2, 9): 0.5 + 1.35e-12,
        (2, 10): 1.0, (10, 9): 0.5 + 2.25e-12,
    }
    links = tuple(topo.Link(a, b, topo.LinkParams(), 25.0, f) for (a, b), f in payoffs.items())
    t = topo.NetworkTopology(nodes, links, topo.ScenarioTag.CUSTOM)
    cfg = co.CoalitionGameConfig(source=0, destination=9, target_throughput=1.0, hop_cost=0.0)
    return co.ValueModel(cfg, t), [frozenset([2]), frozenset([0, 5, 9, 10]), frozenset([1])]


@settings(max_examples=300, deadline=None)
@given(game=_random_partitions())
@example(game=_wider_than_minimal_cover())
@example(game=_union_of_two_covers())
def test_pruned_merge_and_split_match_exhaustive_search(game):
    model, partition = game
    merge = exhaustive_find_merge(model, partition)
    split = exhaustive_find_split(model, partition)
    assert co._find_merge(model, partition) == merge
    assert co._find_split(model, partition) == split
    want = ["an improving merge remains"] * (merge is not None)
    want += ["an improving split remains"] * (split is not None)
    assert stability_violations(model, partition) == want


def test_backbone_of_40_settles_within_a_second():
    t = sim.backbone_topology(40)
    cfg = co.CoalitionGameConfig(source=2, destination=3)
    start = time.perf_counter()
    out = co.classical_coalition_form(cfg, t)
    assert time.perf_counter() - start < 1.0
    assert out.rounds == 1
    assert out.path[0] == 2 and out.path[-1] == 3 and len(out.path) == 42


def test_unreachable_destination_raises():
    t = line_topology(3)
    broken = topo.NetworkTopology(t.nodes, t.links[:1], topo.ScenarioTag.CUSTOM)
    with pytest.raises(UnreachableError):
        co.classical_coalition_form(co.CoalitionGameConfig(source=0, destination=2), broken)


def test_termination_round_bound(five_line):
    out = co.classical_coalition_form(five_line_cfg(), five_line)
    assert out.rounds <= 2 * len(five_line.nodes)


# ---------------------------------------------------------------------------
# referee state
# ---------------------------------------------------------------------------


def test_referee_state_is_cluster_at_max_gamma():
    for m in (2, 3, 5):
        rs = co.referee_state(m, math.pi / 2)
        assert np.allclose(rs.amplitudes, make_cluster_state(m).amplitudes, atol=1e-12)


def test_referee_state_unentangled_at_zero_gamma():
    rs = co.referee_state(3, 0.0)
    expect = np.zeros(8)
    expect[0] = 1.0
    assert np.allclose(rs.amplitudes, expect)


def old_referee_state(m, gamma):
    """`referee_state` before the closed form: a chain of validated
    q.apply_unitary and q.apply_controlled_phase calls from |0...0>."""
    c, s = math.cos(gamma / 2.0), math.sin(gamma / 2.0)
    rot = np.array([[c, -s], [s, c]], dtype=complex)
    state = q.StateVector(np.eye(1, 2**m)[0])
    for i in range(m):
        state = q.apply_unitary(state, i, rot)
    for i in range(m - 1):
        state = q.apply_controlled_phase(state, i, i + 1, 2.0 * gamma)
    return state


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(2, 12),
    gamma=st.sampled_from([0.0, math.pi / 2]) | st.floats(0.0, math.pi / 2),
)
def test_referee_state_matches_gate_chain(m, gamma):
    got = co.referee_state(m, gamma)
    assert got.n_qubits == m
    np.testing.assert_allclose(got.amplitudes, old_referee_state(m, gamma).amplitudes, rtol=0, atol=1e-12)


def test_referee_state_capacity():
    with pytest.raises(CapacityError):
        co.referee_state(13, 0.0)


def test_referee_is_leader_next_to_source():
    t = topo.canonical_leader_mesh_topology()
    assert co.find_referee(t, 3) == 0  # end-node 3 hangs off leader 0


# ---------------------------------------------------------------------------
# quantum variant
# ---------------------------------------------------------------------------


def test_all_join_strategies_join_everyone():
    # gamma = 0 leaves |000>; theta = pi flips every bit deterministically
    t = line_topology(3)
    cfg = co.CoalitionGameConfig(source=0, destination=2)
    out = co.quantum_coalition_form(cfg, t, gamma=0.0, seed=11)
    assert out.history[0]["strategies"] == {i: [math.pi, 0.0] for i in range(3)}
    assert out.stable_coalition.members == frozenset({0, 1, 2})
    assert all(rec["members"] == [0, 1, 2] for rec in out.history)


def test_gamma_zero_reduces_to_classical(five_line):
    cfg = five_line_cfg()
    classical = co.classical_coalition_form(cfg, five_line)
    for seed in range(30):
        quantum = co.quantum_coalition_form(cfg, five_line, gamma=0.0, seed=seed)
        assert quantum.stable_coalition.members == classical.stable_coalition.members
        assert quantum.path == classical.path
        assert quantum.per_node_payoff == pytest.approx(classical.per_node_payoff)


@contextlib.contextmanager
def round_limits(max_rounds, confirm_window):
    """quantum_coalition_form's MAX_ROUNDS and CONFIRM_WINDOW, set for the
    duration of the block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(co, "MAX_ROUNDS", max_rounds)
        patch.setattr(co, "CONFIRM_WINDOW", confirm_window)
        yield


def test_quantum_outcome_deterministic_per_seed(five_line):
    cfg = five_line_cfg()
    with round_limits(20, co.CONFIRM_WINDOW):
        a = co.quantum_coalition_form(cfg, five_line, gamma=math.pi / 2, seed=5)
        b = co.quantum_coalition_form(cfg, five_line, gamma=math.pi / 2, seed=5)
    assert a.stable_coalition == b.stable_coalition
    assert a.history == b.history


def test_quantum_negative_seed_rejected(five_line):
    with pytest.raises(ParameterError, match="seed"):
        co.quantum_coalition_form(five_line_cfg(), five_line, seed=-1)


def test_quantum_capacity_error():
    t = line_topology(13)
    cfg = co.CoalitionGameConfig(source=0, destination=12)
    with pytest.raises(CapacityError):
        co.quantum_coalition_form(cfg, t)


def test_quantum_payoff_conservation(five_line):
    out = co.quantum_coalition_form(five_line_cfg(), five_line, gamma=0.3, seed=2)
    assert sum(out.per_node_payoff.values()) == pytest.approx(
        out.stable_coalition.value, abs=1e-9
    )


def test_entangled_strategies_correlate_joint_join():
    # exact Born-rule enumeration on the 2-player maximally entangled state:
    # P(join, join) can exceed the product of the join marginals
    base = co.referee_state(2, math.pi / 2)
    state = q.apply_unitary(base, 0, q.SingleQubitUnitary(0.0, 0.0))
    state = q.apply_unitary(state, 1, q.SingleQubitUnitary(math.pi / 2, 0.0))
    p = state.probabilities()
    joint = p[3]
    marginal_a = p[2] + p[3]
    marginal_b = p[1] + p[3]
    assert joint == pytest.approx(0.5, abs=1e-12)
    assert joint > marginal_a * marginal_b + 0.2


def test_quantum_joint_join_beats_independent_play():
    # with a payoff that only rewards the full coalition, the entangled game
    # measures the all-join outcome more often than independent 50/50 joins
    t = line_topology(2)
    cfg = co.CoalitionGameConfig(source=0, destination=1)
    with round_limits(40, 40):
        out = co.quantum_coalition_form(cfg, t, gamma=math.pi / 2, seed=17)
    joint = sum(1 for rec in out.history if rec["members"] == [0, 1])
    assert joint / len(out.history) > 0.25


def test_calls_on_one_model_share_one_engine(five_line, monkeypatch):
    built = []
    init = co._QuantumRound.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[1:])
        init(self, *args, **kwargs)

    monkeypatch.setattr(co._QuantumRound, "__init__", counting_init)
    # the players are listed only for an engine that has to be built
    listed = []
    candidate_nodes = co.ValueModel.candidate_nodes
    monkeypatch.setattr(
        co.ValueModel, "candidate_nodes", lambda self: listed.append(1) or candidate_nodes(self)
    )
    cfg = five_line_cfg()
    model = co.ValueModel(cfg, five_line)
    for seed in (0, 1):
        co.quantum_coalition_form(cfg, five_line, seed=seed, model=model)
    assert built == [((0, 1, 2, 3, 4), math.pi / 2)]
    co.quantum_coalition_form(cfg, five_line, gamma=0.0, seed=0, model=model)
    co.quantum_coalition_form(cfg, five_line, gamma=0.0, seed=0)
    assert len(built) == len(listed) == 3


def test_quantum_outcome_serialization_shape(five_line):
    out = co.quantum_coalition_form(five_line_cfg(), five_line, gamma=0.0, seed=0)
    doc = out.to_json_dict()
    assert doc["members"] == sorted(out.stable_coalition.members)
    assert doc["path"] == out.path
    assert doc["rounds"] == out.rounds
    rec = out.history[0]
    assert set(rec) == {"round", "strategies", "outcome", "members", "value"}


# ---------------------------------------------------------------------------
# differential check: quadratic-form best response against the state scan
# ---------------------------------------------------------------------------

OLD_GRID_STRATEGIES = tuple(
    q.SingleQubitUnitary(float(theta), float(phi))
    for theta in co.THETA_GRID
    for phi in co.PHI_GRID
)
OLD_GRID_MATRICES = tuple(u.matrix() for u in OLD_GRID_STRATEGIES)


class ScanRound:
    """Reference best response: one played StateVector per grid point, with
    payoff tables filled bitstring by bitstring from the equal split."""

    def __init__(self, model, players, gamma):
        self.model = model
        self.players = players
        self.base = co.referee_state(len(players), gamma)
        self._coalition_values = None
        self._payoffs_by_player = {}

    def coalition_of(self, outcome_bits):
        m = len(self.players)
        return frozenset(
            p for i, p in enumerate(self.players) if (outcome_bits >> (m - 1 - i)) & 1
        )

    def split_payoffs(self, coalition):
        members = sorted(coalition.members)
        if not members:
            return {}
        share = coalition.value / len(members)
        return {m: share for m in members}

    def coalition_values(self):
        if self._coalition_values is None:
            vals = np.zeros(2 ** len(self.players))
            for bits in range(1, vals.size):
                vals[bits] = self.model.value(self.coalition_of(bits))
            self._coalition_values = vals
        return self._coalition_values

    def payoff_table(self, player_index):
        table = self._payoffs_by_player.get(player_index)
        if table is None:
            m = len(self.players)
            values = self.coalition_values()
            table = np.zeros_like(values)
            for bits in range(1, values.size):
                if not (bits >> (m - 1 - player_index)) & 1:
                    continue
                coalition = co.Coalition(self.coalition_of(bits), float(values[bits]))
                table[bits] = self.split_payoffs(coalition)[
                    self.players[player_index]
                ]
            self._payoffs_by_player[player_index] = table
        return table

    def best_response(self, player_index, strategies):
        others = self.base
        for i, p in enumerate(self.players):
            if i != player_index:
                others = q.apply_unitary(others, i, strategies[p])
        payoffs = self.payoff_table(player_index)
        vals = [
            float(q.apply_unitary(others, player_index, matrix).probabilities() @ payoffs)
            for matrix in OLD_GRID_MATRICES
        ]
        tol = tolerance(*vals)
        best = 0
        for k, val in enumerate(vals):
            if val > vals[best] + tol:
                best = k
        return OLD_GRID_STRATEGIES[best]


def unitaries(players, profile):
    """The players' strategies at grid indices `profile`."""
    return {p: q.SingleQubitUnitary(*co.GRID_STRATEGIES[k]) for p, k in zip(players, profile)}


def dense_chain(engine, strategies):
    """The played state as a chain of q.apply_unitary calls on the referee
    state."""
    state = engine.base
    for i, p in enumerate(engine.players):
        state = q.apply_unitary(state, i, strategies[p])
    return state


def joins_of(engine):
    """(2**m, m) table of 0/1: 1 where outcome `bits` has player i's bit set."""
    m = len(engine.players)
    bits = np.arange(2**m, dtype=np.uint16)[:, None]
    return (bits >> np.arange(m - 1, -1, -1, dtype=np.uint16)) & 1


def payoff_table(engine):
    """(2**m, m) table of player i's payoff in outcome `bits`: its share of
    the outcome's value where it joins, else 0."""
    return joins_of(engine) * engine.share[:, None]


def scan_join_marginals(probs):
    n = int(math.log2(probs.size))
    idx = np.arange(probs.size)
    return np.array(
        [probs[((idx >> (n - 1 - i)) & 1) == 1].sum() for i in range(n)]
    )


@st.composite
def _line_games(draw):
    n = draw(st.integers(2, 8))
    ends = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    source, destination = sorted(draw(ends))
    t = line_topology(
        n,
        gen_prob=draw(st.floats(0.05, 1.0)),
        latency_us=draw(st.floats(10.0, 5000.0)),
        payoff=draw(st.floats(0.0, 1.0)),
    )
    cfg = co.CoalitionGameConfig(
        source=source,
        destination=destination,
        target_throughput=draw(st.sampled_from([1.0, 1000.0, 5000.0, 1e5])),
        hop_cost=draw(st.floats(0.0, 0.5)),
    )
    profile = tuple(draw(st.integers(0, len(co.GRID_STRATEGIES) - 1)) for _ in range(n))
    gamma = draw(st.sampled_from([0.0, math.pi / 2]) | st.floats(0.0, math.pi / 2))
    return co.ValueModel(cfg, t), list(range(n)), gamma, profile


def _pinned_line_game(n, source, destination, target, gamma, grid_points, gen_prob=1.0,
                      payoff=0.0):
    """A line game with 10 us links, no hop cost and the equal split, whose
    players start at the given indices into the grid."""
    t = line_topology(n, gen_prob=gen_prob, latency_us=10.0, payoff=payoff)
    cfg = co.CoalitionGameConfig(
        source=source, destination=destination, target_throughput=target, hop_cost=0.0
    )
    return co.ValueModel(cfg, t), list(range(n)), gamma, tuple(grid_points)


@settings(max_examples=150, deadline=None)
@given(game=_line_games())
# payoffs in the thousands, where grid points that tie exactly differ by
# more than an absolute 1e-12 of rounding noise: with that tolerance the
# state scan and the quadratic form picked different points of a tie
@example(game=_pinned_line_game(2, 0, 1, 5000.0, 0.5, [0, 74]))
@example(game=_pinned_line_game(3, 1, 2, 1e5, math.pi / 2, [16, 76, 4], payoff=1.0))
def test_quantum_round_matches_state_scan(game):
    model, players, gamma, profile = game
    engine = co._QuantumRound(model, players, gamma)
    oracle = ScanRound(model, players, gamma)
    payoffs, joins = payoff_table(engine), joins_of(engine)
    for bits, row in enumerate(payoffs):
        members = engine.coalition_of(bits)
        split = model.split_payoffs(co.Coalition(members, model.value(members)))
        assert row.tolist() == [split.get(p, 0.0) for p in players]
        # outsiders receive exactly nothing: best_response scores only the
        # outcomes where the player's own bit is 1
        assert (payoffs[bits][joins[bits] == 0] == 0.0).all()
    strategies = unitaries(players, profile)
    played = dense_chain(engine, strategies).amplitudes
    for i in range(len(players)):
        want = oracle.best_response(i, strategies)
        assert co.GRID_STRATEGIES[engine.best_response(i, played, profile[i])] == (want.theta, want.phi)
    # a full round-robin of the trajectory, and one round more, each round's
    # profile stepped by the scanned best response
    strategies = unitaries(players, (co.ALL_JOIN,) * len(players))
    for r in range(len(players) + 1):
        got, cdf = engine.round(r)
        table = np.diff(cdf, prepend=0.0)
        assert unitaries(players, got) == strategies
        want = q.measurement_probabilities(dense_chain(engine, strategies))
        np.testing.assert_allclose(table, want, rtol=0, atol=1e-12)
        assert engine.join_marginals(r).tolist() == scan_join_marginals(table).tolist()
        i = r % len(players)
        strategies[players[i]] = oracle.best_response(i, strategies)


def old_split_payoffs(coalition):
    """`ValueModel.split_payoffs` before the equal split, verbatim, with
    `split_weight` at its equal-split value of 1."""
    weights = {m: 1 for m in sorted(coalition.members)}
    total = sum(weights.values())
    return {m: coalition.value * w / total for m, w in weights.items()}


def old_payoff_table(engine):
    """`_QuantumRound.payoffs` before the equal split, verbatim, with
    `split_weight` at its equal-split value of 1."""
    values = engine.values
    payoffs = joins_of(engine) * np.array([float(1) for p in engine.players])
    totals = np.maximum(payoffs.sum(axis=1), 1.0)  # row 0 is the empty coalition
    payoffs *= values[:, None]
    payoffs /= totals[:, None]
    return payoffs


@settings(max_examples=150, deadline=None)
@given(game=_line_games())
def test_equal_split_matches_weighted_split_at_weight_one(game):
    model, players, gamma, _ = game
    engine = co._QuantumRound(model, players, gamma)
    assert payoff_table(engine).tobytes() == old_payoff_table(engine).tobytes()
    for bits in range(2 ** len(players)):
        members = engine.coalition_of(bits)
        coalition = co.Coalition(members, model.value(members))
        # hex tells a share of -0.0 from one of 0.0
        got = {m: v.hex() for m, v in model.split_payoffs(coalition).items()}
        assert got == {m: v.hex() for m, v in old_split_payoffs(coalition).items()}


# ---------------------------------------------------------------------------
# differential check: incremental referee engine against the dense chain and
# the per-call loop
# ---------------------------------------------------------------------------


def old_turned(engine, strategies, skip=None):
    """`_QuantumRound._turned` before the incremental engine, verbatim.

    Amplitudes after every player but the one at index `skip` turns its
    qubit, each step divided by its norm as StateVector.__init__ does, so
    they equal a chain of q.apply_unitary calls bit for bit."""
    amps = engine.base.amplitudes
    for i, p in enumerate(engine.players):
        if i != skip:
            amps = q.rotate(amps, i, strategies[p].matrix())
            amps = amps / float(np.linalg.norm(amps))
    return amps


def old_played_state(engine, strategies):
    last = len(engine.players) - 1
    amps = old_turned(engine, strategies, skip=last)
    return q.StateVector(q.rotate(amps, last, strategies[engine.players[last]].matrix()))


def old_best_response(engine, player_index, strategies):
    """The quadratic-form best response before memoization, verbatim apart
    from the tie tolerance, which scales with the scores."""
    shape = (2**player_index, 2, -1)
    psi = old_turned(engine, strategies, skip=player_index).reshape(shape)
    payoffs = payoff_table(engine)[:, player_index].reshape(shape)
    form = np.einsum("lbr,lcr,lar->abc", psi, psi.conj(), payoffs)
    scores = np.einsum("gab,gac,abc->g", co.GRID_MATRICES, co.GRID_MATRICES.conj(), form).real
    tol = tolerance(*scores.tolist())
    best, best_val = 0, -math.inf
    for k, val in enumerate(scores.tolist()):
        if val > best_val + tol:
            best, best_val = k, val
    return q.SingleQubitUnitary(*co.GRID_STRATEGIES[best])


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(2, 12),
    gamma=st.sampled_from([0.0, math.pi / 2]) | st.floats(0.0, math.pi / 2),
    data=st.data(),
)
def test_played_state_matches_apply_unitary_chain(m, gamma, data):
    cfg = co.CoalitionGameConfig(source=0, destination=m - 1)
    players = tuple(range(m))
    engine = co._QuantumRound(co.ValueModel(cfg, line_topology(m)), players, gamma)
    turn = st.integers(0, len(co.GRID_STRATEGIES) - 1)
    # best responses at random profiles, off the trajectory
    for _ in range(data.draw(st.integers(1, 3))):
        profile = [data.draw(turn) for _ in players]
        strategies = unitaries(players, profile)
        played = dense_chain(engine, strategies).amplitudes
        k = data.draw(st.integers(0, m - 1))
        want = old_best_response(engine, k, strategies)
        assert co.GRID_STRATEGIES[engine.best_response(k, played, profile[k])] == (want.theta, want.phi)
    # every round of the trajectory and its outcome table against the dense
    # chain, each profile stepped by the old best response; the kept
    # amplitudes are those of the trajectory's last round
    strategies = unitaries(players, (co.ALL_JOIN,) * m)
    for r in range(data.draw(st.integers(1, 2 * m + 2))):
        got, cdf = engine.round(r)
        table = np.diff(cdf, prepend=0.0)
        assert unitaries(players, got) == strategies
        chain = dense_chain(engine, unitaries(players, engine.trajectory[-1][0]))
        np.testing.assert_allclose(engine._amps, chain.amplitudes, rtol=0, atol=1e-12)
        want = q.measurement_probabilities(old_played_state(engine, strategies))
        np.testing.assert_allclose(table, want, rtol=0, atol=1e-12)
        strategies[r % m] = old_best_response(engine, r % m, strategies)


def _zero_value_line():
    """A 3-node line whose one path is worth exactly 0.0: a rate capped at
    1.0, a fidelity of 0.0 and two hops at a cost of 0.5."""
    cfg = co.CoalitionGameConfig(source=0, destination=2, target_throughput=1.0, hop_cost=0.5)
    return cfg, line_topology(3, payoff=0.0)


@settings(max_examples=150, deadline=None)
@given(
    # hop costs up to 3000 make some shares negative
    game=_random_graph_games(hop_cost=st.floats(0.0, 3000.0)).filter(
        lambda game: len(co.ValueModel(*game).paths) >= 2
    ),
    gamma=st.sampled_from([0.0, math.pi / 2]) | st.floats(0.0, math.pi / 2),
    grid_points=st.lists(st.integers(0, len(co.GRID_STRATEGIES) - 1), min_size=8, max_size=8),
)
# a coalition that holds a path but is worth exactly 0.0 pays nothing
@example(game=_zero_value_line(), gamma=math.pi / 2, grid_points=[co.ALL_JOIN] * 8)
def test_paying_outcome_best_response_matches_the_full_state(game, gamma, grid_points):
    model = co.ValueModel(*game)
    players = tuple(model.candidate_nodes())
    m = len(players)
    engine = co._QuantumRound(model, players, gamma)
    for i in range(m):
        pairs, shares = engine._paying[i]
        bit = 1 << (m - 1 - i)
        joined = [b for b in range(2**m) if b & bit and engine.share[b] != 0.0]
        assert pairs.tolist() == [[b ^ bit for b in joined], joined]
        assert shares.tolist() == engine.share[joined].tolist()
    profile = tuple(grid_points[:m])
    played = dense_chain(engine, unitaries(players, profile)).amplitudes
    for i in range(m):
        want = full_state_best_response(engine, i, played, profile[i])
        assert engine.best_response(i, played, profile[i]) == want


def old_quantum_coalition_form(
    cfg, topology, gamma=math.pi / 2.0, seed=0, max_rounds=60, confirm_window=3, model=None,
):
    """The referee game before the shared engine: a fresh engine per call,
    one dense chain of turns per state and one measure_computational per
    round. Ties between values, and marginals at 1/2, are decided with a
    tolerance, as in quantum_coalition_form. Every candidate node plays and
    starts proposing to join."""
    model = model or co.ValueModel(cfg, topology)
    players = model.candidate_nodes()
    strategies = {p: q.SingleQubitUnitary(math.pi, 0.0) for p in players}

    rng = np.random.default_rng(seed)
    engine = co._QuantumRound(model, players, gamma)
    history: list[dict] = []
    recent: list[frozenset[int]] = []
    best_seen = None
    stable = None
    rounds = 0

    for rounds in range(1, max_rounds + 1):
        state = old_played_state(engine, strategies)
        outcome_bits, _ = q.measure_computational(state, rng)
        measured = engine.coalition_of(int(outcome_bits, 2))
        value, path = model.evaluate(measured) if measured else (0.0, None)
        history.append(
            {
                "round": rounds,
                "strategies": {p: [strategies[p].theta, strategies[p].phi] for p in players},
                "outcome": outcome_bits,
                "members": sorted(measured),
                "value": value,
            }
        )
        if path is not None and (
            best_seen is None or value > best_seen[0] + tolerance(value, best_seen[0])
        ):
            best_seen = (value, measured)
        recent.append(measured)
        if len(recent) >= confirm_window and len(set(recent[-confirm_window:])) == 1:
            stable = measured
            break
        updater = (rounds - 1) % len(players)
        strategies[players[updater]] = old_best_response(engine, updater, strategies)

    chosen = None
    if stable is not None and model.evaluate(stable)[1] is not None:
        chosen = stable
    elif best_seen is not None:
        chosen = best_seen[1]
    else:
        probs = old_played_state(engine, strategies).probabilities()
        marginals = [probs[col == 1].sum() for col in joins_of(engine).T]
        chosen = frozenset(
            p for i, p in enumerate(players) if marginals[i] >= 0.5 - co.STRICT_EPS
        )
        if model.evaluate(chosen)[1] is None:
            chosen = frozenset(players)

    value, path = model.evaluate(chosen)
    coalition = co.Coalition(chosen, value)
    return co.CoalitionOutcome(
        stable_coalition=coalition,
        path=list(path),
        per_node_payoff=model.split_payoffs(coalition),
        rounds=rounds,
        history=history,
        referee=co.find_referee(topology, cfg.source),
    )


@settings(max_examples=150, deadline=None)
@given(game=_line_games(), data=st.data())
def test_shared_engine_replays_the_per_call_loop(game, data):
    model, _, gamma, _ = game
    seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=4))
    shared = []
    for seed in seeds:
        # limits per call, so the shared engine is extended out of order and
        # short games reach the marginal decode; a call on a fresh model
        # (model=None) walks its own trajectory from round 0
        shared.append(data.draw(st.booleans()))
        limits = dict(
            max_rounds=data.draw(st.integers(1, 80)),
            confirm_window=data.draw(st.integers(1, 5)),
        )
        kwargs = dict(gamma=gamma, seed=seed, model=model if shared[-1] else None)
        with round_limits(**limits):
            got = co.quantum_coalition_form(model.cfg, model.topology, **kwargs)
        want = old_quantum_coalition_form(model.cfg, model.topology, **kwargs, **limits)
        assert got.to_json_dict() == want.to_json_dict()
        assert got.rounds == want.rounds
        assert got.history == want.history
    assert list(model.referee_rounds) == [gamma] * any(shared)


def counted_best_responses(monkeypatch):
    """The player index of every best response played from here on."""
    calls = []
    best_response = co._QuantumRound.best_response

    def counting(self, *args):
        calls.append(args[0])
        return best_response(self, *args)

    monkeypatch.setattr(co._QuantumRound, "best_response", counting)
    return calls


@pytest.mark.parametrize("seed", range(5))
def test_two_tree_games_replay_the_per_call_loop_to_the_fixed_point(seed, monkeypatch):
    # the scenario-2 game at the default gamma: its 4 players reach a grid
    # Nash equilibrium after 8 best responses, and seeds 1-4 play on past it
    calls = counted_best_responses(monkeypatch)
    t = topo.canonical_two_tree_topology()
    cfg = co.CoalitionGameConfig(source=1, destination=8)
    model = co.ValueModel(cfg, t)
    got = co.quantum_coalition_form(cfg, t, seed=seed, model=model)
    want = old_quantum_coalition_form(cfg, t, seed=seed)
    assert got.to_json_dict() == want.to_json_dict()
    assert got.rounds == want.rounds
    assert got.history == want.history
    engine = model.referee_rounds[math.pi / 2]
    assert len(calls) <= 12
    assert len(engine.trajectory) == len(calls) + 1
    # past the fixed point no round plays a best response or grows the trajectory
    last = engine.round(99)
    assert len(calls) == 12 and len(engine.trajectory) == 13
    assert engine.period == 4
    assert calls[-4:] == [0, 1, 2, 3]
    assert len({engine.trajectory[r][0] for r in range(8, 13)}) == 1
    for r in (12, 13, 60, 10**6):
        assert all(a is b for a, b in zip(engine.round(r), last))
    table = np.diff(last[1], prepend=0.0)
    assert engine.join_marginals(10**6).tolist() == scan_join_marginals(table).tolist()
    assert len(calls) == 12 and len(engine.trajectory) == 13


def test_leader_mesh_trajectory_repeats_a_cycle_of_22_rounds(monkeypatch):
    # the CLI's default game: its 11 players' (profile, r mod m) at round 25
    # recurs at round 47, so no round past 47 plays a best response
    calls = counted_best_responses(monkeypatch)
    t = topo.canonical_leader_mesh_topology()
    model = co.ValueModel(co.CoalitionGameConfig(source=3, destination=7), t)
    players = tuple(model.candidate_nodes())
    m = len(players)
    engine = co._QuantumRound(model, players, math.pi / 2)
    engine.round(200)
    assert m == 11 and engine.period == 22
    assert len(engine.trajectory) - 1 - engine.period == 25
    assert len(calls) == 47 and len(engine.trajectory) == 48
    # against a walk that plays every best response, on the dense chain
    strategies = unitaries(players, (co.ALL_JOIN,) * m)
    for r in range(201):
        got, cdf = engine.round(r)
        assert unitaries(players, got) == strategies
        want = q.measurement_probabilities(dense_chain(engine, strategies))
        np.testing.assert_allclose(cdf, q.cdf_of(want), rtol=0, atol=1e-12)
        strategies[players[r % m]] = old_best_response(engine, r % m, strategies)
    assert len(calls) == 47


def test_quantum_game_leaves_no_reference_cycle():
    # the engine is kept by its model, so a reference back to the model
    # would leave both, and every outcome table, to the cyclic GC
    t = topo.canonical_two_tree_topology()
    cfg = co.CoalitionGameConfig(source=1, destination=8)
    gc.disable()
    try:
        model = co.ValueModel(cfg, t)
        co.quantum_coalition_form(cfg, t, seed=1, model=model)
        model_ref = weakref.ref(model)
        engine_ref = weakref.ref(model.referee_rounds[math.pi / 2])
        del model
        assert model_ref() is None
        assert engine_ref() is None
    finally:
        gc.enable()


@settings(max_examples=200, deadline=None)
@given(
    size=st.sampled_from([2**k for k in range(2, 13)]) | st.integers(4, 4096),
    zero_share=st.sampled_from([0.0, 0.9, 1.0]) | st.floats(0.0, 1.0),
    table_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**64 - 1),
    draws=st.integers(1, 5),
)
# a gamma = 0 table: one certain outcome among zeros
@example(size=4096, zero_share=1.0, table_seed=0, seed=0, draws=3)
def test_cdf_draw_is_generator_choice(size, zero_share, table_seed, seed, draws):
    # the game searches the engine's cached CDF where it drew
    # Generator.choice(n, p=table); a numpy whose choice draws otherwise
    # fails here instead of changing every quantum game's outcomes
    rng = np.random.default_rng(table_seed)
    table = rng.random(size)
    table[rng.random(size) < zero_share] = 0.0
    if not table.any():
        table[rng.integers(size)] = 1.0
    table /= table.sum()
    cdf = q.cdf_of(table)
    g1, g2 = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(draws):
        assert int(cdf.searchsorted(g1.random(), side="right")) == int(g2.choice(size, p=table))
    assert g1.bit_generator.state == g2.bit_generator.state


@pytest.mark.parametrize("count", [2, 4, 6, 8, 10])
def test_backbone_games_replay_the_per_call_loop(count):
    # count + 2 players: the two end nodes and `count` leaders and repeaters
    t = sim.backbone_topology(count)
    cfg = co.CoalitionGameConfig(source=2, destination=3)
    model = co.ValueModel(cfg, t)
    for gamma in (math.pi / 2, 0.7, 0.0):
        for seed in (0, 1):
            got = co.quantum_coalition_form(cfg, t, gamma=gamma, seed=seed, model=model)
            want = old_quantum_coalition_form(cfg, t, gamma=gamma, seed=seed)
            assert got.to_json_dict() == want.to_json_dict()
            assert got.rounds == want.rounds
            assert got.history == want.history


def test_shared_model_histories_share_strategy_records():
    # games on one model reuse each profile's strategies dict; their
    # histories still equal the per-call loop's and fresh-model runs'
    t = topo.canonical_two_tree_topology()
    cfg = co.CoalitionGameConfig(source=1, destination=8)
    model = co.ValueModel(cfg, t)
    records, total = {}, 0
    for gamma in (math.pi / 2, 0.0):
        for seed in range(4):
            got = co.quantum_coalition_form(cfg, t, gamma=gamma, seed=seed, model=model)
            fresh = co.quantum_coalition_form(cfg, t, gamma=gamma, seed=seed)
            want = old_quantum_coalition_form(cfg, t, gamma=gamma, seed=seed)
            assert got.history == fresh.history == want.history
            total += len(got.history)
            for rec in got.history:
                key = (gamma, tuple(map(tuple, rec["strategies"].values())))
                assert records.setdefault(key, rec["strategies"]) is rec["strategies"]
    assert len(records) < total


# games on graphs with two paths or more where no round measures a coalition
# holding a path, so the marginals decide, and where decoding the profile one
# round earlier or later picks a different coalition. Links are
# (a, b, latency_us, gen_prob, payoff).
_DECODED_GAMES = {
    "unconfirmed": (
        [(0, 1, 10.0, 0.5, 0.8), (1, 2, 10.0, 0.9, 0.2), (2, 3, 10.0, 0.1, 0.5),
         (0, 4, 100.0, 0.1, 0.2), (2, 4, 10.0, 0.9, 0.5)],
        dict(source=0, destination=4, hop_cost=0.3),
        dict(seed=2, max_rounds=3, confirm_window=2),
    ),
    "confirmed": (
        [(0, 1, 10.0, 0.1, 0.8), (0, 2, 100.0, 0.5, 0.5), (0, 3, 1000.0, 0.1, 0.5),
         (2, 3, 10.0, 0.5, 0.5), (1, 3, 10.0, 0.9, 0.2)],
        dict(source=3, destination=1, hop_cost=0.2),
        dict(seed=0, max_rounds=8, confirm_window=2),
    ),
}


def decoded_game(name):
    """(cfg, topology, seed, round limits) of one of the _DECODED_GAMES."""
    links, game, play = _DECODED_GAMES[name]
    n = 1 + max(max(a, b) for a, b, *_ in links)
    t = topo.NetworkTopology(
        tuple(topo.Node(i, topo.NodeRole.REPEATER, float(i), 0.0) for i in range(n)),
        tuple(
            topo.Link(a, b, topo.LinkParams(latency_us=latency, gen_prob=gen), 1.0, payoff)
            for a, b, latency, gen, payoff in links
        ),
        topo.ScenarioTag.CUSTOM,
    )
    cfg = co.CoalitionGameConfig(target_throughput=1.0, **game)
    limits = {k: v for k, v in play.items() if k != "seed"}
    return cfg, t, play["seed"], limits


@pytest.mark.parametrize("name", _DECODED_GAMES)
def test_marginal_decode_replays_the_per_call_loop(name):
    cfg, t, seed, limits = decoded_game(name)
    model = co.ValueModel(cfg, t)
    with round_limits(**limits):
        got = co.quantum_coalition_form(cfg, t, gamma=1.5, seed=seed, model=model)
    want = old_quantum_coalition_form(cfg, t, gamma=1.5, seed=seed, **limits)
    assert got.to_json_dict() == want.to_json_dict()
    assert got.history == want.history
    assert all(model.evaluate(frozenset(rec["members"]))[1] is None for rec in got.history)
    last = {tuple(rec["members"]) for rec in got.history[-limits["confirm_window"]:]}
    assert (len(last) == 1) == (name == "confirmed")


def _fixture_game(name):
    """The CLI's default game on the canonical mesh, or scenario 2's on the
    two-tree fixture, in _line_games' form: (model, players, gamma, profile)."""
    if name == "mesh":
        t, cfg = topo.canonical_leader_mesh_topology(), co.CoalitionGameConfig(3, 7)
    else:
        t, cfg = topo.canonical_two_tree_topology(), co.CoalitionGameConfig(1, 8)
    model = co.ValueModel(cfg, t)
    players = model.candidate_nodes()
    return model, players, math.pi / 2, (co.ALL_JOIN,) * len(players)


@settings(max_examples=100, deadline=None)
@given(game=_line_games())
@example(game=_fixture_game("mesh"))
@example(game=_fixture_game("two-tree"))
def test_outcome_table_matches_evaluate(game):
    model, players, gamma, _ = game
    engine = co._QuantumRound(model, players, gamma)
    for bits in range(2 ** len(players)):
        value, path = model.evaluate(engine.coalition_of(bits))
        # hex tells a value of -0.0 from one of 0.0
        assert (float(engine.values[bits]).hex(), engine.paths[bits]) == (value.hex(), path)
        assert engine.outcome(bits)[3:] == (value, path)


def test_quantum_game_never_calls_evaluate(monkeypatch):
    # every coalition the game reports is an outcome, read from the engine's
    # table; the CLI's default game, scenario 2's and the decoded games must
    # each give what they gave before evaluate was broken
    games = [
        (co.CoalitionGameConfig(3, 7), topo.canonical_leader_mesh_topology(), math.pi / 2, 0, {}),
        (co.CoalitionGameConfig(1, 8), topo.canonical_two_tree_topology(), math.pi / 2, 0, {}),
    ]
    for name in _DECODED_GAMES:
        cfg, t, seed, limits = decoded_game(name)
        games.append((cfg, t, 1.5, seed, limits))

    def play(cfg, t, gamma, seed, limits):
        with round_limits(**limits) if limits else contextlib.nullcontext():
            out = co.quantum_coalition_form(cfg, t, gamma=gamma, seed=seed)
        return out.to_json_dict(), out.history

    want = [play(*game) for game in games]

    def fail(self, members):
        raise AssertionError("the quantum game called ValueModel.evaluate")

    monkeypatch.setattr(co.ValueModel, "evaluate", fail)
    for game, (doc, history) in zip(games, want):
        assert play(*game) == (doc, history)
