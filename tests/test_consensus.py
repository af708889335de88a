import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entangle_games import consensus as cons
from entangle_games import quantum as q
from entangle_games import topology as topo
from entangle_games import trial as tr
from entangle_games.errors import ParameterError, UnreachableError

import oracles
from oracles import assert_builder_invariants


# unit (fidelity, cost) weights, the run_consensus default
W = (1.0, 1.0)


def canonical():
    return topo.canonical_two_tree_topology()


# ---------------------------------------------------------------------------
# hop utility
# ---------------------------------------------------------------------------


def test_hop_utility_worked_example():
    # option (F=0.8, C=60) beats (F=0.3, C=100) at unit weights, scale 100
    good = cons.hop_utility(topo.ChoiceOption(2, 60.0, 0.8), (1.0, 1.0), 100.0)
    bad = cons.hop_utility(topo.ChoiceOption(0, 100.0, 0.3), (1.0, 1.0), 100.0)
    assert good == pytest.approx(0.2)
    assert bad == pytest.approx(-0.7)
    assert good > bad


def test_hop_utility_fidelity_only_weighting():
    option = topo.ChoiceOption(0, 87.0, 0.62)
    assert cons.hop_utility(option, (1.0, 0.0), 87.0) == pytest.approx(0.62)


def test_hop_utility_symmetry():
    a = topo.ChoiceOption(0, 50.0, 0.5)
    b = topo.ChoiceOption(1, 50.0, 0.5)
    w = (0.7, 1.3)
    assert cons.hop_utility(a, w, 50.0) == cons.hop_utility(b, w, 50.0)


def test_hop_utility_rejects_bad_weights():
    option = topo.ChoiceOption(0, 10.0, 0.5)
    with pytest.raises(ParameterError):
        cons.hop_utility(option, (0.0, 0.0), 10.0)
    with pytest.raises(ParameterError):
        cons.hop_utility(option, (-1.0, 1.0), 10.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ParameterError):
            cons.hop_utility(option, (bad, 1.0), 10.0)
        with pytest.raises(ParameterError):
            cons.hop_utility(option, (1.0, bad), 10.0)


def _with_costs(t, option_cost=None, trunk_cost=None):
    """`t` with node 1's second option, or the leaders' trunk link, at a new cost."""
    choices = dict(t.choices)
    if option_cost is not None:
        choices[1] = (choices[1][0], replace(choices[1][1], cost=option_cost))
    links = tuple(
        replace(l, cost=trunk_cost) if trunk_cost is not None and l.endpoints() == {0, 5} else l
        for l in t.links
    )
    return topo.NetworkTopology(t.nodes, links, t.scenario, choices)


def test_estimate_domain_checks():
    # every option's cost, and the cost of a link a path hop falls back on,
    # must be positive; payoffs are checked where options and links are built
    for cost in (0.0, -1.0, math.nan):
        message = re.escape(f"latency_cost must be > 0, got {cost}")
        with pytest.raises(ParameterError, match=message):
            cons.choice_state(_with_costs(canonical(), option_cost=cost))
        with pytest.raises(ParameterError, match=message):
            cons.path_cost_and_payoff(_with_costs(canonical(), trunk_cost=cost), [1, 0, 5, 8])
    with pytest.raises(ParameterError, match="payoff"):
        topo.ChoiceOption(0, 10.0, 1.5)


# ---------------------------------------------------------------------------
# classical rounds
# ---------------------------------------------------------------------------


def test_classical_round_switches_featured_node():
    t = canonical()
    state = cons.choice_state(t)
    new_state, switches, ties, blocked = cons.consensus_round(
        state, t.choices, cons.utility_table(t.choices, W)
    )
    assert len(switches) == 1
    s = switches[0]
    assert (s.node, s.from_hop, s.to_hop) == (1, 0, 2)
    assert s.d_cost == pytest.approx(-40.0)
    assert s.d_payoff == pytest.approx(0.5)
    assert new_state[1] == 2
    assert ties == [] and blocked == []


def test_classical_round_is_idempotent():
    t = canonical()
    state = cons.choice_state(t)
    utilities = cons.utility_table(t.choices, W)
    state, first, _, _ = cons.consensus_round(state, t.choices, utilities)
    state, second, _, _ = cons.consensus_round(state, t.choices, utilities)
    assert first and not second


def test_every_switch_strictly_improves_utility():
    t = canonical()
    state = cons.choice_state(t)
    _, switches, _, _ = cons.consensus_round(state, t.choices, cons.utility_table(t.choices, W))
    for s in switches:
        options = {o.next_hop: o for o in t.choices[s.node]}
        scale = max(o.cost for o in options.values())
        before = cons.hop_utility(options[s.from_hop], (1.0, 1.0), scale)
        after = cons.hop_utility(options[s.to_hop], (1.0, 1.0), scale)
        assert after > before


def test_cycle_creating_switch_is_blocked():
    # nodes 1 and 2 both strictly prefer each other over leader 0
    worse = topo.ChoiceOption(0, 100.0, 0.1)
    choices = {
        1: (worse, topo.ChoiceOption(2, 10.0, 0.9)),
        2: (worse, topo.ChoiceOption(1, 10.0, 0.9)),
    }
    new_state, switches, ties, blocked = cons.consensus_round(
        {1: 0, 2: 0}, choices, cons.utility_table(choices, W)
    )
    assert [s.node for s in switches] == [1]
    assert blocked == [{"node": 2, "to": 1, "reason": "cycle"}]
    assert new_state == {1: 2, 2: 0}
    assert ties == []


# ---------------------------------------------------------------------------
# quantum rounds
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    gamma=st.floats(0.0, math.pi / 2),
    magnitude=st.floats(1e-6, 1e12),
    sign=st.sampled_from((1.0, -1.0)),
    d_payoff=st.floats(-1.0, 1.0),
)
@example(gamma=0.0, magnitude=1e-6, sign=1.0, d_payoff=-1.0)
@example(gamma=math.pi / 2, magnitude=1e12, sign=-1.0, d_payoff=1.0)
def test_ewl_accept_reduces_to_utility_comparison(gamma, magnitude, sign, d_payoff):
    # the entangled accept/decline game the quantum round used to play on
    # every strict improvement accepts exactly the utility gains, at every
    # gamma, so the round switches on the gain alone
    d_utility = sign * magnitude
    assert _old_ewl_accepts(gamma, d_utility, d_payoff) == (d_utility > 0)


def test_quantum_round_equals_classical_without_ties():
    t = topo.build_scenario2([3, 4], seed=12)
    state = cons.choice_state(t)
    utilities = cons.utility_table(t.choices, W)
    classical_state, classical_switches, _, _ = cons.consensus_round(state, t.choices, utilities)
    rng = np.random.default_rng(5)
    quantum_state, quantum_switches, ties, _ = cons.consensus_round(
        state, t.choices, utilities, rng
    )
    assert ties == []
    assert quantum_state == classical_state
    assert [s.node for s in quantum_switches] == [s.node for s in classical_switches]


def test_tie_coin_agreement_over_seeds():
    t = canonical()
    state = cons.choice_state(t)
    utilities = cons.utility_table(t.choices, W)
    flips = []
    for seed in range(1000):
        settled: set[int] = set()
        _, _, ties, _ = cons.consensus_round(
            state, t.choices, utilities, np.random.default_rng(seed), settled
        )
        assert len(ties) == 1 and ties[0]["node"] == 8
        assert ties[0]["agree"] is True
        assert ties[0]["bit_node"] == ties[0]["bit_hop"]
        assert settled == {8}
        flips.append(ties[0]["bit_node"])
    assert 400 < sum(flips) < 600  # fair coin over 1000 seeds


def test_settled_tie_is_not_reflipped():
    t = canonical()
    state = cons.choice_state(t)
    settled: set[int] = set()
    utilities = cons.utility_table(t.choices, W)
    rng = np.random.default_rng(3)
    state, _, first, _ = cons.consensus_round(state, t.choices, utilities, rng, settled)
    state, _, second, _ = cons.consensus_round(state, t.choices, utilities, rng, settled)
    assert len(first) == 1 and second == []


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------


def test_classical_run_on_canonical_fixture():
    out = cons.run_consensus(canonical(), 1, 8, variant="classical", seed=0)
    assert out.converged
    assert out.path == [1, 2, 0, 5, 8]
    assert [
        (s.node, s.from_hop, s.to_hop, s.d_cost, s.d_payoff) for s in out.switches
    ] == [(1, 0, 2, -40.0, 0.5)]
    # 60 + 70 + 50 + 200 across the four hops
    assert out.total_cost == pytest.approx(380.0)
    assert out.rounds == 2
    assert 0.0 <= out.end_to_end_fidelity <= 1.0


@pytest.mark.parametrize("variant", ["classical", "quantum"])
def test_fidelity_trial_is_seeded_by_the_seed_alone(variant):
    # lossy links and a coherence budget no trial exhausts: the fidelity
    # follows the trial's geometric draws, which come from `seed` whether or
    # not a SimConfig is passed
    lossy = canonical().with_link_updates(gen_prob=0.7, decoherence_rate=1e-3, coherence_us=1e9)
    fidelities = set()
    for seed in range(1, 9):
        got = cons.run_consensus(lossy, 1, 8, variant=variant, seed=seed,
                                 sim_config=tr.SimConfig(trials=1))
        want = cons.run_consensus(lossy, 1, 8, variant=variant, seed=seed)
        assert got.end_to_end_fidelity == want.end_to_end_fidelity
        fidelities.add(want.end_to_end_fidelity)
    assert len(fidelities) > 1


def test_fidelity_trial_runs_once_on_first_read(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return tr.run_trial(*args)

    monkeypatch.setattr(cons, "run_trial", counted)
    out = cons.run_consensus(canonical(), 1, 8, variant="quantum", seed=3)
    assert calls == []
    first = out.end_to_end_fidelity
    assert len(calls) == 1
    assert out.end_to_end_fidelity == first
    assert out.to_json_dict()["end_to_end_fidelity"] == first
    assert len(calls) == 1


def test_path_stays_simple():
    out = cons.run_consensus(canonical(), 1, 8, variant="classical")
    assert len(out.path) == len(set(out.path))


def test_minimal_trees_converge_in_one_round():
    t = topo.build_scenario2([1, 1])
    out = cons.run_consensus(t, 1, 3, variant="classical")
    assert out.converged
    assert out.rounds == 1
    assert out.path == [1, 0, 2, 3]
    assert out.switches == []


def test_variants_agree_on_tie_free_fixture():
    t = topo.build_scenario2([3, 4], seed=12)
    classical = cons.run_consensus(t, 1, 5, variant="classical", seed=0)
    quantum = cons.run_consensus(t, 1, 5, variant="quantum", seed=0)
    assert classical.path == quantum.path
    assert classical.total_cost == quantum.total_cost


def test_convergence_within_round_bound():
    # endpoints must span the two trunk-linked trees: leaf 1 (tree 1, leader 0)
    # and leaf 6 (tree 2, leader 5)
    for seed in range(5):
        t = topo.build_scenario2([4, 3, 2], seed=seed)
        out = cons.run_consensus(t, 1, 6, variant="classical")
        assert out.converged
        assert out.rounds <= 2 * len(t.nodes)


def test_round_trace_shape():
    out = cons.run_consensus(canonical(), 1, 8, variant="classical")
    assert [r["round"] for r in out.trace] == list(range(1, out.rounds + 1))
    for rec in out.trace:
        assert set(rec) == {"round", "switches", "total_cost", "fidelity"}
    assert out.trace[-1]["switches"] == []


def test_quantum_tie_switch_improves_fidelity_on_scaled_fixture():
    # seed 0 settles node 8's coin on the fast sibling route; with stretched
    # latencies the extra swap is cheaper than the slow direct uplink
    t = topo.canonical_two_tree_topology(cost_to_us=10.0)
    rated = t.with_link_updates(decoherence_rate=3e-5)
    classical = cons.run_consensus(rated, 1, 8, variant="classical", seed=0)
    quantum = cons.run_consensus(rated, 1, 8, variant="quantum", seed=0)
    assert quantum.path == [1, 2, 0, 5, 9, 8]
    assert quantum.end_to_end_fidelity > classical.end_to_end_fidelity


def test_blocked_switch_surfaces_on_outcome():
    # both leaves of the first tree strictly prefer each other; the second
    # switch would loop the pointers and must be blocked
    weights = {
        (1, 0): (100.0, 0.2),
        (1, 2): (50.0, 0.9),
        (2, 0): (100.0, 0.2),
        (2, 1): (50.0, 0.9),
        (4, 3): (60.0, 0.8),
        (0, 3): (50.0, 0.9),
    }
    t = topo.build_scenario2([2, 1], link_weights=weights)
    out = cons.run_consensus(t, 1, 4, variant="classical")
    assert out.converged
    assert [s.node for s in out.switches] == [1]
    assert any(b["node"] == 2 and b["reason"] == "cycle" for b in out.blocked)
    assert out.path == [1, 2, 0, 3, 4]


def test_leader_endpoint_rejected():
    with pytest.raises(ParameterError):
        cons.run_consensus(canonical(), 0, 8)


def test_same_tree_endpoints_rejected():
    with pytest.raises(ParameterError):
        cons.run_consensus(canonical(), 1, 2)


def test_negative_seed_rejected():
    for variant in ("classical", "quantum"):
        for seed in (-1, 1.5, "7", True):
            with pytest.raises(ParameterError, match="seed"):
                cons.run_consensus(canonical(), 1, 8, variant=variant, seed=seed)


def test_bad_weights_rejected_without_choice_sets():
    # the minimal trees carry no choice set, so no hop utility reads the weights
    t = topo.build_scenario2([1, 1])
    for weights in ((-1.0, 0.0), (0.0, 0.0), (math.inf, 1.0)):
        with pytest.raises(ParameterError, match="weights"):
            cons.run_consensus(t, 1, 3, weights=weights)


def test_missing_trunk_is_unreachable():
    t = canonical()
    no_trunk = [l for l in t.links if not (l.a == 0 and l.b == 5 or l.a == 5 and l.b == 0)]
    broken = topo.NetworkTopology(t.nodes, tuple(no_trunk), t.scenario, t.choices)
    with pytest.raises(UnreachableError):
        cons.run_consensus(broken, 1, 8)


def test_outcome_json_shape():
    out = cons.run_consensus(canonical(), 1, 8, variant="quantum", seed=1)
    doc = out.to_json_dict()
    assert doc["path"] == out.path
    assert doc["converged"] is True
    assert {"node", "from", "to", "d_cost", "d_payoff"} == set(doc["switches"][0])


def test_realized_topology_moves_switched_link():
    out = cons.run_consensus(canonical(), 1, 8, variant="classical")
    realized = out.realized_topology
    assert realized.link_between(1, 2) is not None
    assert realized.link_between(1, 0) is None
    assert_builder_invariants(realized)


# ---------------------------------------------------------------------------
# differential test against the two rounds before `consensus_round`, on
# the per-node `ChoiceSet` state that `oracles` keeps
# ---------------------------------------------------------------------------


def _utilities(cs, weights):
    """A node's (current, alternative) hop utilities, scored afresh in every
    round as `consensus_round` did before its per-game utility table."""
    scale = max(e.latency_cost for e in cs.estimates)
    cur = oracles.hop_utility(cs.estimate_for(cs.current), weights, scale)
    alt = oracles.hop_utility(cs.estimate_for(cs.alternative()), weights, scale)
    return cur, alt


def _old_apply_switches(state, desires, tie_nodes=frozenset()):
    """`_apply_switches` before `consensus_round`, kept verbatim as the oracle."""
    new_state = dict(state)
    switches: list[cons.SwitchRecord] = []
    tie_moves: list[cons.SwitchRecord] = []
    blocked: list[dict] = []
    for node in sorted(desires):
        target = desires[node]
        cs = new_state[node]
        if target == cs.current:
            continue
        if oracles._creates_cycle(new_state, node, target):
            blocked.append({"node": node, "to": target, "reason": "cycle"})
            continue
        old = cs.estimate_for(cs.current)
        new = cs.estimate_for(target)
        record = cons.SwitchRecord(
            node=node,
            from_hop=cs.current,
            to_hop=target,
            d_cost=new.latency_cost - old.latency_cost,
            d_payoff=new.fidelity_payoff - old.fidelity_payoff,
        )
        (tie_moves if node in tie_nodes else switches).append(record)
        new_state[node] = replace(cs, current=target)
    return new_state, switches, tie_moves, blocked


def _old_classical_round(state, weights=(1.0, 1.0), order=None, blocked_sink=None):
    """`classical_consensus_round`, kept verbatim as the oracle."""
    nodes = order if order is not None else sorted(state)
    desires: dict[int, int] = {}
    for node in nodes:
        cs = state[node]
        cur, alt = _utilities(cs, weights)
        desires[node] = cs.alternative() if alt > cur else cs.current
    new_state, switches, _, blocked = _old_apply_switches(state, desires)
    if blocked_sink is not None:
        blocked_sink.extend(blocked)
    return new_state, switches


def _old_ewl_accepts(gamma: float, d_utility: float, d_payoff: float) -> bool:
    """`_ewl_accepts`, the accept/decline game on the dense engine, kept
    verbatim as the oracle."""
    matrix = np.zeros((4, 2))
    matrix[3] = (d_utility, max(d_payoff, 0.0))
    commit = q.SingleQubitUnitary(math.pi, 0.0)
    hold = q.SingleQubitUnitary(0.0, 0.0)
    joint = q.ewl_game(gamma, (commit, commit), matrix)
    switcher_holds = q.ewl_game(gamma, (hold, commit), matrix)
    hop_declines = q.ewl_game(gamma, (commit, hold), matrix)
    return joint[0] >= switcher_holds[0] - 1e-12 and joint[1] >= hop_declines[1] - 1e-12


def _old_quantum_round(
    state, weights, gamma, rng, tie_epsilon=cons.TIE_EPSILON, coin_angle=0.0, order=None,
    settled=None, blocked_sink=None,
):
    """`quantum_consensus_round`, kept verbatim as the oracle."""
    nodes = order if order is not None else sorted(state)
    settled = settled if settled is not None else set()
    desires: dict[int, int] = {}
    ties: list[dict] = []
    tie_nodes: set[int] = set()
    for node in nodes:
        cs = state[node]
        cur, alt = _utilities(cs, weights)
        if abs(alt - cur) <= tie_epsilon:
            if node in settled:
                desires[node] = cs.current
                continue
            bit_a, bit_b, agree = q.coin_flip_consensus(rng, coin_angle)
            desires[node] = cs.alternative() if bit_a == 1 else cs.current
            settled.add(node)
            tie_nodes.add(node)
            ties.append(
                {"node": node, "bit_node": bit_a, "bit_hop": bit_b, "agree": agree,
                 "chosen": desires[node]}
            )
        elif alt > cur:
            old = cs.estimate_for(cs.current)
            new = cs.estimate_for(cs.alternative())
            accepted = _old_ewl_accepts(gamma, alt - cur, new.fidelity_payoff - old.fidelity_payoff)
            desires[node] = cs.alternative() if accepted else cs.current
        else:
            desires[node] = cs.current
    new_state, switches, _, blocked = _old_apply_switches(state, desires, tie_nodes)
    if blocked_sink is not None:
        blocked_sink.extend(blocked)
    return new_state, switches, ties


def _old_run_consensus(topology, source, destination, weights, variant, seed, gamma=math.pi / 2):
    """The round loop of `run_consensus` before `consensus_round`, verbatim
    apart from the endpoint checks, which are unchanged and run first, and
    from taking the state helpers from `oracles`.
    Returns the outcome and the fidelity trial's value, run eagerly as it was
    before `ConsensusOutcome.end_to_end_fidelity` ran it on first read."""
    state = oracles.choice_state(topology)
    rng = np.random.default_rng(seed)
    rounds_cap = 2 * len(topology.nodes)
    switches, tie_events, blocked, trace = [], [], [], []
    settled: set[int] = set()
    converged = False
    rounds = 0
    for rounds in range(1, rounds_cap + 1):
        if variant == "classical":
            state, new_switches = _old_classical_round(state, weights, blocked_sink=blocked)
            new_ties: list[dict] = []
        else:
            state, new_switches, new_ties = _old_quantum_round(
                state, weights, gamma, rng, settled=settled, blocked_sink=blocked
            )
        switches.extend(new_switches)
        for t in new_ties:
            tie_events.append({"round": rounds, **t})
        path = oracles.current_path(state, topology, source, destination)
        cost, proxy = oracles.path_cost_and_payoff(state, topology, path)
        trace.append(
            {
                "round": rounds,
                "switches": [s.to_json_dict() for s in new_switches],
                "total_cost": cost,
                "fidelity": proxy,
            }
        )
        if not new_switches and not new_ties:
            converged = True
            break
    path = oracles.current_path(state, topology, source, destination)
    total_cost, _ = oracles.path_cost_and_payoff(state, topology, path)
    realized = oracles.realize_topology(topology, state)
    rng = np.random.default_rng([seed, 0xC0F1])
    fidelity = tr.run_trial(realized, path, tr.SimConfig(), rng).end_to_end_fidelity
    outcome = cons.ConsensusOutcome(
        path=path, switches=switches, total_cost=total_cost,
        converged=converged, rounds=rounds, tie_events=tie_events, blocked=blocked,
        trace=trace, realized_topology=realized, seed=seed,
    )
    return outcome, fidelity


@st.composite
def _consensus_games(draw):
    """Random scenario-2 trees; half draw every choice link from two values,
    which makes utility ties and mutual sibling preferences (cycles) common.
    Half give some links a cost apart from their options' costs: a moved
    link's latency then scales by a drawn ratio, or by 1 where its cost is
    not positive, and such a cost on the trunk or a lone leaf's uplink fails
    the path's cost check. Some of those also give one option a cost of 0."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=2, max_size=3))
    t = topo.build_scenario2(sizes)
    link_weights = None
    if draw(st.booleans()):
        pair = draw(st.lists(
            st.tuples(st.sampled_from((50.0, 60.0, 100.0)), st.sampled_from((0.3, 0.5, 0.9))),
            min_size=2, max_size=2,
        ))
        link_weights = {
            (node, opt.next_hop): draw(st.sampled_from(pair))
            for node, opts in t.choices.items() for opt in opts
        }
    topology = topo.build_scenario2(sizes, link_weights=link_weights, seed=draw(st.integers(0, 99)))
    if draw(st.booleans()):
        costs = st.sampled_from((-5.0, 0.0, 1.0, 45.0, 150.0))
        links = tuple(
            replace(l, cost=draw(costs)) if draw(st.integers(0, 3)) == 0 else l
            for l in topology.links
        )
        choices = dict(topology.choices)
        if choices and draw(st.integers(0, 3)) == 0:
            node = draw(st.sampled_from(sorted(choices)))
            k = draw(st.integers(0, 1))
            choices[node] = tuple(replace(o, cost=0.0) if i == k else o
                                  for i, o in enumerate(choices[node]))
        topology = topo.NetworkTopology(topology.nodes, links, topology.scenario, choices)
    first = range(1, sizes[0] + 1)
    second = range(sizes[0] + 2, sizes[0] + sizes[1] + 2)
    weights = draw(st.sampled_from([(1.0, 1.0), (1.0, 0.0), (0.0, 1.0)]) | st.tuples(
        st.floats(0.01, 3.0), st.floats(0.0, 3.0)))
    return (
        topology,
        draw(st.sampled_from(first)),
        draw(st.sampled_from(second)),
        weights,
        draw(st.sampled_from(("classical", "quantum"))),
        draw(st.integers(0, 2**32 - 1)),
    )


def _result_or_error(run):
    """(what `run()` returns, None), or (None, the (type, message) of the
    error it raises)."""
    try:
        return run(), None
    except (ParameterError, UnreachableError) as e:
        return None, (type(e), str(e))


def _new_run_consensus(*game):
    out = cons.run_consensus(*game)
    return out, out.end_to_end_fidelity


@settings(max_examples=300, deadline=None)
@given(game=_consensus_games())
def test_run_consensus_matches_old_rounds(game):
    new, new_error = _result_or_error(lambda: _new_run_consensus(*game))
    old, old_error = _result_or_error(lambda: _old_run_consensus(*game))
    assert new_error == old_error
    if new_error:
        return
    (new, new_fidelity), (old, fidelity) = new, old
    assert new_fidelity == fidelity
    assert new.to_json_dict() == old.to_json_dict()
    assert new.trace == old.trace
    assert new.realized_topology.to_json_dict() == old.realized_topology.to_json_dict()
