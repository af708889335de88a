import json
import math
import re
import warnings
from dataclasses import asdict, replace

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entangle_games import coalition as co
from entangle_games import consensus as cons
from entangle_games import quantum as q
from entangle_games import simulation as sim
from entangle_games import topology as topo
from entangle_games import trial as tr
from entangle_games.errors import CapacityError, ParameterError, UnreachableError

from conftest import line_topology
from oracles import (assert_builder_invariants, depolarizing_strength, list_aggregate,
                     per_regime_select_path)


def quantum_cfg(**kw):
    kw.setdefault("trials", 1)
    kw.setdefault("regime", tr.Regime.QUANTUM_GAME_QUANTUM_NET)
    return tr.SimConfig(**kw)


# ---------------------------------------------------------------------------
# single trials
# ---------------------------------------------------------------------------


def test_one_hop_noiseless_trial():
    t = line_topology(2, gen_prob=1.0, latency_us=40.0, decoherence_rate=0.0)
    m = tr.run_trial(t, [0, 1], quantum_cfg(), np.random.default_rng(0))
    assert m.success
    assert m.total_latency_us == pytest.approx(40.0)
    assert m.end_to_end_fidelity == pytest.approx(1.0)
    assert m.hops == 1


@pytest.mark.parametrize("rate", [1e-4, 1e-3, 5e-3])
def test_one_hop_fidelity_closed_form(rate):
    # time in flight is the link latency; depolarized Bell fidelity follows
    # 1 - (3/4) (1 - exp(-rate * t))
    latency = 80.0
    t = line_topology(2, gen_prob=1.0, latency_us=latency, decoherence_rate=rate)
    m = tr.run_trial(t, [0, 1], quantum_cfg(), np.random.default_rng(0))
    assert m.end_to_end_fidelity == pytest.approx(
        1.0 - 0.75 * (1.0 - math.exp(-rate * latency)), abs=1e-10
    )


def test_two_hop_lifetime_abort():
    # gen_prob 0.01 makes a third-attempt wait (600us > 500us) near-certain
    t = line_topology(3, gen_prob=0.01, latency_us=40.0)
    m = tr.run_trial(t, [0, 1, 2], quantum_cfg(), np.random.default_rng(1))
    assert not m.success
    assert m.end_to_end_fidelity == 0.0
    assert m.ebits_delivered == 0


def test_failure_only_when_idle_exceeds_lifetime():
    t = line_topology(3, gen_prob=0.35, latency_us=10.0)
    cfg = quantum_cfg()
    for seed in range(200):
        rng = np.random.default_rng(seed)
        waits = [
            (int(np.random.default_rng(seed).geometric(0.35)) - 1) * cfg.sync_step_us
        ]
        m = tr.run_trial(t, [0, 1, 2], cfg, rng)
        if not m.success:
            # replay the generator to confirm some idle wait broke the budget
            replay = np.random.default_rng(seed)
            first = (int(replay.geometric(0.35)) - 1) * cfg.sync_step_us
            second = (int(replay.geometric(0.35)) - 1) * cfg.sync_step_us
            assert second > cfg.qubit_lifetime_us


def test_coherence_budget_failure():
    t = line_topology(2, gen_prob=1.0, latency_us=90.0, coherence_us=100.0)
    m = tr.run_trial(t, [0, 1], quantum_cfg(), np.random.default_rng(0))
    assert m.success  # 90 <= 100
    t2 = line_topology(3, gen_prob=1.0, latency_us=90.0, coherence_us=200.0)
    m2 = tr.run_trial(t2, [0, 1, 2], quantum_cfg(), np.random.default_rng(0))
    # 90 + 90 + swap step 300 overruns the weakest-link budget
    assert not m2.success
    assert m2.total_latency_us > 200.0


def test_success_respects_coherence_budget():
    t = line_topology(4, gen_prob=0.8, latency_us=25.0)
    cfg = quantum_cfg()
    budget = min(l.params.coherence_us for l in t.links)
    for seed in range(100):
        m = tr.run_trial(t, [0, 1, 2, 3], cfg, np.random.default_rng(seed))
        if m.success:
            assert m.total_latency_us <= budget


def test_zero_rate_gives_unit_fidelity():
    t = line_topology(3, gen_prob=1.0, latency_us=50.0, decoherence_rate=0.0)
    m = tr.run_trial(t, [0, 1, 2], quantum_cfg(), np.random.default_rng(0))
    assert m.end_to_end_fidelity == pytest.approx(1.0, abs=1e-12)


def test_classical_net_regime_uses_payoff_proxy():
    t = line_topology(3, gen_prob=0.2, latency_us=40.0, payoff=0.9)
    cfg = quantum_cfg(regime=tr.Regime.NO_GAME_CLASSICAL_NET)
    m = tr.run_trial(t, [0, 1, 2], cfg, np.random.default_rng(0))
    assert m.success
    # no generation retries: one sync step plus latency per hop
    assert m.total_latency_us == pytest.approx(2 * (40.0 + 300.0))
    assert m.end_to_end_fidelity == pytest.approx(0.81)


def test_metric_identities():
    t = line_topology(3, gen_prob=0.9, latency_us=70.0)
    for seed in range(50):
        m = tr.run_trial(t, [0, 1, 2], quantum_cfg(), np.random.default_rng(seed))
        assert m.normalized_delay_us == pytest.approx(m.total_latency_us / m.hops, abs=1e-9)
        assert m.entanglement_rate == pytest.approx(
            m.ebits_delivered / (m.total_latency_us * 1e-6), abs=1e-9
        )
        assert 0.0 <= m.end_to_end_fidelity <= 1.0


def test_empty_path_rejected():
    t = line_topology(2)
    with pytest.raises(ParameterError):
        tr.run_trial(t, [0], quantum_cfg(), np.random.default_rng(0))


def test_noise_monotone_under_paired_seeds():
    base = line_topology(3, gen_prob=1.0, latency_us=50.0, decoherence_rate=1e-4)
    noisier = base.with_link_updates(decoherence_rate=5e-4)
    cfg = quantum_cfg()
    for seed in range(25):
        clean = tr.run_trial(base, [0, 1, 2], cfg, np.random.default_rng(seed))
        noisy = tr.run_trial(noisier, [0, 1, 2], cfg, np.random.default_rng(seed))
        assert noisy.end_to_end_fidelity <= clean.end_to_end_fidelity + 1e-12


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def _const_trial(latency=100.0):
    return tr.TrialMetrics(latency, 2, latency / 2, 0.9, 1, 1 / (latency * 1e-6), True)


def numbers(trial):
    """A trial's metrics as floats, keyed by METRIC_FIELDS."""
    return {f: float(v) for f, v in asdict(trial).items()}


def rows_of(trials):
    """The metric rows `run_trials` returns for these trials."""
    return np.array([[numbers(t)[f] for t in trials] for f in tr.METRIC_FIELDS])


def test_aggregate_identical_trials_zero_stddev():
    means, stds = tr.aggregate(rows_of([_const_trial(), _const_trial(), _const_trial()]))
    assert stds["total_latency_us"] == 0.0
    assert means["total_latency_us"] == 100.0


def test_aggregate_two_point_sample_stddev():
    means, stds = tr.aggregate(rows_of([_const_trial(100.0), _const_trial(300.0)]))
    assert means["total_latency_us"] == pytest.approx(200.0)
    assert stds["total_latency_us"] == pytest.approx(math.sqrt(2 * 100.0**2 / 1))


def test_aggregate_success_fraction_in_unit_interval():
    trials = [_const_trial(), tr.TrialMetrics(50.0, 1, 50.0, 0.0, 0, 0.0, False)]
    means, _ = tr.aggregate(rows_of(trials))
    assert 0.0 <= means["success"] <= 1.0
    assert means["success"] == pytest.approx(0.5)


def test_aggregate_rejects_empty():
    with pytest.raises(ParameterError):
        tr.aggregate(rows_of([]))


def test_single_trial_aggregate_matches_trial():
    means, stds = tr.aggregate(rows_of([_const_trial(120.0)]))
    assert means["total_latency_us"] == 120.0
    assert all(v == 0.0 for v in stds.values())


# trial counts on both sides of the 8-wide unrolled and 128-wide blocked
# steps of numpy's pairwise sum
_AGGREGATE_SIZES = [1, 2, 7, 8, 9, 127, 128, 129, 1000, 5000]


def _metric_row(kind, scale, rng, n):
    """n trial values of one metric: a constant, 0/1 outcomes, uniforms up to
    scale, or values within a tenth of the largest double."""
    if kind == "constant":
        return np.full(n, scale * rng.uniform(-1.0, 1.0))
    if kind == "binary":
        return rng.integers(0, 2, n).astype(float)
    if kind == "uniform":
        return rng.uniform(0.0, scale, n)
    return rng.uniform(0.9, 1.0, n) * np.finfo(float).max


@settings(max_examples=300, deadline=None)
@given(
    n=st.sampled_from(_AGGREGATE_SIZES),
    kinds=st.lists(
        st.sampled_from(["constant", "binary", "uniform", "near-max"]), min_size=7, max_size=7
    ),
    scales=st.lists(st.sampled_from([1.0, 1e3, 1e150, 1e300, 1e308]), min_size=7, max_size=7),
    seed=st.integers(0, 2**32 - 1),
)
def test_aggregate_matches_per_column_oracle(n, kinds, scales, seed):
    # one reduction over the block gives each row the bits of its own 1-D
    # reduction; any warning, std(ddof=1) of one trial's included, fails
    rng = np.random.default_rng(seed)
    rows = np.array([_metric_row(k, s, rng, n) for k, s in zip(kinds, scales)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            want = list_aggregate(rows)
        except ParameterError as exc:
            with pytest.raises(ParameterError) as got:
                tr.aggregate(rows)
            assert str(got.value) == str(exc)
        else:
            assert tr.aggregate(rows) == want


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_backbone_topology_counts():
    for count in (2, 4, 6):
        t = sim.backbone_topology(count)
        assert len(t.nodes) == count + 2
        assert_builder_invariants(t)
    with pytest.raises(ParameterError):
        sim.backbone_topology(1)


def test_select_path_variants():
    # a backbone is a chain, so its one path is the one the game takes
    t = sim.backbone_topology(4)
    [only] = topo.simple_paths(t.adjacency, 2, 3)
    assert sim.select_path(t, 2, 3) == only


def played_select_path(topology, source, destination, regime, seed, player_count):
    """Reference per-regime path choice on a connected topology: plays the
    coalition game in every game regime."""
    if regime is tr.Regime.NO_GAME_CLASSICAL_NET:
        return nx.shortest_path(topology.graph(), source, destination)
    cfg = co.CoalitionGameConfig(source=source, destination=destination)
    if (
        regime is tr.Regime.QUANTUM_GAME_QUANTUM_NET
        and 2 < player_count
        and player_count + 2 <= q.MAX_QUBITS
    ):
        return co.quantum_coalition_form(cfg, topology, seed=seed).path
    return co.classical_coalition_form(cfg, topology).path


def _outcome(select, *args):
    try:
        return select(*args)
    except (CapacityError, ParameterError, UnreachableError) as exc:
        return type(exc), str(exc)


# latencies span 1 us to 100 s, so a path's rate term falls on both sides of
# its hop cost
_game_link_params = st.builds(
    topo.LinkParams,
    latency_us=st.floats(0.0, 8.0).map(lambda e: 10.0**e),
    gen_prob=st.floats(0.0, 1.0, exclude_min=True),
)


def _relinked(topology, params, payoffs):
    return replace(topology, links=tuple(
        replace(link, params=p, payoff=w) for link, p, w in zip(topology.links, params, payoffs)
    ))


@st.composite
def _backbones(draw):
    """A sweep backbone with the sweep's one LinkParams on every link, and
    payoffs drawn per link."""
    t = sim.backbone_topology(draw(st.integers(2, 14)))
    params = [draw(_game_link_params)] * len(t.links)
    payoffs = draw(st.lists(st.floats(0.0, 1.0), min_size=len(t.links), max_size=len(t.links)))
    return _relinked(t, params, payoffs)


# a backbone whose lone path scores 1e-13, positive but inside the tie
# tolerance, so no merge pays: 0.15 + 1e-13 e-bits/s against three hops at
# 0.05, with zero fidelity
_TIED_BACKBONE = _relinked(
    sim.backbone_topology(2), [topo.LinkParams(latency_us=1e6, gen_prob=0.15 + 1e-13)] * 3, [0.0] * 3
)


@settings(max_examples=250, deadline=None)
@example(topology=_TIED_BACKBONE, seed=0, xi=0)
# a 13-player game past the qubit cap
@example(topology=sim.backbone_topology(11), seed=0, xi=0)
@given(topology=_backbones(), seed=st.integers(0, 2**32), xi=st.integers(0, 20))
def test_select_path_matches_played_games(topology, seed, xi):
    # each regime's path, as the node sweep chose it per regime and as a
    # played game gives it, is the one select_path takes for all of them;
    # where a regime raises, select_path raises as the first such regime did
    count = len(topology.nodes) - 2
    outcomes = []
    for ri, regime in enumerate(tr.ALL_REGIMES):
        args = (topology, 2, 3, regime, [seed, xi, ri], count)
        outcomes.append(_outcome(per_regime_select_path, *args))
        assert outcomes[-1] == _outcome(played_select_path, *args)
    got = _outcome(sim.select_path, topology, 2, 3)
    raised = next((o for o in outcomes if isinstance(o, tuple)), None)
    if raised:
        assert got == raised
    else:
        assert all(path == got for path in outcomes)


def test_sweep_nodes_single_cell_matches_single_trial():
    regime = tr.Regime.CLASSICAL_GAME_QUANTUM_NET
    ri = tr.ALL_REGIMES.index(regime)
    cfg = tr.SimConfig(trials=1, regime=regime)
    res = sim.sweep_nodes(cfg, [3], seed=4)
    t = sim.backbone_topology(3)
    path = sim.select_path(t, 2, 3)
    metrics = tr.run_trial(t, path, cfg, np.random.default_rng([4, 0, ri, 0]))
    means, stds = res.cells[(3.0, regime.value)]
    assert means["normalized_delay_us"] == pytest.approx(metrics.normalized_delay_us)
    assert all(v == 0.0 for v in stds.values())


def test_sweep_nodes_requires_ascending_counts():
    # a repeated count would write its cell twice and drop one silently
    for counts in ([4, 2], [2, 2], [2, 4, 4], []):
        with pytest.raises(ParameterError, match="strictly ascending"):
            sim.sweep_nodes(tr.SimConfig(trials=1), counts)


def test_sweep_nodes_delay_trend_small():
    res = sim.sweep_nodes(tr.SimConfig(trials=30), [2, 4, 6], seed=9)
    for regime in tr.ALL_REGIMES:
        delays = [res.mean_of(float(c), regime.value, "normalized_delay_us") for c in (2, 4, 6)]
        assert delays == sorted(delays)
    for c in (2.0, 4.0, 6.0):
        assert res.mean_of(c, "quantum_game_quantum_net", "normalized_delay_us") <= res.mean_of(
            c, "classical_game_quantum_net", "normalized_delay_us"
        ) + 1e-9


def test_sweep_decoherence_orderings_small():
    rates = [1e-5, 1e-4]
    res = sim.sweep_decoherence(tr.SimConfig(trials=20), rates, seed=0)
    for variant in ("classical", "quantum"):
        fids = [res.mean_of(r, variant, "end_to_end_fidelity") for r in rates]
        assert fids[0] > fids[1]
    for r in rates:
        assert res.mean_of(r, "quantum", "end_to_end_fidelity") >= res.mean_of(
            r, "classical", "end_to_end_fidelity"
        )


@pytest.mark.parametrize("seed", [0, 7])
def test_decoherence_sweep_runs_no_consensus_trial(monkeypatch, seed):
    cfg = tr.SimConfig(trials=30)
    want = sim.sweep_decoherence(cfg, list(sim.DECOHERENCE_SWEEP_RATES), seed=seed).to_json()

    def no_trial(*args):
        raise AssertionError("the sweep read a consensus fidelity")

    monkeypatch.setattr(cons, "run_trial", no_trial)
    got = sim.sweep_decoherence(cfg, list(sim.DECOHERENCE_SWEEP_RATES), seed=seed).to_json()
    assert got == want


_RATES = st.sampled_from([0.0, 5e-324, 2.2e-308 / 3]) | st.floats(1e-9, 1e3)


@settings(max_examples=100, deadline=None)
@given(rate=_RATES)
@example(rate=math.inf)
@example(rate=math.nan)
def test_decoherence_fixture_built_at_its_rate(rate):
    """The sweep's per-rate fixture against the base fixture with the rate
    set on every link, as the sweep built it before."""
    def rated():
        return topo.canonical_two_tree_topology(
            link_defaults=topo.LinkParams(decoherence_rate=rate), cost_to_us=sim.SWEEP_COST_TO_US)

    try:
        want = topo.canonical_two_tree_topology(cost_to_us=sim.SWEEP_COST_TO_US).with_link_updates(
            decoherence_rate=rate).to_json_dict()
    except ParameterError as exc:
        assert not math.isfinite(rate)
        for build in (rated, lambda: sim.sweep_decoherence(tr.SimConfig(trials=1), [rate])):
            with pytest.raises(ParameterError, match=f"^{re.escape(str(exc))}$"):
                build()
        return
    assert rated().to_json_dict() == want


def test_sweep_decoherence_rejects_unsorted_rates():
    for rates in ([0.1, 0.01], [1e-5, 1e-5], [0.0, 1e-5, 1e-5], []):
        with pytest.raises(ParameterError, match="strictly ascending"):
            sim.sweep_decoherence(tr.SimConfig(trials=1), rates)


def test_sweep_serialization_is_deterministic():
    # stochastic generation so the seed is actually load-bearing
    flaky = topo.LinkParams(gen_prob=0.7)
    cfg = tr.SimConfig(trials=5)
    a = sim.sweep_nodes(cfg, [2, 3], seed=7, link_defaults=flaky)
    b = sim.sweep_nodes(cfg, [2, 3], seed=7, link_defaults=flaky)
    assert a.to_csv() == b.to_csv()
    assert a.to_json() == b.to_json()
    c = sim.sweep_nodes(cfg, [2, 3], seed=8, link_defaults=flaky)
    assert c.to_csv() != a.to_csv()


_finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1.7976931348623157e308]
)


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from([
        ("node_count", [r.value for r in tr.ALL_REGIMES]),
        ("decoherence_rate", ["classical", "quantum"]),
    ]),
    grid=st.lists(_finite_floats, min_size=1, max_size=3, unique=True),
    values=st.lists(_finite_floats, min_size=1, max_size=8),
    n=st.integers(1, tr.MAX_TRIALS),
)
def test_sweep_json_equals_indented_dump(kind, grid, values, n):
    x_label, series = kind
    stats = iter(values * (2 * len(grid) * len(series) * len(tr.METRIC_FIELDS)))
    cells = {
        (x, s): tuple({f: next(stats) for f in tr.METRIC_FIELDS} for _ in range(2))
        for x in grid
        for s in series
    }
    res = sim.SweepResult(x_label, grid, series, n, cells)
    assert res.to_json() == json.dumps(res.to_json_dict(), indent=2, sort_keys=True) + "\n"


def test_sweep_csv_shape():
    res = sim.sweep_nodes(tr.SimConfig(trials=2), [2, 3], seed=1)
    lines = res.to_csv().strip().splitlines()
    assert lines[0] == "x,regime,metric,mean,stddev,n"
    assert len(lines) == 1 + 2 * len(tr.ALL_REGIMES) * len(tr.METRIC_FIELDS)
    body = lines[1:]
    assert body == sorted(body, key=lambda l: (float(l.split(",")[0]), l.split(",")[1], l.split(",")[2]))


def test_sim_config_domain():
    with pytest.raises(ParameterError):
        tr.SimConfig(sync_step_us=600.0, qubit_lifetime_us=500.0)
    with pytest.raises(ParameterError):
        tr.SimConfig(trials=0)
    assert tr.SimConfig(trials=tr.MAX_TRIALS).trials == tr.MAX_TRIALS
    with pytest.raises(CapacityError, match="trials"):
        tr.SimConfig(trials=tr.MAX_TRIALS + 1)


@pytest.mark.parametrize("sweep, grid", [(sim.sweep_nodes, [2]), (sim.sweep_decoherence, [1e-5])])
def test_sweeps_reject_negative_seed(sweep, grid):
    # the node sweep's lossy cells once truncated a float seed
    lossy = {"link_defaults": topo.LinkParams(gen_prob=0.8)} if sweep is sim.sweep_nodes else {}
    for seed in (-1, 1.5, "7", True):
        with pytest.raises(ParameterError, match="seed"):
            sweep(tr.SimConfig(trials=1), grid, seed=seed, **lossy)


# ---------------------------------------------------------------------------
# reference trials: the scalar per-hop loop and the dense engine
# ---------------------------------------------------------------------------

_path_links = tr._path_links


def _run_on_links(links, cfg: tr.SimConfig, rng: np.random.Generator) -> tr.TrialMetrics:
    """Reference trial: the timing model written out hop by hop, one scalar
    float operation at a time."""
    hops = len(links)
    budget = min(l.params.coherence_us for l in links)
    payoff_proxy = math.prod(l.payoff for l in links)

    if not cfg.regime.quantum_net:
        total = sum(l.params.latency_us + cfg.sync_step_us for l in links)
        success = total <= budget
        return _metrics(total, hops, payoff_proxy, success)

    total = 0.0
    created: list[float] = []
    for i, link in enumerate(links):
        attempts = int(rng.geometric(link.params.gen_prob))
        wait = (attempts - 1) * cfg.sync_step_us
        if i > 0 and wait > cfg.qubit_lifetime_us:
            # the pair waiting at the junction sat idle too long
            total += wait
            return _metrics(total, hops, 0.0, False)
        total += wait
        created.append(total)
        total += link.params.latency_us
        if i > 0:
            total += cfg.sync_step_us  # swap at the junction node
    if total > budget:
        return _metrics(total, hops, 0.0, False)

    decay = sum(l.params.decoherence_rate * (total - t0) for l, t0 in zip(links, created))
    return _metrics(total, hops, 0.25 + 0.75 * math.exp(-decay), True)


def _metrics(total: float, hops: int, fidelity: float, success: bool) -> tr.TrialMetrics:
    ebits = 1 if success else 0
    return tr.TrialMetrics(
        total_latency_us=total,
        hops=hops,
        normalized_delay_us=total / hops,
        end_to_end_fidelity=fidelity,
        ebits_delivered=ebits,
        entanglement_rate=ebits / (total * 1e-6),
        success=success,
    )


def dense_run_trial(topology, path, cfg, rng):
    """Reference trial that tracks the delivered pair as a 4x4 density matrix,
    one depolarizing channel per hop."""
    links = _path_links(topology, path)
    hops = len(links)
    budget = min(l.params.coherence_us for l in links)
    payoff_proxy = math.prod(l.payoff for l in links)

    if not cfg.regime.quantum_net:
        total = sum(l.params.latency_us + cfg.sync_step_us for l in links)
        success = total <= budget
        return _metrics(total, hops, payoff_proxy, success)

    total = 0.0
    created: list[float] = []
    for i, link in enumerate(links):
        attempts = int(rng.geometric(link.params.gen_prob))
        wait = (attempts - 1) * cfg.sync_step_us
        if i > 0 and wait > cfg.qubit_lifetime_us:
            # the pair waiting at the junction sat idle too long
            total += wait
            return _metrics(total, hops, 0.0, False)
        total += wait
        created.append(total)
        total += link.params.latency_us
        if i > 0:
            total += cfg.sync_step_us  # swap at the junction node
    if total > budget:
        return _metrics(total, hops, 0.0, False)

    rho = q.bell_pair().density_matrix()
    for i, link in enumerate(links):
        held = total - created[i]
        strength = depolarizing_strength(link.params.decoherence_rate, held)
        rho = q.apply_channel(rho, i % 2, q.NoiseChannel(q.ChannelKind.DEPOLARIZING, strength))
    fidelity = q.fidelity(rho, q.bell_pair())
    return _metrics(total, hops, fidelity, True)


def _line(params):
    """A chain with one link per LinkParams, payoff 0.95 each."""
    nodes = tuple(topo.Node(i, topo.NodeRole.REPEATER, float(i), 0.0) for i in range(len(params) + 1))
    links = tuple(topo.Link(i, i + 1, p, p.latency_us, 0.95) for i, p in enumerate(params))
    return topo.NetworkTopology(nodes, links, topo.ScenarioTag.CUSTOM)


_link_params = st.builds(
    topo.LinkParams,
    latency_us=st.floats(1.0, 2000.0),
    coherence_us=st.sampled_from([500.0, 5_000.0, 50_000.0]),
    decoherence_rate=st.floats(0.0, 1e-2),
    gen_prob=st.floats(0.0, 1.0, exclude_min=True),
)


@settings(max_examples=300, deadline=None)
@given(
    params=st.lists(_link_params, min_size=1, max_size=11),
    regime=st.sampled_from(tr.ALL_REGIMES),
    seed=st.integers(0, 2**32 - 1),
)
def test_closed_form_trial_matches_dense_oracle(params, regime, seed):
    t = _line(params)
    path = list(range(len(params) + 1))
    cfg = quantum_cfg(regime=regime)
    got = numbers(tr.run_trial(t, path, cfg, np.random.default_rng(seed)))
    want = numbers(dense_run_trial(t, path, cfg, np.random.default_rng(seed)))
    fidelity = want.pop("end_to_end_fidelity")
    assert got.pop("end_to_end_fidelity") == pytest.approx(fidelity, abs=1e-12, rel=0)
    assert got == want


# ---------------------------------------------------------------------------
# differential check: run_trials against the per-trial loop
# ---------------------------------------------------------------------------


def per_trial_run_trials(topology, path, cfg, seed_parts):
    """Reference run_trials: a fresh generator for every trial, no shortcut."""
    links = _path_links(topology, path)
    return [
        _run_on_links(links, cfg, np.random.default_rng([*seed_parts, i]))
        for i in range(cfg.trials)
    ]


def draws_nothing(params, regime):
    """Whether the trials of a cell on links with these params draw no
    random number: classical-net regimes draw none, and a geometric at
    gen_prob 1 is always 1."""
    return not regime.quantum_net or all(p.gen_prob == 1.0 for p in params)


def assert_cell_rows(rows, want, constant):
    """One cell of run_trials against the (7, trials) rows `want` of its
    per-trial loop, bit for bit: one column that every trial equals where
    the cell draws nothing, else one column per trial."""
    assert rows.shape == (len(tr.METRIC_FIELDS), 1 if constant else want.shape[1])
    assert np.broadcast_to(rows, want.shape).tobytes() == want.tobytes()


# gen_probs on both sides of numpy's geometric branch point at 1/3, the low
# tail included
_gen_probs = (
    st.just(1.0)
    | st.sampled_from([1 / 3, float(np.nextafter(1 / 3, 0))])
    | st.floats(1e-3, 0.05)
    | st.floats(0.05, 1.0, exclude_max=True)
)

_mixed_link_params = st.builds(
    topo.LinkParams,
    latency_us=st.floats(1.0, 2000.0),
    coherence_us=st.sampled_from([500.0, 5_000.0, 50_000.0]),
    decoherence_rate=st.floats(0.0, 1e-2),
    gen_prob=_gen_probs,
)

# paths of 8 hops and more that mostly deliver, with fidelity off the 1/4
# floor: the hop order of their decay sum shows in the last bit
_long_lived_paths = st.lists(
    st.builds(
        topo.LinkParams,
        latency_us=st.floats(1.0, 2000.0),
        coherence_us=st.just(1e9),
        decoherence_rate=st.floats(1e-6, 1e-5),
        gen_prob=st.just(1.0) | st.floats(0.9, 1.0),
    ),
    min_size=8,
    max_size=14,
)

_seed_parts = st.lists(st.integers(0, 2**64 - 1), max_size=4).map(tuple)


# eight hops whose decay a pairwise sum over the hop axis moves in the last bit
_PAIRWISE_SENSITIVE = [
    topo.LinkParams(latency_us=latency, coherence_us=1e9, decoherence_rate=rate)
    for latency, rate in zip(
        [300.0, 500.0, 300.0, 300.0, 400.0, 100.0, 100.0, 500.0],
        [2e-6, 3e-6, 2e-6, 3e-6, 2e-6, 3e-6, 2e-6, 5e-6],
    )
]


@settings(max_examples=300, deadline=None)
@example(
    params=_PAIRWISE_SENSITIVE,
    all_certain=True,
    long_lived=False,
    regime=tr.Regime.QUANTUM_GAME_QUANTUM_NET,
    seed_parts=(),
    trials=2,
)
@given(
    params=st.lists(_mixed_link_params, min_size=1, max_size=14) | _long_lived_paths,
    all_certain=st.booleans(),
    long_lived=st.booleans(),
    regime=st.sampled_from(tr.ALL_REGIMES),
    seed_parts=_seed_parts,
    trials=st.integers(1, 50),
)
def test_run_trials_matches_per_trial_loop(
    params, all_certain, long_lived, regime, seed_parts, trials
):
    if all_certain:  # long paths with every gen_prob 1 are otherwise rare
        params = [replace(p, gen_prob=1.0) for p in params]
    if long_lived:
        # a budget that paths of up to 14 hops deliver within, and rates that
        # keep their fidelity off the 1/4 floor
        params = [
            replace(p, coherence_us=1e9, decoherence_rate=p.decoherence_rate / 1000)
            for p in params
        ]
    t = _line(params)
    path = list(range(len(params) + 1))
    cfg = quantum_cfg(regime=regime, trials=trials)
    want = per_trial_run_trials(t, path, cfg, seed_parts)
    assert [
        tr.run_trial(t, path, cfg, np.random.default_rng([*seed_parts, i])) for i in range(trials)
    ] == want
    [got] = tr.run_trials(t, path, cfg, [seed_parts])
    assert got.dtype == np.float64
    assert got.flags.c_contiguous
    columns = rows_of(want)
    assert_cell_rows(got, columns, draws_nothing(params, regime))
    # a constant cell reduces its one column: each trial's value, stddev 0
    assert tr.aggregate(got) == list_aggregate(columns[:, :got.shape[1]])


# a cell's seed parts: each part one or two uint32 words, so cells of one
# batch mostly differ in word count, and some mix words past SeedSequence's
# four-word pool
_cell_parts = st.lists(
    st.integers(0, 2**32 - 1) | st.integers(2**32, 2**64 - 1), min_size=1, max_size=4
).map(tuple)


@settings(max_examples=150, deadline=None)
@example(
    params=[topo.LinkParams(gen_prob=0.8)] * 3,
    regime=tr.Regime.QUANTUM_GAME_QUANTUM_NET,
    cells=[(0, 1, 2), (0, 1, 3)],
    trials=10,
    chunk_draws=16,
)
@given(
    params=st.lists(_mixed_link_params, min_size=1, max_size=8),
    regime=st.sampled_from(tr.ALL_REGIMES),
    cells=st.lists(_cell_parts, min_size=1, max_size=4),
    trials=st.integers(1, 30),
    # None keeps CHUNK_DRAWS; a small bound puts chunk edges inside cells
    # and chunks across cell edges
    chunk_draws=st.none() | st.integers(1, 120),
)
def test_batched_cells_match_per_cell_loop(params, regime, cells, trials, chunk_draws):
    t = _line(params)
    path = list(range(len(params) + 1))
    cfg = quantum_cfg(regime=regime, trials=trials)
    alone = [tr.run_trials(t, path, cfg, [parts])[0] for parts in cells]
    timed, real_time_trials = [], tr._time_trials
    with pytest.MonkeyPatch.context() as mp:
        if chunk_draws is not None:
            mp.setattr(tr, "CHUNK_DRAWS", chunk_draws)
        mp.setattr(tr, "_time_trials", lambda *args: timed.append(args[2].size) or real_time_trials(*args))
        block = tr.run_trials(t, path, cfg, cells)
    # a lossy chunk stays within the bound, or takes one trial of each cell
    bound = max(chunk_draws or tr.CHUNK_DRAWS, len(params) * len(cells))
    assert all(size <= bound for size in timed)
    assert len(block) == len(cells)
    assert block.dtype == np.float64
    assert block.flags.c_contiguous
    for parts, rows, one in zip(cells, block, alone):
        want = rows_of(per_trial_run_trials(t, path, cfg, parts))
        assert_cell_rows(rows, want, draws_nothing(params, regime))
        assert rows.tobytes() == one.tobytes()
        assert tr.aggregate(rows) == tr.aggregate(one)


@pytest.mark.parametrize("gen_prob", [1.0, 0.8, 0.2])
def test_sweep_nodes_equals_one_cell_calls(gen_prob):
    # the quantum-net regimes share the backbone's path and draw in one
    # batch; each cell must read as if run on its own. Classical-net cells
    # draw nothing, and every cell does at gen_prob 1
    link = topo.LinkParams(gen_prob=gen_prob)
    base, seed, counts = tr.SimConfig(trials=40), 2**32 + 5, [2, 5, 9]
    res = sim.sweep_nodes(base, counts, seed=seed, link_defaults=link)
    want = {}
    for xi, count in enumerate(counts):
        t = sim.backbone_topology(count, link)
        for ri, regime in enumerate(tr.ALL_REGIMES):
            path = per_regime_select_path(t, 2, 3, regime, [seed, xi, ri], count)
            cfg = replace(base, regime=regime)
            [rows] = tr.run_trials(t, path, cfg, [(seed, xi, ri)])
            want[(float(count), regime.value)] = tr.aggregate(rows)
    assert res.cells == want
    constant = {r.value for r in tr.ALL_REGIMES if gen_prob == 1.0 or not r.quantum_net}
    rows = [row for row in res.rows() if row[1] in constant]
    assert len(rows) == len(counts) * len(constant) * len(tr.METRIC_FIELDS)
    assert all(std == 0.0 and n == base.trials for _, _, _, _, std, n in rows)


@settings(max_examples=150, deadline=None)
@given(
    params=st.lists(_mixed_link_params, min_size=1, max_size=14),
    regime=st.sampled_from(tr.ALL_REGIMES),
    cells=st.lists(_cell_parts, min_size=1, max_size=3),
    trials=st.integers(1, tr.MAX_TRIALS),
)
def test_constant_cell_aggregates_to_its_one_trial(params, regime, cells, trials):
    # a cell whose trials draw nothing is its one trial: mean x and stddev
    # exactly 0.0 at any trial count, with no column per trial
    if regime.quantum_net:
        params = [replace(p, gen_prob=1.0) for p in params]
    t = _line(params)
    path = list(range(len(params) + 1))
    cfg = quantum_cfg(regime=regime, trials=trials)
    block = tr.run_trials(t, path, cfg, cells)
    assert block.shape == (len(cells), len(tr.METRIC_FIELDS), 1)
    for parts, rows in zip(cells, block):
        x = numbers(tr.run_trial(t, path, cfg, np.random.default_rng([*parts, 0])))
        means, stds = tr.aggregate(rows)
        assert {f: v.hex() for f, v in means.items()} == {f: v.hex() for f, v in x.items()}
        assert {f: v.hex() for f, v in stds.items()} == dict.fromkeys(tr.METRIC_FIELDS, "0x0.0p+0")


def pcg64_states(rngs):
    """(state, inc) of each generator's PCG64 as 128-bit ints."""
    return [(s["state"]["state"], s["state"]["inc"]) for s in (r.bit_generator.state for r in rngs)]


_wide_seed_parts = _seed_parts | st.lists(st.integers(0, 2**200), max_size=3).map(tuple)
# first trial index of a chunk: 0, or anywhere below the trial cap
_starts = st.just(0) | st.integers(1, tr.MAX_TRIALS - 300)


@settings(max_examples=200, deadline=None)
@given(seed_parts=_wide_seed_parts, start=_starts, n=st.integers(1, 300))
def test_hashed_states_equal_default_rng(seed_parts, start, n):
    assert tr._hashing_matches_numpy()
    want = pcg64_states(np.random.default_rng([*seed_parts, i]) for i in range(start, start + n))
    assert tr._as_ints(tr._hashed_states([(seed_parts, start, n)])) == want


@settings(max_examples=200, deadline=None)
@given(
    seed_parts=_wide_seed_parts,
    start=_starts,
    n=st.integers(1, 300),
    k=st.integers(1, 14),
    probs=st.lists(st.sampled_from([1 / 3, 1.0]) | st.floats(1 / 3, 1.0), min_size=1, max_size=14),
)
def test_vector_stream_equals_default_rng(seed_parts, start, n, k, probs):
    # the k-th double of every trial's stream, the state it leaves, and the
    # geometric draws of the search branch
    indices = range(start, start + n)
    rngs = [np.random.default_rng([*seed_parts, i]) for i in indices]
    state = tr._hashed_states([(seed_parts, start, n)])
    for _ in range(k):
        [(state, u)] = tr._next_doubles(state, 1)
    assert u.tolist() == [r.random(k)[-1] for r in rngs]
    assert tr._as_ints(state) == pcg64_states(rngs)
    rngs = [np.random.default_rng([*seed_parts, i]) for i in indices]
    want = [[r.geometric(p) for r in rngs] for p in probs]
    assert tr._attempts([(seed_parts, start, n)], probs).tolist() == want


# gen_probs on both sides of 1/3: from the first one below, each trial draws
# on a generator set to the state its stream reached
_hop_probs = st.lists(
    st.sampled_from([1 / 3, 0.8, 1.0]) | st.floats(1 / 3, 1.0) | st.floats(0.05, 0.33),
    min_size=1,
    max_size=14,
)


@settings(max_examples=150, deadline=None)
@given(
    cells=st.tuples(_cell_parts, _cell_parts).filter(
        lambda c: len(tr._words(c[0])) != len(tr._words(c[1]))
    ),
    starts=st.tuples(_starts, _starts),
    counts=st.tuples(st.integers(1, 150), st.integers(1, 150)),
    probs=_hop_probs,
)
def test_hop_blocks_equal_default_rng(cells, starts, counts, probs):
    # the hops of two cells of different word counts, stepped together
    spans = list(zip(cells, starts, counts))
    indices = [(parts, i) for parts, start, n in spans for i in range(start, start + n)]
    split = next((h for h, p in enumerate(probs) if p < 1 / 3), len(probs))
    got = tr._attempts(spans, probs)
    state, head = tr._search_draws(tr._hashed_states(spans), probs[:split])
    rngs = [np.random.default_rng([*parts, i]) for parts, i in indices]
    assert got.tolist() == [[r.geometric(p) for r in rngs] for p in probs]
    rngs = [np.random.default_rng([*parts, i]) for parts, i in indices]
    assert head.tolist() == [[r.geometric(p) for r in rngs] for p in probs[:split]]
    assert tr._as_ints(state) == pcg64_states(rngs)


def test_hashed_states_take_a_seed_of_any_length():
    # 2**3000 takes 94 uint32 words, all mixed past the pool; the other cell
    # holds none of them
    spans = [((2**3000 + 12345, 7), 5, 40), ((3,), 0, 20)]
    rngs = [np.random.default_rng([*parts, i]) for parts, start, n in spans
            for i in range(start, start + n)]
    assert tr._as_ints(tr._hashed_states(spans)) == pcg64_states(rngs)
    probs = [0.8, 0.5, 0.2]
    rngs = [np.random.default_rng([*parts, i]) for parts, start, n in spans
            for i in range(start, start + n)]
    assert tr._attempts(spans, probs).tolist() == [[r.geometric(p) for r in rngs] for p in probs]


def test_run_trials_rejects_negative_seed_parts():
    t = _line([topo.LinkParams(gen_prob=0.5)])
    for parts in [(1, -1), (1, 1.5), ("7",), (True,)]:
        with pytest.raises(ParameterError, match="seed"):
            tr.run_trials(t, [0, 1], quantum_cfg(trials=3), [parts])


def test_lossy_cell_draws_are_capped_before_any_draw(monkeypatch):
    # the paper's largest backbone, 11 hops, runs at MAX_TRIALS
    assert tr.MAX_CELL_DRAWS >= 11 * tr.MAX_TRIALS
    t = _line([topo.LinkParams(gen_prob=0.5)] * 3)
    monkeypatch.setattr(tr, "MAX_CELL_DRAWS", 3 * 40)
    assert tr.run_trials(t, [0, 1, 2, 3], quantum_cfg(trials=40), [(0,)]).shape == (1, 7, 40)
    # the cap holds per cell, not per batch
    cells = [(0,), (1,), (2,)]
    assert tr.run_trials(t, [0, 1, 2, 3], quantum_cfg(trials=40), cells).shape == (3, 7, 40)
    monkeypatch.setattr(tr, "_attempts", lambda *args: pytest.fail("drew past the cap"))
    with pytest.raises(CapacityError, match="3 hops x 41 trials exceed 120 draws per cell"):
        tr.run_trials(t, [0, 1, 2, 3], quantum_cfg(trials=41), [(0,)])
    # cells that draw nothing run one trial, so they have no cap
    cfg = quantum_cfg(trials=41, regime=tr.Regime.CLASSICAL_GAME_CLASSICAL_NET)
    [rows] = tr.run_trials(t, [0, 1, 2, 3], cfg, [(0,)])
    assert_cell_rows(rows, rows_of(per_trial_run_trials(t, [0, 1, 2, 3], cfg, (0,))), True)


@pytest.mark.parametrize("hashing", [True, False], ids=["hashed", "default-rng-fallback"])
@pytest.mark.parametrize("chunk_draws, chunks", [(27, [6] * 16 + [4]), (3, [1] * 100)])
def test_chunked_cell_equals_one_pass(monkeypatch, hashing, chunk_draws, chunks):
    # hops on both sides of gen_prob 1/3 and a seed of two uint32 words;
    # chunks of at most chunk_draws // 4 trials, and of one trial where
    # chunk_draws is below the hop count
    probs = [0.9, 1 / 3, 0.2, 0.6]
    t = _line([topo.LinkParams(latency_us=80.0, gen_prob=p) for p in probs])
    links, cfg, parts = tr._path_links(t, [0, 1, 2, 3, 4]), quantum_cfg(trials=100), (2**32 + 7, 3)
    if not hashing:
        monkeypatch.setattr(tr, "_hashing_matches_numpy", lambda: False)
    want = tr._time_trials(links, cfg, tr._attempts([(parts, 0, 100)], probs), np.empty((7, 100)))
    assert 0 < want[tr.METRIC_FIELDS.index("success")].sum() < 100
    timed, real_time_trials = [], tr._time_trials

    def counting_time_trials(links, cfg, attempts, out):
        timed.append(attempts.shape[1])
        return real_time_trials(links, cfg, attempts, out)

    monkeypatch.setattr(tr, "_time_trials", counting_time_trials)
    monkeypatch.setattr(tr, "CHUNK_DRAWS", chunk_draws)
    [got] = tr.run_trials(t, [0, 1, 2, 3, 4], cfg, [parts])
    assert timed == chunks
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


def test_failed_self_check_falls_back_to_default_rng(monkeypatch):
    t = _line([topo.LinkParams(latency_us=80.0, gen_prob=p) for p in (0.3, 0.6, 0.9)])
    cfg = quantum_cfg(trials=200)
    # two cells in one batch, whose seeds differ in word count
    cells = [(2**40 + 3, 1, 2), (7,)]
    hashed = tr.run_trials(t, [0, 1, 2, 3], cfg, cells)
    drawn = []
    real = np.random.default_rng
    monkeypatch.setattr(tr, "_hashing_matches_numpy", lambda: False)
    monkeypatch.setattr(tr.np.random, "default_rng", lambda seed: drawn.append(seed) or real(seed))
    fallback = tr.run_trials(t, [0, 1, 2, 3], cfg, cells)
    assert drawn == [[*parts, i] for parts in cells for i in range(200)]
    assert fallback.tobytes() == hashed.tobytes()


def test_self_check_hashes_a_batch(monkeypatch):
    # a hash that seeds every span of a batch from its first cell reads
    # right on one cell; the once-per-process check runs two
    assert tr._hashing_matches_numpy.__wrapped__()
    real = tr._hashed_states
    monkeypatch.setattr(
        tr, "_hashed_states", lambda spans: real([(spans[0][0], s, n) for _, s, n in spans])
    )
    assert not tr._hashing_matches_numpy.__wrapped__()


class RecordingGenerator:
    """A generator that records each state it is set to and each geometric
    draw."""

    def __init__(self, rng, log):
        self.rng, self.log = rng, log

    @property
    def bit_generator(self):
        return self

    @property
    def state(self):
        return self.rng.bit_generator.state

    @state.setter
    def state(self, value):
        self.log.append("state")
        self.rng.bit_generator.state = value

    def geometric(self, p):
        self.log.append(p)
        return self.rng.geometric(p)


@pytest.mark.parametrize(
    "gen_probs, regime, built_rngs, per_trial, timed_shape",
    [
        ([1.0, 1.0, 1.0], tr.Regime.QUANTUM_GAME_QUANTUM_NET, [], [], (3, 1)),
        ([1.0, 1.0, 1.0], tr.Regime.CLASSICAL_GAME_QUANTUM_NET, [], [], (3, 1)),
        ([0.2, 0.2, 0.2], tr.Regime.CLASSICAL_GAME_CLASSICAL_NET, [], [], (3, 1)),
        ([0.2, 0.2, 0.2], tr.Regime.NO_GAME_CLASSICAL_NET, [], [], (3, 1)),
        ([0.9, 1 / 3, 0.9], tr.Regime.QUANTUM_GAME_QUANTUM_NET, [], [], (3, 7)),
        ([1.0, 0.2, 1.0], tr.Regime.CLASSICAL_GAME_QUANTUM_NET, [0], ["state", 0.2, 1.0], (3, 7)),
    ],
    ids=[
        "certain-quantum-game", "certain-classical-game", "classical-net", "no-game", "lossy",
        "one-lossy-link",
    ],
)
def test_run_trials_builds_a_generator_only_where_trials_differ(
    monkeypatch, gen_probs, regime, built_rngs, per_trial, timed_shape
):
    # a certain cell times one trial with no draws; a lossy cell draws hops at
    # gen_prob >= 1/3 for all trials at once, and from the first hop below
    # 1/3 on sets one generator to each trial's state in turn
    built, log, timed = [], [], []
    real_rng, real_time_trials = np.random.default_rng, tr._time_trials

    def counting_time_trials(links, cfg, attempts, out):
        timed.append(attempts.shape)
        return real_time_trials(links, cfg, attempts, out)

    assert tr._hashing_matches_numpy()  # run the once-per-process check before counting
    monkeypatch.setattr(
        tr.np.random,
        "default_rng",
        lambda seed: built.append(seed) or RecordingGenerator(real_rng(seed), log),
    )
    monkeypatch.setattr(tr, "_time_trials", counting_time_trials)
    params = [topo.LinkParams(latency_us=50.0, gen_prob=p) for p in gen_probs]
    t = _line(params)
    cfg = quantum_cfg(regime=regime, trials=7)
    [got] = tr.run_trials(t, [0, 1, 2, 3], cfg, [(4, 2)])
    assert (built, log, timed) == (built_rngs, per_trial * 7, [timed_shape])
    monkeypatch.undo()
    want = rows_of(per_trial_run_trials(t, [0, 1, 2, 3], cfg, (4, 2)))
    assert_cell_rows(got, want, draws_nothing(params, regime))
