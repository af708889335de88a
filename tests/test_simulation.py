import math
from dataclasses import asdict, replace

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


def quantum_cfg(**kw):
    kw.setdefault("trials", 1)
    kw.setdefault("regime", sim.Regime.QUANTUM_GAME_QUANTUM_NET)
    return sim.SimConfig(**kw)


# ---------------------------------------------------------------------------
# single trials
# ---------------------------------------------------------------------------


def test_one_hop_noiseless_trial():
    t = line_topology(2, gen_prob=1.0, latency_us=40.0, decoherence_rate=0.0)
    m = sim.run_trial(t, [0, 1], quantum_cfg(), np.random.default_rng(0))
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
    m = sim.run_trial(t, [0, 1], quantum_cfg(), np.random.default_rng(0))
    assert m.end_to_end_fidelity == pytest.approx(
        1.0 - 0.75 * (1.0 - math.exp(-rate * latency)), abs=1e-10
    )


def test_two_hop_lifetime_abort():
    # gen_prob 0.01 makes a third-attempt wait (600us > 500us) near-certain
    t = line_topology(3, gen_prob=0.01, latency_us=40.0)
    m = sim.run_trial(t, [0, 1, 2], quantum_cfg(), np.random.default_rng(1))
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
        m = sim.run_trial(t, [0, 1, 2], cfg, rng)
        if not m.success:
            # replay the generator to confirm some idle wait broke the budget
            replay = np.random.default_rng(seed)
            first = (int(replay.geometric(0.35)) - 1) * cfg.sync_step_us
            second = (int(replay.geometric(0.35)) - 1) * cfg.sync_step_us
            assert second > cfg.qubit_lifetime_us


def test_coherence_budget_failure():
    t = line_topology(2, gen_prob=1.0, latency_us=90.0, coherence_us=100.0)
    m = sim.run_trial(t, [0, 1], quantum_cfg(), np.random.default_rng(0))
    assert m.success  # 90 <= 100
    t2 = line_topology(3, gen_prob=1.0, latency_us=90.0, coherence_us=200.0)
    m2 = sim.run_trial(t2, [0, 1, 2], quantum_cfg(), np.random.default_rng(0))
    # 90 + 90 + swap step 300 overruns the weakest-link budget
    assert not m2.success
    assert m2.total_latency_us > 200.0


def test_success_respects_coherence_budget():
    t = line_topology(4, gen_prob=0.8, latency_us=25.0)
    cfg = quantum_cfg()
    budget = min(l.params.coherence_us for l in t.links)
    for seed in range(100):
        m = sim.run_trial(t, [0, 1, 2, 3], cfg, np.random.default_rng(seed))
        if m.success:
            assert m.total_latency_us <= budget


def test_zero_rate_gives_unit_fidelity():
    t = line_topology(3, gen_prob=1.0, latency_us=50.0, decoherence_rate=0.0)
    m = sim.run_trial(t, [0, 1, 2], quantum_cfg(), np.random.default_rng(0))
    assert m.end_to_end_fidelity == pytest.approx(1.0, abs=1e-12)


def test_classical_net_regime_uses_payoff_proxy():
    t = line_topology(3, gen_prob=0.2, latency_us=40.0, payoff=0.9)
    cfg = quantum_cfg(regime=sim.Regime.NO_GAME_CLASSICAL_NET)
    m = sim.run_trial(t, [0, 1, 2], cfg, np.random.default_rng(0))
    assert m.success
    # no generation retries: one sync step plus latency per hop
    assert m.total_latency_us == pytest.approx(2 * (40.0 + 300.0))
    assert m.end_to_end_fidelity == pytest.approx(0.81)


def test_metric_identities():
    t = line_topology(3, gen_prob=0.9, latency_us=70.0)
    for seed in range(50):
        m = sim.run_trial(t, [0, 1, 2], quantum_cfg(), np.random.default_rng(seed))
        assert m.normalized_delay_us == pytest.approx(m.total_latency_us / m.hops, abs=1e-9)
        assert m.entanglement_rate == pytest.approx(
            m.ebits_delivered / (m.total_latency_us * 1e-6), abs=1e-9
        )
        assert 0.0 <= m.end_to_end_fidelity <= 1.0


def test_empty_path_rejected():
    t = line_topology(2)
    with pytest.raises(ParameterError):
        sim.run_trial(t, [0], quantum_cfg(), np.random.default_rng(0))


def test_noise_monotone_under_paired_seeds():
    base = line_topology(3, gen_prob=1.0, latency_us=50.0, decoherence_rate=1e-4)
    noisier = base.with_link_updates(decoherence_rate=5e-4)
    cfg = quantum_cfg()
    for seed in range(25):
        clean = sim.run_trial(base, [0, 1, 2], cfg, np.random.default_rng(seed))
        noisy = sim.run_trial(noisier, [0, 1, 2], cfg, np.random.default_rng(seed))
        assert noisy.end_to_end_fidelity <= clean.end_to_end_fidelity + 1e-12


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def _const_trial(latency=100.0):
    return sim.TrialMetrics(latency, 2, latency / 2, 0.9, 1, 1 / (latency * 1e-6), True)


def numbers(trial):
    """A trial's metrics as floats, keyed by METRIC_FIELDS."""
    return {f: float(v) for f, v in asdict(trial).items()}


def columns_of(trials):
    """The metric columns `run_trials` returns for these trials."""
    return {f: np.array([numbers(t)[f] for t in trials]) for f in sim.METRIC_FIELDS}


def test_aggregate_identical_trials_zero_stddev():
    means, stds = sim.aggregate(columns_of([_const_trial(), _const_trial(), _const_trial()]))
    assert stds["total_latency_us"] == 0.0
    assert means["total_latency_us"] == 100.0


def test_aggregate_two_point_sample_stddev():
    means, stds = sim.aggregate(columns_of([_const_trial(100.0), _const_trial(300.0)]))
    assert means["total_latency_us"] == pytest.approx(200.0)
    assert stds["total_latency_us"] == pytest.approx(math.sqrt(2 * 100.0**2 / 1))


def test_aggregate_success_fraction_in_unit_interval():
    trials = [_const_trial(), sim.TrialMetrics(50.0, 1, 50.0, 0.0, 0, 0.0, False)]
    means, _ = sim.aggregate(columns_of(trials))
    assert 0.0 <= means["success"] <= 1.0
    assert means["success"] == pytest.approx(0.5)


def test_aggregate_rejects_empty():
    with pytest.raises(ParameterError):
        sim.aggregate(columns_of([]))


def test_single_trial_aggregate_matches_trial():
    means, stds = sim.aggregate(columns_of([_const_trial(120.0)]))
    assert means["total_latency_us"] == 120.0
    assert all(v == 0.0 for v in stds.values())


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_backbone_topology_counts():
    for count in (2, 4, 6):
        t = sim.backbone_topology(count)
        assert len(t.nodes) == count + 2
        assert topo.validate(t) == []
    with pytest.raises(ParameterError):
        sim.backbone_topology(1)


def test_select_path_variants():
    t = sim.backbone_topology(4)
    short = sim.select_path(t, 2, 3, sim.Regime.NO_GAME_CLASSICAL_NET, 0, 4)
    classical = sim.select_path(t, 2, 3, sim.Regime.CLASSICAL_GAME_QUANTUM_NET, 0, 4)
    quantum = sim.select_path(t, 2, 3, sim.Regime.QUANTUM_GAME_QUANTUM_NET, 0, 4)
    assert short[0] == 2 and short[-1] == 3
    assert classical == quantum == short  # single chain: all regimes coincide


def test_quantum_regime_falls_back_at_two_players():
    t = sim.backbone_topology(2)
    classical = sim.select_path(t, 2, 3, sim.Regime.CLASSICAL_GAME_QUANTUM_NET, 0, 2)
    quantum = sim.select_path(t, 2, 3, sim.Regime.QUANTUM_GAME_QUANTUM_NET, 0, 2)
    assert quantum == classical


def test_quantum_regime_lists_the_paths_once(monkeypatch):
    # a four-node ring: two paths join opposite nodes, so the game is played
    nodes = tuple(topo.Node(i, topo.NodeRole.REPEATER, float(i), 0.0) for i in range(4))
    links = tuple(
        topo.Link(a, b, topo.LinkParams(), 1.0, 0.9) for a, b in ((0, 1), (1, 2), (2, 3), (3, 0))
    )
    t = topo.NetworkTopology(nodes, links, topo.ScenarioTag.CUSTOM)
    want = co.quantum_coalition_form(co.CoalitionGameConfig(source=0, destination=2), t, seed=5)
    built = []
    real = co.ValueModel
    monkeypatch.setattr(co, "ValueModel", lambda *args: built.append(real(*args)) or built[-1])
    assert sim.select_path(t, 0, 2, sim.Regime.QUANTUM_GAME_QUANTUM_NET, 5, 4) == want.path
    (model,) = built
    assert len(model.paths) == 2 and list(model.referee_rounds) == [math.pi / 2]


def played_select_path(topology, source, destination, regime, seed, player_count):
    """Reference select_path: plays the coalition game in every game regime."""
    if regime is sim.Regime.NO_GAME_CLASSICAL_NET:
        path = topo.shortest_path(topology.adjacency, source, destination)
        if path is None:
            raise UnreachableError(f"no path between {source} and {destination}")
        return path
    cfg = co.CoalitionGameConfig(source=source, destination=destination)
    if (
        regime is sim.Regime.QUANTUM_GAME_QUANTUM_NET
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
    return _relinked(t, params, payoffs), 2, 3


@st.composite
def _graphs(draw, n_max, cycles):
    """A random tree, node i > 0 linked to an earlier node, and two distinct
    endpoints. With `cycles`, one to three more links are added and the
    endpoints are those of the first, so two paths or more join them;
    without, one tree link may be cut, which can leave no path."""
    n = draw(st.integers(3 if cycles else 2, n_max))
    pairs = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    if cycles:
        chords = [(a, b) for b in range(n) for a in range(b) if (a, b) not in pairs]
        extra = draw(st.lists(st.sampled_from(chords), min_size=1, max_size=3, unique=True))
        source, destination = draw(st.permutations(extra[0]))
        pairs += extra
    else:
        if draw(st.booleans()):
            del pairs[draw(st.integers(0, len(pairs) - 1))]
        source, destination = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    nodes = tuple(topo.Node(i, topo.NodeRole.REPEATER, float(i), 0.0) for i in range(n))
    links = tuple(
        topo.Link(a, b, draw(_game_link_params), 1.0, draw(st.floats(0.0, 1.0))) for a, b in pairs
    )
    return topo.NetworkTopology(nodes, links, topo.ScenarioTag.CUSTOM), source, destination


# a backbone whose lone path scores 1e-13, positive but inside the tie
# tolerance, so no merge pays: 0.15 + 1e-13 e-bits/s against three hops at
# 0.05, with zero fidelity
_TIED_BACKBONE = _relinked(
    sim.backbone_topology(2), [topo.LinkParams(latency_us=1e6, gen_prob=0.15 + 1e-13)] * 3, [0.0] * 3
)


@settings(max_examples=250, deadline=None)
@example(case=(_TIED_BACKBONE, 2, 3), regime=sim.Regime.CLASSICAL_GAME_QUANTUM_NET,
         seed=0, player_count=4)
# a 13-player game past the qubit cap, and a negative seed part
@example(case=(sim.backbone_topology(11), 2, 3), regime=sim.Regime.QUANTUM_GAME_QUANTUM_NET,
         seed=0, player_count=4)
@example(case=(sim.backbone_topology(4), 2, 3), regime=sim.Regime.QUANTUM_GAME_QUANTUM_NET,
         seed=[0, -1], player_count=4)
@given(
    # backbones, trees or forests (one path or none) and graphs of at most 9
    # nodes with two paths or more, whose referee games stay small
    case=_backbones() | _graphs(14, cycles=False) | _graphs(9, cycles=True),
    regime=st.sampled_from(sim.ALL_REGIMES),
    seed=st.integers(-1, 2**32) | st.lists(st.integers(-1, 2**32), min_size=1, max_size=3),
    player_count=st.integers(2, 14),
)
def test_select_path_matches_played_games(case, regime, seed, player_count):
    topology, source, destination = case
    args = (topology, source, destination, regime, seed, player_count)
    assert _outcome(sim.select_path, *args) == _outcome(played_select_path, *args)


def test_sweep_nodes_single_cell_matches_single_trial():
    regime = sim.Regime.CLASSICAL_GAME_QUANTUM_NET
    ri = sim.ALL_REGIMES.index(regime)
    cfg = sim.SimConfig(trials=1, regime=regime)
    res = sim.sweep_nodes(cfg, [3], seed=4)
    t = sim.backbone_topology(3)
    path = sim.select_path(t, 2, 3, regime, [4, 0, ri], 3)
    metrics = sim.run_trial(t, path, cfg, np.random.default_rng([4, 0, ri, 0]))
    means, stds = res.cells[(3.0, regime.value)]
    assert means["normalized_delay_us"] == pytest.approx(metrics.normalized_delay_us)
    assert all(v == 0.0 for v in stds.values())


def test_sweep_nodes_requires_ascending_counts():
    # a repeated count would write its cell twice and drop one silently
    for counts in ([4, 2], [2, 2], [2, 4, 4], []):
        with pytest.raises(ParameterError, match="strictly ascending"):
            sim.sweep_nodes(sim.SimConfig(trials=1), counts)


def test_sweep_nodes_delay_trend_small():
    res = sim.sweep_nodes(sim.SimConfig(trials=30), [2, 4, 6], seed=9)
    for regime in sim.ALL_REGIMES:
        delays = [res.mean_of(float(c), regime.value, "normalized_delay_us") for c in (2, 4, 6)]
        assert delays == sorted(delays)
    for c in (2.0, 4.0, 6.0):
        assert res.mean_of(c, "quantum_game_quantum_net", "normalized_delay_us") <= res.mean_of(
            c, "classical_game_quantum_net", "normalized_delay_us"
        ) + 1e-9


def test_sweep_decoherence_orderings_small():
    rates = [1e-5, 1e-4]
    res = sim.sweep_decoherence(sim.SimConfig(trials=20), rates, seed=0)
    for variant in ("classical", "quantum"):
        fids = [res.mean_of(r, variant, "end_to_end_fidelity") for r in rates]
        assert fids[0] > fids[1]
    for r in rates:
        assert res.mean_of(r, "quantum", "end_to_end_fidelity") >= res.mean_of(
            r, "classical", "end_to_end_fidelity"
        )


def test_sweep_decoherence_rejects_unsorted_rates():
    for rates in ([0.1, 0.01], [1e-5, 1e-5], [0.0, 1e-5, 1e-5], []):
        with pytest.raises(ParameterError, match="strictly ascending"):
            sim.sweep_decoherence(sim.SimConfig(trials=1), rates)


def test_sweep_serialization_is_deterministic():
    # stochastic generation so the seed is actually load-bearing
    flaky = topo.LinkParams(gen_prob=0.7)
    cfg = sim.SimConfig(trials=5)
    a = sim.sweep_nodes(cfg, [2, 3], seed=7, link_defaults=flaky)
    b = sim.sweep_nodes(cfg, [2, 3], seed=7, link_defaults=flaky)
    assert a.to_csv() == b.to_csv()
    assert a.to_json() == b.to_json()
    c = sim.sweep_nodes(cfg, [2, 3], seed=8, link_defaults=flaky)
    assert c.to_csv() != a.to_csv()


def test_sweep_csv_shape():
    res = sim.sweep_nodes(sim.SimConfig(trials=2), [2, 3], seed=1)
    lines = res.to_csv().strip().splitlines()
    assert lines[0] == "x,regime,metric,mean,stddev,n"
    assert len(lines) == 1 + 2 * len(sim.ALL_REGIMES) * len(sim.METRIC_FIELDS)
    body = lines[1:]
    assert body == sorted(body, key=lambda l: (float(l.split(",")[0]), l.split(",")[1], l.split(",")[2]))


def test_sim_config_domain():
    with pytest.raises(ParameterError):
        sim.SimConfig(sync_step_us=600.0, qubit_lifetime_us=500.0)
    with pytest.raises(ParameterError):
        sim.SimConfig(trials=0)
    assert sim.SimConfig(trials=sim.MAX_TRIALS).trials == sim.MAX_TRIALS
    with pytest.raises(CapacityError, match="trials"):
        sim.SimConfig(trials=sim.MAX_TRIALS + 1)


@pytest.mark.parametrize("sweep, grid", [(sim.sweep_nodes, [2]), (sim.sweep_decoherence, [1e-5])])
def test_sweeps_reject_negative_seed(sweep, grid):
    with pytest.raises(ParameterError, match="seed"):
        sweep(sim.SimConfig(trials=1), grid, seed=-1)


# ---------------------------------------------------------------------------
# reference trials: the scalar per-hop loop and the dense engine
# ---------------------------------------------------------------------------

_path_links = sim._path_links


def _run_on_links(links, cfg: sim.SimConfig, rng: np.random.Generator) -> sim.TrialMetrics:
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


def _metrics(total: float, hops: int, fidelity: float, success: bool) -> sim.TrialMetrics:
    ebits = 1 if success else 0
    return sim.TrialMetrics(
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
        strength = q.depolarizing_strength(link.params.decoherence_rate, held)
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
    regime=st.sampled_from(sim.ALL_REGIMES),
    seed=st.integers(0, 2**32 - 1),
)
def test_closed_form_trial_matches_dense_oracle(params, regime, seed):
    t = _line(params)
    path = list(range(len(params) + 1))
    cfg = quantum_cfg(regime=regime)
    got = numbers(sim.run_trial(t, path, cfg, np.random.default_rng(seed)))
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


def list_aggregate(trials):
    """Reference aggregate over a list of TrialMetrics."""
    rows = [numbers(t) for t in trials]
    columns = {f: np.array([row[f] for row in rows]) for f in sim.METRIC_FIELDS}
    means = {f: float(np.mean(col)) for f, col in columns.items()}
    stds = {
        f: float(np.std(col, ddof=1)) if len(trials) > 1 else 0.0
        for f, col in columns.items()
    }
    return means, stds


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
    regime=sim.Regime.QUANTUM_GAME_QUANTUM_NET,
    seed_parts=(),
    trials=2,
)
@given(
    params=st.lists(_mixed_link_params, min_size=1, max_size=14) | _long_lived_paths,
    all_certain=st.booleans(),
    long_lived=st.booleans(),
    regime=st.sampled_from(sim.ALL_REGIMES),
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
        sim.run_trial(t, path, cfg, np.random.default_rng([*seed_parts, i])) for i in range(trials)
    ] == want
    got = sim.run_trials(t, path, cfg, seed_parts)
    assert list(got) == list(sim.METRIC_FIELDS)
    for f in sim.METRIC_FIELDS:
        assert got[f].dtype == np.float64
        assert got[f].tolist() == [numbers(m)[f] for m in want], f
    assert sim.aggregate(got) == list_aggregate(want)


def pcg64_states(rngs):
    """(state, inc) of each generator's PCG64 as 128-bit ints."""
    return [(s["state"]["state"], s["state"]["inc"]) for s in (r.bit_generator.state for r in rngs)]


_wide_seed_parts = _seed_parts | st.lists(st.integers(0, 2**200), max_size=3).map(tuple)


@settings(max_examples=200, deadline=None)
@given(seed_parts=_wide_seed_parts, n=st.integers(1, 300))
def test_hashed_states_equal_default_rng(seed_parts, n):
    assert sim._hashing_matches_numpy()
    want = pcg64_states(np.random.default_rng([*seed_parts, i]) for i in range(n))
    assert sim._as_ints(sim._hashed_states(seed_parts, n)) == want


@settings(max_examples=200, deadline=None)
@given(
    seed_parts=_wide_seed_parts,
    n=st.integers(1, 300),
    k=st.integers(1, 14),
    probs=st.lists(st.sampled_from([1 / 3, 1.0]) | st.floats(1 / 3, 1.0), min_size=1, max_size=14),
)
def test_vector_stream_equals_default_rng(seed_parts, n, k, probs):
    # the k-th double of every trial's stream, the state it leaves, and the
    # geometric draws of the search branch
    rngs = [np.random.default_rng([*seed_parts, i]) for i in range(n)]
    state = sim._hashed_states(seed_parts, n)
    for _ in range(k):
        state, u = sim._next_doubles(state)
    assert u.tolist() == [r.random(k)[-1] for r in rngs]
    assert sim._as_ints(state) == pcg64_states(rngs)
    rngs = [np.random.default_rng([*seed_parts, i]) for i in range(n)]
    want = [[r.geometric(p) for r in rngs] for p in probs]
    assert sim._attempts(seed_parts, n, probs).tolist() == want


def test_run_trials_rejects_negative_seed_parts():
    t = _line([topo.LinkParams(gen_prob=0.5)])
    with pytest.raises(ParameterError, match="seed"):
        sim.run_trials(t, [0, 1], quantum_cfg(trials=3), (1, -1))


def test_failed_self_check_falls_back_to_default_rng(monkeypatch):
    t = _line([topo.LinkParams(latency_us=80.0, gen_prob=p) for p in (0.3, 0.6, 0.9)])
    cfg = quantum_cfg(trials=200)
    parts = (2**40 + 3, 1, 2)
    hashed = sim.run_trials(t, [0, 1, 2, 3], cfg, parts)
    drawn = []
    real = np.random.default_rng
    monkeypatch.setattr(sim, "_hashing_matches_numpy", lambda: False)
    monkeypatch.setattr(sim.np.random, "default_rng", lambda seed: drawn.append(seed) or real(seed))
    fallback = sim.run_trials(t, [0, 1, 2, 3], cfg, parts)
    assert drawn == [[*parts, i] for i in range(200)]
    assert {f: c.tolist() for f, c in fallback.items()} == {
        f: c.tolist() for f, c in hashed.items()
    }


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
        ([1.0, 1.0, 1.0], sim.Regime.QUANTUM_GAME_QUANTUM_NET, [], [], (3, 1)),
        ([1.0, 1.0, 1.0], sim.Regime.CLASSICAL_GAME_QUANTUM_NET, [], [], (3, 1)),
        ([0.2, 0.2, 0.2], sim.Regime.CLASSICAL_GAME_CLASSICAL_NET, [], [], (3, 1)),
        ([0.2, 0.2, 0.2], sim.Regime.NO_GAME_CLASSICAL_NET, [], [], (3, 1)),
        ([0.9, 1 / 3, 0.9], sim.Regime.QUANTUM_GAME_QUANTUM_NET, [], [], (3, 7)),
        ([1.0, 0.2, 1.0], sim.Regime.CLASSICAL_GAME_QUANTUM_NET, [0], ["state", 0.2, 1.0], (3, 7)),
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
    real_rng, real_columns = np.random.default_rng, sim._columns

    def counting_columns(links, cfg, attempts):
        timed.append(attempts.shape)
        return real_columns(links, cfg, attempts)

    assert sim._hashing_matches_numpy()  # run the once-per-process check before counting
    monkeypatch.setattr(
        sim.np.random,
        "default_rng",
        lambda seed: built.append(seed) or RecordingGenerator(real_rng(seed), log),
    )
    monkeypatch.setattr(sim, "_columns", counting_columns)
    t = _line([topo.LinkParams(latency_us=50.0, gen_prob=p) for p in gen_probs])
    cfg = quantum_cfg(regime=regime, trials=7)
    got = sim.run_trials(t, [0, 1, 2, 3], cfg, (4, 2))
    assert all(len(col) == 7 for col in got.values())
    assert (built, log, timed) == (built_rngs, per_trial * 7, [timed_shape])
