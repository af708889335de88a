"""Acceptance suite: one test per release criterion, each printing a PASS or
FAIL line and enforcing its runtime budget. Run with `pytest tests/test_acceptance.py -v`
(add -s to see the per-criterion lines).
"""

import json
import math
import time
from collections import Counter
from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest

from entangle_games import coalition as co
from entangle_games import consensus as cons
from entangle_games import equilibrium as eq
from entangle_games import quantum as q
from entangle_games import simulation as sim
from entangle_games import topology as topo
from entangle_games.cli import main as cli_main

from conftest import line_topology


@contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {name}: FAIL")
        raise
    elapsed = time.monotonic() - start
    if elapsed > budget_seconds:
        print(f"[criterion {number}] {name}: FAIL (overran {budget_seconds}s budget: {elapsed:.1f}s)")
        raise AssertionError(f"criterion {number} exceeded runtime budget: {elapsed:.1f}s > {budget_seconds}s")
    print(f"[criterion {number}] {name}: PASS ({elapsed:.2f}s)")


def test_criterion_1_chsh_optima():
    with criterion(1, "CHSH classical and quantum optima", 1.0):
        classical, _ = q.chsh_classical_optimum()
        assert classical == 0.75
        quantum = q.chsh_win_probability(q.QUANTUM_OPTIMAL)
        assert quantum == pytest.approx(math.cos(math.pi / 8) ** 2, abs=1e-9)
        assert quantum == pytest.approx(0.8535534, abs=1e-6)


def test_criterion_2_classical_reduction_over_seeds(five_line):
    with criterion(2, "gamma=0 coalition game reduces to the classical game", 10.0):
        cfg = co.CoalitionGameConfig(
            source=0, destination=4, target_throughput=5000.0, hop_cost=0.05
        )
        model = co.ValueModel(cfg, five_line)
        classical = co.classical_coalition_form(cfg, five_line, model=model)
        classical_dist = Counter({classical.stable_coalition.members: 1000})
        quantum_dist: Counter = Counter()
        for seed in range(1000):
            out = co.quantum_coalition_form(cfg, five_line, gamma=0.0, seed=seed, model=model)
            quantum_dist[out.stable_coalition.members] += 1
            assert out.path == classical.path
        assert quantum_dist == classical_dist


def test_criterion_3_two_tree_consensus_fixture():
    with criterion(3, "canonical two-tree fixture: switch 100->60 / 0.3->0.8", 1.0):
        out = cons.run_consensus(topo.canonical_two_tree_topology(), 1, 8, variant="classical")
        assert len(out.switches) == 1
        s = out.switches[0]
        assert (s.node, s.from_hop, s.to_hop) == (1, 0, 2)
        to_leader, to_sibling = topo.canonical_two_tree_topology().choices[1]
        assert (to_leader.next_hop, to_sibling.next_hop) == (0, 2)
        assert to_leader.cost == 100.0
        assert to_sibling.cost == 60.0
        assert to_leader.payoff == 0.3
        assert to_sibling.payoff == 0.8
        assert s.d_cost == -40.0
        assert s.d_payoff == pytest.approx(0.5, abs=1e-12)
        assert out.converged
        assert out.trace[-1]["switches"] == []


def test_criterion_4_wardrop_matches_analytic_oracle():
    with criterion(4, "Wardrop flows match the equalization oracle", 5.0):
        rng = np.random.default_rng(814)
        for _ in range(100):
            m = int(rng.integers(2, 6))
            coeffs = [(float(rng.uniform(0, 2)), float(rng.uniform(0.1, 2))) for _ in range(m)]
            demand = float(rng.uniform(0.2, 5.0))
            problem = eq.WardropProblem(
                tuple(eq.AffineLatency(a, b) for a, b in coeffs), demand, tol=1e-8
            )
            res = eq.solve_wardrop(problem)
            assert res.gap <= 1e-6
            flows, _ = _waterfill(coeffs, demand)
            for got, want in zip(res.flows, flows):
                assert got == pytest.approx(want, abs=1e-6)


def _waterfill(coeffs, demand):
    order = sorted(range(len(coeffs)), key=lambda i: coeffs[i][0])
    for k in range(1, len(coeffs) + 1):
        used = order[:k]
        inv = sum(1.0 / coeffs[i][1] for i in used)
        c = (demand + sum(coeffs[i][0] / coeffs[i][1] for i in used)) / inv
        if all(c >= coeffs[i][0] - 1e-12 for i in used) and (
            k == len(coeffs) or c <= coeffs[order[k]][0] + 1e-12
        ):
            flows = [0.0] * len(coeffs)
            for i in used:
                flows[i] = (c - coeffs[i][0]) / coeffs[i][1]
            return flows, c
    raise AssertionError("oracle found no consistent used set")


def test_criterion_5_nash_solver_fixtures():
    with criterion(5, "Nash solver: analytic fixtures and calibrated point", 1.0):
        separable = eq.BestResponseProblem(
            (lambda x, y: (x - 0.5) ** 2, lambda x, y: (y - 0.5) ** 2), tol=1e-6
        )
        res = eq.solve_nash_best_response(separable)
        assert res.converged
        assert res.actions[0] == pytest.approx(0.5, abs=1e-6)
        assert res.actions[1] == pytest.approx(0.5, abs=1e-6)

        coupled = eq.BestResponseProblem(
            (lambda x, y: (x - 0.5 * y) ** 2, lambda x, y: (y - 0.5 * x) ** 2), tol=1e-6
        )
        res = eq.solve_nash_best_response(coupled)
        assert res.converged
        assert res.actions[0] == pytest.approx(0.0, abs=1e-6)
        assert res.actions[1] == pytest.approx(0.0, abs=1e-6)

        beta = 0.3
        calibrated = eq.BestResponseProblem(
            (
                lambda x, y: (x - (0.695 + beta * (y - 0.74))) ** 2,
                lambda x, y: (y - (0.74 + beta * (x - 0.695))) ** 2,
            ),
            tol=1e-6,
        )
        res = eq.solve_nash_best_response(calibrated)
        assert res.converged
        assert res.actions[0] == pytest.approx(0.695, abs=1e-3)
        assert res.actions[1] == pytest.approx(0.74, abs=1e-3)


def test_criterion_6_delay_trend_over_node_counts():
    with criterion(6, "normalized delay trend over node counts", 300.0):
        counts = [2, 4, 6, 8, 10]
        res = sim.sweep_nodes(sim.SimConfig(trials=1000), counts, seed=0)
        for regime in sim.ALL_REGIMES:
            delays = [
                res.mean_of(float(c), regime.value, "normalized_delay_us") for c in counts
            ]
            for lo, hi in zip(delays, delays[1:]):
                assert hi >= lo - 1e-9, f"{regime.value} delay decreased: {delays}"
        for c in counts:
            if c <= 2:
                continue  # crossover permitted at the minimum player count
            quantum = res.mean_of(float(c), sim.Regime.QUANTUM_GAME_QUANTUM_NET.value, "normalized_delay_us")
            classical = res.mean_of(float(c), sim.Regime.CLASSICAL_GAME_QUANTUM_NET.value, "normalized_delay_us")
            assert quantum <= classical + 1e-9


def test_criterion_7_fidelity_trend_over_decoherence():
    with criterion(7, "fidelity trend over decoherence rates", 300.0):
        rates = list(sim.DECOHERENCE_SWEEP_RATES)  # 1e-6 .. 1e-4
        assert rates[-1] / rates[0] >= 100.0
        res = sim.sweep_decoherence(sim.SimConfig(trials=1000), rates, seed=0)
        for variant in ("classical", "quantum"):
            fids = [res.mean_of(float(r), variant, "end_to_end_fidelity") for r in rates]
            for lo, hi in zip(fids, fids[1:]):
                assert hi < lo, f"{variant} fidelity not strictly decreasing: {fids}"
        for r in rates:
            quantum = res.mean_of(float(r), "quantum", "end_to_end_fidelity")
            classical = res.mean_of(float(r), "classical", "end_to_end_fidelity")
            assert quantum >= classical


def test_criterion_8_engine_property_cases():
    with criterion(8, "10k randomized engine property cases", 30.0):
        rng = np.random.default_rng(99)

        def random_density(n):
            dim = 2**n
            rho = np.zeros((dim, dim), dtype=complex)
            for w in rng.dirichlet(np.ones(3)):
                v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
                v /= np.linalg.norm(v)
                rho += w * np.outer(v, v.conj())
            return q.DensityMatrix(rho)

        cases = 0
        for _ in range(2500):  # trace preservation under random channels
            n = int(rng.integers(1, 4))
            ch = q.NoiseChannel(rng.choice(list(q.ChannelKind)), float(rng.uniform(0, 1)))
            out = q.apply_channel(random_density(n), int(rng.integers(0, n)), ch)
            assert abs(out.trace() - 1.0) <= 1e-10
            cases += 1
        for _ in range(2500):  # channel outputs stay PSD and Hermitian
            n = int(rng.integers(1, 3))
            ch = q.NoiseChannel(rng.choice(list(q.ChannelKind)), float(rng.uniform(0, 1)))
            out = q.apply_channel(random_density(n), int(rng.integers(0, n)), ch)
            assert np.allclose(out.entries, out.entries.conj().T, atol=1e-10)
            assert out.min_eigenvalue() >= -1e-10
            cases += 1
        for _ in range(2500):  # unitary then inverse restores the state
            n = int(rng.integers(1, 4))
            amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            state = q.StateVector(amps / np.linalg.norm(amps))
            qubit = int(rng.integers(0, n))
            u = q.SingleQubitUnitary(float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi)))
            fwd = q.apply_unitary(state, qubit, u)
            assert abs(np.linalg.norm(fwd.amplitudes) - 1.0) <= 1e-10
            back = q.apply_unitary(fwd, qubit, u.matrix().conj().T)
            assert np.allclose(back.amplitudes, state.amplitudes, atol=1e-10)
            cases += 1
        bell = q.bell_pair()
        bell_rho = bell.density_matrix()
        for _ in range(2500):  # depolarized Bell fidelity closed form
            p = float(rng.uniform(0, 1))
            out = q.apply_channel(bell_rho, int(rng.integers(0, 2)), q.NoiseChannel(q.ChannelKind.DEPOLARIZING, p))
            assert q.fidelity(out, bell) == pytest.approx(1 - 3 * p / 4, abs=1e-10)
            cases += 1
        assert cases == 10_000


def test_criterion_9_cli_outputs_are_byte_identical(tmp_path, capsys):
    with criterion(9, "seeded CLI commands are byte-identical across runs", 120.0):
        sweep_cfg = tmp_path / "sweep.json"
        sweep_cfg.write_text(json.dumps({"trials": 25, "node_counts": [2, 3, 4], "link": {"gen_prob": 0.8}}))
        deco_cfg = tmp_path / "deco.json"
        deco_cfg.write_text(json.dumps({"trials": 25, "rates": [1e-6, 1e-5, 1e-4]}))
        invocations = [
            ("gen-s1", ["gen", "--scenario", "1", "--seed", "11"]),
            ("gen-s2", ["gen", "--scenario", "2", "--seed", "11"]),
            ("coalition-c", ["coalition", "--variant", "classical", "--seed", "11"]),
            ("coalition-q", ["coalition", "--variant", "quantum", "--seed", "11"]),
            ("consensus-c", ["consensus", "--variant", "classical", "--seed", "11"]),
            ("consensus-q", ["consensus", "--variant", "quantum", "--seed", "11"]),
            ("sweep-nodes", ["sweep", "--kind", "nodes", "--config", str(sweep_cfg), "--seed", "11"]),
            ("sweep-deco", ["sweep", "--kind", "decoherence", "--config", str(deco_cfg), "--seed", "11"]),
        ]
        for name, argv in invocations:
            outputs = []
            for attempt in ("a", "b"):
                out_dir = tmp_path / name / attempt
                rc = cli_main([*argv, "--out", str(out_dir), "--quiet"])
                assert rc == 0, f"{name} exited {rc}"
                outputs.append(
                    {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())}
                )
            assert outputs[0] == outputs[1], f"{name} outputs differ between runs"
        capsys.readouterr()
        assert cli_main(["chsh"]) == 0
        first = capsys.readouterr().out
        assert cli_main(["chsh"]) == 0
        assert capsys.readouterr().out == first
