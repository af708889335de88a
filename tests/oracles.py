"""Reference helpers that only the tests use: the builders' invariants, a
stability check for the classical game, the decoherence time law, the linear
cluster state, the identity rotation, a per-column trial aggregate, the
gate kernels and coin count that `quantum` used before `rotate` and `cdf_of`,
and the referee's best response before it read only the paying outcomes."""

import itertools
import math

import networkx as nx
import numpy as np

from entangle_games import coalition as co
from entangle_games import quantum as q
from entangle_games import topology as topo
from entangle_games.errors import CapacityError, ParameterError
from entangle_games.trial import METRIC_FIELDS

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
