import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from entangle_games import quantum as q
from entangle_games.errors import CapacityError, ParameterError

from oracles import (
    IDENTITY, _apply_matrix_dm, _apply_matrix_vec, counted_coin_flip, depolarizing_strength,
    make_cluster_state,
)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

PD_MATRIX = [[3, 3], [0, 5], [5, 0], [1, 1]]


def random_state(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return q.StateVector(amps / np.linalg.norm(amps))


def random_density(rng, n):
    # random mixture of a few pure states
    dim = 2**n
    rho = np.zeros((dim, dim), dtype=complex)
    weights = rng.dirichlet(np.ones(3))
    for w in weights:
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        rho += w * np.outer(v, v.conj())
    return q.DensityMatrix(rho)


# ---------------------------------------------------------------------------
# states and constructors
# ---------------------------------------------------------------------------


def test_state_vector_rejects_unnormalized():
    with pytest.raises(ParameterError):
        q.StateVector([1.0, 1.0])


def test_state_vector_rejects_oversize():
    with pytest.raises(CapacityError):
        q.StateVector(np.eye(1, 2**13)[0])


def test_density_matrix_rejects_non_hermitian():
    with pytest.raises(ParameterError):
        q.DensityMatrix([[0.5, 0.5], [0.0, 0.5]])


# ---------------------------------------------------------------------------
# cluster states
# ---------------------------------------------------------------------------


def test_cluster_two_qubits_is_bell_like():
    # H x H on |00> then CZ: uniform magnitudes with |11> negated
    s = make_cluster_state(2)
    assert np.allclose(s.amplitudes, [0.5, 0.5, 0.5, -0.5])


def test_cluster_rejects_single_party():
    with pytest.raises(CapacityError):
        make_cluster_state(1)


def test_cluster_three_qubit_stabilizer():
    s = make_cluster_state(3)
    op = np.kron(np.kron(X, Z), I2)
    assert np.vdot(s.amplitudes, op @ s.amplitudes) == pytest.approx(1.0)


def test_cluster_zero_phase_is_product_state():
    s = make_cluster_state(3, cz_phase=0.0)
    assert np.allclose(np.abs(s.amplitudes), 2 ** (-1.5))
    assert np.allclose(np.angle(s.amplitudes), 0.0)


# ---------------------------------------------------------------------------
# unitaries
# ---------------------------------------------------------------------------


def test_theta_pi_flips_bit_up_to_phase():
    out = q.apply_unitary(q.StateVector([1.0, 0.0]), 0, q.SingleQubitUnitary(math.pi))
    assert abs(out.amplitudes[1]) == pytest.approx(1.0)
    assert abs(out.amplitudes[0]) == pytest.approx(0.0)


def test_identity_parameters_leave_state_unchanged():
    rng = np.random.default_rng(1)
    s = random_state(rng, 3)
    out = q.apply_unitary(s, 1, IDENTITY)
    assert np.allclose(out.amplitudes, s.amplitudes)


def test_theta_half_pi_splits_evenly():
    out = q.apply_unitary(q.StateVector([1.0, 0.0]), 0, q.SingleQubitUnitary(math.pi / 2))
    assert out.amplitudes[0] == pytest.approx(math.cos(math.pi / 4))
    assert abs(out.amplitudes[1]) == pytest.approx(math.sin(math.pi / 4))
    assert np.allclose(out.probabilities(), [0.5, 0.5])


def test_qubit_index_out_of_range():
    with pytest.raises(ParameterError):
        q.apply_unitary(q.bell_pair(), 2, IDENTITY)


def test_unitary_family_is_unitary():
    rng = np.random.default_rng(2)
    for _ in range(50):
        u = q.SingleQubitUnitary(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        m = u.matrix()
        assert np.allclose(m.conj().T @ m, I2, atol=1e-12)


def test_unitary_roundtrip_restores_state():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        s = random_state(rng, n)
        qubit = int(rng.integers(0, n))
        u = q.SingleQubitUnitary(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        fwd = q.apply_unitary(s, qubit, u)
        back = q.apply_unitary(fwd, qubit, u.matrix().conj().T)
        assert np.allclose(back.amplitudes, s.amplitudes, atol=1e-10)


def test_unitary_preserves_norm_and_trace():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        u = q.SingleQubitUnitary(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        s = q.apply_unitary(random_state(rng, n), int(rng.integers(0, n)), u)
        assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0, abs=1e-10)
        rho = q.apply_unitary(random_density(rng, n), int(rng.integers(0, n)), u)
        assert rho.trace() == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------


def test_kraus_completeness_all_kinds():
    for kind in q.ChannelKind:
        for strength in (0.0, 0.3, 1.0):
            total = sum(
                k.conj().T @ k for k in q.NoiseChannel(kind, strength).kraus_operators()
            )
            assert np.allclose(total, I2, atol=1e-12)


def test_depolarizing_fixes_maximally_mixed():
    rho = q.DensityMatrix(I2 / 2)
    out = q.apply_channel(rho, 0, q.NoiseChannel(q.ChannelKind.DEPOLARIZING, 0.7))
    assert np.allclose(out.entries, I2 / 2)


@pytest.mark.parametrize("p", [0.1, 0.2, 0.4, 1.0])
def test_depolarized_bell_fidelity_closed_form(p):
    rho = q.bell_pair().density_matrix()
    out = q.apply_channel(rho, 0, q.NoiseChannel(q.ChannelKind.DEPOLARIZING, p))
    assert q.fidelity(out, q.bell_pair()) == pytest.approx(1 - 3 * p / 4, abs=1e-10)


def test_depolarizing_matches_mixing_form():
    # strength p sends rho -> (1 - p) rho + p I/2 on the marginal
    rng = np.random.default_rng(5)
    rho = random_density(rng, 1)
    p = 0.37
    out = q.apply_channel(rho, 0, q.NoiseChannel(q.ChannelKind.DEPOLARIZING, p))
    assert np.allclose(out.entries, (1 - p) * rho.entries + p * I2 / 2, atol=1e-12)


def test_channel_outputs_stay_physical():
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        rho = random_density(rng, n)
        kind = rng.choice(list(q.ChannelKind))
        ch = q.NoiseChannel(kind, float(rng.uniform(0, 1)))
        out = q.apply_channel(rho, int(rng.integers(0, n)), ch)
        assert out.trace() == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(out.entries, out.entries.conj().T, atol=1e-10)
        assert out.min_eigenvalue() >= -1e-10


def test_decoherence_strength_time_law():
    assert depolarizing_strength(0.0, 1000.0) == 0.0
    assert depolarizing_strength(0.01, 100.0) == pytest.approx(1 - math.exp(-1.0))
    with pytest.raises(ParameterError):
        depolarizing_strength(-0.1, 1.0)


# ---------------------------------------------------------------------------
# fidelity and measurement
# ---------------------------------------------------------------------------


def test_self_fidelity_is_one():
    rng = np.random.default_rng(7)
    s = random_state(rng, 2)
    assert q.fidelity(s.density_matrix(), s) == pytest.approx(1.0)


def test_orthogonal_fidelity_is_zero():
    zero = q.StateVector([1.0, 0.0])
    one = q.StateVector([0.0, 1.0])
    assert q.fidelity(zero.density_matrix(), one) == 0.0


def test_fidelity_dimension_mismatch():
    with pytest.raises(ParameterError):
        q.fidelity(q.bell_pair().density_matrix(), q.StateVector([1.0, 0.0]))


def test_measure_definite_state():
    rng = np.random.default_rng(8)
    outcome, probs = q.measure_computational(q.StateVector(np.eye(1, 4)[0]).density_matrix(), rng)
    assert outcome == "00"
    assert np.allclose(probs, [1, 0, 0, 0])


def test_measure_bell_pair_never_mixed_outcomes():
    rng = np.random.default_rng(9)
    rho = q.bell_pair().density_matrix()
    probs = q.measurement_probabilities(rho)
    assert np.allclose(probs, [0.5, 0, 0, 0.5])
    for _ in range(100):
        outcome, _ = q.measure_computational(rho, rng)
        assert outcome in ("00", "11")


def test_measure_uniform_plus_state():
    s = q.StateVector(np.full(4, 0.5))
    assert np.allclose(q.measurement_probabilities(s), [0.25] * 4)


def test_measurement_deterministic_under_seed():
    rho = q.bell_pair().density_matrix()
    a = [q.measure_computational(rho, np.random.default_rng(42))[0] for _ in range(5)]
    b = [q.measure_computational(rho, np.random.default_rng(42))[0] for _ in range(5)]
    assert a == b


# ---------------------------------------------------------------------------
# CHSH
# ---------------------------------------------------------------------------


def test_chsh_classical_optimum_is_three_quarters():
    best, strategy = q.chsh_classical_optimum()
    assert best == 0.75
    assert q.chsh_win_probability(strategy) == 0.75


def test_chsh_all_zero_strategy():
    assert q.chsh_win_probability(q.ClassicalDeterministic(0, 0, 0, 0)) == 0.75


def test_chsh_no_classical_strategy_beats_bound():
    for bits in range(16):
        s = q.ClassicalDeterministic(
            (bits >> 3) & 1, (bits >> 2) & 1, (bits >> 1) & 1, bits & 1
        )
        assert q.chsh_win_probability(s) <= 0.75


def test_chsh_quantum_optimum():
    win = q.chsh_win_probability(q.QUANTUM_OPTIMAL)
    assert win == pytest.approx(math.cos(math.pi / 8) ** 2, abs=1e-9)
    assert win > 0.75


def test_chsh_aligned_angles_match_classical_bound():
    # same basis everywhere behaves like the always-agree classical strategy
    assert q.chsh_win_probability(q.QuantumAngles(0, 0, 0, 0)) == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# EWL game
# ---------------------------------------------------------------------------


def classical_moves():
    return {0: q.SingleQubitUnitary(0.0), 1: q.SingleQubitUnitary(math.pi)}


def test_ewl_unentangled_reduces_to_matrix_game():
    moves = classical_moves()
    for a in (0, 1):
        for b in (0, 1):
            got = q.ewl_game(0.0, (moves[a], moves[b]), PD_MATRIX)
            row = PD_MATRIX[2 * a + b]
            assert got[0] == pytest.approx(row[0], abs=1e-12)
            assert got[1] == pytest.approx(row[1], abs=1e-12)


def test_ewl_max_entanglement_cooperation():
    got = q.ewl_game(math.pi / 2, (q.SingleQubitUnitary(0.0), q.SingleQubitUnitary(0.0)), PD_MATRIX)
    assert got == (pytest.approx(3.0), pytest.approx(3.0))


def test_ewl_grid_best_response_matches_matrix_nash_when_unentangled():
    # gamma = 0: pure-strategy best responses over a 9x9 grid restricted to the
    # classical moves land on the matrix game's Nash equilibrium (defect,
    # defect for the prisoner's dilemma matrix).
    thetas = np.linspace(0, math.pi, 9)
    payoff = np.asarray(PD_MATRIX, dtype=float)

    def best_theta(opponent_theta, player):
        best, best_val = None, -np.inf
        for t in thetas:
            pair = (
                (q.SingleQubitUnitary(t), q.SingleQubitUnitary(opponent_theta))
                if player == 0
                else (q.SingleQubitUnitary(opponent_theta), q.SingleQubitUnitary(t))
            )
            val = q.ewl_game(0.0, pair, payoff)[player]
            if val > best_val + 1e-12:
                best, best_val = t, val
        return best

    assert best_theta(0.0, 0) == pytest.approx(math.pi)  # defect against cooperate
    assert best_theta(math.pi, 0) == pytest.approx(math.pi)  # defect against defect
    assert best_theta(math.pi, 1) == pytest.approx(math.pi)


# ---------------------------------------------------------------------------
# coin flip
# ---------------------------------------------------------------------------


def test_coin_same_basis_always_agrees():
    rng = np.random.default_rng(10)
    for _ in range(200):
        a, b, agree = q.coin_flip_consensus(rng, 0.0)
        assert agree and a == b


def test_coin_orthogonal_basis_never_agrees():
    rng = np.random.default_rng(11)
    for _ in range(200):
        _, _, agree = q.coin_flip_consensus(rng, math.pi / 2)
        assert not agree


def test_coin_quarter_angle_agreement_rate():
    rng = np.random.default_rng(12)
    agreements = sum(q.coin_flip_consensus(rng, math.pi / 4)[2] for _ in range(10_000))
    assert agreements / 10_000 == pytest.approx(0.5, abs=0.05)


def test_coin_marginals_are_unbiased():
    rng = np.random.default_rng(13)
    flips = [q.coin_flip_consensus(rng, 0.0)[0] for _ in range(10_000)]
    assert np.mean(flips) == pytest.approx(0.5, abs=0.05)


def dense_coin_flip(rng, angle):
    """Reference coin flip: measure the rotated Bell-pair density matrix."""
    rho = q.bell_pair().density_matrix()
    rotated = q.apply_unitary(rho, 1, q._real_rotation(-angle))
    outcome, _ = q.measure_computational(rotated, rng)
    bit_a, bit_b = int(outcome[0]), int(outcome[1])
    return bit_a, bit_b, bit_a == bit_b


@settings(max_examples=200, deadline=None)
@given(angle=st.floats(0.0, math.pi / 2), seed=st.integers(0, 2**32 - 1))
def test_closed_form_coin_matches_dense_bell_pair(angle, seed):
    rho = q.bell_pair().density_matrix()
    dense = q.measurement_probabilities(q.apply_unitary(rho, 1, q._real_rotation(-angle)))
    c, s = math.cos(angle) ** 2, math.sin(angle) ** 2
    assert np.allclose([c / 2, s / 2, s / 2, c / 2], dense, rtol=0, atol=1e-15)
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(20):
        assert q.coin_flip_consensus(fast, angle) == dense_coin_flip(slow, angle)


@settings(max_examples=200, deadline=None)
@given(angle=st.floats(0.0, math.pi / 2), seed=st.integers(0, 2**32 - 1))
@example(angle=0.0, seed=0)
@example(angle=math.pi / 2, seed=0)
def test_coin_draw_matches_generator_choice(angle, seed):
    c, s = math.cos(angle) ** 2, math.sin(angle) ** 2
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(20):
        bit_a, bit_b, _ = q.coin_flip_consensus(fast, angle)
        assert 2 * bit_a + bit_b == int(slow.choice(4, p=[c / 2, s / 2, s / 2, c / 2]))


# ---------------------------------------------------------------------------
# differential tests: `rotate` and `cdf_of` against the kernels and the coin
# count they replaced
# ---------------------------------------------------------------------------

_unit = st.floats(-1.0, 1.0)
_angle = st.floats(0.0, 2.0 * math.pi)


@st.composite
def _unitaries(draw):
    """e^{i a} [[e^{i b} cos t, e^{i c} sin t], [-e^{-i c} sin t, e^{-i b} cos t]]:
    every 2x2 unitary."""
    a, b, c, t = (draw(_angle) for _ in range(4))
    u = np.array([[np.exp(1j * b) * math.cos(t), np.exp(1j * c) * math.sin(t)],
                  [-np.exp(-1j * c) * math.sin(t), np.exp(-1j * b) * math.cos(t)]])
    return np.exp(1j * a) * u


def _complex(draw, shape):
    parts = draw(hnp.arrays(float, (2, *shape), elements=_unit))
    return parts[0] + 1j * parts[1]


@st.composite
def _pure_states(draw):
    n = draw(st.integers(1, 6))
    amps = _complex(draw, (2**n,))
    norm = np.linalg.norm(amps)
    amps = amps / norm if norm > 1e-3 else np.eye(2**n)[0]
    return q.StateVector(amps), draw(st.integers(0, n - 1))


@st.composite
def _mixed_states(draw):
    n = draw(st.integers(1, 4))
    a = _complex(draw, (2**n, 2**n))
    rho = a @ a.conj().T
    tr = np.trace(rho).real
    rho = rho / tr if tr > 1e-3 else np.diag(np.eye(2**n)[0])
    return q.DensityMatrix(rho), draw(st.integers(0, n - 1))


@settings(max_examples=300, deadline=None)
@given(state=_pure_states(), u=_unitaries())
def test_rotate_on_a_state_vector_matches_the_tensordot_kernel(state, u):
    psi, qubit = state
    got = q.apply_unitary(psi, qubit, u).amplitudes
    want = q.StateVector(_apply_matrix_vec(psi.amplitudes, psi.n_qubits, qubit, u)).amplitudes
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@settings(max_examples=300, deadline=None)
@given(state=_mixed_states(), u=_unitaries())
def test_rotate_on_a_density_matrix_matches_the_tensordot_kernel(state, u):
    rho, qubit = state
    got = q.apply_unitary(rho, qubit, u).entries
    want = q.DensityMatrix(_apply_matrix_dm(rho.entries, rho.n_qubits, qubit, u)).entries
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@settings(max_examples=300, deadline=None)
@given(state=_mixed_states(), kind=st.sampled_from(q.ChannelKind),
       strength=st.floats(0.0, 1.0))
@example(state=(q.bell_pair().density_matrix(), 1), kind=q.ChannelKind.AMPLITUDE_DAMPING,
         strength=1.0)
def test_channel_matches_the_tensordot_kernel(state, kind, strength):
    rho, qubit = state
    channel = q.NoiseChannel(kind, strength)
    got = q.apply_channel(rho, qubit, channel).entries
    old = np.zeros_like(rho.entries)
    for k in channel.kraus_operators():
        old += _apply_matrix_dm(rho.entries, rho.n_qubits, qubit, k)
    np.testing.assert_allclose(got, q.DensityMatrix(old).entries, rtol=0, atol=1e-12)


@settings(max_examples=300, deadline=None)
@given(state=st.one_of(_pure_states(), _mixed_states()), seed=st.integers(0, 2**63 - 1))
def test_measure_draw_matches_generator_choice(state, seed):
    state, _ = state
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(5):
        bits, probs = q.measure_computational(state, fast)
        assert int(bits, 2) == int(slow.choice(probs.size, p=probs))


@settings(max_examples=300, deadline=None)
@given(angle=st.floats(0.0, math.pi / 2), seed=st.integers(0, 2**63 - 1))
@example(angle=0.0, seed=0)
@example(angle=math.pi / 4, seed=0)
@example(angle=math.pi / 2, seed=0)
def test_coin_flip_cdf_matches_the_counted_draw(angle, seed):
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    got = [q.coin_flip_consensus(fast, angle) for _ in range(20)]
    assert got == [counted_coin_flip(slow, angle) for _ in range(20)]


def test_classical_moves_are_exact():
    # cos(pi / 2) is 6e-17, which left a residue on every other outcome of
    # a gamma = 0 game's tables
    assert np.array_equal(q.SingleQubitUnitary(0.0).matrix(), np.eye(2))
    assert np.array_equal(q.SingleQubitUnitary(math.pi).matrix(), [[0, 1], [-1, 0]])
