"""Dense simulation of small multi-qubit states and the game primitives built on them.

States are value-like: every operation returns a new object and never mutates
its input, so states can be shared freely across threads. Qubit 0 is the most
significant bit of a basis index, i.e. basis state ``|q0 q1 ... q_{n-1}>`` has
index ``sum(q_i * 2**(n-1-i))`` and outcome bitstrings read left to right.

Capacity is capped at 12 qubits; everything here is exact dense linear algebra
with no stabilizer shortcuts. The engine has one kernel and one draw rule:
`rotate` applies a one-qubit gate to an amplitude vector (a density matrix is
rotated as the flattened vector of twice the qubits), and `cdf_of` gives the
outcome CDF that one uniform draw searches, as `Generator.choice` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CapacityError, ParameterError

MAX_QUBITS = 12

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _check_n_qubits(n: int) -> None:
    if not 1 <= n <= MAX_QUBITS:
        raise CapacityError(f"qubit count {n} outside supported range 1..{MAX_QUBITS}")


class StateVector:
    """Normalized pure state of up to MAX_QUBITS qubits."""

    def __init__(self, amplitudes) -> None:
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        n = int(round(math.log2(amps.size)))
        if 2**n != amps.size:
            raise ParameterError(f"amplitude vector length {amps.size} is not a power of two")
        _check_n_qubits(n)
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > 1e-6:
            raise ParameterError(f"state vector norm {norm} too far from 1")
        self.amplitudes = amps / norm
        self.n_qubits = n

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


class DensityMatrix:
    """Mixed state: Hermitian, unit-trace matrix over up to MAX_QUBITS qubits.

    Hermiticity and trace are checked on construction; positive
    semidefiniteness is left to ``min_eigenvalue`` (an eigendecomposition per
    constructor call would dominate the cost of every channel application).
    """

    def __init__(self, entries) -> None:
        rho = np.asarray(entries, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ParameterError(f"density matrix shape {rho.shape} is not square")
        n = int(round(math.log2(rho.shape[0])))
        if 2**n != rho.shape[0]:
            raise ParameterError(f"density matrix dimension {rho.shape[0]} is not a power of two")
        _check_n_qubits(n)
        if not np.allclose(rho, rho.conj().T, atol=1e-9):
            raise ParameterError("density matrix is not Hermitian")
        tr = complex(np.trace(rho))
        if abs(tr - 1.0) > 1e-6:
            raise ParameterError(f"density matrix trace {tr} too far from 1")
        self.entries = rho / tr.real
        self.n_qubits = n

    def trace(self) -> float:
        return float(np.real(np.trace(self.entries)))

    def min_eigenvalue(self) -> float:
        return float(np.min(np.linalg.eigvalsh(self.entries)))

    def probabilities(self) -> np.ndarray:
        return np.real(np.diag(self.entries)).copy()


@dataclass(frozen=True)
class SingleQubitUnitary:
    """Two-parameter strategy rotation.

    U(theta, phi) = [[e^{i phi} cos(theta/2),      sin(theta/2)],
                     [-sin(theta/2),  e^{-i phi} cos(theta/2)]]

    The family contains the classical moves at phi = 0, theta in {0, pi},
    and their matrices are exact: I and [[0, 1], [-1, 0]].
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= math.pi + 1e-12:
            raise ParameterError(f"theta {self.theta} outside [0, pi]")
        if not 0.0 <= self.phi < 2.0 * math.pi + 1e-12:
            raise ParameterError(f"phi {self.phi} outside [0, 2*pi)")

    def matrix(self) -> np.ndarray:
        # cos(theta/2) as a sine: exactly 0 at theta = pi, where cos gives 6e-17
        c = math.sin((math.pi - self.theta) / 2.0)
        s = math.sin(self.theta / 2.0)
        e = np.exp(1j * self.phi)
        return np.array([[e * c, s], [-s, np.conj(e) * c]], dtype=complex)


class ChannelKind(Enum):
    DEPOLARIZING = "depolarizing"
    AMPLITUDE_DAMPING = "amplitude_damping"
    PHASE_DAMPING = "phase_damping"


@dataclass(frozen=True)
class NoiseChannel:
    """Single-qubit CPTP noise channel with a strength in [0, 1]."""

    kind: ChannelKind
    strength: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.strength <= 1.0:
            raise ParameterError(f"channel strength {self.strength} outside [0, 1]")

    def kraus_operators(self) -> list[np.ndarray]:
        p = self.strength
        if self.kind is ChannelKind.DEPOLARIZING:
            return [
                math.sqrt(1.0 - 3.0 * p / 4.0) * _I2,
                math.sqrt(p / 4.0) * _X,
                math.sqrt(p / 4.0) * _Y,
                math.sqrt(p / 4.0) * _Z,
            ]
        if self.kind is ChannelKind.AMPLITUDE_DAMPING:
            k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - p)]], dtype=complex)
            k1 = np.array([[0.0, math.sqrt(p)], [0.0, 0.0]], dtype=complex)
            return [k0, k1]
        if self.kind is ChannelKind.PHASE_DAMPING:
            k0 = math.sqrt(1.0 - p) * _I2
            k1 = math.sqrt(p) * np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
            k2 = math.sqrt(p) * np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
            return [k0, k1, k2]
        raise ParameterError(f"unknown channel kind {self.kind}")


# ---------------------------------------------------------------------------
# the gate kernel and the outcome CDF
# ---------------------------------------------------------------------------


def rotate(amps: np.ndarray, qubit: int, u: np.ndarray) -> np.ndarray:
    """`u` applied to one qubit of an amplitude vector, not normalized: the
    qubit's axis moved first, one np.dot, and the axis moved back."""
    low = amps.size >> (qubit + 1)
    psi = amps.reshape(-1, 2, low).transpose(1, 0, 2).reshape(2, -1)
    return np.dot(u, psi).reshape(2, -1, low).transpose(1, 0, 2).reshape(-1)


def _conjugate(rho: np.ndarray, n: int, qubit: int, u: np.ndarray) -> np.ndarray:
    """u rho u^dagger, flattened: `u` on the row qubit, conj(u) on the
    column qubit n + qubit of the 2n-qubit vector rho.reshape(-1)."""
    return rotate(rotate(rho.reshape(-1), qubit, u), n + qubit, u.conj())


def cdf_of(table: np.ndarray) -> np.ndarray:
    """The normalized CDF that Generator.choice(n, p=table) searches. Every
    draw of the package searches one, with one rng.random(), as choice does:
    measure_computational, the referee game and the coin flip."""
    cdf = table.cumsum()
    cdf /= cdf[-1]
    return cdf


def _check_qubit(state, qubit: int) -> None:
    if not 0 <= qubit < state.n_qubits:
        raise ParameterError(f"qubit index {qubit} out of range for {state.n_qubits} qubits")


def _as_matrix(u) -> np.ndarray:
    if isinstance(u, SingleQubitUnitary):
        return u.matrix()
    m = np.asarray(u, dtype=complex)
    if m.shape != (2, 2):
        raise ParameterError(f"expected a 2x2 matrix, got shape {m.shape}")
    return m


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def apply_unitary(state, qubit: int, u):
    """Apply a single-qubit unitary to one qubit of a state.

    `state` may be a StateVector or DensityMatrix; the result has the same
    kind. `u` may be a SingleQubitUnitary or a raw 2x2 ndarray.
    """
    _check_qubit(state, qubit)
    m = _as_matrix(u)
    if isinstance(state, StateVector):
        return StateVector(rotate(state.amplitudes, qubit, m))
    if isinstance(state, DensityMatrix):
        n = state.n_qubits
        return DensityMatrix(_conjugate(state.entries, n, qubit, m).reshape(2**n, 2**n))
    raise ParameterError(f"unsupported state type {type(state)!r}")


def apply_controlled_phase(state: StateVector, a: int, b: int, phase: float) -> StateVector:
    """Apply diag(1, 1, 1, e^{i*phase}) on qubits (a, b) of a pure state."""
    _check_qubit(state, a)
    _check_qubit(state, b)
    if a == b:
        raise ParameterError("controlled-phase needs two distinct qubits")
    n = state.n_qubits
    idx = np.arange(2**n)
    both = ((idx >> (n - 1 - a)) & 1) & ((idx >> (n - 1 - b)) & 1)
    amps = state.amplitudes.copy()
    amps[both == 1] *= np.exp(1j * phase)
    return StateVector(amps)


def apply_channel(rho: DensityMatrix, qubit: int, ch: NoiseChannel) -> DensityMatrix:
    """Apply a single-qubit noise channel: rho -> sum_k K_k rho K_k^dagger."""
    _check_qubit(rho, qubit)
    n = rho.n_qubits
    out = sum(_conjugate(rho.entries, n, qubit, k) for k in ch.kraus_operators())
    return DensityMatrix(out.reshape(2**n, 2**n))


def bell_pair() -> StateVector:
    """|Phi+> = (|00> + |11>) / sqrt(2)."""
    return StateVector(np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0))


def fidelity(rho, target: StateVector) -> float:
    """Overlap <target| rho |target>, clipped to [0, 1].

    Defined for pure targets only; `rho` may be a DensityMatrix or a
    StateVector (in which case this is the squared inner product).
    """
    if isinstance(rho, StateVector):
        if rho.n_qubits != target.n_qubits:
            raise ParameterError("qubit count mismatch in fidelity")
        return float(min(1.0, max(0.0, abs(np.vdot(target.amplitudes, rho.amplitudes)) ** 2)))
    if rho.n_qubits != target.n_qubits:
        raise ParameterError("qubit count mismatch in fidelity")
    val = np.vdot(target.amplitudes, rho.entries @ target.amplitudes)
    if abs(val.imag) > 1e-10:
        raise ParameterError(f"fidelity has non-negligible imaginary part {val.imag}")
    return float(min(1.0, max(0.0, val.real)))


def measurement_probabilities(state) -> np.ndarray:
    """Computational-basis outcome distribution of a state of either kind."""
    probs = state.probabilities()
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-10:
        raise ParameterError(f"probabilities sum to {total}, not 1")
    return np.clip(probs, 0.0, None) / total


def measure_computational(state, rng: np.random.Generator) -> tuple[str, np.ndarray]:
    """Sample a computational-basis outcome.

    Returns (bitstring, probability table); the table is the diagonal of the
    density matrix (or |amplitude|^2 for pure states). Deterministic under a
    seeded generator.
    """
    probs = measurement_probabilities(state)
    outcome = int(cdf_of(probs).searchsorted(rng.random(), side="right"))
    return format(outcome, f"0{state.n_qubits}b"), probs


# ---------------------------------------------------------------------------
# CHSH game
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassicalDeterministic:
    """Fixed answers: Alice replies a0/a1 to question 0/1, Bob b0/b1."""

    a0: int
    a1: int
    b0: int
    b1: int

    def __post_init__(self) -> None:
        for bit in (self.a0, self.a1, self.b0, self.b1):
            if bit not in (0, 1):
                raise ParameterError("deterministic strategy entries must be bits")


@dataclass(frozen=True)
class QuantumAngles:
    """Measurement-basis rotations applied to a shared Bell pair."""

    a0: float
    a1: float
    b0: float
    b1: float


QUANTUM_OPTIMAL = QuantumAngles(0.0, math.pi / 4.0, math.pi / 8.0, -math.pi / 8.0)


def _real_rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]], dtype=complex)


def chsh_win_probability(strategy) -> float:
    """Expected CHSH win probability over uniform questions.

    Win condition: answers satisfy a XOR b == x AND y. Classical strategies
    are scored by enumeration; quantum strategies by Born-rule statistics on a
    shared Bell pair with each party's measurement basis rotated by its
    per-question angle.
    """
    if isinstance(strategy, ClassicalDeterministic):
        answers_a = (strategy.a0, strategy.a1)
        answers_b = (strategy.b0, strategy.b1)
        wins = sum(
            1
            for x in (0, 1)
            for y in (0, 1)
            if (answers_a[x] ^ answers_b[y]) == (x & y)
        )
        return wins / 4.0
    if isinstance(strategy, QuantumAngles):
        rho = bell_pair().density_matrix()
        angles_a = (strategy.a0, strategy.a1)
        angles_b = (strategy.b0, strategy.b1)
        total = 0.0
        for x in (0, 1):
            for y in (0, 1):
                # Projecting onto the rotated basis R(alpha)|i> equals rotating
                # the state by R(alpha)^dagger and reading the diagonal.
                rotated = apply_unitary(rho, 0, _real_rotation(-angles_a[x]))
                rotated = apply_unitary(rotated, 1, _real_rotation(-angles_b[y]))
                probs = measurement_probabilities(rotated)
                for idx, p in enumerate(probs):
                    a_bit, b_bit = idx >> 1, idx & 1
                    if (a_bit ^ b_bit) == (x & y):
                        total += float(p)
        return total / 4.0
    raise ParameterError(f"unsupported CHSH strategy {type(strategy)!r}")


def chsh_classical_optimum() -> tuple[float, ClassicalDeterministic]:
    """Best win probability over all 16 deterministic strategies."""
    best = -1.0
    best_strategy = None
    for bits in range(16):
        s = ClassicalDeterministic((bits >> 3) & 1, (bits >> 2) & 1, (bits >> 1) & 1, bits & 1)
        p = chsh_win_probability(s)
        if p > best:
            best, best_strategy = p, s
    return best, best_strategy


# ---------------------------------------------------------------------------
# EWL-style quantized 2x2 game
# ---------------------------------------------------------------------------


def check_angle(value: float, name: str = "gamma") -> None:
    """Entangling levels and measurement angles lie in [0, pi/2]."""
    if not 0.0 <= value <= math.pi / 2.0 + 1e-12:
        raise ParameterError(f"{name} {value} outside [0, pi/2]")


def ewl_game(
    gamma: float,
    strategies: tuple[SingleQubitUnitary, SingleQubitUnitary],
    payoff_matrix,
) -> tuple[float, float]:
    """Expected payoff pair of the quantized game.

    `payoff_matrix` is 4x2: one row per measured outcome (00, 01, 10, 11),
    columns are the two players' payoffs. At gamma = 0 the protocol reduces to
    the classical matrix game.
    """
    payoffs = np.asarray(payoff_matrix, dtype=float)
    if payoffs.shape != (4, 2):
        raise ParameterError(f"payoff matrix shape {payoffs.shape}, expected (4, 2)")
    check_angle(gamma)
    # J(gamma) = cos(gamma/2) I x I + i sin(gamma/2) X x X; the outcome
    # probabilities (00, 01, 10, 11) are those of J^dagger (A x B) J |00>
    j = math.cos(gamma / 2.0) * np.kron(_I2, _I2) + 1j * math.sin(gamma / 2.0) * np.kron(
        _X, _X
    )
    psi = StateVector(j[:, 0])  # J |00>
    psi = apply_unitary(psi, 0, strategies[0])
    psi = apply_unitary(psi, 1, strategies[1])
    probs = measurement_probabilities(StateVector(j.conj().T @ psi.amplitudes))
    expected = probs @ payoffs
    return float(expected[0]), float(expected[1])


# ---------------------------------------------------------------------------
# coin-flip consensus
# ---------------------------------------------------------------------------


def coin_flip_consensus(rng: np.random.Generator, angle: float) -> tuple[int, int, bool]:
    """One shared coin flip over a Bell pair.

    Party A measures in the computational basis, party B in a basis rotated by
    `angle`. Returns (bit_a, bit_b, agree); P(agree) = cos^2(angle) and each
    marginal is uniform. The outcomes 00, 01, 10, 11 of the rotated Bell pair
    have the closed-form probabilities [cos^2, sin^2, sin^2, cos^2] / 2, which
    are sampled directly: one `rng.random()` draw searched in their
    `cdf_of`, as `rng.choice(4, p=...)` picks it.
    """
    check_angle(angle, "angle")
    same, differ = math.cos(angle) ** 2 / 2.0, math.sin(angle) ** 2 / 2.0
    cdf = cdf_of(np.array([same, differ, differ, same]))
    outcome = int(cdf.searchsorted(rng.random(), side="right"))
    bit_a, bit_b = outcome >> 1, outcome & 1
    return bit_a, bit_b, bit_a == bit_b
