"""Time-stepped entanglement-distribution trials over a chosen path, and the
metric sweeps built on them (normalized delay vs. network size, end-to-end
fidelity vs. link decoherence rate).

Trial timing model: generation attempts on a hop fire once per sync step and
succeed with the link's gen_prob, so a hop waits (attempts - 1) * sync_step
before its pair exists, then spends the link latency in flight. Every
completed hop beyond the first costs one extra sync step for the entanglement
swap at the junction node. A ready pair left idle longer than the qubit
lifetime while the next hop keeps retrying aborts the trial. On quantum-net
regimes each hop depolarizes the delivered Bell pair with strength
1 - exp(-rate * held), where `held` runs from the hop pair's creation to final
delivery. Depolarizing a Bell pair only rescales its Werner parameter, so the
delivered fidelity has the closed form 1/4 + 3/4 * exp(-sum(rate_i * held_i));
the dense engine in `quantum` is the reference tests compare it against.
Classical regimes skip generation and decoherence entirely: one sync step plus
latency per hop, fidelity pinned to the product of the links' fidelity payoffs.

Each trial of a sweep cell draws from its own stream: trial i draws what
`np.random.default_rng([*seed_parts, i])` would, with seed_parts the (seed,
sweep indices) of the cell. The PCG64 states of all trials of a cell come
from one numpy pass that replays numpy's SeedSequence and PCG64 seeding
(O'Neill, "PCG", 2014; numpy NEP 19) in uint64 words. Each hop steps every
trial's stream once and takes numpy's next double from the XSL-RR output. At
gen_prob >= 1/3 numpy's geometric compares that one double with a running
sum of the probabilities of 1, 2, ... attempts, so a table of those sums and
one searchsorted give the attempts of all trials. Below 1/3 numpy inverts an
exponential that takes a varying number of words: from the first such hop
on, each trial draws its remaining hops on one reused generator, set to the
state its stream reached. A check run once per process compares states,
doubles and geometric draws with `default_rng`; on a mismatch every trial
draws from its own `default_rng`.

One column kernel times every trial, `run_trial`'s single trial and all
trials of a sweep cell alike: given each trial's attempts per hop, it builds
the trial's clock as one running sum over the hop steps [wait, latency, swap]
and returns float64 metric columns, one entry per trial. Only geometric draws
at gen_prob < 1 make trials differ: a classical-net cell, or a quantum-net
cell whose path links all have gen_prob 1, times one trial on one attempt per
hop and fills its columns with it. A lossy cell draws every hop of every
trial, also past an abort, and times all trials at once.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, fields, replace
from enum import Enum

import numpy as np

from . import quantum as q
from .errors import CapacityError, ParameterError, UnreachableError, check_seed
from .topology import LinkParams, NetworkTopology, build_scenario1, shortest_path


class Regime(Enum):
    NO_GAME_CLASSICAL_NET = "no_game_classical_net"
    CLASSICAL_GAME_CLASSICAL_NET = "classical_game_classical_net"
    CLASSICAL_GAME_QUANTUM_NET = "classical_game_quantum_net"
    QUANTUM_GAME_QUANTUM_NET = "quantum_game_quantum_net"

    @property
    def quantum_net(self) -> bool:
        return self in (Regime.CLASSICAL_GAME_QUANTUM_NET, Regime.QUANTUM_GAME_QUANTUM_NET)


ALL_REGIMES = tuple(Regime)

# trials per sweep cell; the paper uses 1000, and the cap keeps every trial
# index in one uint32 word of its seed
MAX_TRIALS = 1_000_000


@dataclass(frozen=True)
class SimConfig:
    sync_step_us: float = 300.0
    qubit_lifetime_us: float = 500.0
    trials: int = 1000
    regime: Regime = Regime.QUANTUM_GAME_QUANTUM_NET

    def __post_init__(self) -> None:
        if not self.sync_step_us > 0:
            raise ParameterError(f"sync_step_us must be > 0, got {self.sync_step_us}")
        if self.sync_step_us > self.qubit_lifetime_us:
            raise ParameterError(
                f"sync_step_us {self.sync_step_us} exceeds qubit_lifetime_us {self.qubit_lifetime_us}"
            )
        if self.trials < 1:
            raise ParameterError(f"trials must be >= 1, got {self.trials}")
        if self.trials > MAX_TRIALS:
            raise CapacityError(f"trials must be <= {MAX_TRIALS}, got {self.trials}")


@dataclass(frozen=True)
class TrialMetrics:
    total_latency_us: float
    hops: int
    normalized_delay_us: float
    end_to_end_fidelity: float
    ebits_delivered: int
    entanglement_rate: float  # e-bits per second of simulated time
    success: bool


METRIC_FIELDS = tuple(f.name for f in fields(TrialMetrics))


def _path_links(topology: NetworkTopology, path: list[int]):
    if len(path) < 2:
        raise ParameterError(f"path needs at least two nodes, got {path}")
    links = []
    for a, b in zip(path, path[1:]):
        link = topology.link_between(a, b)
        if link is None:
            raise ParameterError(f"path hop {a}-{b} has no link in the topology")
        links.append(link)
    return links


def run_trial(
    topology: NetworkTopology, path: list[int], cfg: SimConfig, rng: np.random.Generator
) -> TrialMetrics:
    """One distribution attempt over `path` under the configured regime. A
    quantum-net trial draws one geometric per hop, every hop also after an
    abort; a classical-net trial draws nothing."""
    links = _path_links(topology, path)
    quantum_net = cfg.regime.quantum_net
    draws = [[rng.geometric(l.params.gen_prob) if quantum_net else 1] for l in links]
    columns = _columns(links, cfg, np.array(draws))
    total, hops, delay, fidelity, ebits, rate, success = (c.item() for c in columns.values())
    return TrialMetrics(total, int(hops), delay, fidelity, int(ebits), rate, bool(success))


@np.errstate(over="ignore", invalid="ignore")
def _columns(links, cfg: SimConfig, attempts: np.ndarray) -> dict[str, np.ndarray]:
    """Metric columns, keyed by METRIC_FIELDS, of the trials whose hop i took
    attempts[i, j] generation attempts in trial j. A clock past the float
    range reads inf or nan, which `aggregate` rejects."""
    hops, n = attempts.shape
    budget = min(l.params.coherence_us for l in links)
    if not cfg.regime.quantum_net:
        total = np.full(n, sum(l.params.latency_us + cfg.sync_step_us for l in links))
        success = total <= budget
        fidelity = np.full(n, math.prod(l.payoff for l in links))
    else:
        # each trial's clock is one running sum over the hop steps [wait,
        # latency, swap]; the first hop has no junction to swap at
        wait = (attempts - 1) * cfg.sync_step_us
        steps = np.empty((hops, 3, n))
        steps[:, 0] = wait
        steps[:, 1] = [[l.params.latency_us] for l in links]
        steps[1:, 2] = cfg.sync_step_us
        steps[0, 2] = 0.0
        # cumsum adds in hop order; a sum over the hop axis may add pairwise
        clock = np.cumsum(steps.reshape(3 * hops, n), axis=0).reshape(hops, 3, n)
        created = clock[:, 0]
        # a pair waiting at a junction sat idle too long: the trial ends at
        # the first such wait
        idle = wait > cfg.qubit_lifetime_us
        idle[0] = False
        aborted = idle.any(axis=0)
        first_idle = created[idle.argmax(axis=0), np.arange(n)]
        total = np.where(aborted, first_idle, clock[-1, 2])
        success = ~aborted & (total <= budget)
        rates = np.array([[l.params.decoherence_rate] for l in links])
        decay = np.cumsum(rates * (total - created), axis=0)[-1]
        fidelity = np.zeros(n)
        # math.exp per trial: numpy's exp rounds some results differently
        fidelity[success] = [0.25 + 0.75 * math.exp(-d) for d in decay[success].tolist()]
    ebits = success.astype(float)
    rate = ebits / (total * 1e-6)
    return dict(zip(METRIC_FIELDS, (
        total, np.full(n, float(hops)), total / hops, fidelity, ebits, rate, ebits
    )))


@np.errstate(over="ignore", invalid="ignore")
def aggregate(columns: dict[str, np.ndarray]) -> tuple[dict[str, float], dict[str, float]]:
    """Arithmetic mean and sample standard deviation of each metric column of
    `run_trials`.

    Success contributes as a 0/1 fraction. A single trial has stddev 0. A
    mean or stddev past the float range is a ParameterError naming the metric.
    """
    n = len(columns["success"])
    if n == 0:
        raise ParameterError("cannot aggregate an empty trial list")
    means = {f: float(np.mean(columns[f])) for f in METRIC_FIELDS}
    stds = {f: float(np.std(columns[f], ddof=1)) if n > 1 else 0.0 for f in METRIC_FIELDS}
    for f in METRIC_FIELDS:
        for stat, value in (("mean", means[f]), ("stddev", stds[f])):
            if not math.isfinite(value):
                raise ParameterError(
                    f"{f} {stat} is {value}: the configured times overflow the float range"
                )
    return means, stds


def run_trials(
    topology: NetworkTopology,
    path: list[int],
    cfg: SimConfig,
    seed_parts: tuple[int, ...],
) -> dict[str, np.ndarray]:
    """cfg.trials independent trials as metric columns, keyed by
    METRIC_FIELDS, in trial-index order. Trial i draws from the stream of
    `np.random.default_rng([*seed_parts, i])`, and each column entry equals
    `run_trial`'s metric for that generator.

    Both run the same column kernel. A lossy cell draws every hop of every
    trial, then times all trials at once: hops at gen_prob >= 1/3 take one
    double from every trial's stream in one vector pass, and from the first
    hop below 1/3 on each trial draws on one reused generator. A cell whose
    trials draw no random number times one trial on one attempt per hop,
    with no generator, and fills the columns with it: classical-net regimes
    never touch the generator, and on a quantum-net path whose links all
    have gen_prob 1 every geometric draw is 1.
    """
    check_seed(seed_parts)
    links = _path_links(topology, path)
    probs = [l.params.gen_prob for l in links]
    if not cfg.regime.quantum_net or all(p == 1.0 for p in probs):
        first = _columns(links, cfg, np.ones((len(links), 1), dtype=np.int64))
        return {f: np.repeat(c, cfg.trials) for f, c in first.items()}
    # a trial that aborts early draws for later hops too; its stream is its
    # own, so no other trial sees the difference
    return _columns(links, cfg, _attempts(seed_parts, cfg.trials, probs))


# ---------------------------------------------------------------------------
# per-trial streams
# ---------------------------------------------------------------------------

# numpy's SeedSequence: a pool of four uint32 words, hashed with these
# constants; PCG64 then runs its srandom on generate_state(4, uint64)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
# numpy scalars: a Python int operand doubles the cost of a uint32 array op
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_U16 = np.uint32(16)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI, _MULT_LO = np.uint64(_PCG64_MULT >> 64), np.uint64(_PCG64_MULT & 2**64 - 1)
# from this gen_prob up numpy's geometric searches its partial sums with one
# double; below, it inverts an exponential that takes one to five words
_SEARCH_MIN_P = 1 / 3


def _hasher(const: int, mult: int):
    """SeedSequence's hash of uint32 words; each call steps the constant."""

    def hash_words(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> _U16

    return hash_words


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_L - y * _MIX_R
    return result ^ result >> _U16


def _hashed_states(seed_parts: tuple[int, ...], n: int):
    """The PCG64 states of `default_rng([*seed_parts, i])` for every i < n, as
    uint64 word arrays (state hi, state lo, inc hi, inc lo), with all trial
    indices hashed and seeded at once."""
    # each part split into little-endian uint32 words, as SeedSequence does
    words = [
        p >> s & _MASK32 for p in map(int, seed_parts) for s in range(0, max(p.bit_length(), 1), 32)
    ]
    # the words every trial shares as 1-element arrays, hashed once and
    # broadcast; numpy scalars would warn on the hash's uint32 overflow
    entropy = [np.full(1, w, dtype=np.uint32) for w in words] + [np.arange(n, dtype=np.uint32)]
    entropy += [np.zeros(1, np.uint32)] * (4 - len(entropy))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    generate = _hasher(_INIT_B, _MULT_B)
    out = [generate(pool[k % 4]).astype(np.uint64) for k in range(8)]
    # generate_state(4, uint64): pairs of words, low word first
    seed_hi, seed_lo, seq_hi, seq_lo = (out[2 * k] | out[2 * k + 1] << 32 for k in range(4))
    # PCG64's srandom: state 0, step, add the seed, step
    inc = (seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1)
    return _pcg64_step((*_add128(seed_hi, seed_lo, *inc), *inc))


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < b_lo), lo


def _mul_hi(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High words of the 128-bit products a * b, from 32-bit halves."""
    a0, a1 = a & _MASK32, a >> 32
    b0, b1 = b & _MASK32, b >> 32
    t = a1 * b0 + (a0 * b0 >> 32)
    w = (t & _MASK32) + a0 * b1
    return a1 * b1 + (t >> 32) + (w >> 32)


def _pcg64_step(state):
    """One LCG step, state * _PCG64_MULT + inc mod 2**128, of every stream."""
    hi, lo, inc_hi, inc_lo = state
    hi = _mul_hi(lo, _MULT_LO) + lo * _MULT_HI + hi * _MULT_LO
    return (*_add128(hi, lo * _MULT_LO, inc_hi, inc_lo), inc_hi, inc_lo)


def _next_doubles(state):
    """Every stream stepped once, and numpy's next_double of each: the top 53
    bits of the XSL-RR output word, times 2**-53."""
    state = _pcg64_step(state)
    hi, lo = state[:2]
    word, rot = hi ^ lo, hi >> 58
    word = word >> rot | word << (64 - rot & 63)
    return state, (word >> 11) * 2.0**-53


@functools.lru_cache(maxsize=64)
def _search_sums(p: float) -> np.ndarray:
    """The partial sums numpy's geometric search at p >= 1/3 compares its
    double u with, in its float order: the draw is 1 + the count of sums
    below u. The sums stop at the largest double or where they stall; a u
    above a stalled sum would keep numpy's loop running for ever."""
    prod = total = p
    sums = [total]
    while total < 1 - 2**-53:
        prod *= 1.0 - p
        if total + prod == total:
            break
        total += prod
        sums.append(total)
    sums = np.array(sums)
    sums.flags.writeable = False  # shared by every caller of the cache
    return sums


def _as_ints(state) -> list[tuple[int, int]]:
    """(state, inc) of each stream as 128-bit ints."""
    hi, lo, inc_hi, inc_lo = (w.tolist() for w in state)
    return [(a << 64 | b, c << 64 | d) for a, b, c, d in zip(hi, lo, inc_hi, inc_lo)]


def _numpy_states(rngs) -> list[tuple[int, int]]:
    return [(s["state"], s["inc"]) for s in (r.bit_generator.state["state"] for r in rngs)]


def _search_draws(state, probs: list[float]):
    """Every stream's geometric draws at probs, all >= 1/3, as rows of an
    (hops, n) list, and the states they leave."""
    rows = []
    for p in probs:
        state, u = _next_doubles(state)
        rows.append(np.searchsorted(_search_sums(p), u) + 1)
    return state, rows


@functools.cache
def _hashing_matches_numpy() -> bool:
    """Whether the hashed states and the vector draws reproduce this numpy's
    `default_rng`, checked on four trials of a multi-word seed: the starting
    states, one double, geometric draws in the search branch and the states
    they leave."""
    parts, probs = (2**32 + 7, 0, 5), [_SEARCH_MIN_P, 0.8, 1.0]
    rngs = [np.random.default_rng([*parts, i]) for i in range(4)]
    state = _hashed_states(parts, 4)
    if _as_ints(state) != _numpy_states(rngs):
        return False
    state, u = _next_doubles(state)
    if u.tolist() != [r.random() for r in rngs]:
        return False
    state, rows = _search_draws(state, probs)
    if np.array(rows).T.tolist() != [[r.geometric(p) for p in probs] for r in rngs]:
        return False
    return _as_ints(state) == _numpy_states(rngs)


def _attempts(seed_parts: tuple[int, ...], n: int, probs: list[float]) -> np.ndarray:
    """Generation attempts as an (hops, n) array: entry (h, i) is the h-th
    draw of `default_rng([*seed_parts, i])`, `geometric(probs[h])`.

    Hops at gen_prob >= 1/3 take one double per trial, drawn for all trials
    at once. From the first hop below 1/3 on, each trial draws its remaining
    hops on one reused generator, set to the state its stream reached."""
    if not _hashing_matches_numpy():
        rngs = (np.random.default_rng([*seed_parts, i]) for i in range(n))
        return np.array([[rng.geometric(p) for p in probs] for rng in rngs]).T
    split = next((h for h, p in enumerate(probs) if p < _SEARCH_MIN_P), len(probs))
    state, rows = _search_draws(_hashed_states(seed_parts, n), probs[:split])
    tail = probs[split:]
    if not tail:
        return np.array(rows)
    draws = []
    rng = np.random.default_rng(0)
    for s, inc in _as_ints(state):
        rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": s, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
        draws.extend(map(rng.geometric, tail))
    return np.vstack([*rows, np.reshape(draws, (n, len(tail))).T])


# ---------------------------------------------------------------------------
# sweep results
# ---------------------------------------------------------------------------


@dataclass
class SweepResult:
    x_label: str
    x_values: list[float]
    series: list[str]
    n: int
    cells: dict[tuple[float, str], tuple[dict[str, float], dict[str, float]]]

    def rows(self) -> list[tuple]:
        out = []
        for (x, series), (means, stds) in self.cells.items():
            for metric in METRIC_FIELDS:
                out.append((x, series, metric, means[metric], stds[metric], self.n))
        out.sort(key=lambda r: (r[0], r[1], r[2]))
        return out

    def to_csv(self) -> str:
        lines = ["x,regime,metric,mean,stddev,n"]
        for x, series, metric, mean, std, n in self.rows():
            lines.append(f"{x!r},{series},{metric},{mean!r},{std!r},{n}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "x_label": self.x_label,
            "x_values": list(self.x_values),
            "n": self.n,
            "rows": [
                {"x": x, "regime": series, "metric": metric, "mean": mean, "stddev": std, "n": n}
                for x, series, metric, mean, std, n in self.rows()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def mean_of(self, x: float, series: str, metric: str) -> float:
        return self.cells[(x, series)][0][metric]


# ---------------------------------------------------------------------------
# node-count sweep
# ---------------------------------------------------------------------------


def backbone_topology(count: int, link_defaults: LinkParams | None = None) -> NetworkTopology:
    """Sweep topology for a given coordinating-node count: two leaders joined
    by a (count - 2)-repeater chain, one end-node on each leader.

    The count parameter is the number of infrastructure nodes playing the
    game (leaders plus repeaters); the end-nodes are the fixed communicating
    pair. Probabilistic extras stay off so the delay trend isolates the
    hop/swap scaling.
    """
    if count < 2:
        raise ParameterError(f"node count must be >= 2, got {count}")
    return build_scenario1(
        2,
        1,
        count - 2,
        link_defaults=link_defaults,
        probabilistic_links=False,
        placement="geometric",
    )


def select_path(
    topology: NetworkTopology,
    source: int,
    destination: int,
    regime: Regime,
    seed,
    player_count: int,
) -> list[int]:
    """Per-regime path choice: hop-shortest for no-game, coalition outcomes
    for the game regimes. Among hop-shortest paths, the first that a
    breadth-first search with neighbours in link order reaches wins; on the
    sweep backbones the hop-shortest path is unique. The quantum game needs
    more than two coordinating nodes to differ from the classical one and
    falls back below that (and above the dense-simulation qubit cap, which
    admits the backbone player set only up to player_count + 2 qubits).

    A lone listed path, as on the sweep backbones, is every outcome's path, so
    it is returned unplayed where the game would return it: the classical
    game's only above the tie tolerance (else it raises UnreachableError), the
    quantum game's for a valid seed and at most q.MAX_QUBITS players.

    Otherwise the game plays on the ValueModel built here, so a call lists
    the paths once. The quantum game's strategy trajectory depends on the
    topology alone, and `seed` only picks the outcomes drawn along it.
    """
    from . import coalition as co  # deferred: coalition builds on simulation clients

    if regime is Regime.NO_GAME_CLASSICAL_NET:
        path = shortest_path(topology.adjacency, source, destination)
        if path is None:
            raise UnreachableError(f"no path between {source} and {destination}")
        return path
    cfg = co.CoalitionGameConfig(source=source, destination=destination)
    quantum = (
        regime is Regime.QUANTUM_GAME_QUANTUM_NET
        and 2 < player_count
        and player_count + 2 <= q.MAX_QUBITS
    )
    if quantum:
        check_seed(seed)  # the game checks the seed before its path table
    model = co.ValueModel(cfg, topology)
    if len(model.paths) == 1:
        _, score, path = model.paths[0]
        if (len(path) <= q.MAX_QUBITS) if quantum else (score > co._tolerance(score)):
            return list(path)
    if quantum:
        return co.quantum_coalition_form(cfg, topology, seed=seed, model=model).path
    return co.classical_coalition_form(cfg, topology, model).path


def sweep_nodes(
    base_cfg: SimConfig,
    node_counts: list[int],
    seed: int = 0,
    link_defaults: LinkParams | None = None,
) -> SweepResult:
    """Normalized-delay sweep across network sizes for each strategy regime."""
    check_seed(seed)
    if not node_counts or any(a >= b for a, b in zip(node_counts, node_counts[1:])):
        raise ParameterError(f"node_counts must be non-empty and strictly ascending, got {list(node_counts)}")
    cells = {}
    for xi, count in enumerate(node_counts):
        topology = backbone_topology(count, link_defaults)
        for ri, regime in enumerate(ALL_REGIMES):
            cfg = replace(base_cfg, regime=regime)
            # build_scenario1 ids: leaders 0 and 1, then their end-nodes 2 and 3
            path = select_path(topology, 2, 3, regime, [seed, xi, ri], count)
            columns = run_trials(topology, path, cfg, (seed, xi, ri))
            cells[(float(count), regime.value)] = aggregate(columns)
    return SweepResult(
        x_label="node_count",
        x_values=[float(c) for c in node_counts],
        series=[r.value for r in ALL_REGIMES],
        n=base_cfg.trials,
        cells=cells,
    )


# ---------------------------------------------------------------------------
# decoherence sweep
# ---------------------------------------------------------------------------

# default rate grid: two orders of magnitude, shallow enough that the
# depolarized fidelity keeps a numerically strict slope above its 1/4 floor
DECOHERENCE_SWEEP_RATES = (1e-6, 3e-6, 1e-5, 3e-5, 1e-4)

# cost units to microseconds for the sweep fixture; stretched link latencies
# make one extra swap cheaper than one slow hop, so the coin-settled tie can
# matter
SWEEP_COST_TO_US = 10.0


def sweep_decoherence(base_cfg: SimConfig, rates: list[float], seed: int = 0) -> SweepResult:
    """End-to-end fidelity sweep over link decoherence rates.

    For each rate the two-tree consensus fixture is rebuilt with that rate on
    every link, consensus runs per variant from leaf 1 to leaf 8, and the
    converged path is measured over `trials` quantum-net trials. Trial seeds
    pair across variants so the comparison is noise-matched.
    """
    from .consensus import run_consensus  # deferred: consensus pulls trial fidelities
    from .topology import canonical_two_tree_topology

    check_seed(seed)
    if not rates or any(a >= b for a, b in zip(rates, rates[1:])) or rates[0] < 0:
        raise ParameterError(
            f"rates must be non-empty, strictly ascending and non-negative, got {list(rates)}"
        )
    variants = ("classical", "quantum")
    base_topology = canonical_two_tree_topology(cost_to_us=SWEEP_COST_TO_US)
    cells = {}
    for xi, rate in enumerate(rates):
        rated = base_topology.with_link_updates(decoherence_rate=rate)
        for variant in variants:
            cfg = replace(
                base_cfg,
                regime=Regime.QUANTUM_GAME_QUANTUM_NET
                if variant == "quantum"
                else Regime.CLASSICAL_GAME_QUANTUM_NET,
            )
            outcome = run_consensus(rated, 1, 8, variant=variant, seed=seed, sim_config=cfg)
            columns = run_trials(outcome.realized_topology, outcome.path, cfg, (seed, xi))
            cells[(float(rate), variant)] = aggregate(columns)
    return SweepResult(
        x_label="decoherence_rate",
        x_values=[float(r) for r in rates],
        series=list(variants),
        n=base_cfg.trials,
        cells=cells,
    )
