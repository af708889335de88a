"""Time-stepped entanglement-distribution trials over a chosen path: one trial
on a caller's generator, or every trial of a batch of sweep cells that share
the path as metric rows.

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
sweep indices) of the cell. Cells that share a path and a timing model, as
a node count's two quantum-net regimes do, draw and time in one batch. The
PCG64 states of a chunk's trials, across the cells of the batch, come from
one numpy pass that replays numpy's SeedSequence and PCG64 seeding (O'Neill,
"PCG", 2014; numpy NEP 19): the entropy words of all trials are one (words,
trials) uint32 block with each trial's index last, and SeedSequence's pool
of four words is hashed and mixed as one block, each pool word into the
other three at once and each word past the pool into all four. PCG64 is a
128-bit LCG, so every stream then steps once per hop as state * multiplier
+ inc mod 2**128 on (trials,) arrays of uint64 words, and each state gives
numpy's next double from its XSL-RR output. At gen_prob >= 1/3 numpy's
geometric compares that one double with a running sum of the probabilities
of 1, 2, ... attempts, so a table of those sums and one searchsorted per hop
give the attempts of all trials. Below 1/3 numpy inverts an exponential
that takes a varying number of words: from the first such hop on, each
trial draws its remaining hops on one reused generator, set to the state
its stream reached. A check run once per process compares states, doubles
and geometric draws of two cells hashed in one pass with `default_rng`; on
a mismatch every trial draws from its own `default_rng`.

One kernel times every trial, `run_trial`'s single trial and all trials of a
sweep cell alike: given each trial's attempts per hop, it builds the trial's
clock as one running sum over the hop steps [wait, latency, swap] and writes
the metric rows, a float64 (len(METRIC_FIELDS), trials) array whose row k
holds metric METRIC_FIELDS[k]. Only geometric draws at gen_prob < 1 make
trials differ: a classical-net cell, or a quantum-net cell whose path links
all have gen_prob 1, is one trial on one attempt per hop, kept as one
column. A lossy batch draws every hop of every trial, also past an abort,
and times trials [start, start + n) of all its cells in one kernel call,
with at most CHUNK_DRAWS hop draws per call. `aggregate` takes one mean and
one stddev along a cell's contiguous trial axis, which sums each row
pairwise exactly as that row's own 1-D reduction; a one-column cell reads
its trial's value and stddev 0.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .errors import CapacityError, ParameterError, check_seed
from .topology import NetworkTopology


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
# hops x trials of one lossy cell, which bounds its time (memory is bounded
# by CHUNK_DRAWS): the paper's largest backbone (11 hops) at MAX_TRIALS
MAX_CELL_DRAWS = 11 * MAX_TRIALS
# hops x trials timed at once, across the cells of a batch; timing holds
# about 50 bytes per draw
CHUNK_DRAWS = 2**20


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
    rows = _time_trials(links, cfg, np.array(draws), np.empty((len(METRIC_FIELDS), 1)))
    total, hops, delay, fidelity, ebits, rate, success = rows[:, 0].tolist()
    return TrialMetrics(total, int(hops), delay, fidelity, int(ebits), rate, bool(success))


@np.errstate(over="ignore", invalid="ignore")
def _time_trials(links, cfg: SimConfig, attempts: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`out`, a (len(METRIC_FIELDS), n) float64 block, filled with the metric
    rows of the n trials whose hop i took attempts[i, j] generation attempts
    in trial j. A clock past the float range reads inf or nan, which
    `aggregate` rejects."""
    hops, n = attempts.shape
    budget = min(l.params.coherence_us for l in links)
    if not cfg.regime.quantum_net:
        total = np.full(n, sum(l.params.latency_us + cfg.sync_step_us for l in links))
        success = total <= budget
        fidelity = np.full(n, math.prod(l.payoff for l in links))
    else:
        # each trial's clock is one running sum over the hop steps [wait,
        # latency, swap]; the first hop has no junction to swap at
        clock = np.empty((hops, 3, n))
        np.multiply(attempts - 1, cfg.sync_step_us, out=clock[:, 0])
        # a pair waiting at a junction sat idle too long: the trial ends at
        # the first such wait
        idle = clock[:, 0] > cfg.qubit_lifetime_us
        idle[0] = False
        clock[:, 1] = [[l.params.latency_us] for l in links]
        clock[1:, 2] = cfg.sync_step_us
        clock[0, 2] = 0.0
        # cumsum adds in hop order; a sum over the hop axis may add pairwise.
        # Both sums run in place, so a chunk holds one (hops, 3, n) array.
        steps = clock.reshape(3 * hops, n)
        np.cumsum(steps, axis=0, out=steps)
        created = clock[:, 0]
        aborted = idle.any(axis=0)
        first_idle = created[idle.argmax(axis=0), np.arange(n)]
        total = np.where(aborted, first_idle, clock[-1, 2])
        success = ~aborted & (total <= budget)
        held = total - created
        held *= np.array([[l.params.decoherence_rate] for l in links])
        decay = np.cumsum(held, axis=0, out=held)[-1]
        fidelity = np.zeros(n)
        # math.exp per trial: numpy's exp rounds some results differently.
        # The scaling rounds as the scalar 0.25 + 0.75 * math.exp(-d) does.
        exps = map(math.exp, np.negative(decay[success]).tolist())
        fidelity[success] = 0.25 + 0.75 * np.fromiter(exps, float)
    # in METRIC_FIELDS order; ebits and success are the same 0/1 row
    out[0], out[1], out[3], out[4], out[6] = total, hops, fidelity, success, success
    np.divide(total, hops, out=out[2])
    np.divide(out[4], total * 1e-6, out=out[5])
    return out


@np.errstate(over="ignore", invalid="ignore")
def aggregate(rows: np.ndarray) -> tuple[dict[str, float], dict[str, float]]:
    """Arithmetic mean and sample standard deviation of each metric row of
    one `run_trials` cell, keyed by METRIC_FIELDS.

    Success contributes as a 0/1 fraction. One column, a single trial or the
    one trial of a cell that draws nothing, gives its values exactly and
    stddev 0. A mean or stddev past the float range is a ParameterError
    naming the metric.
    """
    n = rows.shape[1]
    if n == 0:
        raise ParameterError("cannot aggregate an empty trial list")
    means = rows.mean(axis=1).tolist()
    # std(ddof=1) of one trial warns, whatever the errstate
    stds = rows.std(axis=1, ddof=1).tolist() if n > 1 else [0.0] * len(METRIC_FIELDS)
    for f, mean, std in zip(METRIC_FIELDS, means, stds):
        for stat, value in (("mean", mean), ("stddev", std)):
            if not math.isfinite(value):
                raise ParameterError(
                    f"{f} {stat} is {value}: the configured times overflow the float range"
                )
    return dict(zip(METRIC_FIELDS, means)), dict(zip(METRIC_FIELDS, stds))


def run_trials(
    topology: NetworkTopology,
    path: list[int],
    cfg: SimConfig,
    cells: Sequence[tuple[int, ...]],
) -> np.ndarray:
    """cfg.trials independent trials of each cell as metric rows: a
    C-contiguous float64 (len(cells), len(METRIC_FIELDS), columns) array
    whose block k holds cell k, row j metric METRIC_FIELDS[j]. The cells
    share `path` and cfg's timing model; a cell is given by its seed parts,
    and trial i of cell k draws from the stream of
    `np.random.default_rng([*cells[k], i])`. Each entry equals `run_trial`'s
    metric for that generator.

    A batch whose trials draw no random number has one column per cell: its
    one trial, timed on one attempt per hop with no generator, stands for
    all cfg.trials. Classical-net regimes never touch the generator, and on
    a quantum-net path whose links all have gen_prob 1 every geometric draw
    is 1. A lossy batch has cfg.trials columns, column i trial i. It draws
    every hop of every trial of every cell, and times trials [start, start +
    n) of all cells in one kernel call per chunk, with n the most trials per
    cell that keep a chunk within CHUNK_DRAWS hop draws. Hops at gen_prob >=
    1/3 take one double from every trial's stream, one vector pass per hop,
    and from the first hop below 1/3 on each trial draws on one reused
    generator. A lossy cell of more than MAX_CELL_DRAWS hops x trials is a
    CapacityError before any draw.
    """
    for seed_parts in cells:
        check_seed(seed_parts)
    links = _path_links(topology, path)
    probs = [l.params.gen_prob for l in links]
    if not cfg.regime.quantum_net or all(p == 1.0 for p in probs):
        ones = np.ones((len(links), 1), dtype=np.int64)
        column = _time_trials(links, cfg, ones, np.empty((len(METRIC_FIELDS), 1)))
        return np.repeat(column[None], len(cells), axis=0)
    if len(links) * cfg.trials > MAX_CELL_DRAWS:
        raise CapacityError(
            f"{len(links)} hops x {cfg.trials} trials exceed {MAX_CELL_DRAWS} draws per cell"
        )
    # a trial that aborts early draws for later hops too; its stream is its
    # own, so no other trial sees the difference. Every column depends on its
    # own trial alone, so chunks time the same columns as one pass. A chunk
    # takes trials [start, start + n) of every cell.
    block = np.empty((len(cells), len(METRIC_FIELDS), cfg.trials))
    chunk = max(1, CHUNK_DRAWS // (len(links) * len(cells)))
    out = np.empty((len(METRIC_FIELDS), len(cells) * min(chunk, cfg.trials)))
    for start in range(0, cfg.trials, chunk):
        n = min(chunk, cfg.trials - start)
        attempts = _attempts([(parts, start, n) for parts in cells], probs)
        rows = _time_trials(links, cfg, attempts, out[:, :len(cells) * n])
        block[:, :, start:start + n] = rows.reshape(len(METRIC_FIELDS), len(cells), n).swapaxes(0, 1)
    return block


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
_U32, _LOW32 = np.uint64(32), np.uint64(_MASK32)
# PCG64's LCG multiplier 0x2360ED051FC65DA44385DF649FCCF645 as the words
# `_mul128` takes: hi, lo, and the low and high 32-bit halves of lo
_PCG64_MULT = tuple(map(np.uint64, (0x2360ED051FC65DA4, 0x4385DF649FCCF645,
                                    0x9FCCF645, 0x4385DF64)))
# from this gen_prob up numpy's geometric searches its partial sums with one
# double; below, it inverts an exponential that takes one to five words
_SEARCH_MIN_P = 1 / 3


@functools.lru_cache(maxsize=16)
def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """The constants of `calls` SeedSequence hashes as a (calls + 1, 1) uint32
    column: hash k xors row k into its word and multiplies by row k + 1."""
    return np.array([init * pow(mult, k, 2**32) & _MASK32 for k in range(calls + 1)],
                    dtype=np.uint32)[:, None]


def _hash(words: np.ndarray, consts: np.ndarray, first: int, count: int) -> np.ndarray:
    """SeedSequence's hashes first .. first + count - 1 of `words`, one per
    row of the (count, n) result."""
    value = words ^ consts[first:first + count]
    value *= consts[first + 1:first + count + 1]
    value ^= value >> _U16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_L - y * _MIX_R
    return result ^ result >> _U16


def _words(seed_parts: tuple[int, ...]) -> list[int]:
    """Each part split into little-endian uint32 words, as SeedSequence does."""
    return [
        p >> s & _MASK32 for p in map(int, seed_parts) for s in range(0, max(p.bit_length(), 1), 32)
    ]


def _hashed_states(spans):
    """The PCG64 states of `default_rng([*seed_parts, i])` for every i in
    [start, start + n) of each (seed_parts, start, n) span, in span order, as
    uint64 word arrays (state hi, state lo, inc hi, inc lo), with the trials
    of all spans hashed and seeded at once."""
    # each trial's entropy words, its trial index last, as one (length, n)
    # block; a span that ends before a row pads the pool with 0 there and
    # mixes no word past the pool
    seeds = [_words(parts) for parts, _, _ in spans]
    length = max(4, *(len(w) + 1 for w in seeds))
    words = np.zeros((length, sum(n for _, _, n in spans)), dtype=np.uint32)
    col = 0
    for w, (_, start, n) in zip(seeds, spans):
        words[:len(w), col:col + n] = np.reshape(w, (-1, 1))
        words[len(w), col:col + n] = np.arange(start, start + n)
        col += n
    # each hash steps the constant: 4 for the pool, 3 per source word of the
    # pool's own mix, 4 per word past the pool
    consts = _hash_constants(_INIT_A, _MULT_A, 4 * length)
    pool = _hash(words[:4], consts, 0, 4)
    for src in range(4):
        # the mixes into the other three words read only pool[src]
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], consts, 4 + 3 * src, 3))
    # rows of each trial, and the rows that every trial holds
    held = np.repeat([len(w) + 1 for w in seeds], [n for _, _, n in spans])
    every = min(map(len, seeds)) + 1
    for pos in range(4, length):
        mixed = _mix(pool, _hash(words[pos], consts, 4 * pos, 4))
        pool = mixed if pos < every else np.where(held > pos, mixed, pool)
    gen = _hash_constants(_INIT_B, _MULT_B, 8)
    out = _hash(pool[[0, 1, 2, 3, 0, 1, 2, 3]], gen, 0, 8)
    # generate_state(4, uint64): pairs of words, low word first, read as
    # little-endian uint64 as numpy does
    pairs = np.ascontiguousarray(out.reshape(4, 2, -1).transpose(0, 2, 1), dtype="<u4")
    seed_hi, seed_lo, seq_hi, seq_lo = pairs.view("<u8")[..., 0].astype(np.uint64, copy=False)
    # PCG64's srandom: state 0, step, add the seed, step
    inc = (seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1)
    return (*_add128(*_mul128(*_add128(seed_hi, seed_lo, *inc), _PCG64_MULT), *inc), *inc)


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < b_lo), lo


def _mul128(hi, lo, c):
    """(hi, lo) * c mod 2**128 as words, for a constant c given as words
    like `_PCG64_MULT`'s; the high word of lo * c lo comes from 32-bit
    halves."""
    c_hi, c_lo, c0, c1 = c
    a0, a1 = lo & _LOW32, lo >> _U32
    t = a1 * c0 + (a0 * c0 >> _U32)
    w = (t & _LOW32) + a0 * c1
    return a1 * c1 + (t >> _U32) + (w >> _U32) + lo * c_hi + hi * c_lo, lo * c_lo


def _next_doubles(state, k: int):
    """Every stream stepped k times: yields, per step, the state it reaches
    and numpy's next_double of each stream as an (n,) array, the top 53 bits
    of the XSL-RR output word times 2**-53."""
    hi, lo, inc_hi, inc_lo = state
    for _ in range(k):
        hi, lo = _add128(*_mul128(hi, lo, _PCG64_MULT), inc_hi, inc_lo)
        word, rot = hi ^ lo, hi >> 58
        word = word >> rot | word << (64 - rot & 63)
        yield (hi, lo, inc_hi, inc_lo), (word >> 11) * 2.0**-53


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
    """Every stream's geometric draws at probs, all >= 1/3, as an (hops, n)
    array, and the states they leave: one searchsorted per hop."""
    draws = np.empty((len(probs), len(state[0])), dtype=np.intp)
    for hop, (state, u) in enumerate(_next_doubles(state, len(probs))):
        draws[hop] = np.searchsorted(_search_sums(probs[hop]), u)
    draws += 1
    return state, draws


@functools.cache
def _hashing_matches_numpy() -> bool:
    """Whether the hashed states and the vector draws reproduce this numpy's
    `default_rng`, checked on two cells of multi-word seeds, hashed and drawn
    in one pass: their word counts differ, they share their first words, and
    one mixes a word past the pool that the other lacks. It compares the
    starting states, one double, geometric draws in the search branch and
    the states they leave."""
    spans = [((2**32 + 7, 0, 5), 0, 4), ((2**32 + 7, 2**32 + 1, 9), 5, 2)]
    probs = [_SEARCH_MIN_P, 0.8, 1.0]
    rngs = [np.random.default_rng([*parts, i]) for parts, start, n in spans
            for i in range(start, start + n)]
    state = _hashed_states(spans)
    if _as_ints(state) != _numpy_states(rngs):
        return False
    [(state, u)] = _next_doubles(state, 1)
    if u.tolist() != [r.random() for r in rngs]:
        return False
    state, draws = _search_draws(state, probs)
    if draws.T.tolist() != [[r.geometric(p) for p in probs] for r in rngs]:
        return False
    return _as_ints(state) == _numpy_states(rngs)


def _attempts(spans, probs: list[float]) -> np.ndarray:
    """Generation attempts as an (hops, n) array over the n trials of the
    (seed_parts, start, count) spans, in span order: the column of trial i of
    a span holds the draws of `default_rng([*seed_parts, i])`, entry h its
    `geometric(probs[h])`.

    Hops at gen_prob >= 1/3 take one double per trial, drawn for all trials
    at once, hop by hop. From the first hop below 1/3 on, each trial draws
    its remaining hops on one reused generator, set to the state its stream
    reached."""
    if not _hashing_matches_numpy():
        rngs = (np.random.default_rng([*parts, i]) for parts, start, count in spans
                for i in range(start, start + count))
        return np.array([[rng.geometric(p) for p in probs] for rng in rngs]).T
    split = next((h for h, p in enumerate(probs) if p < _SEARCH_MIN_P), len(probs))
    state, head = _search_draws(_hashed_states(spans), probs[:split])
    tail = probs[split:]
    if not tail:
        return head
    draws = []
    rng = np.random.default_rng(0)
    for s, inc in _as_ints(state):
        rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": s, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
        draws.extend(map(rng.geometric, tail))
    return np.vstack([head, np.reshape(draws, (-1, len(tail))).T])
