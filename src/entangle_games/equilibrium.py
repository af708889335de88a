"""Equilibrium solvers: alternating best-response Nash iteration for the 2-player
classical games, and an exact water-filling Wardrop assignment for allocating
entanglement-attempt rate across a node's outgoing links (affine latencies).

Both solvers are pure functions of their inputs and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import ParameterError

GOLDEN_RATIO = (math.sqrt(5.0) - 1.0) / 2.0
# best-response rounds the Nash iteration plays before it reports non-convergence
NASH_MAX_ITER = 500


def golden_section_minimize(f: Callable[[float], float], lo: float, hi: float, xtol: float) -> float:
    """Derivative-free 1-D minimizer of a unimodal function on [lo, hi]."""
    if hi <= lo:
        raise ParameterError(f"empty interval [{lo}, {hi}]")
    a, b = lo, hi
    c = b - GOLDEN_RATIO * (b - a)
    d = a + GOLDEN_RATIO * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN_RATIO * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN_RATIO * (b - a)
            fd = f(d)
    return (a + b) / 2.0


# ---------------------------------------------------------------------------
# Nash best response
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BestResponseProblem:
    """Two players, action = information-exchange rate in [0, 1], each
    minimizing its own cost function of the joint action."""

    cost_fns: tuple[Callable[[float, float], float], Callable[[float, float], float]]
    tol: float = 1e-6

    def __post_init__(self) -> None:
        if not self.tol > 0:
            raise ParameterError(f"tol must be > 0, got {self.tol}")


@dataclass(frozen=True)
class NashPoint:
    actions: tuple[float, float]
    residual: float
    iterations: int
    converged: bool


def _best_response(problem: BestResponseProblem, player: int, other_action: float) -> float:
    cost = problem.cost_fns[player]
    if player == 0:
        return golden_section_minimize(lambda x: cost(x, other_action), 0.0, 1.0, problem.tol / 10.0)
    return golden_section_minimize(lambda y: cost(other_action, y), 0.0, 1.0, problem.tol / 10.0)


def solve_nash_best_response(problem: BestResponseProblem) -> NashPoint:
    """Alternating best responses from (0.5, 0.5) until the joint action settles.

    The inner minimizer is golden-section at tolerance tol/10, so cost
    functions may be non-smooth simulation lookups. Non-convergence within
    NASH_MAX_ITER iterations is reported on the result, not raised.
    """
    x = [0.5, 0.5]
    for iterations in range(1, NASH_MAX_ITER + 1):
        moved = 0.0
        for player in (0, 1):
            br = _best_response(problem, player, x[1 - player])
            moved = max(moved, abs(br - x[player]))
            x[player] = br
        if moved < problem.tol:
            break
    residual = max(abs(_best_response(problem, p, x[1 - p]) - x[p]) for p in (0, 1))
    return NashPoint(
        actions=(x[0], x[1]),
        residual=residual,
        iterations=iterations,
        converged=residual <= problem.tol,
    )


# ---------------------------------------------------------------------------
# Wardrop assignment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineLatency:
    """l(x) = intercept + slope * x, non-decreasing in flow."""

    intercept: float
    slope: float

    def __post_init__(self) -> None:
        if not (0 <= self.intercept < math.inf and 0 <= self.slope < math.inf):
            raise ParameterError(f"latency coefficients must be finite and >= 0, got {self}")

    def __call__(self, x: float) -> float:
        return self.intercept + self.slope * x


@dataclass(frozen=True)
class WardropProblem:
    """Split `demand` over one node's outgoing links so used links equalize."""

    latencies: tuple[AffineLatency, ...]
    demand: float
    tol: float = 1e-9

    def __post_init__(self) -> None:
        if len(self.latencies) < 1:
            raise ParameterError("need at least one outgoing link")
        if not 0 < self.demand < math.inf:
            raise ParameterError(f"demand must be finite and > 0, got {self.demand}")
        if not 0 < self.tol < math.inf:
            raise ParameterError(f"tol must be finite and > 0, got {self.tol}")


@dataclass(frozen=True)
class WardropFlow:
    flows: tuple[float, ...]
    common_latency: float
    gap: float
    iterations: int = 0


USED_FLOW_EPS = 1e-12


def wardrop_gap(flows: Sequence[float], problem: WardropProblem) -> float:
    """Max spread between any used link's latency and the best link's latency.

    Zero exactly at equilibrium. Raises on infeasible flows (negative entries,
    or a total off the demand by more than 1e-9 relative to max(1, demand)).
    """
    flows = list(flows)
    if len(flows) != len(problem.latencies):
        raise ParameterError("flow vector length does not match link count")
    if any(x < -1e-9 for x in flows):
        raise ParameterError(f"negative flow in {flows}")
    if abs(sum(flows) - problem.demand) > 1e-9 * max(1.0, problem.demand):
        raise ParameterError(f"flows sum to {sum(flows)}, demand is {problem.demand}")
    lat = [l(x) for l, x in zip(problem.latencies, flows)]
    floor = min(lat)
    used = [v for v, x in zip(lat, flows) if x > USED_FLOW_EPS]
    return max(used) - floor if used else 0.0


def _fill(
    problem: WardropProblem, slopes: list[float], used: list[int], base: float, level: float
) -> list[float]:
    """Flows at latency `base + level`; a cap's leftover demand goes to its zero-slope ties."""
    lat = problem.latencies
    flows = [0.0] * len(lat)
    for i in used:
        if slopes[i] > 0.0:
            flows[i] = (level - (lat[i].intercept - base)) / slopes[i]
    if slopes[used[-1]] == 0.0:
        cap = lat[used[-1]].intercept
        ties = [i for i, l in enumerate(lat) if slopes[i] == 0.0 and l.intercept <= cap + problem.tol]
        # rounding can leave the sloped links a hair over the demand
        share = max(0.0, problem.demand - sum(flows)) / len(ties)
        for i in ties:
            flows[i] = share
    return flows


def solve_wardrop(problem: WardropProblem) -> WardropFlow:
    """Exact Wardrop flows for affine latencies: water-filling in one sorted pass.

    Links enter in ascending intercept order (ties in index order) while their
    intercept is below the level c = (demand + sum a/b) / sum 1/b of the sloped
    links in use. A zero-slope link that enters caps c at its intercept, and the
    zero-slope links within `tol` of the cap share the rest of the demand equally.
    A slope whose reciprocal overflows counts as zero slope, and so does a link
    whose a/b, or whose entry into the running sums, overflows.
    `iterations` counts the used sets tried.
    """
    lat = problem.latencies
    # a slope whose reciprocal overflows leaves its link flat at any flow the pass can compute
    slopes = [l.slope if l.slope > 0.0 and math.isfinite(1.0 / l.slope) else 0.0 for l in lat]
    # levels are relative to the lowest intercept, so large intercepts keep flows exact
    base = min(l(0.0) for l in lat)
    used: list[int] = []
    inv = lin = 0.0
    level = math.inf
    for i in sorted(range(len(lat)), key=lambda i: lat[i].intercept):
        a, b = lat[i].intercept - base, slopes[i]
        if a >= level:
            break
        used.append(i)
        if b > 0.0:
            inv_i, lin_i = inv + 1.0 / b, lin + a / b
            if math.isfinite(inv_i) and math.isfinite(lin_i):
                inv, lin = inv_i, lin_i
                level = (problem.demand + lin) / inv
            else:
                # no flow the finite sums can express moves its latency
                slopes[i] = b = 0.0
        if b == 0.0:
            level = a  # every later intercept is >= a, so the pass ends here
    flows = _fill(problem, slopes, used, base, level)
    return WardropFlow(tuple(flows), base + level, wardrop_gap(flows, problem), len(used))
