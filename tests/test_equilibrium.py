import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entangle_games import equilibrium as eq
from entangle_games.errors import ParameterError


def affine_problem(coeffs, demand, **kw):
    return eq.WardropProblem(
        tuple(eq.AffineLatency(a, b) for a, b in coeffs), demand, **kw
    )


def waterfill_oracle(coeffs, demand):
    """Closed-form equalization for strictly increasing affine latencies.

    Written apart from `solve_wardrop`: solves the equal-latency linear system
    for every prefix of the intercept order and returns the first prefix whose
    level is consistent, with a 1e-12 slack on both sides.
    """
    order = sorted(range(len(coeffs)), key=lambda i: coeffs[i][0])
    for k in range(1, len(coeffs) + 1):
        used = order[:k]
        inv_b = sum(1.0 / coeffs[i][1] for i in used)
        c = (demand + sum(coeffs[i][0] / coeffs[i][1] for i in used)) / inv_b
        if all(c >= coeffs[i][0] - 1e-12 for i in used) and (
            k == len(coeffs) or c <= coeffs[order[k]][0] + 1e-12
        ):
            flows = [0.0] * len(coeffs)
            for i in used:
                flows[i] = (c - coeffs[i][0]) / coeffs[i][1]
            return flows, c
    raise AssertionError("oracle failed to find a used set")


# ---------------------------------------------------------------------------
# Nash best response
# ---------------------------------------------------------------------------


def test_separable_quadratic_costs():
    p = eq.BestResponseProblem(
        (lambda x, y: (x - 0.5) ** 2, lambda x, y: (y - 0.5) ** 2), tol=1e-6
    )
    res = eq.solve_nash_best_response(p)
    assert res.converged
    assert res.actions[0] == pytest.approx(0.5, abs=1e-6)
    assert res.actions[1] == pytest.approx(0.5, abs=1e-6)
    assert res.residual <= 1e-6


def test_coupled_linear_reactions_reach_origin():
    p = eq.BestResponseProblem(
        (lambda x, y: (x - 0.5 * y) ** 2, lambda x, y: (y - 0.5 * x) ** 2), tol=1e-6
    )
    res = eq.solve_nash_best_response(p)
    assert res.converged
    assert res.actions[0] == pytest.approx(0.0, abs=1e-5)
    assert res.actions[1] == pytest.approx(0.0, abs=1e-5)


def calibrated_problem():
    # affine reaction curves crossing at (0.695, 0.74)
    beta = 0.3
    r0 = lambda y: 0.695 + beta * (y - 0.74)
    r1 = lambda x: 0.74 + beta * (x - 0.695)
    return eq.BestResponseProblem(
        (lambda x, y: (x - r0(y)) ** 2, lambda x, y: (y - r1(x)) ** 2), tol=1e-6
    )


def test_calibrated_fixture_hits_target_point():
    res = eq.solve_nash_best_response(calibrated_problem())
    assert res.converged
    assert res.actions[0] == pytest.approx(0.695, abs=1e-3)
    assert res.actions[1] == pytest.approx(0.74, abs=1e-3)


def test_residual_definition_holds_at_solution():
    res = eq.solve_nash_best_response(calibrated_problem())
    assert res.residual <= 1e-6


def test_cost_scaling_leaves_equilibrium_unchanged():
    base = eq.solve_nash_best_response(calibrated_problem())
    beta = 0.3
    scaled = eq.BestResponseProblem(
        (
            lambda x, y: 17.0 * (x - (0.695 + beta * (y - 0.74))) ** 2,
            lambda x, y: (y - (0.74 + beta * (x - 0.695))) ** 2,
        ),
        tol=1e-6,
    )
    res = eq.solve_nash_best_response(scaled)
    assert res.actions[0] == pytest.approx(base.actions[0], abs=1e-6)
    assert res.actions[1] == pytest.approx(base.actions[1], abs=1e-6)


def test_nonconvergence_is_flagged_not_raised():
    # player 0 answers y <= 1/2 with 1 and y > 1/2 with 0, player 1 copies
    # x: from (0.5, 0.5) the joint action jumps between about (1, 1) and
    # (0, 0) in every iteration up to the cap
    p = eq.BestResponseProblem(
        (lambda x, y: (x - (1.0 if y <= 0.5 else 0.0)) ** 2, lambda x, y: (y - x) ** 2)
    )
    res = eq.solve_nash_best_response(p)
    assert not res.converged
    assert res.iterations == eq.NASH_MAX_ITER == 500
    assert res.residual > 0.99


# ---------------------------------------------------------------------------
# Wardrop
# ---------------------------------------------------------------------------


def test_two_link_analytic_split():
    p = affine_problem([(0.0, 1.0), (0.0, 2.0)], 1.0, tol=1e-9)
    res = eq.solve_wardrop(p)
    assert res.flows[0] == pytest.approx(2 / 3, abs=1e-6)
    assert res.flows[1] == pytest.approx(1 / 3, abs=1e-6)
    assert res.common_latency == pytest.approx(2 / 3, abs=1e-6)
    assert res.gap <= 1e-9


def test_single_link_takes_all_demand():
    p = affine_problem([(1.0, 3.0)], 2.5)
    res = eq.solve_wardrop(p)
    assert res.flows == (2.5,)
    assert res.gap == 0.0


def test_identical_constant_links_split_uniformly():
    p = eq.WardropProblem((eq.AffineLatency(1.0, 0.0), eq.AffineLatency(1.0, 0.0)), 1.0)
    res = eq.solve_wardrop(p)
    assert res.flows == (0.5, 0.5)


def test_identical_affine_links_split_evenly():
    p = affine_problem([(1.0, 1.0), (1.0, 1.0)], 1.0, tol=1e-9)
    res = eq.solve_wardrop(p)
    assert res.flows[0] == pytest.approx(0.5, abs=1e-6)
    assert res.flows[1] == pytest.approx(0.5, abs=1e-6)


def test_expensive_link_left_unused():
    p = affine_problem([(0.0, 1.0), (10.0, 1.0)], 1.0, tol=1e-9)
    res = eq.solve_wardrop(p)
    assert res.flows[0] == pytest.approx(1.0, abs=1e-6)
    assert res.flows[1] == pytest.approx(0.0, abs=1e-6)


def test_gap_of_equilibrium_is_zero():
    p = affine_problem([(0.0, 1.0), (0.0, 2.0)], 1.0)
    assert eq.wardrop_gap([2 / 3, 1 / 3], p) == pytest.approx(0.0, abs=1e-9)


def test_gap_of_worst_assignment():
    p = affine_problem([(0.0, 1.0), (0.0, 2.0)], 1.0)
    # all demand on the slope-2 link: used latency 2, empty link latency 0
    assert eq.wardrop_gap([0.0, 1.0], p) == pytest.approx(2.0)


def test_gap_perturbation_scales_linearly():
    p = affine_problem([(0.0, 1.0), (0.0, 2.0)], 1.0)
    for epsilon in (1e-3, 1e-4, 1e-5):
        g = eq.wardrop_gap([2 / 3 + epsilon, 1 / 3 - epsilon], p)
        assert g == pytest.approx(3.0 * epsilon, rel=1e-6)


def test_gap_rejects_infeasible_flows():
    p = affine_problem([(0.0, 1.0), (0.0, 2.0)], 1.0)
    with pytest.raises(ParameterError):
        eq.wardrop_gap([0.9, 0.3], p)
    with pytest.raises(ParameterError):
        eq.wardrop_gap([1.2, -0.2], p)


def test_randomized_instances_match_waterfill_oracle():
    """The water-filling pass agrees with the prefix-scan oracle on random
    strictly increasing instances drawn as in acceptance criterion 4."""
    rng = np.random.default_rng(2024)
    for _ in range(100):
        m = int(rng.integers(2, 6))
        coeffs = [(float(rng.uniform(0, 2)), float(rng.uniform(0.1, 2))) for _ in range(m)]
        demand = float(rng.uniform(0.2, 5.0))
        problem = affine_problem(coeffs, demand, tol=1e-8)
        res = eq.solve_wardrop(problem)
        oracle_flows, oracle_latency = waterfill_oracle(coeffs, demand)
        assert res.gap <= 1e-6
        assert sum(res.flows) == pytest.approx(demand, abs=1e-9)
        assert all(x >= 0 for x in res.flows)
        for got, want in zip(res.flows, oracle_flows):
            assert got == pytest.approx(want, abs=1e-6)
        if any(f > 1e-9 for f in oracle_flows):
            assert res.common_latency == pytest.approx(oracle_latency, abs=1e-6)


def test_zero_slope_ties_at_a_capped_level_share_equally():
    # the sloped link takes 1 to reach the cap 1; the two constant links at 1
    # split the other 4
    res = eq.solve_wardrop(affine_problem([(1.0, 0.0), (1.0, 0.0), (0.0, 1.0)], 5.0))
    assert res.flows == (2.0, 2.0, 1.0)
    assert res.common_latency == 1.0
    assert res.gap == 0.0


@pytest.mark.parametrize(
    "coeffs, flows",
    [
        ([(0.0, 1e-320), (1.0, 1.0)], (1.0, 0.0)),
        ([(1.0, 1.0), (0.0, 1e-320)], (0.0, 1.0)),
        ([(0.0, 1e-320), (0.0, 1e-320), (1.0, 1.0)], (0.5, 0.5, 0.0)),
    ],
    ids=["subnormal-first", "subnormal-last", "subnormal-tie"],
)
def test_subnormal_slope_counts_as_flat(coeffs, flows):
    # 1 / 1e-320 overflows to inf; the link is flat at any reachable flow
    res = eq.solve_wardrop(affine_problem(coeffs, 1.0))
    assert res.flows == flows
    assert res.common_latency == 0.0
    assert res.gap == 0.0


def test_iterations_count_the_used_sets_tried():
    problem = affine_problem([(0.0, 1.0), (0.5, 2.0), (3.0, 1.0), (0.7, 0.0)], 2.0)
    res = eq.solve_wardrop(problem)
    assert res.iterations == 3
    assert res.gap == 0.0
    # the constant link at 0.7 caps the level and takes what the others leave
    assert res.flows[2] == 0.0 and res.flows[3] == pytest.approx(1.2)


@pytest.mark.parametrize(
    "coeffs, demand",
    [
        ([(0.3, 1.2), (1.0, 0.5), (0.0, 1.0)], 1e8),
        ([(0.3, 1.2), (1.0, 0.5), (0.0, 1.0)], 1e10),
        # intercepts far above the demand's scale
        ([(1e6 + 0.3, 1.2), (1e6 + 1.0, 0.5), (1e6, 1.0)], 2.0),
    ],
    ids=["demand-1e8", "demand-1e10", "intercepts-1e6"],
)
def test_large_scales_are_solved_exactly(coeffs, demand):
    res = eq.solve_wardrop(affine_problem(coeffs, demand))
    assert sum(res.flows) == pytest.approx(demand, rel=1e-12)
    for (a, b), x in zip(coeffs, res.flows):
        assert x > 0.0
        assert a + b * x == pytest.approx(res.common_latency, rel=1e-15)


@pytest.mark.parametrize(
    "coeffs, demand, tol",
    [
        ([(-1.0, 1.0)], 1.0, 1e-9),
        ([(math.nan, 1.0)], 1.0, 1e-9),
        ([(math.inf, 1.0)], 1.0, 1e-9),
        ([(0.0, math.nan)], 1.0, 1e-9),
        ([(0.0, math.inf)], 1.0, 1e-9),
        ([], 1.0, 1e-9),
        ([(0.0, 1.0)], 0.0, 1e-9),
        ([(0.0, 1.0)], math.nan, 1e-9),
        ([(0.0, 1.0)], math.inf, 1e-9),
        ([(0.0, 1.0)], 1.0, 0.0),
        ([(0.0, 1.0)], 1.0, math.nan),
        ([(0.0, 1.0)], 1.0, math.inf),
    ],
    ids=[
        "negative-intercept", "nan-intercept", "inf-intercept", "nan-slope", "inf-slope", "no-links",
        "zero-demand", "nan-demand", "inf-demand", "zero-tol", "nan-tol", "inf-tol",
    ],
)
def test_bad_wardrop_input_rejected(coeffs, demand, tol):
    with pytest.raises(ParameterError):
        affine_problem(coeffs, demand, tol=tol)


_INTERCEPTS = st.sampled_from([0.0, 0.25, 1.0, 1.5])  # a small set, so intercepts tie
_SLOPES = st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.1, 2.0)


@settings(max_examples=300, deadline=None)
@given(
    coeffs=st.lists(st.tuples(_INTERCEPTS, _SLOPES), min_size=1, max_size=6),
    demand=st.floats(0.2, 5.0) | st.just(1e8),
)
@example(coeffs=[(1.0, 0.0), (1.0, 0.0), (0.0, 1.0)], demand=5.0)
@example(coeffs=[(0.0, 1e-308), (0.0, 1e-308)], demand=1.0)  # sum of 1/b overflows
@example(coeffs=[(0.0, 1.0), (1e10, 1e-300)], demand=1e11)  # a/b overflows
def test_water_filling_meets_kkt_conditions(coeffs, demand):
    problem = affine_problem(coeffs, demand)
    res = eq.solve_wardrop(problem)
    c = res.common_latency
    slack = 1e-12 * max(1.0, c)
    assert all(x >= 0.0 for x in res.flows)
    assert sum(res.flows) == pytest.approx(demand, rel=1e-12)
    for (a, b), x in zip(coeffs, res.flows):
        if x > 0.0:
            assert abs(a + b * x - c) <= slack
        else:
            assert a >= c - slack
    tied = [x for (a, b), x in zip(coeffs, res.flows) if b == 0.0 and abs(a - c) <= problem.tol]
    assert len(set(tied)) <= 1
    assert res.iterations <= len(coeffs)


def iterative_solve_wardrop(problem, step=0.1, max_iter=200_000):
    """`solve_wardrop` before the water-filling pass, kept verbatim as the
    oracle apart from its trace output; its deleted `step` and `max_iter`
    fields are keyword defaults."""
    m = len(problem.latencies)
    slopes = [l.slope for l in problem.latencies]
    if all(s == 0.0 for s in slopes):
        # constant latencies: route everything to the cheapest links,
        # splitting uniformly among ties
        vals = [l(0.0) for l in problem.latencies]
        best = min(vals)
        winners = [i for i, v in enumerate(vals) if v <= best + problem.tol]
        flows = [problem.demand / len(winners) if i in winners else 0.0 for i in range(m)]
        return eq.WardropFlow(tuple(flows), best, eq.wardrop_gap(flows, problem), 0)

    flows = [problem.demand / m] * m
    eta = step
    prev_gap = math.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        lat = [l(x) for l, x in zip(problem.latencies, flows)]
        lo = min(range(m), key=lambda i: lat[i])
        used = [i for i in range(m) if flows[i] > eq.USED_FLOW_EPS]
        hi = max(used, key=lambda i: lat[i])
        gap = lat[hi] - lat[lo]
        if gap <= problem.tol:
            break
        if gap > prev_gap:  # oscillating: damp the step
            eta = max(eta / 2.0, 1e-6)
        prev_gap = gap
        denom = slopes[hi] + slopes[lo]
        shift = gap if denom == 0.0 else gap / denom
        move = min(flows[hi], eta * shift)
        flows[hi] -= move
        flows[lo] += move
    lat = [l(x) for l, x in zip(problem.latencies, flows)]
    used = [i for i in range(m) if flows[i] > eq.USED_FLOW_EPS]
    common = sum(lat[i] for i in used) / len(used)
    return eq.WardropFlow(tuple(flows), common, eq.wardrop_gap(flows, problem), iterations)


@settings(max_examples=150, deadline=None)
@given(
    coeffs=st.lists(st.tuples(st.floats(0.0, 2.0), st.floats(0.1, 2.0)), min_size=1, max_size=6),
    demand=st.floats(0.2, 5.0),
)
def test_water_filling_matches_iterative_solver(coeffs, demand):
    problem = affine_problem(coeffs, demand, tol=1e-8)
    res = eq.solve_wardrop(problem)
    old = iterative_solve_wardrop(problem)
    assert old.gap <= problem.tol
    for got, want in zip(res.flows, old.flows):
        assert got == pytest.approx(want, abs=1e-6)
    assert res.common_latency == pytest.approx(old.common_latency, abs=1e-6)


@settings(max_examples=200, deadline=None)
@given(
    coeffs=st.lists(st.tuples(_INTERCEPTS | st.floats(0.0, 2.0), st.just(0.0)), min_size=1, max_size=6),
    demand=st.floats(0.2, 5.0),
    tol=st.sampled_from([1e-9, 1e-8, 0.3]),
)
def test_all_constant_links_match_iterative_solver_exactly(coeffs, demand, tol):
    problem = affine_problem(coeffs, demand, tol=tol)
    res, old = eq.solve_wardrop(problem), iterative_solve_wardrop(problem)
    assert (res.flows, res.common_latency, res.gap) == (old.flows, old.common_latency, old.gap)
