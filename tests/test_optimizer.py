import re
import subprocess
import sys

import numpy as np
import pytest

import habitree.instances as gi
from habitree import (
    AdaptedProcess,
    AgentSpec,
    EventTree,
    SchemaError,
    brute_force_oracle,
    budget_gap,
    evaluate_utility,
    foc_residual,
    perturbed_spd,
    project,
    solve_consumption,
    static_habit_matrix,
)
from habitree.errors import ConvergenceError, InfeasibleProblemError
from habitree.market import Asset, MarketSpec, habit_adjoint
import habitree.optimizer as optimizer
from habitree.optimizer import (
    _block_views,
    _Endowed,
    _interior_start,
    _foc_residual_on,
    _newton_direction,
    _phase1_interior,
    _Problem,
    _solve_newton,
)


def unit_endowment(tree):
    vals = np.zeros(tree.n_nodes)
    vals[0] = 1.0
    return AdaptedProcess(tree, tree.horizon, vals)


# -- utility ------------------------------------------------------------------


def test_utility_two_periods_hand_value():
    tree = EventTree.single_path(1)
    agent = AgentSpec(2.0, 0.0, static_habit_matrix(0.0, 1), AdaptedProcess.constant(tree, 1.0))
    c = AdaptedProcess.constant(tree, 1.0)
    # (1)^{-1}/(-1) per period: -1 + -1
    assert evaluate_utility(agent, c) == pytest.approx(-2.0, abs=1e-15)


def test_utility_zero_surplus_pole():
    tree = EventTree.single_path(1)
    agent = AgentSpec(2.0, 0.0, 1.0, AdaptedProcess.constant(tree, 1.0))
    c = AdaptedProcess.constant(tree, 1.0)  # surplus at period 1 is zero
    assert evaluate_utility(agent, c) == -np.inf


def test_utility_matches_brute_force_path_sum():
    rng = np.random.default_rng(21)
    tree = gi.random_tree(rng, min_depth=2)
    agent = gi.random_agent(rng, tree)
    c = AdaptedProcess(tree, tree.horizon, rng.uniform(1.0, 2.0, size=tree.n_nodes))
    # independent evaluation: loop over leaves (paths), accumulate per-path
    anc = tree.ancestor_matrix()
    p = tree.probabilities()
    total = 0.0
    for leaf in tree.depth_nodes[tree.horizon]:
        path = anc[int(leaf)]
        for k in range(tree.horizon + 1):
            node = path[k]
            s = c.values[node] - sum(agent.habits[k, l] * c.values[path[l]] for l in range(k))
            # weight: leaf probability divided among the leaves under `node`
            total += p[int(leaf)] * np.exp(-agent.rho * k) \
                * s ** (1.0 - agent.gamma) / (1.0 - agent.gamma)
    assert evaluate_utility(agent, c) == pytest.approx(total, abs=1e-12)


def test_utility_gamma_below_one_zero_surplus_ok():
    tree = EventTree.single_path(1)
    agent = AgentSpec(0.5, 0.0, 1.0, AdaptedProcess.constant(tree, 1.0))
    c = AdaptedProcess.constant(tree, 1.0)
    assert evaluate_utility(agent, c) == pytest.approx(2.0)  # 1^{0.5}/0.5 + 0


# -- solve --------------------------------------------------------------------


def test_merton_equal_split():
    T = 3
    market = gi.deterministic_market(T, 0.0)
    agent = AgentSpec(2.0, 0.0, static_habit_matrix(0.0, T), unit_endowment(market.tree))
    res = solve_consumption(market, agent)
    assert np.allclose(res.c.values, 1.0 / (T + 1), atol=1e-10)
    # wealth starts at period 1 (the root entry is the structural W_0 = 0)
    assert np.allclose(res.W.values[1:], [(T + 1 - k) / (T + 1) for k in range(1, T + 1)],
                       atol=1e-10)
    assert res.foc_residual < 1e-9


def test_solve_scaling_property():
    rng = np.random.default_rng(22)
    tree = gi.random_tree(rng, min_depth=2)
    market = gi.random_general_market(rng, tree)
    agent = gi.random_agent(rng, tree)
    base = solve_consumption(market, agent)
    for t in (0.5, 2.0, 10.0):
        scaled = AgentSpec(agent.gamma, agent.rho, agent.habits.copy(), agent.endowment * t)
        res = solve_consumption(market, scaled)
        rel = np.max(np.abs(res.c.values - t * base.c.values)) / (t * np.max(base.c.values))
        assert rel < 1e-9


def test_unit_endowment_scaling_is_exact():
    rng = np.random.default_rng(23)
    tree = gi.random_tree(rng, min_depth=2)
    market = gi.random_complete_market(rng, tree)
    agent = AgentSpec(3.0, 0.05, static_habit_matrix(0.2, tree.horizon), unit_endowment(tree))
    base = solve_consumption(market, agent)
    scaled = AgentSpec(3.0, 0.05, static_habit_matrix(0.2, tree.horizon),
                       unit_endowment(tree) * 7.0)
    res = solve_consumption(market, scaled)
    assert np.max(np.abs(res.c.values - 7.0 * base.c.values)) < 1e-9 * 7.0


def test_budget_identity_complete_market():
    rng = np.random.default_rng(24)
    tree = gi.random_tree(rng, min_depth=2)
    market = gi.random_complete_market(rng, tree)
    agent = gi.random_agent(rng, tree)
    res = solve_consumption(market, agent)
    assert abs(budget_gap(market, agent, res)) < 1e-9


def test_self_financing_and_wealth_in_span():
    rng = np.random.default_rng(25)
    tree = gi.random_tree(rng, min_depth=2)
    market = gi.random_general_market(rng, tree)
    agent = gi.random_agent(rng, tree)
    res = solve_consumption(market, agent)
    M = market.spd.values
    for k in range(tree.horizon + 1):
        nodes = tree.depth_nodes[k]
        inv = np.zeros(len(nodes))
        if k < tree.horizon:
            pos = {int(n): j for j, n in enumerate(tree.depth_nodes[k + 1])}
            for j, u in enumerate(nodes):
                kids = tree.children[int(u)]
                inv[j] = np.sum(tree.trans_prob[kids] * M[kids] / M[int(u)]
                                * res.W.values[kids])
        lhs = res.c.at_depth(k)
        rhs = agent.endowment.at_depth(k) + res.W.at_depth(k) - inv
        assert np.max(np.abs(lhs - rhs)) < 1e-12
        if k >= 1:
            w = res.W.at_depth(k)
            assert np.max(np.abs(project(market, w, k) - w)) < 1e-10


def test_supporting_spd_positive():
    rng = np.random.default_rng(26)
    tree = gi.random_tree(rng, min_depth=2)
    market = gi.random_general_market(rng, tree)
    agent = gi.random_agent(rng, tree)
    res = solve_consumption(market, agent)
    assert np.all(res.R.values > 0.0)


def test_zero_endowment_rejected():
    market = gi.deterministic_market(2, 0.0)
    agent = AgentSpec(2.0, 0.0, static_habit_matrix(0.0, 2),
                      AdaptedProcess.constant(market.tree, 0.0))
    with pytest.raises(SchemaError):
        solve_consumption(market, agent)


def test_endowment_on_other_tree_rejected():
    market = gi.deterministic_market(2, 0.0)          # complete
    other = EventTree.uniform(2, 2)
    agent = AgentSpec(2.0, 0.0, static_habit_matrix(0.0, 2),
                      AdaptedProcess.constant(other, 1.0))
    with pytest.raises(SchemaError):
        solve_consumption(market, agent)
    ok = solve_consumption(market, AgentSpec(2.0, 0.0, static_habit_matrix(0.0, 2),
                                             AdaptedProcess.constant(market.tree, 1.0)))
    with pytest.raises(SchemaError):
        foc_residual(market, agent, ok)


def test_gamma_one_rejected():
    tree = EventTree.single_path(1)
    with pytest.raises(SchemaError):
        AgentSpec(1.0, 0.0, static_habit_matrix(0.0, 1), AdaptedProcess.constant(tree, 1.0))


def test_phase1_reports_infeasible():
    """The LP surface raises a typed error when no positive-surplus plan
    exists; here a stub with no tradeable direction at all (a real market
    reaches it in test_infeasibility_is_decided_by_the_lp)."""

    class Stub:
        class problem:
            LK = optimizer._Map(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                                np.zeros(0), (3, 2))         # the 3 x 2 zero map
        Lbase = np.array([1.0, -0.5, 1.0])

    with pytest.raises(InfeasibleProblemError):
        _phase1_interior(Stub())


# -- the oracle ---------------------------------------------------------------


def test_oracle_matches_two_period_merton_closed_form(binary_market):
    # one-period binary complete market, no habits: with M = (1,1), r = 0 and
    # unit initial endowment, optimum solves u'(c0) = E[M u'(c1)] pointwise:
    # c1 = c0 e^{-rho/gamma} M^{-1/gamma}; budget c0 + E[M c1] = 1
    gamma, rho = 2.0, 0.1
    agent = AgentSpec(gamma, rho, static_habit_matrix(0.0, 1), unit_endowment(binary_market.tree))
    res = brute_force_oracle(binary_market, agent)
    disc = np.exp(-rho / gamma)
    c0 = 1.0 / (1.0 + disc)
    assert res.c.values[0] == pytest.approx(c0, abs=1e-7)
    assert np.allclose(res.c.values[1:], disc * c0, atol=1e-7)


def test_oracle_never_beats_foc_beyond_tolerance():
    rng = np.random.default_rng(27)
    for _ in range(10):
        tree = gi.random_tree(rng, min_depth=2)
        market = gi.random_general_market(rng, tree)
        agent = gi.random_agent(rng, tree)
        foc = solve_consumption(market, agent)
        oracle = brute_force_oracle(market, agent)
        assert oracle.utility >= foc.utility - 1e-8
        assert abs(oracle.utility - foc.utility) < 1e-8


def test_oracle_size_guard():
    tree = EventTree.uniform(5, 3)
    market = gi.deterministic_market(2, 0.0)  # cheap dummy for the agent below
    M = AdaptedProcess.constant(tree, 1.0)
    big = gi.complete_market_from_spd(tree, M)
    agent = AgentSpec(2.0, 0.0, static_habit_matrix(0.0, 5),
                      AdaptedProcess.constant(tree, 1.0))
    with pytest.raises(ValueError):
        brute_force_oracle(big, agent)


def test_oracle_rejects_a_zero_horizon_market():
    # a one-node tree has no decision variables: its only plan consumes the
    # endowment, which the closed form returns
    market = gi.deterministic_market(0)
    agent = AgentSpec(2.0, 0.0, static_habit_matrix(0.0, 0), AdaptedProcess.constant(market.tree, 1.0))
    with pytest.raises(ValueError, match="no decision variables"):
        brute_force_oracle(market, agent)
    res = solve_consumption(market, agent)
    assert res.method == "closed-form" and res.c.values.tolist() == [1.0]


def test_oracle_reports_a_failed_phase1_lp(monkeypatch):
    from scipy import optimize

    class Failed:
        success, message = False, "forced failure"

    monkeypatch.setattr(optimize, "linprog", lambda *args, **kwargs: Failed())
    with pytest.raises(ConvergenceError, match="phase-1 LP failed: forced failure"):
        brute_force_oracle(*_one_period_unit_initial(0.5))


# -- FOC residual ----------------------------------------------------------------


def test_foc_residual_small_at_oracle_optimum():
    rng = np.random.default_rng(28)
    tree = gi.random_tree(rng, min_depth=2)
    market = gi.random_complete_market(rng, tree)
    agent = gi.random_agent(rng, tree)
    oracle = brute_force_oracle(market, agent)
    assert foc_residual(market, agent, oracle) < 1e-8


def test_foc_residual_detects_perturbation():
    rng = np.random.default_rng(29)
    tree = gi.random_tree(rng, min_depth=2)
    market = gi.random_complete_market(rng, tree)
    agent = gi.random_agent(rng, tree)
    res = solve_consumption(market, agent)
    bumped = res.c.values.copy()
    bumped[-1] += 1e-3
    from habitree.optimizer import SolveResult
    fake = SolveResult(AdaptedProcess(tree, tree.horizon, bumped), res.W, res.R,
                       res.utility, res.foc_residual, res.iterations, res.method)
    assert foc_residual(market, agent, fake) > 1e-6


# -- the closed-form route (complete markets) ---------------------------------------


def _complete_instance(seed, gamma, static):
    rng = np.random.default_rng(seed)
    tree = gi.random_tree(rng, min_depth=2)
    market = gi.random_complete_market(rng, tree)
    habits = (static_habit_matrix(0.25, tree.horizon) if static
              else gi.random_habit_matrix(rng, tree.horizon))
    endow = AdaptedProcess(tree, tree.horizon, rng.uniform(1.0, 2.0, size=tree.n_nodes))
    return market, AgentSpec(gamma, 0.03, habits, endow)


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


CLOSED_FORM_CASES = [(seed, gamma, static) for seed, (gamma, static) in
                     enumerate([(0.5, True), (3.0, True), (0.7, False), (2.5, False)], start=40)]


@pytest.mark.parametrize("seed,gamma,static", CLOSED_FORM_CASES)
def test_closed_form_matches_oracle(seed, gamma, static):
    market, agent = _complete_instance(seed, gamma, static)
    res = solve_consumption(market, agent)
    assert res.method == "closed-form" and res.iterations == 0
    assert res.foc_residual < 1e-12
    oracle = brute_force_oracle(market, agent)
    assert abs(oracle.utility - res.utility) < 1e-8 * (1.0 + abs(res.utility))
    assert oracle.utility <= res.utility + 1e-12 * (1.0 + abs(res.utility))
    assert _rel(oracle.c.values, res.c.values) < 1e-9


@pytest.mark.parametrize("seed,gamma,static", CLOSED_FORM_CASES)
def test_closed_form_matches_newton(seed, gamma, static):
    market, agent = _complete_instance(seed, gamma, static)
    res = solve_consumption(market, agent)
    newton, = _solve_newton(_Problem(market, agent), [agent], 1e-9)
    assert newton.method == "newton"
    for a, b in ((newton.c, res.c), (newton.W, res.W), (newton.R, res.R)):
        assert _rel(a.values, b.values) < 1e-8


@pytest.mark.parametrize("seed,gamma,static", CLOSED_FORM_CASES)
def test_closed_form_supporting_spd_is_scaled_spd(seed, gamma, static):
    market, agent = _complete_instance(seed, gamma, static)
    res = solve_consumption(market, agent)
    M = market.spd.values
    y = res.R.values[0] / M[0]
    assert _rel(res.R.values, y * M) < 1e-12
    # the identity behind it: the habit adjoint maps Mtilde back to M
    Mt = perturbed_spd(market.spd, agent.habits).values
    assert _rel(habit_adjoint(market.tree, agent.habits, Mt), M) < 1e-12


@pytest.mark.parametrize("seed,gamma,static", CLOSED_FORM_CASES)
def test_closed_form_wealth_finances_consumption(seed, gamma, static):
    market, agent = _complete_instance(seed, gamma, static)
    res = solve_consumption(market, agent)
    tree, M, W = market.tree, market.spd.values, res.W.values
    assert W[0] == 0.0
    scale = np.max(np.abs(res.c.values))
    for u in range(tree.n_nodes):
        kids = tree.children[u]
        invest = np.sum(tree.trans_prob[kids] * M[kids] / M[u] * W[kids])
        gap = res.c.values[u] - (agent.endowment.values[u] + W[u] - invest)
        assert abs(gap) < 1e-12 * scale
    assert abs(budget_gap(market, agent, res)) < 1e-12 * scale


@pytest.mark.parametrize("seed,gamma,static", CLOSED_FORM_CASES)
def test_closed_form_scales_with_endowment(seed, gamma, static):
    market, agent = _complete_instance(seed, gamma, static)
    base = solve_consumption(market, agent)
    for t in (1e-3, 0.5, 7.0, 1e4):
        scaled = AgentSpec(agent.gamma, agent.rho, agent.habits, agent.endowment * t)
        assert _rel(solve_consumption(market, scaled).c.values, t * base.c.values) < 1e-12


def _assert_unmet_tolerance_raises(market, agent):
    # tol=1e-30 is below the reachable residual: the closed form fails its
    # check and Newton stops once its residual stagnates at roundoff
    with pytest.raises(ConvergenceError) as err:
        solve_consumption(market, agent, tol=1e-30)
    assert 0.0 <= err.value.residual < 1e-12
    return str(err.value)


def test_closed_form_reports_unmet_tolerance():
    _assert_unmet_tolerance_raises(*_complete_instance(44, 2.0, True))


def test_newton_reports_unmet_tolerance():
    rng = np.random.default_rng(45)
    tree = gi.random_tree(rng, min_depth=2)
    market = gi.random_general_market(rng, tree)
    assert not market.is_complete()
    endow = AdaptedProcess(tree, tree.horizon, rng.uniform(1.0, 2.0, size=tree.n_nodes))
    message = _assert_unmet_tolerance_raises(
        market, AgentSpec(2.0, 0.03, static_habit_matrix(0.25, tree.horizon), endow))
    # the residual reaches roundoff at iteration 7; the stop follows within
    # a few steps instead of at MAX_NEWTON_ITER
    assert "stagnated" in message
    assert int(re.search(r"after (\d+) iterations", message).group(1)) <= 20


# -- the interior start ----------------------------------------------------------


def _incomplete_instance(seed, zero_node=False):
    """A general market and a static-habit agent; with ``zero_node`` the
    endowment is 0 at a depth-1 node, so that node's endowment surplus is
    negative."""
    rng = np.random.default_rng(seed)
    tree = gi.random_tree(rng, min_depth=2)
    market = gi.random_general_market(rng, tree)
    assert not market.is_complete()
    vals = rng.uniform(1.0, 2.0, size=tree.n_nodes)
    if zero_node:
        vals[tree.depth_nodes[1][0]] = 0.0
    agent = AgentSpec(2.0, 0.03, static_habit_matrix(0.3, tree.horizon),
                      AdaptedProcess(tree, tree.horizon, vals))
    return market, agent


def _endowed(market, agent):
    """The agent's endowment, unnormalized, on a fresh problem."""
    return _Endowed(_Problem(market, agent), agent.endowment.values)


def _spy_starts(monkeypatch):
    """Record every call of the bond-account start and of the phase-1 LP:
    ("bond", found a feasible plan) and ("lp", raised or not)."""
    calls, bond, lp = [], optimizer._bond_start, optimizer._phase1_interior

    def bond_spy(endowed):
        theta = bond(endowed)
        calls.append(("bond", theta is not None))
        return theta

    def lp_spy(endowed):
        calls.append(("lp", True))
        try:
            return lp(endowed)
        except InfeasibleProblemError:
            calls[-1] = ("lp", False)
            raise

    monkeypatch.setattr(optimizer, "_bond_start", bond_spy)
    monkeypatch.setattr(optimizer, "_phase1_interior", lp_spy)
    return calls


def test_lp_start_only_where_the_endowment_surplus_is_not_positive(monkeypatch):
    # no start search at all when the endowment's surplus is positive; else
    # the bond-account plan, and the LP only when that plan is infeasible
    calls = _spy_starts(monkeypatch)
    positive = _incomplete_instance(66)
    assert np.min(_endowed(*positive).Lbase) > 0.0
    solve_consumption(*positive)
    assert calls == []

    market, agent = _incomplete_instance(66, zero_node=True)
    assert np.min(_endowed(market, agent).Lbase) <= 0.0
    res = solve_consumption(market, agent)
    assert calls == [("bond", True)] and res.method == "newton"
    oracle = brute_force_oracle(market, agent)
    assert abs(res.utility - oracle.utility) < 1e-8
    assert np.max(np.abs(res.c.values - oracle.c.values)) < 1e-6


def _one_period_unit_initial(beta):
    """A one-period ternary general market (bond and one stock, so
    incomplete) and a static habit beta on consuming from the unit initial
    endowment (1, 0, 0, 0)."""
    tree = EventTree.uniform(1, 3)
    market = gi.random_general_market(np.random.default_rng(5), tree)
    assert not market.is_complete()
    vals = np.zeros(tree.n_nodes)
    vals[0] = 1.0
    return market, AgentSpec(2.0, 0.03, static_habit_matrix(beta, 1),
                             AdaptedProcess(tree, 1, vals))


def test_bond_start_falls_back_to_the_lp(monkeypatch):
    # with beta above the bond's gross return 1 + r, halving root consumption
    # leaves c_1 = (1 + r) / 2 < beta / 2, but the LP can cut deeper
    market, agent = _one_period_unit_initial(2.0)
    assert 2.0 > 1.0 + np.max(market.interest.values)
    calls = _spy_starts(monkeypatch)
    res = solve_consumption(market, agent)
    assert calls == [("bond", False), ("lp", True)]
    assert res.method == "newton" and res.foc_residual < 1e-9
    oracle = brute_force_oracle(market, agent)
    assert np.max(np.abs(res.c.values - oracle.c.values)) < 1e-6
    # the bond-account start is not one for a smaller habit
    calls.clear()
    solve_consumption(*_one_period_unit_initial(0.5))
    assert calls == [("bond", True)]


def test_infeasibility_is_decided_by_the_lp(monkeypatch):
    # the best worst surplus, about (1 + r) / beta, is under SURPLUS_FLOOR
    market, agent = _one_period_unit_initial(1e13)
    calls = _spy_starts(monkeypatch)
    with pytest.raises(InfeasibleProblemError, match="habit floor not coverable"):
        solve_consumption(market, agent)
    assert calls == [("bond", False), ("lp", False)]


def test_bond_start_whose_margin_leaves_no_surplus_falls_back_to_the_lp(monkeypatch):
    # bisect the endowment v at one depth-1 node of a one-period market with
    # beta = 2 to where the bond-account plan just covers its shortfall: at
    # v = 0 it cannot, at v = 1 it can.  At the crossing the plan passes the
    # slack test but leaves a surplus below SURPLUS_FLOOR, so the start
    # returns None from its last line and the phase-1 LP decides
    tree = EventTree.uniform(1, 3)
    market = gi.random_general_market(np.random.default_rng(5), tree)
    p, M = tree.probabilities(), market.spd.values

    def instance(v):
        vals = np.array([1.0, v, 1.0, 1.0])
        agent = AgentSpec(2.0, 0.03, static_habit_matrix(2.0, 1), AdaptedProcess(tree, 1, vals))
        return agent, _Endowed(_Problem(market, agent), vals / np.sum(p * M * vals))

    def bond_plan_surplus(v):
        """The bond-account plan's worst surplus, or None where the plan
        does not cover the shortfall (its slack at margin 0 is not positive)."""
        endowed = instance(v)[1]
        with monkeypatch.context() as m:
            m.setattr(optimizer, "SURPLUS_FLOOR", -np.inf)
            theta = optimizer._bond_start(endowed)
        return None if theta is None else np.min(endowed.surplus(theta))

    lo, hi = 0.0, 1.0
    assert bond_plan_surplus(lo) is None and bond_plan_surplus(hi) > optimizer.SURPLUS_FLOOR
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if bond_plan_surplus(mid) is None else (lo, mid)
    assert 0.0 < bond_plan_surplus(hi) <= optimizer.SURPLUS_FLOOR
    agent, endowed = instance(hi)
    assert np.min(endowed.Lbase) <= optimizer.SURPLUS_FLOOR
    assert optimizer._bond_start(endowed) is None

    from scipy import optimize

    linprog, calls = optimize.linprog, []

    def counted(*args, **kwargs):
        calls.append(linprog(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(optimize, "linprog", counted)
    try:
        res = solve_consumption(market, agent)
    except InfeasibleProblemError:
        assert len(calls) == 1 and -calls[0].fun <= optimizer.SURPLUS_FLOOR
    else:
        assert len(calls) == 1 and calls[0].success
        assert res.method == "newton" and res.foc_residual < 1e-9


def test_bond_start_is_budget_neutral_and_strictly_feasible():
    # the plan base + a_k B_n costs what the endowment costs, and its theta
    # reproduces it: consumption base + K theta
    market, agent = _incomplete_instance(66, zero_node=True)
    tree = market.tree
    endowed = _endowed(market, agent)
    theta = optimizer._bond_start(endowed)
    assert theta is not None and np.min(endowed.surplus(theta)) > optimizer.SURPLUS_FLOOR
    c = endowed.consumption(theta)
    p, M = tree.probabilities(), market.spd.values
    assert abs(np.sum(p * M * (c - endowed.base))) < 1e-12 * np.sum(p * M * endowed.base)
    B = np.ones(tree.n_nodes)
    for k in range(1, tree.horizon + 1):
        nodes = tree.depth_nodes[k]
        B[nodes] = B[tree.parent[nodes]] * (1.0 + market.interest.values[nodes])
    a = (c - endowed.base) / B
    for k in range(tree.horizon + 1):
        # one bond-account amount per depth, root consumption cut by half
        assert np.ptp(a[tree.depth_nodes[k]]) < 1e-12
    assert abs(c[0] - endowed.base[0] / 2.0) < 1e-12


def test_solution_does_not_depend_on_the_start(monkeypatch):
    rng = np.random.default_rng(66)
    tree = gi.random_tree(rng, min_depth=2)
    market = gi.random_general_market(rng, tree)
    agent = gi.random_agent(rng, tree)
    assert np.min(_endowed(market, agent).Lbase) > 0.0
    results = []
    for start in (_interior_start, _phase1_interior):
        monkeypatch.setattr(optimizer, "_interior_start", start)
        results.append(solve_consumption(market, agent))
    endowment, lp = results
    assert np.max(np.abs(endowment.c.values - lp.c.values)) <= 1e-13 * np.max(np.abs(lp.c.values))
    assert endowment.foc_residual < 1e-9 and lp.foc_residual < 1e-9


_IMPORTS = "import sys; import numpy as np; import habitree as h; import habitree.instances as gi; "

# an idiosyncratically incomplete market, which the bound recursions accept
_FACTOR_MARKET = (
    _IMPORTS + "rng = np.random.default_rng(1); market = gi.random_idiosyncratic_market(rng); "
    "agent = gi.random_agent(rng, market.tree); assert not market.is_complete(); ")

# incomplete runs that never reach the phase-1 LP: a solve whose endowment
# surplus is positive, so Newton starts at the endowment; one at the bond
# account (_incomplete_instance(66, zero_node=True)); a sandwich-bound run;
# and a propensity sweep, whose artificial problem starts at the bond account
_NEWTON_RUNS = {
    "endowment-start": (
        _IMPORTS + "rng = np.random.default_rng(66); tree = gi.random_tree(rng, min_depth=2); "
        "market = gi.random_general_market(rng, tree); "
        "assert h.solve_consumption(market, gi.random_agent(rng, tree)).method == 'newton'; "),
    "bond-start": (
        _IMPORTS + "rng = np.random.default_rng(66); tree = gi.random_tree(rng, min_depth=2); "
        "market = gi.random_general_market(rng, tree); "
        "vals = rng.uniform(1.0, 2.0, size=tree.n_nodes); vals[tree.depth_nodes[1][0]] = 0.0; "
        "agent = h.AgentSpec(2.0, 0.03, h.static_habit_matrix(0.3, tree.horizon), "
        "h.AdaptedProcess(tree, tree.horizon, vals)); "
        "assert h.solve_consumption(market, agent).method == 'newton'; "),
    "bounds": _FACTOR_MARKET + "res = h.solve_consumption(market, agent); "
    "h.check_sandwich(market, agent, res, h.bound_coefficients(market, agent)); ",
    "asymptotics": _FACTOR_MARKET
    + "assert len(h.propensity_sweep(market, agent, [1e1, 1e2, 1e3, 1e4, 1e5]).sweep) == 5; ",
}

# a solve whose bond-account start is infeasible, so the phase-1 LP runs
# (_one_period_unit_initial(2.0))
_LP_START = (
    _IMPORTS + "tree = h.EventTree.uniform(1, 3); "
    "market = gi.random_general_market(np.random.default_rng(5), tree); "
    "vals = np.zeros(tree.n_nodes); vals[0] = 1.0; "
    "agent = h.AgentSpec(2.0, 0.03, h.static_habit_matrix(2.0, 1), h.AdaptedProcess(tree, 1, vals)); "
    "assert h.solve_consumption(market, agent).method == 'newton'; ")


def _loaded_after(code, *modules):
    code += f"print([m in sys.modules for m in {modules!r}])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    return proc.stdout.strip()


@pytest.mark.parametrize("run", sorted(_NEWTON_RUNS))
def test_newton_route_imports_neither_scipy_sparse_nor_optimize(run):
    # Newton's maps are numpy arrays, and the phase-1 LP is the Newton
    # route's only use of scipy
    assert _loaded_after(_NEWTON_RUNS[run], "scipy.sparse", "scipy.optimize") == "[False, False]"


def test_phase1_lp_start_imports_scipy_optimize():
    assert _loaded_after(_LP_START, "scipy.optimize") == "[True]"


# -- the sparse problem maps (incomplete route and oracle) ---------------------------


def _dense_maps(market, agent):
    """L, K and the wealth map built densely with per-column loops."""
    tree = market.tree
    n = tree.n_nodes
    anc = tree.ancestor_matrix()
    L = np.eye(n)
    for k in range(1, tree.horizon + 1):
        nodes = tree.depth_nodes[k]
        for l in range(k):
            b = agent.habits[k, l]
            if b != 0.0:
                L[nodes, anc[nodes, l]] -= b
    M = market.spd.values
    K, W = [], []
    for k in range(1, tree.horizon + 1):
        # atom order across the groups, as in the program's K
        atoms = sorted((int(a), g, i) for g in market.basis_groups(k)
                       for i, a in enumerate(g.atoms))
        for a, g, i in atoms:
            children, u = tree.n_upto(k - 1) + g.kids[i], tree.n_upto(k - 2) + a
            for j in range(g.rank):
                col = np.zeros(n)
                col[children] = g.onb[i][:, j]
                W.append(col.copy())
                col[u] -= np.sum(g.cond_probs[i] * M[children] * g.onb[i][:, j]) / M[u]
                K.append(col)
    return L, np.column_stack(K), np.column_stack(W)


def _general_instances():
    for seed in (82, 84, 87, 93):
        rng = np.random.default_rng(seed)
        tree = gi.random_tree(rng, min_depth=2)
        market = gi.random_general_market(rng, tree)
        yield market, gi.random_agent(rng, tree)


@pytest.mark.parametrize("market,agent", list(_general_instances()))
def test_sparse_maps_match_dense_loops(market, agent):
    problem = _Problem(market, agent)
    L, K, W = _dense_maps(market, agent)
    assert np.array_equal(problem.L.toarray(), L)
    assert np.array_equal(problem.K.toarray(), K)
    assert np.array_equal(problem.Kw.toarray(), W)
    LK = L @ K
    assert np.max(np.abs(problem.LK.toarray() - LK)) <= 1e-14 * np.max(np.abs(LK))
    assert np.array_equal(problem.LKT.toarray(), problem.LK.toarray().T)


def _full_memory_instance():
    """Every habit coefficient beta^(k)_l nonzero, so the Newton system
    couples each atom with all of its ancestors."""
    rng = np.random.default_rng(95)
    tree = gi.random_tree(rng, min_depth=4, max_depth=4)
    market = gi.random_general_market(rng, tree)
    habits = np.tril(rng.uniform(0.1, 1.0, size=(5, 5)), -1)
    habits[1:] *= 0.3 / habits[1:].sum(axis=1, keepdims=True)
    endow = AdaptedProcess(tree, tree.horizon, rng.uniform(1.0, 2.0, size=tree.n_nodes))
    return market, AgentSpec(2.0, 0.03, habits, endow)


def _uneven_rank_instance():
    """One to four children per atom and a class-C market with several
    assets, so atoms carry between one and three coordinates."""
    rng = np.random.default_rng(99)
    tree = gi.random_tree(rng, min_depth=3, max_children=4)
    market = gi.random_classC_market(rng, tree)
    return market, gi.random_agent(rng, tree)


def _wide_atom_instance():
    """A root with eight children and enough assets to span them, above
    ternary subtrees where only the bond and one asset trade: the root has
    rank 8 and every other atom rank 2."""
    rng = np.random.default_rng(97)
    edges = [("r", None, 1.0)] + [(f"{i}", "r", 0.125) for i in range(8)]
    for parent in [f"{i}" for i in range(8)] + [f"{i}.{j}" for i in range(8) for j in range(3)]:
        edges += [(f"{parent}.{j}", parent, 1.0 / 3.0) for j in range(3)]
    tree = EventTree.from_edges(edges, 3)
    base = gi.random_general_market(rng, tree)
    M, ones = base.spd.values, tree.depth_nodes[1]
    bank = np.ones(tree.n_nodes)
    for k in range(1, 4):
        nodes = tree.depth_nodes[k]
        bank[nodes] = bank[tree.parent[nodes]] * (1.0 + base.interest.values[nodes])
    extra = []
    for j in range(6):      # a dividend at depth 1, then worth the bank account
        div = np.zeros(tree.n_nodes)
        div[ones] = rng.uniform(0.2, 1.0, size=len(ones))
        price = bank.copy()
        price[0] = np.sum(tree.trans_prob[ones] * M[ones] * (bank[ones] + div[ones])) / M[0]
        extra.append(Asset(f"x{j}", AdaptedProcess(tree, 3, price), AdaptedProcess(tree, 3, div)))
    market = MarketSpec(tree, base.assets + tuple(extra), base.interest)
    return market, gi.random_agent(rng, tree, static=True)


def _scipy_maps(market, agent):
    """L, L^T, K, Kw, LK and (LK)^T as scipy.sparse builds them from the
    dense per-column maps: CSR L, CSC K and Kw, L @ K and the transposes'
    ``.T.tocsr()``."""
    from scipy import sparse

    L, K, W = _dense_maps(market, agent)
    L, K, Kw = sparse.csr_array(L), sparse.csc_array(K), sparse.csc_array(W)
    LK = L @ K
    return {"L": L, "LT": L.T.tocsr(), "K": K, "Kw": Kw, "LK": LK, "LKT": LK.T.tocsr()}


@pytest.mark.parametrize("market,agent", list(_general_instances())
                         + [_full_memory_instance(), _uneven_rank_instance(),
                            _wide_atom_instance()])
def test_maps_store_and_apply_scipys_bits(market, agent):
    # scipy.sparse is the oracle: the same stored entries in the same order,
    # and products equal to the last bit
    problem = _Problem(market, agent)
    rng = np.random.default_rng(7)
    for name, ref in _scipy_maps(market, agent).items():
        ours = getattr(problem, name)
        assert ours.shape == ref.shape and ours.nnz == ref.nnz, name
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(ours, field), getattr(ref, field)), (name, field)
        for x in rng.standard_normal((3, ref.shape[1])):
            assert np.array_equal(ours @ x, ref @ x), name


def _exact_block_size(problem, market):
    """Entries of the Newton blocks with no padding: each atom's rank times
    its own, its ancestors' (up to the reach) and one more column."""
    tree = market.tree
    rank = np.zeros(tree.n_nodes, dtype=int)
    for k in range(1, tree.horizon + 1):
        for g in market.basis_groups(k):
            rank[tree.n_upto(k - 2) + g.atoms] = g.rank
    total = 0
    for a in range(tree.n_upto(tree.horizon - 1)):
        width, u = 1, a
        for _ in range(min(problem.reach, tree.depth[a]) + 1):
            width, u = width + rank[u], tree.parent[u]
        total += rank[a] * width
    return total


def test_direction_instances_reach_every_ancestor_and_pad_ranks():
    market, agent = _full_memory_instance()
    problem = _Problem(market, agent)
    assert problem.reach == market.tree.horizon - 1      # the deepest atoms reach the root
    market, agent = _uneven_rank_instance()
    ranks = {g.rank for k in range(1, market.tree.horizon + 1) for g in market.basis_groups(k)}
    assert not market.is_complete() and len(ranks) >= 3
    problem = _Problem(market, agent)
    # some depth holds atoms of ranks 3 and 1 (two classes) and some class
    # pads a rank-2 atom to 3 rows
    depths = [cls.depth for cls in problem._sweep]
    assert len(set(depths)) < len(depths)
    assert any(cls.r == 3 and len(cls.theta) and np.any(cls.theta == problem.n_theta + 1)
               for cls in problem._sweep)


def test_block_array_scales_with_each_atoms_rank():
    # one wide, high-rank atom pads no other atom's blocks
    market, agent = _wide_atom_instance()
    problem = _Problem(market, agent)
    ranks = sorted({g.rank for k in range(1, 4) for g in market.basis_groups(k)})
    assert ranks == [2, 8] and not market.is_complete()
    assert problem._blk_size == _exact_block_size(problem, market)
    # uneven ranks pad each block dimension at most twofold
    market, agent = _uneven_rank_instance()
    problem = _Problem(market, agent)
    assert _exact_block_size(problem, market) < problem._blk_size \
        <= 4 * _exact_block_size(problem, market)


@pytest.mark.parametrize("market,agent", list(_general_instances())
                         + [_full_memory_instance(), _uneven_rank_instance(),
                            _wide_atom_instance()])
def test_sparse_newton_direction_matches_dense_solve(market, agent):
    # the oracle: -H = (L K)^T diag(d) (L K) from the dense per-column maps
    assert not market.is_complete()
    endowed = _endowed(market, agent)
    problem = endowed.problem
    s = endowed.surplus(_phase1_interior(endowed))
    g = problem.LKT @ problem.marginal(s)
    L, K, _ = _dense_maps(market, agent)
    tree = market.tree
    pw = tree.probabilities() * np.exp(-agent.rho * tree.depth)
    d = pw * agent.gamma * s ** (-agent.gamma - 1.0)
    dense = np.linalg.solve((L @ K).T @ (d[:, None] * (L @ K)), g)
    assert _rel(_newton_direction(problem, problem.hess(s, g)), dense) < 1e-10


def _solve_calls(monkeypatch):
    """Record the number of stacked systems of every numpy.linalg.solve call."""
    calls, solve = [], np.linalg.solve

    def counted(a, b):
        calls.append(len(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return calls


def test_singular_newton_system_stops_newton(monkeypatch):
    market, agent = next(_general_instances())
    assemble = _Problem.hess

    def zero_blocks(self, s, g):
        blocks = assemble(self, s, g)
        blocks[:] = 0.0
        return blocks

    monkeypatch.setattr(_Problem, "hess", zero_blocks)
    calls = _solve_calls(monkeypatch)
    with pytest.raises(ConvergenceError, match="singular Newton system"):
        solve_consumption(market, agent)
    assert len(calls) == 1           # the deepest class's blocks, in the first step


def test_singular_block_mid_sweep_stops_newton(monkeypatch):
    # zero the depth-1 diagonal blocks and every block coupling depth 1 with
    # deeper atoms: depth 2 eliminates normally, then depth 1's blocks
    # receive no update and stay singular
    rng = np.random.default_rng(98)
    tree = gi.random_tree(rng, min_depth=3)
    market = gi.random_general_market(rng, tree)
    agent = gi.random_agent(rng, tree)
    assert tree.horizon == 3
    assemble = _Problem.hess

    def singular_depth_1(self, s, g):
        blocks = assemble(self, s, g)
        for cls in self._sweep:
            diag, off = _block_views(cls, blocks)
            if cls.depth == 1:
                diag[:] = 0.0
            if cls.depth == 2:
                off[:, :, :-1] = 0.0        # every block with an ancestor
        return blocks

    monkeypatch.setattr(_Problem, "hess", singular_depth_1)
    calls = _solve_calls(monkeypatch)
    with pytest.raises(ConvergenceError, match="singular Newton system"):
        solve_consumption(market, agent)
    assert calls == [len(tree.depth_nodes[2]), len(tree.depth_nodes[1])]


def test_incomplete_solve_at_scale():
    rng = np.random.default_rng(85)
    tree = EventTree.uniform(7, 3)
    market = gi.random_general_market(rng, tree)
    assert tree.n_nodes >= 3000 and not market.is_complete()
    endow = AdaptedProcess(tree, tree.horizon, rng.uniform(1.0, 2.0, size=tree.n_nodes))
    res = solve_consumption(market, AgentSpec(1.5, 0.02, static_habit_matrix(0.2, 7), endow))
    assert res.method == "newton" and res.foc_residual < 1e-9


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
def test_solve_rejects_bad_tolerance(tol, binary_market):
    agent = AgentSpec(2.0, 0.0, 0.2, AdaptedProcess.constant(binary_market.tree, 1.0))
    incomplete, other = next(_general_instances())
    assert binary_market.is_complete() and not incomplete.is_complete()
    for market, a in ((binary_market, agent), (incomplete, other)):
        with pytest.raises(ValueError, match="tolerance"):
            solve_consumption(market, a, tol=tol)


def test_non_finite_residual_is_not_convergence():
    # at gamma = 1000 the phase-1 point's R* holds NaN and inf entries; a NaN
    # per-depth gap once read as 0.0 and Newton stopped after one iteration.
    # Now the residual is infinite and Newton stops when no step along its
    # direction raises the utility
    rng = np.random.default_rng(3)
    tree = gi.random_tree(rng, min_depth=2)
    market = gi.random_general_market(rng, tree)
    agent = AgentSpec(1000.0, 0.02, 0.2, AdaptedProcess.constant(tree, 1.0))
    with np.errstate(all="ignore"), \
            pytest.raises(ConvergenceError, match=r"\(line search failed\): first-order residual inf"):
        solve_consumption(market, agent)


def test_iteration_limit_stops_newton(monkeypatch):
    market, agent = next(_general_instances())
    monkeypatch.setattr(optimizer, "MAX_NEWTON_ITER", 1)
    with pytest.raises(ConvergenceError,
                       match=r"after 1 iterations \(iteration limit reached\)") as err:
        solve_consumption(market, agent)
    assert 1e-9 < err.value.residual < np.inf
    # without the limit the same solve takes more than one iteration
    monkeypatch.undo()
    assert solve_consumption(market, agent).iterations > 2


def _record_residuals(monkeypatch):
    """Pair each Newton iterate's gradient residual with _foc_residual_on at
    the same iterate (the loop computes the surplus there just before)."""
    pairs, at = [], {}
    surplus, residual = _Endowed.surplus, _Problem.grad_residual

    def recorded_surplus(self, theta):
        at["c"] = self.consumption(theta)
        return surplus(self, theta)

    def paired(self, g, phi):
        fast = residual(self, g, phi)
        pairs.append((fast, _foc_residual_on(self.market, self.agent, at["c"])))
        return fast

    monkeypatch.setattr(_Endowed, "surplus", recorded_surplus)
    monkeypatch.setattr(_Problem, "grad_residual", paired)
    return pairs


def _perfbench_sized(seed):
    """An incomplete ternary T = 6 market (n = 1093) as perfbench's
    solve-large op_b solves it."""
    rng = np.random.default_rng(seed)
    tree = EventTree.uniform(6, 3)
    market = gi.random_general_market(rng, tree)
    endow = AdaptedProcess(tree, 6, rng.uniform(1.0, 2.0, size=tree.n_nodes))
    return market, AgentSpec(1.5, 0.02, static_habit_matrix(0.2, 6), endow)


@pytest.mark.parametrize("instance", [
    *[pytest.param(lambda i=i: list(_general_instances())[i], id=f"general-{i}") for i in range(4)],
    pytest.param(lambda: _perfbench_sized(85), id="perfbench-sized-85"),
    # the iterate that first meets tol reads 7.325807632682e-12 against
    # 7.325617092240e-12: the two differ by 1.9e-16, one rounding of the
    # order-one ratios behind them, which is 2.6e-5 of a residual this small
    pytest.param(lambda: _perfbench_sized(86), id="perfbench-sized-86",
                 marks=pytest.mark.xfail(strict=True, reason="1e-6 relative is below roundoff "
                                         "at a 7e-12 residual")),
])
def test_gradient_residual_matches_the_public_residual(instance, monkeypatch):
    market, agent = instance()
    pairs = _record_residuals(monkeypatch)
    assert solve_consumption(market, agent).method == "newton"
    fast, public = np.array(pairs).T
    assert len(pairs) > 3
    # both infinite where some R*_a is nonpositive, else within 1e-6 relative
    assert np.array_equal(np.isinf(fast), np.isinf(public))
    big = np.isfinite(public) & (public > 1e-12)
    assert np.any(big)
    assert np.all(np.abs(fast[big] - public[big]) <= 1e-6 * public[big])


def test_a_low_gradient_residual_is_not_returned_unconfirmed(monkeypatch):
    # the gradient residual reads 0 at one far-from-optimal iterate: the
    # held iterate and the step past it both fail the public check, so
    # Newton goes on, and every returned result meets tol by the public
    # definition
    residual = _Problem.grad_residual
    for at in (1, 2):
        for market, agent in [*_general_instances(), _incomplete_instance(66, zero_node=True)]:
            seen = []

            def low_once(self, g, phi):
                seen.append(residual(self, g, phi))
                return 0.0 if len(seen) == at else seen[-1]

            monkeypatch.setattr(_Problem, "grad_residual", low_once)
            res = solve_consumption(market, agent, tol=1e-9)
            assert seen[at - 1] > 1e-6          # the low reading was wrong
            assert res.foc_residual < 1e-9
            assert foc_residual(market, agent, res) < 1e-9
            assert res.iterations > at + 1


@pytest.mark.parametrize("fake", [True, False], ids=["unconfirmed", "confirmed"])
def test_a_held_iterate_is_checked_when_newton_stops_at_it(fake, monkeypatch):
    # Newton stops (here on a singular system) at the first iterate whose
    # gradient residual meets tol, before the top of the loop can check it;
    # the check after the loop returns it only when the public residual
    # confirms it, and otherwise reports the public residual
    market, agent = _incomplete_instance(66)
    residual, seen = _Problem.grad_residual, []

    def recorded(self, g, phi):
        seen.append(0.0 if fake else residual(self, g, phi))
        return seen[-1]

    def singular_below_tol(problem, blocks):
        if seen[-1] < 1e-9:
            raise np.linalg.LinAlgError("forced")
        return direction(problem, blocks)

    direction = optimizer._newton_direction
    monkeypatch.setattr(_Problem, "grad_residual", recorded)
    monkeypatch.setattr(optimizer, "_newton_direction", singular_below_tol)
    if fake:
        with pytest.raises(ConvergenceError, match=r"after 1 iterations \(singular") as info:
            solve_consumption(market, agent, tol=1e-9)
        assert info.value.residual > 1e-6          # the public residual, not 0
    else:
        res = solve_consumption(market, agent, tol=1e-9)
        assert res.iterations == len(seen) and res.foc_residual < 1e-9


def test_foc_residual_is_infinite_at_a_non_finite_ratio():
    from habitree.optimizer import _foc_residual

    for market in (gi.random_general_market(np.random.default_rng(4), EventTree.uniform(2, 3)),
                   gi.deterministic_market(3, 0.05)):
        R = market.spd.values.copy()
        assert _foc_residual(market, R) < 1e-12
        for bad in (np.nan, np.inf):
            R[-1] = bad
            with np.errstate(invalid="ignore"):
                assert _foc_residual(market, R) == np.inf


@pytest.mark.parametrize("field,value", [("gamma", np.nan), ("gamma", np.inf), ("rho", np.nan),
                                         ("rho", -np.inf), ("endowment", np.nan),
                                         ("endowment", np.inf)])
def test_agent_rejects_non_finite_numbers(field, value):
    tree = EventTree.single_path(3)
    args = {"gamma": 2.0, "rho": 0.05, "endowment": np.ones(4)}
    if field == "endowment":
        args["endowment"][2] = value
    else:
        args[field] = value
    with pytest.raises(SchemaError) as info:
        AgentSpec(args["gamma"], args["rho"], 0.2, AdaptedProcess(tree, 3, args["endowment"]))
    assert info.value.field == field


@pytest.mark.parametrize("gamma,endowment,field,message", [
    (-1.0, [1.0] * 4, "gamma", "power utility needs gamma > 0 and gamma != 1"),
    (2.0, [1.0] * 3, "endowment", "must cover depths 0..3"),
    (2.0, [1.0, 1.0, -0.1, 1.0], "endowment", "endowment must be nonnegative"),
], ids=["gamma", "depth", "endowment-negative"])
def test_agent_checks(gamma, endowment, field, message):
    tree = EventTree.single_path(3)
    with pytest.raises(SchemaError) as info:
        AgentSpec(gamma, 0.05, 0.2, AdaptedProcess(tree, len(endowment) - 1, np.array(endowment)))
    assert (info.value.field, str(info.value)) == (field, f"{field}: {message}")


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("route", ["agent", "perturbed_spd"])
def test_non_finite_habit_coefficient_is_a_schema_error(route, value):
    # once solved as a closed form with all-NaN consumption and residual 0.0
    market = gi.deterministic_market(3, 0.05)
    habits = static_habit_matrix(0.2, 3)
    habits[3, 1] = value
    with pytest.raises(SchemaError) as info:
        if route == "agent":
            AgentSpec(2.0, 0.05, habits, AdaptedProcess.constant(market.tree, 1.0))
        else:
            perturbed_spd(market.spd, habits)
    assert info.value.field == "beta_matrix"
