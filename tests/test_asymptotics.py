from functools import lru_cache

import numpy as np
import pytest

import habitree.instances as gi
from habitree import (
    AdaptedProcess,
    AgentSpec,
    artificial_solution,
    habit_chain_floors,
    check_ratio_floors,
    propensity_sweep,
    solve_consumption,
    static_habit_matrix,
)
import habitree.optimizer as optimizer
from habitree.asymptotics import unit_initial_endowment
from habitree.optimizer import SolveResult, _Endowed, _Problem, solve_endowments


def test_artificial_solution_merton_split():
    T = 3
    market = gi.deterministic_market(T, 0.0)
    agent = AgentSpec(2.0, 0.0, static_habit_matrix(0.0, T),
                      AdaptedProcess.constant(market.tree, 1.0))
    res = artificial_solution(market, agent)
    assert np.allclose(res.c.values, 1.0 / (T + 1), atol=1e-10)
    assert np.allclose(res.W.values[1:], [(T + 1 - k) / (T + 1) for k in range(1, T + 1)],
                       atol=1e-10)


def test_artificial_solution_static_habit_deterministic_unrolled():
    # T=2 single path, r=0, static beta: surpluses follow s_k = q_k s_{k-1}
    # with q_k = e^{-rho/g}(Mt_k/Mt_{k-1})^{-1/g}; unit budget pins c_0
    T, beta, gamma, rho = 2, 0.25, 2.0, 0.04
    market = gi.deterministic_market(T, 0.0)
    agent = AgentSpec(gamma, rho, static_habit_matrix(beta, T),
                      AdaptedProcess.constant(market.tree, 1.0))
    res = artificial_solution(market, agent)
    from habitree import perturbed_spd
    Mt = perturbed_spd(market.spd, beta).values
    q = [np.exp(-rho / gamma) * (Mt[k] / Mt[k - 1]) ** (-1 / gamma) for k in (1, 2)]
    # c_0 = s_0; c_1 = beta c_0 + q1 s_0; c_2 = beta c_1 + q1 q2 s_0; sum of
    # M_k c_k = 1 with M = 1 here
    w1 = beta + q[0]
    w2 = beta * w1 + q[0] * q[1]
    c0 = 1.0 / (1.0 + w1 + w2)
    expected = np.array([c0, w1 * c0, w2 * c0])
    assert np.allclose(res.c.values, expected, atol=1e-10)


def test_artificial_solution_unit_budget_any_market():
    rng = np.random.default_rng(71)
    tree = gi.random_tree(rng, min_depth=2)
    market = gi.random_general_market(rng, tree)
    agent = gi.random_agent(rng, tree)
    res = artificial_solution(market, agent)
    p = tree.probabilities()
    assert np.sum(p * market.spd.values * res.c.values) == pytest.approx(1.0, abs=1e-12)
    assert np.all(res.c.values > 0.0)
    assert np.all(res.W.values[1:] > 0.0)


def test_artificial_solution_self_financing_identities():
    rng = np.random.default_rng(72)
    tree = gi.random_tree(rng, min_depth=2)
    market = gi.random_complete_market(rng, tree)
    agent = gi.random_agent(rng, tree)
    res = artificial_solution(market, agent)
    M = market.spd.values
    p = tree.probabilities()
    c0 = res.c.values[0]
    w1 = np.sum(p[tree.depth_nodes[1]] * M[tree.depth_nodes[1]] * res.W.at_depth(1))
    assert c0 == pytest.approx(1.0 - w1, abs=1e-12)


def test_sweep_exact_when_later_endowment_zero():
    rng = np.random.default_rng(73)
    tree = gi.random_tree(rng, min_depth=2)
    market = gi.random_general_market(rng, tree)
    agent = AgentSpec(2.0, 0.05, static_habit_matrix(0.2, tree.horizon),
                      unit_initial_endowment(
                          AgentSpec(2.0, 0.0, static_habit_matrix(0.0, tree.horizon),
                                    AdaptedProcess.constant(tree, 1.0))).endowment)
    rep = propensity_sweep(market, agent, [1e1, 1e2, 1e3, 1e4])
    for _, err_c, err_w in rep.sweep:
        assert err_c < 1e-12 and err_w < 1e-12


def test_sweep_rate_deterministic_rate_market():
    rng = np.random.default_rng(74)
    tree = gi.random_tree(rng, min_depth=2)
    market = gi.random_classC_market(rng, tree, deterministic_rate=True)
    agent = gi.random_agent(rng, tree, static=True)
    rep = propensity_sweep(market, agent, [1e1, 1e2, 1e3, 1e4, 1e5])
    assert -1.1 < rep.fitted_rate < -0.9
    assert rep.errors_decreasing()


def test_sweep_rate_without_habits():
    # the no-habit case runs through the same sweep machinery
    rng = np.random.default_rng(78)
    tree = gi.random_tree(rng, min_depth=2)
    market = gi.random_classC_market(rng, tree, deterministic_rate=True)
    agent = AgentSpec(2.0, 0.03, static_habit_matrix(0.0, tree.horizon),
                      AdaptedProcess(tree, tree.horizon, rng.uniform(1, 2, tree.n_nodes)))
    rep = propensity_sweep(market, agent, [1e1, 1e2, 1e3, 1e4, 1e5])
    assert -1.1 < rep.fitted_rate < -0.9
    assert np.allclose(rep.alpha_lower, 0.0)


def test_sweep_grid_validation():
    market = gi.deterministic_market(2, 0.0)
    agent = AgentSpec(2.0, 0.0, static_habit_matrix(0.0, 2),
                      AdaptedProcess.constant(market.tree, 1.0))
    with pytest.raises(ValueError):
        propensity_sweep(market, agent, [1.0, 2.0, 3.0])      # too few points
    with pytest.raises(ValueError):
        propensity_sweep(market, agent, [1.0, 2.0, 3.0, 4.0])  # under 3 decades


# -- one problem per sweep, grid solves started at the artificial optimum ------------

GRID = [1e1, 1e2, 1e3, 1e4, 1e5]


def _sweep_instance(kind):
    """A static-habit agent on a deterministic-rate class-C market or on a
    general market.  Its unit-initial endowment and every grid endowment
    have a negative habit surplus, so a lone solve of any of them starts at
    the phase-1 LP; the artificial optimum is strictly feasible for every
    grid point but the first."""
    rng = np.random.default_rng(70)
    tree = gi.random_tree(rng, min_depth=2)
    market = gi.random_classC_market(rng, tree, deterministic_rate=True) if kind == "classC" \
        else gi.random_general_market(rng, tree)
    assert not market.is_complete()
    return market, gi.random_agent(rng, tree, static=True)


def _sweep_endowments(agent):
    """The endowments a sweep over GRID solves, artificial one first."""
    ends = [unit_initial_endowment(agent).endowment.values]
    for e0 in GRID:
        vals = agent.endowment.values.copy()
        vals[0] = e0
        ends.append(vals)
    return ends


def _alone(market, agent, endowment):
    tree = market.tree
    return solve_consumption(market, AgentSpec(agent.gamma, agent.rho, agent.habits.copy(),
                                               AdaptedProcess(tree, tree.horizon, endowment)))


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("kind", ["classC", "general"])
def test_sweep_solves_match_independent_solves(kind):
    market, agent = _sweep_instance(kind)
    ends = _sweep_endowments(agent)
    results = solve_endowments(market, agent, ends)
    for i, (endowment, res) in enumerate(zip(ends, results)):
        alone = _alone(market, agent, endowment)
        assert res.method == alone.method == "newton" and res.foc_residual < 1e-9
        assert _rel(res.c.values, alone.c.values) < 1e-12
        assert _rel(res.W.values, alone.W.values) < 1e-12
        if i == 0:          # the first solve is solve_consumption's, bit for bit
            assert np.array_equal(res.c.values, alone.c.values)
            assert np.array_equal(res.W.values, alone.W.values)
    # the sweep reports the gaps of exactly these solves
    rep = propensity_sweep(market, agent, GRID)
    star = results[0]
    assert np.array_equal(rep.cstar.values, artificial_solution(market, agent).c.values)
    for (e0, err_c, err_w), res in zip(rep.sweep, results[1:]):
        assert err_c == float(np.max(np.abs(res.c.values / e0 - star.c.values)))
        assert err_w == float(np.max(np.abs(res.W.values[1:] / e0 - star.W.values[1:])))


@pytest.mark.parametrize("kind", ["classC", "general"])
def test_sweep_starts_at_the_artificial_optimum_or_falls_back_to_the_lp(kind, monkeypatch):
    # a solve that cannot start at the artificial optimum falls back to a
    # lone solve's start search: the bond-account plan, then the LP
    market, agent = _sweep_instance(kind)
    ends = _sweep_endowments(agent)
    p, M = market.tree.probabilities(), market.spd.values
    unit_pv = [e / float(np.sum(p * M * e)) for e in ends]
    bond, lp = [], []
    bond_start, phase1 = optimizer._bond_start, optimizer._phase1_interior

    def which(endowed):
        return next(i for i, e in enumerate(unit_pv) if np.array_equal(endowed.base, e))

    def bond_spy(endowed):
        theta = bond_start(endowed)
        bond.append((which(endowed), theta is not None))
        return theta

    def lp_spy(endowed):
        lp.append(which(endowed))
        return phase1(endowed)

    monkeypatch.setattr(optimizer, "_bond_start", bond_spy)
    monkeypatch.setattr(optimizer, "_phase1_interior", lp_spy)
    results = solve_endowments(market, agent, ends)
    # a start is searched for the artificial problem and for eps_0 = 1e1,
    # where the artificial optimum has a nonpositive surplus, and the
    # bond-account plan is feasible for both; every larger grid point
    # starts at the artificial optimum
    assert bond == [(0, True), (1, True)] and lp == []
    problem = _Problem(market, agent)
    assert all(np.min(_Endowed(problem, e).Lbase) <= 0.0 for e in unit_pv)
    bond.clear()
    alone = _alone(market, agent, ends[-1])
    assert bond == [(len(ends) - 1, True)] and lp == []     # alone, eps_0 = 1e5 searches
    assert results[-1].iterations < alone.iterations


def test_sweep_builds_one_problem(monkeypatch):
    built = []

    class Counted(_Problem):
        def __init__(self, market, agent):
            built.append(market)
            super().__init__(market, agent)

    monkeypatch.setattr(optimizer, "_Problem", Counted)
    market, agent = _sweep_instance("general")
    propensity_sweep(market, agent, GRID)
    assert built == [market]


def test_complete_market_sweep_takes_the_closed_form(monkeypatch):
    built = []
    monkeypatch.setattr(optimizer, "_Problem", lambda *args: built.append(args))
    rng = np.random.default_rng(79)
    tree = gi.random_tree(rng, min_depth=2)
    market = gi.random_complete_market(rng, tree)
    agent = gi.random_agent(rng, tree, static=True)
    ends = _sweep_endowments(agent)
    results = solve_endowments(market, agent, ends)
    for endowment, res in zip(ends, results):
        alone = _alone(market, agent, endowment)
        assert res.method == "closed-form" and res.iterations == 0
        assert np.array_equal(res.c.values, alone.c.values)
    rep = propensity_sweep(market, agent, GRID)
    assert rep.errors_decreasing() and built == []


def test_values_grow_without_bound_along_grid():
    rng = np.random.default_rng(75)
    tree = gi.random_tree(rng, min_depth=2)
    market = gi.random_complete_market(rng, tree)
    agent = gi.random_agent(rng, tree)
    lo = agent.endowment.values.copy()
    lo[0] = 1e1
    hi = agent.endowment.values.copy()
    hi[0] = 1e5
    r_lo = solve_consumption(market, AgentSpec(agent.gamma, agent.rho, agent.habits.copy(),
                                               AdaptedProcess(tree, tree.horizon, lo)))
    r_hi = solve_consumption(market, AgentSpec(agent.gamma, agent.rho, agent.habits.copy(),
                                               AdaptedProcess(tree, tree.horizon, hi)))
    assert np.all(r_hi.c.values > 1e3 * r_lo.c.values)
    assert np.all(r_hi.W.values[1:] > 1e3 * r_lo.W.values[1:])


def test_chain_floors_examples():
    assert np.allclose(habit_chain_floors(static_habit_matrix(0.0, 3)), 0.0)
    beta = 0.4
    floors = habit_chain_floors(static_habit_matrix(beta, 2))
    assert np.allclose(floors, [0.0, beta, beta ** 2], atol=1e-15)


def _chain_floors_recursion(habits):
    """The memoised recursion that habit_chain_floors replaced, kept as the
    reference for its bits."""
    T = habits.shape[0] - 1

    @lru_cache(maxsize=None)
    def w(top):
        if top == 0:
            return 1.0
        return float(sum(habits[top, s] * w(s) for s in range(top) if habits[top, s] != 0.0))

    return np.array([0.0] + [w(k) for k in range(1, T + 1)])


def test_chain_floors_match_recursion():
    rng = np.random.default_rng(77)
    for _ in range(100):
        T = int(rng.integers(0, 9))
        for habits in (static_habit_matrix(float(rng.uniform(0.0, 0.9)), T),
                       gi.random_habit_matrix(rng, T, beta_max=0.9)):
            assert np.array_equal(habit_chain_floors(habits), _chain_floors_recursion(habits))


def test_floors_hold_at_large_initial_endowment():
    rng = np.random.default_rng(76)
    tree = gi.random_tree(rng, min_depth=2)
    market = gi.random_complete_market(rng, tree)
    agent = gi.random_agent(rng, tree, static=True)
    vals = agent.endowment.values.copy()
    vals[0] = 1e5
    big = AgentSpec(agent.gamma, agent.rho, agent.habits.copy(),
                    AdaptedProcess(tree, tree.horizon, vals))
    res = solve_consumption(market, big)
    report = check_ratio_floors(market, big, res)
    assert report.ok, report.violations


def test_floors_flag_corrupted_consumption():
    rng = np.random.default_rng(77)
    tree = gi.random_tree(rng, min_depth=2)
    market = gi.random_complete_market(rng, tree)
    agent = gi.random_agent(rng, tree, static=True)
    res = solve_consumption(market, agent)
    bad_vals = res.c.values.copy()
    bad_vals[-1] = -1.0
    bad = SolveResult(AdaptedProcess(tree, tree.horizon, bad_vals), res.W, res.R,
                      res.utility, res.foc_residual, res.iterations, res.method)
    report = check_ratio_floors(market, agent, bad)
    assert not report.ok
    assert ("consumption", tree.horizon) in report.violations
