import numpy as np
import pytest

import habitree.instances as gi
from habitree import (
    AdaptedProcess,
    AgentSpec,
    ConditionError,
    EventTree,
    bound_coefficients,
    check_sandwich,
    delta_identity_gap,
    perturbed_spd,
    solve_consumption,
    static_habit_matrix,
    upper_hedging,
)
from habitree.estimates import PeriodBounds, _discounted_cond_exp
from habitree.market import present_value


def random_bound_pair(seed):
    return gi.random_bound_instance(np.random.default_rng(seed))


# -- upper hedging ---------------------------------------------------------------


def test_hedging_zero_stream_is_zero():
    rng = np.random.default_rng(31)
    market = gi.random_idiosyncratic_market(rng)
    X = AdaptedProcess.constant(market.tree, 0.0)
    xu = upper_hedging(market, X)
    for arr in xu:
        assert np.allclose(arr, 0.0, atol=1e-15)


def test_hedging_on_complete_market_is_present_value():
    rng = np.random.default_rng(32)
    tree = gi.random_tree(rng, min_depth=2)
    market = gi.random_complete_market(rng, tree)
    X = AdaptedProcess(tree, tree.horizon, rng.uniform(0.2, 1.0, size=tree.n_nodes))
    xu = upper_hedging(market, X)
    pv = present_value(tree, market.spd, X, 0)
    assert xu[0][0] == pytest.approx(float(pv[0]), abs=1e-12)


def test_hedging_deterministic_r0_is_plain_sum():
    market = gi.deterministic_market(3, 0.0)
    X = AdaptedProcess(market.tree, 3, np.array([0.0, 0.4, 0.7, 0.2]))
    xu = upper_hedging(market, X)
    assert xu[0][0] == pytest.approx(0.4 + 0.7 + 0.2, abs=1e-14)


def test_hedging_super_replication_property():
    rng = np.random.default_rng(33)
    for _ in range(5):
        market = gi.random_idiosyncratic_market(rng)
        tree = market.tree
        X = AdaptedProcess(tree, tree.horizon, rng.normal(size=tree.n_nodes))
        xu = upper_hedging(market, X)
        M = market.spd
        for k in range(1, tree.horizon + 1):
            carry = _discounted_cond_exp(tree, M, xu[k + 1], k) \
                if k < tree.horizon else np.zeros(len(tree.depth_nodes[k]))
            assert np.min(xu[k] - carry - X.at_depth(k)) >= -1e-12
        p = tree.probabilities()
        cost = float(np.sum(p[tree.depth_nodes[1]] * M.at_depth(1) * xu[1]))
        assert cost == pytest.approx(xu[0][0], abs=1e-12)


def test_hedging_monotone_in_the_stream():
    rng = np.random.default_rng(34)
    market = gi.random_idiosyncratic_market(rng)
    tree = market.tree
    base = rng.uniform(0.0, 1.0, size=tree.n_nodes)
    X = AdaptedProcess(tree, tree.horizon, base)
    Y = AdaptedProcess(tree, tree.horizon, base + rng.uniform(0.0, 0.5, size=tree.n_nodes))
    xu, yu = upper_hedging(market, X), upper_hedging(market, Y)
    for a, b in zip(xu, yu):
        assert np.all(b >= a - 1e-12)


def test_hedging_requires_intermediate_structure():
    rng = np.random.default_rng(35)
    tree = EventTree.uniform(2, 3)
    market = gi.random_general_market(rng, tree)
    X = AdaptedProcess.constant(tree, 1.0)
    with pytest.raises(Exception):
        upper_hedging(market, X)


# -- bound coefficients ------------------------------------------------------------


def test_coefficients_terminal_seed():
    market, agent = random_bound_pair(36)
    coeffs = bound_coefficients(market, agent)
    T = market.tree.horizon
    assert np.allclose(coeffs.m[T], 1.0, atol=1e-15)
    for j in range(T):
        assert np.allclose(coeffs.xi[(T, j)], 0.0, atol=1e-15)


def test_coefficients_no_habits_collapse():
    rng = np.random.default_rng(37)
    market = gi.random_idiosyncratic_market(rng)
    tree = market.tree
    agent = AgentSpec(2.0, 0.03, static_habit_matrix(0.0, tree.horizon),
                      AdaptedProcess(tree, tree.horizon, rng.uniform(1, 2, tree.n_nodes)))
    coeffs = bound_coefficients(market, agent)
    for k in range(1, tree.horizon + 1):
        for j in range(k - 1):
            assert np.allclose(coeffs.xi[(k, j)], 0.0, atol=1e-14)
            assert np.allclose(coeffs.alpha[(k, j)], 0.0, atol=1e-14)


def test_coefficients_T1_deterministic_hand_values():
    market = gi.deterministic_market(1, 0.0)
    tree = market.tree
    beta, gamma, rho = 0.3, 2.0, 0.05
    agent = AgentSpec(gamma, rho, static_habit_matrix(beta, 1),
                      AdaptedProcess(tree, 1, np.array([1.0, 1.0])))
    coeffs = bound_coefficients(market, agent)
    Mt = perturbed_spd(market.spd, beta)
    alpha_expected = np.exp(-rho / gamma) * (Mt.values[1] / Mt.values[0]) ** (-1 / gamma) + beta
    assert coeffs.alpha[(1, 0)][0] == pytest.approx(alpha_expected, abs=1e-14)
    m0_expected = 1.0 / (1.0 + alpha_expected * market.spd.values[1])
    assert coeffs.m[0][0] == pytest.approx(m0_expected, abs=1e-14)


def test_delta_identities_against_independent_hedging():
    for seed in range(38, 44):
        market, agent = random_bound_pair(seed)
        coeffs = bound_coefficients(market, agent)
        assert delta_identity_gap(coeffs) < 1e-9


def test_hypothesis_required():
    rng = np.random.default_rng(44)
    tree = EventTree.uniform(2, 3)
    market = gi.random_general_market(rng, tree)
    agent = gi.random_agent(rng, tree)
    with pytest.raises(ConditionError):
        bound_coefficients(market, agent)


# -- sandwich ------------------------------------------------------------------


def test_sandwich_deterministic_market_is_tight():
    market = gi.deterministic_market(3, 0.05)
    tree = market.tree
    agent = AgentSpec(2.0, 0.02, static_habit_matrix(0.2, 3),
                      AdaptedProcess(tree, 3, np.array([1.0, 1.2, 1.1, 0.9])))
    res = solve_consumption(market, agent, tol=1e-12)
    report = check_sandwich(market, agent, res)
    assert max(abs(r.slack) for r in report.rows) < 1e-9


def test_sandwich_holds_on_random_instances():
    for seed in range(45, 65):
        market, agent = random_bound_pair(seed)
        res = solve_consumption(market, agent, tol=1e-11)
        report = check_sandwich(market, agent, res)
        assert report.min_slack() >= -1e-9, f"seed {seed}"


def test_sandwich_no_habit_specialized_regime():
    rng = np.random.default_rng(66)
    market = gi.random_idiosyncratic_market(rng)
    tree = market.tree
    agent = AgentSpec(2.5, 0.04, static_habit_matrix(0.0, tree.horizon),
                      AdaptedProcess(tree, tree.horizon, rng.uniform(1, 2, tree.n_nodes)))
    res = solve_consumption(market, agent, tol=1e-11)
    coeffs = bound_coefficients(market, agent)
    report = check_sandwich(market, agent, res, coeffs)
    assert report.min_slack() >= -1e-9
    # without habits only the one-period-back alpha survives: the wealth
    # bounds reduce to alpha^k_{k-1} c_{k-1} +/- hedging terms
    anc = tree.ancestor_matrix()
    for k in range(1, tree.horizon + 1):
        nodes = tree.depth_nodes[k]
        lo = coeffs.alpha[(k, k - 1)] * res.c.values[anc[nodes, k - 1]] - coeffs.epsU[k]
        hi = coeffs.alpha[(k, k - 1)] * res.c.values[anc[nodes, k - 1]] + coeffs.negepsU[k]
        w = res.W.at_depth(k)
        assert np.min(w - lo) >= -1e-9 and np.min(hi - w) >= -1e-9


def test_sandwich_coincides_for_deterministic_endowment_complete_market():
    rng = np.random.default_rng(67)
    tree = gi.random_tree(rng, min_depth=2)
    market = gi.complete_market_from_spd(
        tree, gi.random_positive_spd(rng, tree, per_depth_discount=True))
    eps = AdaptedProcess(tree, tree.horizon, 1.0 + 0.1 * tree.depth.astype(float))
    agent = AgentSpec(2.0, 0.01, static_habit_matrix(0.15, tree.horizon), eps)
    coeffs = bound_coefficients(market, agent)
    for k in range(1, tree.horizon + 1):
        # H_k = singletons and deterministic endowment: consumption bounds meet
        assert np.max(np.abs(coeffs.etap[k] - coeffs.eta[k])) < 1e-9


def test_bound_denominators_are_at_least_one():
    """m_k = 1/D_k lies in (0, 1] (up to D_k's roundoff) on every market kind
    the bounds accept, with habit coefficients up to 30, gamma in 0.3..8 and
    rho in -0.5..2, as bound_coefficients' proof says."""
    for seed in range(200):
        rng = np.random.default_rng(seed)
        kind = seed % 4
        if kind == 0:
            market = gi.random_idiosyncratic_market(rng, f_depth=int(rng.integers(2, 4)))
        elif kind == 1:
            market = gi.deterministic_market(int(rng.integers(2, 7)), float(rng.uniform(0, 0.08)))
        elif kind == 2:
            tree = gi.random_tree(rng, max_depth=4, min_depth=2)
            market = gi.complete_market_from_spd(
                tree, gi.random_positive_spd(rng, tree, per_depth_discount=True))
        else:
            tree = gi.random_tree(rng, max_depth=4, min_depth=2)
            market = gi.random_classC_market(rng, tree, deterministic_rate=True)
        tree = market.tree
        T = tree.horizon
        habits = np.tril(rng.uniform(0.0, 30.0, size=(T + 1, T + 1)), k=-1) \
            * (rng.random((T + 1, T + 1)) < 0.7)
        agent = AgentSpec(float(rng.uniform(0.3, 8.0)), float(rng.uniform(-0.5, 2.0)), habits,
                          AdaptedProcess(tree, T, rng.uniform(1.0, 2.0, tree.n_nodes)))
        m = np.concatenate(bound_coefficients(market, agent).m)
        assert np.all(m > 0.0) and np.all(m <= 1.0 + 1e-12), f"seed {seed}"


def test_min_slack_by_period():
    market, agent = random_bound_pair(69)
    res = solve_consumption(market, agent, tol=1e-11)
    report = check_sandwich(market, agent, res)
    per = report.min_slack_by_period()
    assert set(per) == set(range(market.tree.horizon + 1))
    assert min(per.values()) == pytest.approx(report.min_slack())


def test_tightest_node_ignores_roundoff_ties():
    # a tight period: the slack is ~1e-16 at many nodes, so argmin alone
    # would pick among them by roundoff
    rng = np.random.default_rng(70)
    value = rng.uniform(0.5, 2.0, size=40)
    lower = value - rng.uniform(0.0, 4e-16, size=40)
    upper = value + rng.uniform(0.1, 1.0, size=40)
    lower[:5] = value[:5] - 1e-3            # loose nodes come first
    row = PeriodBounds(3, "consumption", lower, value, upper)
    assert row.tightest() == 5
    for _ in range(20):
        bump = 1.0 + 1e-15 * rng.uniform(-1.0, 1.0, size=40)
        assert PeriodBounds(3, "consumption", lower, value * bump, upper).tightest() == 5


def test_tightest_node_is_stable_on_solved_rows():
    market, agent = random_bound_pair(71)
    res = solve_consumption(market, agent, tol=1e-11)
    report = check_sandwich(market, agent, res)
    rng = np.random.default_rng(72)
    for r in report.rows:
        i = r.tightest()
        slack = np.minimum(r.value - r.lower, r.upper - r.value)
        assert slack[i] <= r.slack + 1e-12 * np.max(np.abs(r.value))
        bump = 1.0 + 1e-15 * rng.uniform(-1.0, 1.0, size=r.value.shape)
        assert PeriodBounds(r.period, r.quantity, r.lower, r.value * bump, r.upper).tightest() == i


def _sandwich_ancestor_sums(tree, coeffs, c, k):
    """check_sandwich's former ancestor_matrix walk (reference): the xi and
    alpha sums over depth-j ancestors, j = 0 first."""
    anc = tree.ancestor_matrix()
    nodes = tree.depth_nodes[k]
    xi_sum = np.zeros(len(nodes))
    alpha_sum = np.zeros(len(nodes))
    for j in range(k):
        cj = c[anc[nodes, j]]
        xi_sum += coeffs.xi[(k, j)] * cj
        alpha_sum += coeffs.alpha[(k, j)] * cj
    return xi_sum, alpha_sum


def test_sandwich_rows_match_ancestor_matrix_walk():
    for seed in range(80, 92):
        market, agent = random_bound_pair(seed)
        tree = market.tree
        res = solve_consumption(market, agent, tol=1e-11)
        coeffs = bound_coefficients(market, agent)
        report = check_sandwich(market, agent, res, coeffs)
        c, W = res.c.values, res.W.values
        for k in range(1, tree.horizon + 1):
            xi_sum, alpha_sum = _sandwich_ancestor_sums(tree, coeffs, c, k)
            base = coeffs.m[k] * W[tree.depth_nodes[k]] + xi_sum
            cons, wealth = report.rows[2 * k - 1], report.rows[2 * k]
            assert np.array_equal(cons.lower, coeffs.eta[k] + base)
            assert np.array_equal(cons.upper, coeffs.etap[k] + base)
            assert np.array_equal(wealth.lower, alpha_sum + coeffs.delta[k])
            assert np.array_equal(wealth.upper, alpha_sum + coeffs.deltap[k])
