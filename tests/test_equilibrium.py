import dataclasses
import json
import math

import numpy as np
import pytest

import habitree.instances as gi
from habitree import (
    AdaptedProcess,
    AgentSpec,
    ConditionError,
    ConvergenceError,
    EconomyAgent,
    EconomySpec,
    EventTree,
    IIDEconomy,
    SchemaError,
    beta_sensitivity,
    bond_curve,
    bond_derivative_beta,
    bond_price,
    excess_demand,
    heterogeneous_equilibrium,
    homogeneous_conditions,
    homogeneous_spd,
    long_run_yield,
    lucas_longrun,
    lucas_price,
    perturbed_spd,
    solve_consumption,
)
from habitree.equilibrium import WEIGHT_TOL, heterogeneous_conditions
from habitree.market import present_value
from habitree.tree import cond_expectation_arrays


def example_r(beta):
    """Interest-rate curve of the two-point growth example, printed form."""
    a = (3.0 - beta) ** -2 + (4.0 - beta) ** -2
    return a / (2.0 - beta * a)


def example_lucas(beta):
    """Long-run equity of the two-point growth example, printed form."""
    num = (3.0 - 7.0 * beta / 24.0) * (3.0 - beta) ** -2 \
        + (4.0 - 7.0 * beta / 24.0) * (4.0 - beta) ** -2
    return (24.0 / 17.0) * num / (2.0 - beta * ((3.0 - beta) ** -2 + (4.0 - beta) ** -2))


# -- existence conditions -----------------------------------------------------


def test_conditions_hold_without_habits():
    econ = gi.example_iid_economy(beta=0.0, horizon=2).tree_economy()
    rep = homogeneous_conditions(econ)
    assert rep.holds and rep.surplus_margin > 0 and rep.foc_margin > 0


def test_conditions_sufficient_for_iid_economy():
    econ = gi.example_iid_economy(beta=0.8, horizon=2).tree_economy()
    rep = homogeneous_conditions(econ)
    assert rep.holds and rep.sufficient_margin > 0


def test_conditions_counterexample():
    tree = EventTree.single_path(1)
    econ = EconomySpec(tree, 0.9, (EconomyAgent(
        2.0, 0.0, AdaptedProcess(tree, 1, np.array([1.0, 0.5]))),))
    rep = homogeneous_conditions(econ)
    assert not rep.holds and rep.surplus_margin == pytest.approx(-0.4)
    with pytest.raises(ConditionError):
        homogeneous_spd(econ)


# -- homogeneous SPD -----------------------------------------------------------


def test_homogeneous_spd_no_habit_closed_form():
    rho = 0.07
    econ = gi.example_iid_economy(beta=0.0, horizon=2, rho=rho).tree_economy()
    eq = homogeneous_spd(econ)
    tree = econ.tree
    want = np.exp(-rho * tree.depth) * (econ.aggregate.values / econ.aggregate.values[0]) ** -2.0
    assert np.max(np.abs(eq.M.values - want)) < 1e-12


def test_homogeneous_expected_spd_example_value():
    econ = gi.example_iid_economy(beta=0.0, horizon=1).tree_economy()
    eq = homogeneous_spd(econ)
    p = econ.tree.probabilities()
    em1 = float(np.sum(p[econ.tree.depth_nodes[1]] * eq.M.at_depth(1)))
    assert em1 == pytest.approx(25.0 / 288.0, abs=1e-15)


def test_homogeneous_spd_deterministic_two_period_hand_formula():
    g, beta, rho, gamma = 1.7, 0.5, 0.03, 2.0
    tree = EventTree.single_path(1)
    econ = EconomySpec(tree, beta, (EconomyAgent(
        gamma, rho, AdaptedProcess(tree, 1, np.array([1.0, g]))),))
    eq = homogeneous_spd(econ)
    want = math.exp(-rho) * (g - beta) ** -gamma \
        / (1.0 - beta * math.exp(-rho) * (g - beta) ** -gamma)
    assert eq.M.values[1] == pytest.approx(want, abs=1e-15)


def test_homogeneous_foc_and_recursion():
    econ = gi.example_iid_economy(beta=0.5, horizon=3, rho=0.02).tree_economy()
    eq = homogeneous_spd(econ)
    assert eq.residuals["foc"] < 1e-10
    Mt = perturbed_spd(eq.M, econ.beta)
    assert np.max(np.abs(Mt.values - eq.Mtilde.values)) < 1e-12


def test_equilibrium_spd_feeds_back_to_market_clearing_consumption():
    econ = gi.example_iid_economy(beta=0.4, horizon=2, rho=0.02).tree_economy()
    market = gi.market_from_homogeneous(econ)
    agent = AgentSpec(2.0, 0.02, 0.4, econ.aggregate)
    res = solve_consumption(market, agent, tol=1e-12)
    assert np.max(np.abs(res.c.values - econ.aggregate.values)) < 1e-8


def test_market_clearing_consumption_has_zero_foc_residual():
    # the aggregate endowment itself is optimal under the equilibrium SPD
    from habitree import foc_residual
    from habitree.optimizer import SolveResult

    econ = gi.example_iid_economy(beta=0.3, horizon=2, rho=0.01).tree_economy()
    market = gi.market_from_homogeneous(econ)
    agent = AgentSpec(2.0, 0.01, 0.3, econ.aggregate)
    solved = solve_consumption(market, agent, tol=1e-12)
    exact = SolveResult(econ.aggregate, solved.W, solved.R, solved.utility,
                        solved.foc_residual, solved.iterations, solved.method)
    assert foc_residual(market, agent, exact) < 1e-10


# -- bond prices ----------------------------------------------------------------


def test_bond_price_matches_printed_interest_curve():
    for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
        econ = gi.example_iid_economy(beta=beta, horizon=1)
        assert bond_price(econ, 0, 1) == pytest.approx(example_r(beta), abs=1e-15)


def test_bond_price_no_habit_power_form():
    econ = IIDEconomy(((1.5, 0.4), (2.5, 0.6)), 3.0, 0.06, 0.0, 5)
    G = econ.moment(lambda x: x ** -3.0)
    for n in range(1, 6):
        assert bond_price(econ, 0, n) == pytest.approx(
            math.exp(-0.06 * n) * G ** n, abs=1e-15)


def test_bond_price_matches_tree_sums():
    for beta in (0.0, 0.3):
        for T in (2, 3):
            econ = gi.example_iid_economy(beta=beta, horizon=T, rho=0.05)
            tree_econ = econ.tree_economy()
            eq = homogeneous_spd(tree_econ)
            tree = tree_econ.tree
            from habitree.tree import cond_expectation_arrays
            for k in range(0, T + 1):
                for n in range(k, T + 1):
                    ratios = cond_expectation_arrays(tree, eq.M.at_depth(n), n, k) / eq.M.at_depth(k)
                    xs = econ.growth_at(tree, k) if k >= 1 else None
                    for j in range(len(tree.depth_nodes[k])):
                        closed = bond_price(econ, k, n, x_k=None if k == 0 else float(xs[j]))
                        assert abs(ratios[j] - closed) < 1e-10, (beta, T, k, n)


def test_bond_requires_growth_factor_above_floor():
    with pytest.raises(SchemaError):
        IIDEconomy(((1.0, 0.5), (4.0, 0.5)), 2.0, 0.0, 0.9, 1)


def test_bond_curve_validates_beta_range():
    econ = gi.example_iid_economy(horizon=1)
    with pytest.raises(SchemaError):
        bond_curve(econ, 1, [0.0, 2.9])


def test_long_run_yield_limit():
    econ = gi.example_iid_economy(beta=1.0, horizon=1)
    target = long_run_yield(econ)
    gaps = []
    for T in (10, 20, 50):
        e = IIDEconomy(econ.support, econ.gamma, econ.rho, econ.beta, T)
        y = -math.log(bond_price(e, 0, T)) / T
        gaps.append(abs(y - target))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 2e-2


# -- Lucas tree -------------------------------------------------------------------


def test_lucas_longrun_matches_printed_formula():
    for beta in (0.0, 0.2, 0.5, 0.8, 1.0):
        econ = gi.example_iid_economy(beta=beta, horizon=1)
        assert lucas_longrun(econ) == pytest.approx(example_lucas(beta), abs=1e-13)


def test_lucas_longrun_no_habit_geometric_series():
    econ = gi.example_iid_economy(beta=0.0, horizon=1)
    H = econ.moment(lambda x: x ** -1.0)
    assert lucas_longrun(econ) == pytest.approx(H / (1.0 - H), abs=1e-15)


def test_lucas_finite_matches_tree_sum():
    for beta in (0.0, 0.35):
        for T in (2, 3):
            for rho in (0.0, 0.04):
                econ = gi.example_iid_economy(beta=beta, horizon=T, rho=rho)
                tree_econ = econ.tree_economy()
                eq = homogeneous_spd(tree_econ)
                tree = tree_econ.tree
                pv = present_value(tree, eq.M, tree_econ.aggregate, 0)
                assert abs(lucas_price(econ, 0, T) - float(pv[0])) < 1e-10
                # interior date with the growth factor conditioning
                pvk = present_value(tree, eq.M, tree_econ.aggregate, 1)
                xs = econ.growth_at(tree, 1)
                eps1 = tree_econ.aggregate.at_depth(1)
                for j in range(len(xs)):
                    closed = lucas_price(econ, 1, T, eps_k=float(eps1[j]), x_k=float(xs[j]))
                    assert abs(closed - float(pvk[j])) < 1e-10


def test_lucas_longrun_is_T50_limit():
    econ = gi.example_iid_economy(beta=0.6, horizon=1, rho=0.01)
    finite = lucas_price(IIDEconomy(econ.support, econ.gamma, econ.rho, 0.6, 50), 0, 50)
    assert abs(finite - lucas_longrun(econ)) < 1e-9 * abs(lucas_longrun(econ))


def test_lucas_divergence_guard():
    econ = IIDEconomy(((1.01, 1.0),), 0.5, 0.0, 0.0, 2)  # E[X^{1-gamma}] > 1
    with pytest.raises(ConditionError):
        lucas_longrun(econ)


# -- beta sensitivity ---------------------------------------------------------------


def test_bond_curve_increasing_convex_with_analytic_derivative():
    econ = gi.example_iid_economy(horizon=1)
    grid = [i / 100.0 for i in range(101)]
    rep = beta_sensitivity(
        lambda b: bond_price(econ.with_beta(b), 0, 1),
        grid,
        analytic_derivative=lambda b: bond_derivative_beta(econ, 1, b, order=1),
        analytic_second=lambda b: bond_derivative_beta(econ, 1, b, order=2))
    assert rep.increasing and rep.convex
    assert rep.derivative_positive and rep.second_derivative_positive
    assert rep.max_derivative_rel_gap < 1e-6


def test_lucas_curve_increasing_convex():
    econ = gi.example_iid_economy(horizon=1)
    grid = [i / 100.0 for i in range(101)]
    rep = beta_sensitivity(lambda b: lucas_longrun(econ.with_beta(b)), grid)
    assert rep.increasing and rep.convex


def test_sensitivity_negative_control():
    grid = [i / 100.0 for i in range(101)]
    rep = beta_sensitivity(lambda b: 1.0, grid)
    assert not rep.increasing


def test_sensitivity_needs_fine_grid():
    with pytest.raises(ValueError):
        beta_sensitivity(lambda b: b, [0.0, 1.0])


# -- heterogeneous equilibrium --------------------------------------------------------


def test_single_agent_equals_homogeneous():
    econ = gi.example_iid_economy(beta=0.2, horizon=2).tree_economy()
    het = heterogeneous_equilibrium(econ)
    hom = homogeneous_spd(econ)
    assert np.max(np.abs(het.M.values - hom.M.values)) < 1e-9
    assert het.residuals["h_inf"] < 1e-10


def test_identical_agents_split_equally():
    base = gi.example_iid_economy(beta=0.2, horizon=2).tree_economy()
    tree = base.tree
    half = AdaptedProcess(tree, tree.horizon, 0.5 * base.aggregate.values)
    econ = EconomySpec(tree, 0.2, (EconomyAgent(2.0, 0.0, half), EconomyAgent(2.0, 0.0, half)))
    het = heterogeneous_equilibrium(econ)
    hom = homogeneous_spd(base)
    assert np.max(np.abs(het.M.values - hom.M.values)) < 1e-9
    for c in het.consumptions:
        assert np.max(np.abs(c.values - half.values)) < 1e-9


def test_desk_instance_converges_with_walras_at_every_iterate():
    econ = gi.desk_heterogeneous_economy()
    res = heterogeneous_equilibrium(econ)
    assert res.method == "tatonnement"
    assert res.residuals["h_inf"] < 1e-10
    assert res.residuals["clearing"] < 1e-8
    assert res.residuals["budget"] < 1e-8
    assert res.residuals["foc"] < 1e-9
    assert all(abs(w) < 1e-10 for w in res.walras_history)


def test_excess_demand_walras_and_homogeneity():
    econ = gi.desk_heterogeneous_economy()
    rng = np.random.default_rng(81)
    for _ in range(50):
        lam = rng.uniform(0.1, 3.0, size=2)
        sys0 = excess_demand(econ, lam)
        assert abs(float(np.dot(lam, sys0.h))) < 1e-10
        for t in (0.5, 3.0):
            assert np.max(np.abs(excess_demand(econ, t * lam).h - sys0.h)) < 1e-10


def test_excess_demand_blows_down_at_vanishing_weight():
    econ = gi.desk_heterogeneous_economy()
    sys0 = excess_demand(econ, [1e-6, 1.0])
    assert sys0.h[0] < -1e3


def test_weight_equation_solved_to_tolerance():
    econ = gi.desk_heterogeneous_economy()
    system = excess_demand(econ, [0.7, 0.3])
    tree = econ.tree
    s = [econ.aggregate.at_depth(0)]
    for k in range(1, tree.horizon + 1):
        nodes = tree.depth_nodes[k]
        s.append(econ.aggregate.at_depth(k) - econ.beta * econ.aggregate.values[tree.parent[nodes]])
    lam = [0.7, 0.3]
    for k in range(tree.horizon + 1):
        gtilde = system.gtilde[tree.depth_nodes[k]]
        lhs = np.zeros_like(gtilde)
        for i, a in enumerate(econ.agents):
            lhs += lam[i] ** (1 / a.gamma) * np.exp(-(a.rho / a.gamma) * k) \
                * gtilde ** (-1 / a.gamma)
        assert np.max(np.abs(lhs - s[k]) / s[k]) < 1e-12


def _power(x, e):
    """x ** e for a float x, raised as the source raises its powers: numpy's
    power on one-element arrays, which gives the bits of the batched power.
    Python's ``**`` goes through libm, and numpy takes square, sqrt or
    reciprocal for an exponent of 2.0, 0.5 or -1.0 given as a scalar or
    broadcast along an axis; both can differ in the last bit."""
    return float(np.power(np.array([x]), np.array([e]))[0])


def _scalar_weight_root(economy, lam, k, rhs, fallbacks, start=None):
    """The per-node weight-equation solve that excess_demand replaced, kept
    as the bit-level reference; appends k to ``fallbacks`` whenever a
    Newton step leaves the bracket and the geometric midpoint is taken.
    Starts at ``start`` when that lies strictly inside the bracket, else at
    the bracket's geometric mean."""
    agents = economy.agents
    N = len(agents)
    coef = [_power(lam[i], 1.0 / a.gamma) * math.exp(-(a.rho / a.gamma) * k)
            for i, a in enumerate(agents)]
    single = [lam[i] * math.exp(-a.rho * k) * _power(rhs, -a.gamma) for i, a in enumerate(agents)]
    lo = max(single)
    hi = max(b * _power(N, a.gamma) for b, a in zip(single, agents))
    lo, hi = min(lo, hi), max(lo, hi)

    def f(y):
        return sum(c * _power(y, -1.0 / a.gamma) for c, a in zip(coef, agents)) - rhs

    def fprime(y):
        return sum(-c / a.gamma * _power(y, -1.0 / a.gamma - 1.0) for c, a in zip(coef, agents))

    y = start if start is not None and lo < start < hi else math.sqrt(lo * hi)
    for _ in range(200):
        fy = f(y)
        if abs(fy) <= 4e-16 * rhs:
            return y
        if fy > 0.0:
            lo = y
        else:
            hi = y
        y_new = y - fy / fprime(y)
        if not (lo < y_new < hi):
            fallbacks.append(k)
            y_new = math.sqrt(lo * hi)
        if abs(y_new - y) <= 4e-16 * y:
            return y_new
        y = y_new
    raise AssertionError(f"reference solve stalled at period {k}")


def _assert_gtilde_matches_scalar(economy, lam, start=None):
    """Every node's gtilde, solved from ``start``, equals the scalar
    reference started at the same point bit for bit; returns the depths at
    which the reference took its bisection fallback."""
    lam = np.asarray([float(l) for l in lam])
    system = excess_demand(economy, lam, start)
    fallbacks = []
    for k in range(economy.tree.horizon + 1):
        nodes = economy.tree.depth_nodes[k]
        rhs = economy.aggregate.at_depth(k) if k == 0 else (
            economy.aggregate.at_depth(k) - economy.beta
            * economy.aggregate.values[economy.tree.parent[nodes]])
        y0 = [None] * len(nodes) if start is None else [float(v) for v in start[nodes]]
        want = np.array([_scalar_weight_root(economy, lam, k, float(r), fallbacks, y)
                         for r, y in zip(rhs, y0)])
        assert np.array_equal(system.gtilde[nodes], want), k
    return fallbacks


def test_vectorised_weight_solve_matches_scalar():
    from habitree.verify import _random_economy, _rng

    desk = gi.desk_heterogeneous_economy()
    for lam in ([0.6, 0.4], [0.7, 0.3], [2.5, 0.2]):
        _assert_gtilde_matches_scalar(desk, lam)
    # a vanishing weight sends Newton out of its bracket
    assert _assert_gtilde_matches_scalar(desk, [1e-6, 1.0])
    # the walras suite's economies and weights, seeds 0-3
    checked = 0
    for seed in range(4):
        rng = _rng(seed, "walras")
        for _ in range(15):
            economy = _random_economy(rng)
            if not heterogeneous_conditions(economy).holds:
                continue
            for _ in range(3):
                lam = rng.uniform(0.2, 2.0, size=economy.n_agents)
                for t in (1.0, 0.5, 3.0):
                    _assert_gtilde_matches_scalar(economy, t * lam)
                checked += 1
    assert checked > 100
    # a deeper tree with spread risk aversions
    deep = _deep_economy()
    for lam in ([1 / 3, 1 / 3, 1 / 3], [0.2, 0.5, 0.3]):
        _assert_gtilde_matches_scalar(deep, lam)


def _deep_economy():
    """Three agents with spread risk aversions on a binary tree of horizon 8."""
    base = gi.example_iid_economy(beta=0.1, horizon=8).tree_economy()
    tree = base.tree
    agents = tuple(EconomyAgent(g, r, AdaptedProcess(tree, tree.horizon, s * base.aggregate.values))
                   for g, r, s in zip((0.5, 2.0, 5.0), (0.0, 0.03, 0.05), (0.3, 0.5, 0.2)))
    return EconomySpec(tree, 0.1, agents)


def _hetero_document_economy(seed):
    """An economy drawn as perfbench's `hetero` documents are: three agent
    types on a binary growth tree of horizon 8 (factors 0.95 and 1.08),
    beta 0.1, each node's endowment split around mean shares 0.27, 0.19 and
    0.54 with log-normal noise of scale 0.3."""
    rng = np.random.default_rng(seed)
    tree = EventTree.uniform(8, 2)
    eps = np.ones(tree.n_nodes)
    for k in range(1, 9):
        nodes = tree.depth_nodes[k]
        eps[nodes] = eps[tree.parent[nodes]] * np.array([0.95, 1.08])[tree.sibling_slot[nodes]]
    types = ((0.5, 0.0, 0.27), (2.0, 0.02, 0.19), (5.0, 0.04, 0.54))
    w = np.array([[m] for _, _, m in types]) * np.exp(0.3 * rng.standard_normal((3, tree.n_nodes)))
    w /= w.sum(axis=0)
    return EconomySpec(tree, 0.1, tuple(EconomyAgent(g, r, AdaptedProcess(tree, 8, wi * eps))
                                        for (g, r, _), wi in zip(types, w)))


def _admit_outside_the_conditions(monkeypatch):
    """Let heterogeneous_equilibrium run where its sufficient existence
    conditions fail.  The deep economy fails them (its aggregate grows 3-4x
    a period, so the spread risk aversions break the moment inequality at
    any beta > 0), yet tatonnement converges on it in 199 steps."""
    import habitree.equilibrium as eqm

    real = eqm.heterogeneous_conditions
    monkeypatch.setattr(eqm, "heterogeneous_conditions",
                        lambda econ: dataclasses.replace(real(econ), holds=True))


def _tatonnement_calls(economy, monkeypatch):
    """(weights, start) of every excess_demand call heterogeneous_equilibrium makes."""
    import habitree.equilibrium as eqm

    calls = []

    def recorded(econ, lam, start=None):
        calls.append((np.array(lam, dtype=float), None if start is None else start.copy()))
        return excess_demand(econ, lam, start)

    monkeypatch.setattr(eqm, "excess_demand", recorded)
    heterogeneous_equilibrium(economy)
    return calls


def test_warm_started_weight_solve_matches_scalar(monkeypatch):
    # each tatonnement step starts at the previous step's roots; the scalar
    # reference started at the same point must give the same bits
    desk = gi.desk_heterogeneous_economy()
    calls = _tatonnement_calls(desk, monkeypatch)
    assert calls[0][1] is None and all(start is not None for _, start in calls[1:])
    for lam, start in calls:
        _assert_gtilde_matches_scalar(desk, lam, start)
    deep = _deep_economy()
    _admit_outside_the_conditions(monkeypatch)
    calls = _tatonnement_calls(deep, monkeypatch)
    assert len(calls) == 199
    for lam, start in calls[1:4] + calls[-2:]:
        _assert_gtilde_matches_scalar(deep, lam, start)


def test_weight_solve_start_outside_the_bracket_falls_back():
    # nodes whose start is not strictly inside the bracket (far outside it,
    # negative, NaN, 0 or inf) start at the geometric mean, as with no start
    for economy, lam in ((gi.desk_heterogeneous_economy(), [0.6, 0.4]),
                         (_deep_economy(), [0.2, 0.5, 0.3])):
        cold = excess_demand(economy, lam).gtilde
        n = economy.tree.n_nodes
        bad = np.resize(np.array([1e6, 1e-6, -1.0, math.nan, 0.0, math.inf]), n)
        bad[bad == 1e6] *= cold[bad == 1e6]
        bad[bad == 1e-6] *= cold[bad == 1e-6]
        _assert_gtilde_matches_scalar(economy, lam, bad)
        assert np.array_equal(excess_demand(economy, lam, bad).gtilde, cold)
        # half the nodes start at a nearby point, the rest outside
        mixed = np.where(np.arange(n) % 2 == 0, cold * (1.0 + 1e-3), bad)
        _assert_gtilde_matches_scalar(economy, lam, mixed)
        warm = excess_demand(economy, lam, mixed).gtilde
        assert np.array_equal(warm[1::2], cold[1::2])


@pytest.mark.parametrize("shape", [(6,), (8,), (7, 1), (1, 7), ()])
def test_weight_solve_start_needs_one_entry_per_node(shape):
    desk = gi.desk_heterogeneous_economy()
    assert desk.tree.n_nodes == 7
    with pytest.raises(ValueError, match="start must have shape"):
        excess_demand(desk, [0.6, 0.4], np.ones(shape))


def _relative_gap(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("economy,conditions_hold", [
    pytest.param(gi.desk_heterogeneous_economy, True, id="desk"),
    pytest.param(_deep_economy, False, id="deep"),
    *[pytest.param(lambda s=s: _hetero_document_economy(s), True, id=f"hetero-doc-{s}")
      for s in range(4)],
])
def test_warm_and_cold_started_tatonnement_agree(economy, conditions_hold, monkeypatch):
    import habitree.equilibrium as eqm

    economy = economy()
    assert heterogeneous_conditions(economy).holds == conditions_hold
    if not conditions_hold:
        _admit_outside_the_conditions(monkeypatch)
    warm = heterogeneous_equilibrium(economy)
    monkeypatch.setattr(eqm, "excess_demand", lambda econ, lam, start=None:
                        excess_demand(econ, lam))
    cold = heterogeneous_equilibrium(economy)
    assert (warm.iterations, warm.method) == (cold.iterations, cold.method)
    assert warm.method == "tatonnement"
    assert _relative_gap(warm.M.values, cold.M.values) <= 1e-14
    assert _relative_gap(warm.lambdas, cold.lambdas) <= 1e-14
    for cw, cc in zip(warm.consumptions, cold.consumptions):
        assert _relative_gap(cw.values, cc.values) <= 1e-14


def test_stalled_weight_solve_reports_the_deepest_period(monkeypatch):
    import habitree.equilibrium as eqm

    econ = gi.desk_heterogeneous_economy()
    monkeypatch.setattr(eqm, "MAX_WEIGHT_PASSES", 1)
    with pytest.raises(ConvergenceError, match="stalled at period 2"):
        excess_demand(econ, [0.6, 0.4])


def test_weight_root_beyond_float_range_is_a_condition_error():
    econ = gi.desk_heterogeneous_economy()
    tree = econ.tree
    vals = econ.agents[0].endowment.values.copy()
    vals[3] = 1e200
    agents = (EconomyAgent(2.0, 0.0, AdaptedProcess(tree, tree.horizon, vals)),) + econ.agents[1:]
    with pytest.raises(ConditionError, match="floating-point range"):
        excess_demand(EconomySpec(tree, econ.beta, agents), [0.6, 0.4])


@pytest.mark.parametrize("scale", [1e-150, 1e150])
def test_endowments_beyond_the_float_range_are_a_condition_error(scale):
    # at 1e-150 the bracket overflows; at 1e150 it is tiny and its geometric
    # mean, the first iterate, underflows to a zero root, which a guard that
    # only looked for overflow would let through to "candidate SPD nonpositive"
    desk = gi.desk_heterogeneous_economy()
    tree = desk.tree
    agents = tuple(EconomyAgent(a.gamma, a.rho, AdaptedProcess(tree, tree.horizon,
                                                               scale * a.endowment.values))
                   for a in desk.agents)
    with pytest.raises(ConditionError, match="floating-point range"):
        excess_demand(EconomySpec(tree, desk.beta, agents), [0.6, 0.4])


def test_weight_coefficient_beyond_the_float_range_is_a_condition_error():
    # lam^(1/gamma) = 1e400 for gamma = 0.5, while the bracket stays finite
    desk = gi.desk_heterogeneous_economy(gammas=(0.5, 3.0))
    with pytest.raises(ConditionError, match="floating-point range"):
        excess_demand(desk, [1e200, 1.0])


@pytest.mark.parametrize("lam", [[math.nan, 1.0], [math.inf, 1.0], [1.0, -math.inf],
                                 [0.0, 1.0], [-0.5, 1.0]])
def test_excess_demand_rejects_nonpositive_or_non_finite_weights(lam):
    with pytest.raises(ValueError, match="agent weights"):
        excess_demand(gi.desk_heterogeneous_economy(), lam)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_economy_spec_rejects_a_non_finite_beta(value):
    desk = gi.desk_heterogeneous_economy()
    with pytest.raises(SchemaError) as info:
        EconomySpec(desk.tree, value, desk.agents)
    assert info.value.field == "beta"


@pytest.mark.parametrize("field,value", [
    ("gamma", math.nan), ("gamma", math.inf), ("rho", math.nan), ("rho", math.inf),
    ("beta", math.nan), ("beta", math.inf), ("support", ((math.nan, 0.5), (4.0, 0.5))),
    ("support", ((math.inf, 0.5), (4.0, 0.5))), ("support", ((3.0, math.nan), (4.0, 0.5)))])
def test_iid_economy_rejects_non_finite_numbers(field, value):
    args = {"support": ((3.0, 0.5), (4.0, 0.5)), "gamma": 2.0, "rho": 0.0, "beta": 0.5,
            "horizon": 2}
    args[field] = value
    with pytest.raises(SchemaError) as info:
        IIDEconomy(**args)
    assert info.value.field == field


@pytest.mark.parametrize("field,value", [("gamma", math.nan), ("rho", math.inf),
                                         ("endowment", math.nan)])
def test_economy_agent_rejects_non_finite_numbers(field, value):
    tree = EventTree.single_path(1)
    args = {"gamma": 2.0, "rho": 0.0, "endowment": np.array([1.0, 1.5])}
    if field == "endowment":
        args["endowment"][1] = value
    else:
        args[field] = value
    with pytest.raises(SchemaError) as info:
        EconomyAgent(args["gamma"], args["rho"], AdaptedProcess(tree, 1, args["endowment"]))
    assert info.value.field == field


def test_heterogeneous_conditions_guard():
    tree = EventTree.single_path(1)
    econ = EconomySpec(tree, 0.9, (
        EconomyAgent(2.0, 0.0, AdaptedProcess(tree, 1, np.array([0.5, 0.25]))),
        EconomyAgent(3.0, 0.0, AdaptedProcess(tree, 1, np.array([0.5, 0.25]))),
    ))
    assert not heterogeneous_conditions(econ).holds
    with pytest.raises(ConditionError):
        heterogeneous_equilibrium(econ)


def test_excess_demand_needs_positive_aggregate_surpluses():
    # eps_1 - beta eps_0 = 0.5 - 0.9 < 0: no weight equation to solve
    tree = EventTree.single_path(1)
    eps = AdaptedProcess(tree, 1, np.array([1.0, 0.5]))
    econ = EconomySpec(tree, 0.9, (EconomyAgent(2.0, 0.0, eps),))
    assert econ.surplus_min < 0.0
    with pytest.raises(ConditionError, match="aggregate habit surplus not positive"):
        excess_demand(econ, [1.0])


def test_excess_demand_rejects_a_nonpositive_candidate_spd():
    # surpluses 1 and 0.05 are positive, but beta = 0.9 outweighs the root
    # period: g_0 = gtilde_0 - 0.9 gtilde_1 = 1 - 0.9 * 0.05^-2 < 0
    tree = EventTree.single_path(1)
    eps = AdaptedProcess(tree, 1, np.array([1.0, 0.95]))
    econ = EconomySpec(tree, 0.9, (EconomyAgent(2.0, 0.0, eps),))
    assert econ.surplus_min > 0.0
    assert not heterogeneous_conditions(econ).holds
    with pytest.raises(ConditionError, match="candidate SPD nonpositive at depth 0"):
        excess_demand(econ, [1.0])


def test_failed_tatonnement_and_root_finding_is_a_convergence_error(monkeypatch, tmp_path,
                                                                   capsys):
    import habitree.equilibrium as eqm
    from habitree import io as hio
    from habitree.cli import main

    desk = gi.desk_heterogeneous_economy()
    monkeypatch.setattr(eqm, "MAX_TATONNEMENT", 0)
    monkeypatch.setattr(eqm, "_weights_by_root_finding", lambda economy, lam0: lam0)
    with pytest.raises(ConvergenceError, match="after tatonnement \\+ root finding") as info:
        heterogeneous_equilibrium(desk)
    assert math.isfinite(info.value.residual) and info.value.residual >= WEIGHT_TOL
    doc = {"economy": {"tree": hio.dump_tree(desk.tree), "beta": desk.beta, "agents": [
        {"gamma": a.gamma, "rho": a.rho, "endowment": dict(zip(desk.tree.ids, a.endowment.values))}
        for a in desk.agents]}}
    path = tmp_path / "desk.json"
    path.write_text(json.dumps(doc))
    assert main(["equilibrium", "--input", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == "ConvergenceError"


def test_closed_forms_match_tree_sums_T5_three_point_support():
    econ = IIDEconomy(((2.5, 0.3), (3.5, 0.5), (5.0, 0.2)), 2.5, 0.03, 0.4, 5)
    tree_econ = econ.tree_economy()
    eq = homogeneous_spd(tree_econ)
    tree = tree_econ.tree
    from habitree.tree import cond_expectation_arrays
    for n in range(6):
        closed = bond_price(econ, 0, n)
        tree_val = float(cond_expectation_arrays(tree, eq.M.at_depth(n), n, 0)[0])
        assert abs(closed - tree_val) < 1e-10
    pv = present_value(tree, eq.M, tree_econ.aggregate, 0)
    assert abs(lucas_price(econ, 0, 5) - float(pv[0])) < 1e-10


def test_heterogeneous_with_low_risk_aversion_agent():
    base = gi.example_iid_economy(beta=0.1, horizon=2).tree_economy()
    tree = base.tree
    agents = (
        EconomyAgent(0.5, 0.02, AdaptedProcess(tree, tree.horizon, 0.4 * base.aggregate.values)),
        EconomyAgent(2.5, 0.0, AdaptedProcess(tree, tree.horizon, 0.6 * base.aggregate.values)),
    )
    econ = EconomySpec(tree, 0.1, agents)
    res = heterogeneous_equilibrium(econ)
    assert res.residuals["h_inf"] < 1e-10
    assert res.residuals["foc"] < 1e-9
    assert np.all(res.M.values > 0.0)


def test_three_agent_equilibrium():
    base = gi.example_iid_economy(beta=0.15, horizon=2).tree_economy()
    tree = base.tree
    shares = (0.5, 0.3, 0.2)
    gammas = (2.0, 3.0, 1.5)
    rhos = (0.0, 0.05, 0.02)
    agents = tuple(EconomyAgent(g, r, AdaptedProcess(tree, tree.horizon, s * base.aggregate.values))
                   for g, r, s in zip(gammas, rhos, shares))
    econ = EconomySpec(tree, 0.15, agents)
    res = heterogeneous_equilibrium(econ)
    assert res.residuals["h_inf"] < 1e-10
    assert res.residuals["clearing"] < 1e-8
    total = np.sum([c.values for c in res.consumptions], axis=0)
    assert np.max(np.abs(total - base.aggregate.values)) < 1e-8


def test_three_agent_root_finding_fallback():
    # a natural economy on which tatonnement runs out of steps: the weights
    # are then found by the N >= 3 root finder (hybr on log-weight ratios)
    base = gi.example_iid_economy(beta=0.16098999836020625, horizon=1).tree_economy()
    tree = base.tree
    shares = (0.07868807989116416, 0.6623883168266271, 0.2589236032822087)
    gammas = (3.0, 3.0, 2.0)
    rhos = (0.09576451081402922, 0.05063197755260279, 0.015484460838700143)
    agents = tuple(EconomyAgent(g, r, AdaptedProcess(tree, tree.horizon, s * base.aggregate.values))
                   for g, r, s in zip(gammas, rhos, shares))
    res = heterogeneous_equilibrium(EconomySpec(tree, base.beta, agents))
    assert res.method == "tatonnement+root"
    assert res.residuals["h_inf"] < 1e-10
    assert res.residuals["clearing"] <= 1e-9
    assert res.residuals["budget"] <= 1e-9


def test_two_agent_root_finding_fallback(monkeypatch):
    # with tatonnement cut short, the root finder (hybr on the log-weight
    # ratio, one unknown for two agents) must land on the weights
    # tatonnement reaches
    import habitree.equilibrium as eqm

    econ = gi.desk_heterogeneous_economy()
    full = heterogeneous_equilibrium(econ)
    assert full.method == "tatonnement"
    monkeypatch.setattr(eqm, "MAX_TATONNEMENT", 2)
    res = heterogeneous_equilibrium(econ)
    assert res.method == "tatonnement+root"
    assert res.residuals["h_inf"] < 1e-10
    assert np.max(np.abs(np.array(res.lambdas) - np.array(full.lambdas))) < 1e-9


def test_one_agent_root_finding_fallback(monkeypatch):
    # with no tatonnement step, one agent reaches hybr with no unknowns: the
    # weight stays 1 and the final excess-demand check accepts it
    import habitree.equilibrium as eqm

    base = gi.example_iid_economy(beta=0.2, horizon=2).tree_economy()
    hom = homogeneous_spd(base)
    monkeypatch.setattr(eqm, "MAX_TATONNEMENT", 0)
    res = heterogeneous_equilibrium(base)
    assert res.method == "tatonnement+root"
    assert res.lambdas == (1.0,)
    assert np.max(np.abs(res.M.values - hom.M.values)) < 1e-12


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_heterogeneous_equilibrium_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance"):
        heterogeneous_equilibrium(gi.desk_heterogeneous_economy(), tol=tol)


@pytest.mark.parametrize("beta", [0.0, 0.3])
def test_economy_surplus_matches_one_step_habit(beta):
    # reference: the per-depth eps_k - beta eps_{k-1} that the habit map replaced
    rng = np.random.default_rng(41)
    for _ in range(10):
        tree = gi.random_tree(rng, max_depth=4)
        eps = AdaptedProcess(tree, tree.horizon, rng.uniform(0.5, 2.0, size=tree.n_nodes))
        econ = EconomySpec(tree, beta, (EconomyAgent(2.0, 0.0, eps),))
        ref = [eps.at_depth(0).copy()]
        for k in range(1, tree.horizon + 1):
            ref.append(eps.at_depth(k) - beta * eps.values[tree.parent[tree.depth_nodes[k]]])
        assert np.array_equal(econ.node_surplus, np.concatenate(ref))


def _demand_loops(economy, lam, gtilde):
    """The per-depth g, consumption and budget loops excess_demand replaced
    (reference): g_k = gtilde_k - beta E[gtilde_{k+1} | G_k], then
    c_k = beta c_{k-1} + surplus_k per agent, with the surplus raised by
    numpy powers as in the source, then the budget gaps h summed depth by
    depth.  Returns flat g, the consumptions, h, and per agent the sum of
    the gap's absolute terms over lam_i (which bounds h's rounding)."""
    tree, T, beta = economy.tree, economy.tree.horizon, economy.beta
    gtilde = [gtilde[nodes] for nodes in tree.depth_nodes]
    g = [None] * (T + 1)
    for k in range(T, -1, -1):
        g[k] = gtilde[k] if k == T else \
            gtilde[k] - beta * cond_expectation_arrays(tree, gtilde[k + 1], k + 1, k)
    consumptions = []
    for i, a in enumerate(economy.agents):
        coef = _power(lam[i], 1.0 / a.gamma)
        surp = [coef * economy.discount_g[i, tree.depth_nodes[k]]
                * np.power(gtilde[k], np.full(len(gtilde[k]), -1.0 / a.gamma))
                for k in range(T + 1)]
        slices = [surp[0]]
        for k in range(1, T + 1):
            slices.append(beta * slices[k - 1][tree.parent_pos(k)] + surp[k])
        consumptions.append(np.concatenate(slices))
    p = tree.probabilities()
    h, size = np.zeros(economy.n_agents), np.zeros(economy.n_agents)
    for i, a in enumerate(economy.agents):
        for k, nodes in enumerate(tree.depth_nodes):
            terms = p[nodes] * g[k] * (consumptions[i][nodes] - a.endowment.at_depth(k))
            h[i] += float(np.sum(terms))
            size[i] += float(np.sum(np.abs(terms)))
    h, size = h / lam, size / lam
    return np.concatenate(g), consumptions, h, size


def _random_tree_economy(rng, n_agents, beta):
    """Agents on a random tree whose endowments grow by half per period."""
    tree = gi.random_tree(rng, max_depth=4)
    growth = 1.5 ** tree.depth
    agents = tuple(EconomyAgent(float(rng.choice([0.5, 1.5, 2.0, 3.0])), float(rng.uniform(0, 0.1)),
                                AdaptedProcess(tree, tree.horizon,
                                               growth * rng.uniform(1.0, 2.0, size=tree.n_nodes)))
                   for _ in range(n_agents))
    return EconomySpec(tree, beta, agents)


def test_excess_demand_matches_per_depth_loops():
    rng = np.random.default_rng(42)
    economies = [gi.desk_heterogeneous_economy()]
    economies += [_random_tree_economy(rng, int(rng.integers(2, 4)), beta)
                  for beta in (0.0, 0.1, 0.3) for _ in range(10)]
    checked = 0
    for economy in economies:
        lam = rng.uniform(0.2, 2.0, size=economy.n_agents)
        try:
            system = excess_demand(economy, lam)
        except ConditionError:
            continue
        g, consumptions, h, size = _demand_loops(economy, lam, system.gtilde)
        assert np.array_equal(system.g, g)
        assert system.consumptions.shape == (economy.n_agents, economy.tree.n_nodes)
        assert all(np.array_equal(c, ref) for c, ref in zip(system.consumptions, consumptions))
        # the one product sums in another order: both sums are within
        # n eps sum|terms| of the exact one
        n_eps = economy.tree.n_nodes * np.finfo(float).eps
        assert np.all(np.abs(system.h - h) <= 2.0 * n_eps * size)
        checked += 1
    assert checked > 20


def _homogeneous_loops(economy):
    """homogeneous_conditions' per-depth margins and homogeneous_spd's
    denom/slices code, which the habit adjoint replaced (reference)."""
    tree, T = economy.tree, economy.tree.horizon
    a = economy.agents[0]
    beta, g, rho = economy.beta, a.gamma, a.rho
    s = [economy.node_surplus[nodes] for nodes in tree.depth_nodes]
    foc_margin = suff_margin = math.inf
    for k in range(1, T + 1):
        lhs = s[k - 1] ** (-g)
        rhs = beta * math.exp(-rho) * cond_expectation_arrays(tree, s[k] ** (-g), k, k - 1)
        foc_margin = min(foc_margin, float(np.min(lhs - rhs)))
        suff = s[k] - beta ** (1.0 / g) * math.exp(-rho / g) * s[k - 1][tree.parent_pos(k)]
        suff_margin = min(suff_margin, float(np.min(suff)))
    spow = [sk ** (-g) for sk in s]
    denom = float(spow[0][0]) - beta * math.exp(-rho) * float(
        np.sum(tree.trans_prob[tree.depth_nodes[1]] * spow[1])) if T >= 1 else float(spow[0][0])
    slices = [np.array([1.0])]
    for k in range(1, T + 1):
        if k < T:
            num = spow[k] - beta * math.exp(-rho) * cond_expectation_arrays(tree, spow[k + 1], k + 1, k)
        else:
            num = spow[T]
        slices.append(math.exp(-rho * k) * num / denom)
    return foc_margin, suff_margin, np.concatenate(slices)


def test_homogeneous_spd_matches_per_depth_loops():
    rng = np.random.default_rng(43)
    economies = [gi.example_iid_economy(beta=0.1, horizon=h).tree_economy() for h in (1, 3, 6)]
    economies += [_random_tree_economy(rng, 1, beta) for beta in (0.0, 0.1, 0.3) for _ in range(10)]
    checked = 0
    for economy in economies:
        foc_margin, suff_margin, M = _homogeneous_loops(economy)
        report = homogeneous_conditions(economy)
        assert (report.foc_margin, report.sufficient_margin) == (foc_margin, suff_margin)
        if report.holds:
            assert np.array_equal(homogeneous_spd(economy).M.values, M)
            checked += 1
    assert checked > 20


def test_static_foc_residual_is_infinite_at_a_non_finite_ratio():
    from habitree.equilibrium import _static_foc_residual

    econ = gi.desk_heterogeneous_economy()
    res = homogeneous_spd(EconomySpec(econ.tree, econ.beta, (EconomyAgent(
        2.0, 0.0, econ.aggregate),)))
    Mt = res.Mtilde.values.copy()
    assert _static_foc_residual(econ.tree, res.Mtilde, econ.aggregate, econ.beta, 2.0, 0.0) < 1e-12
    for bad in (math.nan, math.inf):
        Mt[-1] = bad
        with np.errstate(invalid="ignore"):
            assert _static_foc_residual(econ.tree, AdaptedProcess(econ.tree, econ.tree.horizon,
                                                                  Mt.copy()),
                                        econ.aggregate, econ.beta, 2.0, 0.0) == math.inf


def test_nan_moment_margin_is_a_failure():
    # every s^-gamma overflows at endowments x 1e-120, so each per-depth
    # margin is inf - inf = NaN; folded with min() it once read as inf
    desk = gi.desk_heterogeneous_economy(gammas=(3.0, 3.0))
    tree = desk.tree
    agents = tuple(EconomyAgent(a.gamma, a.rho, AdaptedProcess(tree, tree.horizon,
                                                               1e-120 * a.endowment.values))
                   for a in desk.agents)
    with np.errstate(over="ignore", invalid="ignore"):
        report = heterogeneous_conditions(EconomySpec(tree, desk.beta, agents))
    assert report.foc_margin == -math.inf
    assert not report.holds


# -- constructor checks ------------------------------------------------------------


def _schema_error(build):
    with pytest.raises(SchemaError) as info:
        build()
    return info.value.field, str(info.value)


@pytest.mark.parametrize("gamma,values,field,message", [
    (0.0, [1.0, 1.0], "gamma", "power utility needs gamma > 0 and gamma != 1"),
    (1.0, [1.0, 1.0], "gamma", "power utility needs gamma > 0 and gamma != 1"),
    (2.0, [1.0, math.inf], "endowment", "endowments must be finite"),
    (2.0, [1.0, -0.5], "endowment", "endowments must be nonnegative"),
], ids=["gamma-zero", "gamma-one", "endowment-inf", "endowment-negative"])
def test_economy_agent_checks(gamma, values, field, message):
    tree = EventTree.single_path(1)
    got = _schema_error(lambda: EconomyAgent(gamma, 0.0, AdaptedProcess(tree, 1, np.array(values))))
    assert got == (field, f"{field}: {message}")


def _economy_args(change):
    tree = EventTree.uniform(1, 2)
    args = {"tree": tree, "beta": 0.1,
            "agents": [EconomyAgent(2.0, 0.0, AdaptedProcess.constant(tree, 1.0))]}
    change(args)
    return args


@pytest.mark.parametrize("change,field,message", [
    (lambda a: a.update(beta=-0.1), "beta", "habit coefficient must be nonnegative"),
    (lambda a: a.update(agents=[]), "agents", "need at least one agent"),
    (lambda a: a.update(agents=[EconomyAgent(2.0, 0.0, AdaptedProcess.constant(
        EventTree.uniform(1, 2), 1.0))]),
     "agents.endowment", "endowments must live on the economy tree"),
    (lambda a: a.update(agents=[EconomyAgent(2.0, 0.0, AdaptedProcess(
        a["tree"], 1, np.array([1.0, 0.0, 1.0])))]),
     "agents.endowment", "aggregate endowment must be strictly positive"),
], ids=["beta-negative", "no-agents", "other-tree", "aggregate-zero"])
def test_economy_spec_checks(change, field, message):
    args = _economy_args(change)
    got = _schema_error(lambda: EconomySpec(args["tree"], args["beta"], args["agents"]))
    assert got == (field, f"{field}: {message}")


@pytest.mark.parametrize("change,field,message", [
    (dict(support=()), "support", "empty growth distribution"),
    (dict(support=((1.1, 0.5), (1.2, 0.4))), "support", "probabilities must sum to 1"),
    (dict(support=((1.1, 1.5), (1.2, -0.5))), "support", "probabilities must be positive"),
    (dict(gamma=-2.0), "gamma", "power utility needs gamma > 0 and gamma != 1"),
    (dict(horizon=0), "horizon", "need at least one period"),
], ids=["empty", "sum", "negative-probability", "gamma", "horizon"])
def test_iid_economy_checks(change, field, message):
    args = dict(support=((1.1, 0.5), (1.2, 0.5)), gamma=2.0, rho=0.0, beta=0.0, horizon=2)
    args.update(change)
    assert _schema_error(lambda: IIDEconomy(**args)) == (field, f"{field}: {message}")
