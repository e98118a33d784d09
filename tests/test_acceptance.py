"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, none deferred.
"""

import math
import time

import numpy as np
import pytest

import habitree.instances as gi
from habitree import (
    AdaptedProcess,
    AgentSpec,
    EconomyAgent,
    EconomySpec,
    IIDEconomy,
    beta_sensitivity,
    bond_derivative_beta,
    bond_price,
    brute_force_oracle,
    check_sandwich,
    heterogeneous_equilibrium,
    homogeneous_spd,
    long_run_yield,
    lucas_longrun,
    lucas_price,
    propensity_sweep,
    solve_consumption,
    static_habit_matrix,
)


def report(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def printed_interest_curve(beta: float) -> float:
    a = (3.0 - beta) ** -2 + (4.0 - beta) ** -2
    return a / (2.0 - beta * a)


def printed_lucas_curve(beta: float) -> float:
    num = (3.0 - 7.0 * beta / 24.0) * (3.0 - beta) ** -2 \
        + (4.0 - 7.0 * beta / 24.0) * (4.0 - beta) ** -2
    return (24.0 / 17.0) * num / (2.0 - beta * ((3.0 - beta) ** -2 + (4.0 - beta) ** -2))


def test_criterion_1_interest_rate_endpoints():
    t0 = time.monotonic()
    econ = gi.example_iid_economy(horizon=1)
    r0 = bond_price(econ.with_beta(0.0), 0, 1)
    r1 = bond_price(econ.with_beta(1.0), 0, 1)
    elapsed = time.monotonic() - t0
    ok = (abs(r0 - 25.0 / 288.0) < 1e-12
          and abs(r1 - 13.0 / 59.0) < 1e-12
          and abs(r0 - printed_interest_curve(0.0)) < 1e-12
          and abs(r1 - printed_interest_curve(1.0)) < 1e-12
          and abs(r0 - 0.087) < 5e-3
          and abs(r1 - 0.22) < 5e-3
          and elapsed < 1.0)
    report(1, ok, f"bond endpoints {r0:.7f}/{r1:.7f} vs 25/288, 13/59; {elapsed * 1e3:.0f} ms")


def test_criterion_2_lucas_endpoints():
    t0 = time.monotonic()
    econ = gi.example_iid_economy(horizon=1)
    s0 = lucas_longrun(econ.with_beta(0.0))
    s1 = lucas_longrun(econ.with_beta(1.0))
    finite0 = lucas_price(IIDEconomy(econ.support, econ.gamma, econ.rho, 0.0, 50), 0, 50)
    finite1 = lucas_price(IIDEconomy(econ.support, econ.gamma, econ.rho, 1.0, 50), 0, 50)
    elapsed = time.monotonic() - t0
    ok = (abs(s0 - 7.0 / 17.0) < 1e-12
          and abs(s0 - printed_lucas_curve(0.0)) < 1e-12
          and abs(s1 - printed_lucas_curve(1.0)) < 1e-12
          and abs(s1 - 0.93814) < 1e-4      # the criterion's stated numeric, see note
          and abs(s0 - finite0) < 1e-9
          and abs(s1 - finite1) < 1e-9
          and abs(s0 - 0.41) < 5e-3
          and elapsed < 5.0)
    report(2, ok, f"Lucas endpoints {s0:.7f}/{s1:.7f}; T=50 gaps "
                  f"{abs(s0 - finite0):.1e}/{abs(s1 - finite1):.1e}; {elapsed * 1e3:.0f} ms "
                  f"(the figure's 0.93 label is a truncation of {s1:.6f}; see xfail test)")


@pytest.mark.xfail(strict=True, reason=(
    "criterion 2's literal 'within 5e-3 of label 0.93' is unattainable: the "
    "printed long-run formula gives 0.938185... at beta=1 (the figure's own "
    "dashed line sits at 0.9381 and the label truncates it to 0.93), so the "
    "gap is 8.2e-3 for any correct implementation"))
def test_criterion_2_literal_label_clause():
    s1 = lucas_longrun(gi.example_iid_economy(beta=1.0, horizon=1))
    assert abs(s1 - 0.93) < 5e-3


def test_criterion_3_beta_sensitivity():
    econ = gi.example_iid_economy(horizon=1)
    grid = [i / 100.0 for i in range(101)]
    bond_rep = beta_sensitivity(
        lambda b: bond_price(econ.with_beta(b), 0, 1), grid,
        analytic_derivative=lambda b: bond_derivative_beta(econ, 1, b, order=1),
        analytic_second=lambda b: bond_derivative_beta(econ, 1, b, order=2))
    lucas_rep = beta_sensitivity(lambda b: lucas_longrun(econ.with_beta(b)), grid)
    ok = (bond_rep.increasing and bond_rep.convex and lucas_rep.increasing
          and lucas_rep.convex and bond_rep.derivative_positive
          and bond_rep.second_derivative_positive
          and bond_rep.max_derivative_rel_gap < 1e-6)
    report(3, ok, f"both 101-point curves increasing+convex; bond derivative vs "
                  f"centered FD rel gap {bond_rep.max_derivative_rel_gap:.1e}")


def test_criterion_4_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260809)
    worst_u = worst_c = 0.0
    for i in range(50):
        tree = gi.random_tree(rng, max_depth=3, max_children=3, min_depth=1)
        kind = i % 3
        if kind == 0:
            market = gi.random_complete_market(rng, tree)
        elif kind == 1:
            market = gi.random_general_market(rng, tree)
        else:
            market = gi.random_classC_market(rng, tree)
        agent = gi.random_agent(rng, tree, beta_max=0.3)
        foc = solve_consumption(market, agent)
        oracle = brute_force_oracle(market, agent)
        worst_u = max(worst_u, abs(foc.utility - oracle.utility))
        worst_c = max(worst_c, float(np.max(np.abs(foc.c.values - oracle.c.values))))
    elapsed = time.monotonic() - t0
    ok = worst_u < 1e-8 and worst_c < 1e-6 and elapsed < 60.0
    report(4, ok, f"50 instances: max |u_FOC - u_oracle| = {worst_u:.2e}, "
                  f"max nodewise c gap = {worst_c:.2e}, {elapsed:.1f} s")


def test_criterion_5_sandwich_bounds():
    rng = np.random.default_rng(5150)
    worst_slack = math.inf
    for _ in range(100):
        market, agent = gi.random_bound_instance(rng)
        result = solve_consumption(market, agent, tol=1e-11)
        rep = check_sandwich(market, agent, result)
        worst_slack = min(worst_slack, rep.min_slack())
    # tightness on a deterministic market
    det = gi.deterministic_market(3, 0.05)
    agent = AgentSpec(2.0, 0.02, static_habit_matrix(0.2, 3),
                      AdaptedProcess(det.tree, 3, np.array([1.0, 1.2, 1.1, 0.9])))
    det_rep = check_sandwich(det, agent, solve_consumption(det, agent, tol=1e-12))
    det_width = max(abs(r.slack) for r in det_rep.rows)
    ok = worst_slack >= -1e-9 and det_width < 1e-9
    report(5, ok, f"100 instances: min slack {worst_slack:.2e} (>= -1e-9); "
                  f"deterministic market max |slack| {det_width:.2e}")


def test_criterion_6_asymptotic_rates():
    grid = [1e1, 1e2, 1e3, 1e4, 1e5]
    rng = np.random.default_rng(606)
    tree = gi.random_tree(rng, min_depth=2)
    det_market = gi.random_classC_market(rng, tree, deterministic_rate=True)
    det_agent = gi.random_agent(rng, tree, static=True)   # eps_{1..T} > 0 by construction
    det_rep = propensity_sweep(det_market, det_agent, grid)

    tree2 = gi.random_tree(rng, min_depth=2, max_children=3)
    gen_market = gi.random_general_market(rng, tree2)
    gen_agent = gi.random_agent(rng, tree2)
    gen_rep = propensity_sweep(gen_market, gen_agent, grid)
    ok = (-1.1 < det_rep.fitted_rate < -0.9
          and gen_rep.errors_decreasing()
          and gen_rep.sweep[-1][1] < 1e-4)
    report(6, ok, f"deterministic-rate log-log slope {det_rep.fitted_rate:.4f} in [-1.1,-0.9]; "
                  f"general market error decreasing, {gen_rep.sweep[-1][1]:.2e} at 1e5")


def test_criterion_7_homogeneous_feedback():
    econ = gi.example_iid_economy(beta=0.4, horizon=2, rho=0.02).tree_economy()
    market = gi.market_from_homogeneous(econ)
    agent = AgentSpec(2.0, 0.02, 0.4, econ.aggregate)
    res = solve_consumption(market, agent, tol=1e-12)
    gap_c = float(np.max(np.abs(res.c.values - econ.aggregate.values)))

    rho = 0.03
    econ0 = gi.example_iid_economy(beta=0.0, horizon=2, rho=rho).tree_economy()
    eq0 = homogeneous_spd(econ0)
    tree = econ0.tree
    closed = np.exp(-rho * tree.depth) * (econ0.aggregate.values / econ0.aggregate.values[0]) ** -2.0
    gap_m = float(np.max(np.abs(eq0.M.values - closed)))
    ok = gap_c < 1e-8 and gap_m < 1e-12
    report(7, ok, f"optimizer returns c = aggregate endowment within {gap_c:.2e}; "
                  f"beta=0 SPD matches e^(-rho k)(eps_k/eps_0)^(-gamma) within {gap_m:.2e}")


def test_criterion_8_heterogeneous_equilibrium():
    details = []
    ok = True
    for econ in (gi.desk_heterogeneous_economy(),
                 gi.desk_heterogeneous_economy(beta=0.2, shares=(0.35, 0.65),
                                               gammas=(2.0, 3.0), rhos=(0.0, 0.05))):
        t0 = time.monotonic()
        res = heterogeneous_equilibrium(econ)
        elapsed = time.monotonic() - t0
        ok &= (res.method == "tatonnement"
               and res.residuals["h_inf"] < 1e-10
               and all(abs(w) < 1e-10 for w in res.walras_history)
               and elapsed < 30.0)
        details.append(f"h_inf={res.residuals['h_inf']:.1e} in {res.iterations} its, "
                       f"{elapsed:.2f}s")

    base = gi.example_iid_economy(beta=0.2, horizon=2).tree_economy()
    hom = homogeneous_spd(base)
    n1 = heterogeneous_equilibrium(base)
    half = AdaptedProcess(base.tree, base.tree.horizon, 0.5 * base.aggregate.values)
    twin = EconomySpec(base.tree, 0.2, (EconomyAgent(2.0, 0.0, half),
                                        EconomyAgent(2.0, 0.0, half)))
    n2 = heterogeneous_equilibrium(twin)
    gap1 = float(np.max(np.abs(n1.M.values - hom.M.values)))
    gap2 = float(np.max(np.abs(n2.M.values - hom.M.values)))
    ok &= gap1 < 1e-9 and gap2 < 1e-9
    report(8, ok, f"desk instances: {'; '.join(details)}; N=1 gap {gap1:.1e}, "
                  f"identical-pair gap {gap2:.1e}")


def test_criterion_9_long_run_yield():
    econ = gi.example_iid_economy(beta=1.0, horizon=1)
    target = long_run_yield(econ)
    gaps = []
    for T in (10, 20, 50):
        e = IIDEconomy(econ.support, econ.gamma, econ.rho, econ.beta, T)
        y = -math.log(bond_price(e, 0, T)) / T
        gaps.append(abs(y - target))
    ok = gaps[0] > gaps[1] > gaps[2] and gaps[2] < 2e-2
    report(9, ok, f"yield gaps over T=10/20/50: {gaps[0]:.3e} > {gaps[1]:.3e} > "
                  f"{gaps[2]:.3e} < 2e-2 (habit-free limit rho - log E[X^-gamma])")
