"""Large-initial-endowment behavior of the propensity to consume.

Power utility scales: c_k(t * eps) = t * c_k(eps).  Fixing eps_1..eps_T and
sending eps_0 to infinity, the ratios c_k(eps_0)/eps_0 and W_k(eps_0)/eps_0
converge nodewise to the solution of the artificial problem with endowment
(1, 0, ..., 0); for markets with a deterministic rate (or idiosyncratic
structure) the error decays like 1/eps_0.  This module computes the
artificial solution, runs the sweep, fits the decay rate, and checks the
habit-chain lower floors on consumption/wealth ratios.

A sweep solves the artificial problem and every grid point in one
:func:`~habitree.optimizer.solve_endowments` call, so an incomplete market's
maps are built once.  The optimizer normalizes each endowment to unit
present value, and in those coordinates the grid endowments converge to
(1, 0, ..., 0) as eps_0 grows; by the limit above, so do their optimal
wealth coordinates, to the artificial optimum theta*.  Each grid solve
therefore starts at theta*, which is near its optimum on the large-eps_0
end of the grid, wherever every habit surplus is positive there.  The
artificial problem, and any grid point where theta* is not strictly
feasible, start at a plan that trades only the bond account, or at the
phase-1 LP's point when that plan is not strictly feasible either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .market import MarketSpec
from .optimizer import FOC_TOL, AgentSpec, SolveResult, solve_consumption, solve_endowments
from .tree import AdaptedProcess, cond_expectation_arrays


def unit_initial_endowment(agent: AgentSpec) -> AgentSpec:
    """Same preferences, endowment replaced by (1, 0, ..., 0)."""
    tree = agent.endowment.tree
    vals = np.zeros(tree.n_nodes)
    vals[0] = 1.0
    return AgentSpec(agent.gamma, agent.rho, agent.habits.copy(),
                     AdaptedProcess(tree, tree.horizon, vals))


def artificial_solution(market: MarketSpec, agent: AgentSpec) -> SolveResult:
    """Optimal plan for the unit-initial/zero-later endowment; the nodewise
    limit of the scaled plans.  Self-financing then reads
    c*_k = W*_k - E[(M_{k+1}/M_k) W*_{k+1} | G_k], c*_0 = 1 - E[M_1 W*_1],
    and consumption and wealth stay strictly positive."""
    return solve_consumption(market, unit_initial_endowment(agent))


def habit_chain_floors(habits: np.ndarray) -> np.ndarray:
    """alpha_k: sum over strictly decreasing index chains k -> ... -> 0 of the
    products of habit coefficients along the chain (beta^k for static habits).
    Lower floors for c_k/c_0 at large initial endowment; alpha_0 = 0 (the
    period-0 floor is plain positivity)."""
    # w[0] = 1 is the empty chain; rows come in k order, so each w[l] is final
    w = np.zeros(habits.shape[0])
    w[0] = 1.0
    for k, l in zip(*np.nonzero(habits)):
        w[k] += habits[k, l] * w[l]
    w[0] = 0.0
    return w


@dataclass
class AsymptoticsReport:
    cstar: AdaptedProcess
    Wstar: AdaptedProcess
    sweep: list                  # rows (eps0, err_c, err_W)
    fitted_rate: float
    alpha_lower: np.ndarray

    def errors_decreasing(self) -> bool:
        """Strictly decreasing error column beyond the first grid point."""
        errs = [row[1] for row in self.sweep]
        return all(b < a for a, b in zip(errs[1:], errs[2:]))


def check_eps0_grid(eps0_grid: Sequence[float]) -> list:
    """The grid as floats; ValueError unless it has at least 4 points,
    starts above 0, increases and spans at least 3 decades."""
    grid = [float(e) for e in eps0_grid]
    if len(grid) < 4 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("need an increasing eps_0 grid with at least 4 points")
    if grid[0] <= 0.0:
        raise ValueError("eps_0 must be positive")
    if grid[-1] / grid[0] < 1e3:
        raise ValueError("grid should span at least 3 decades")
    return grid


def propensity_sweep(market: MarketSpec, agent: AgentSpec, eps0_grid: Sequence[float],
                     tol: float = FOC_TOL) -> AsymptoticsReport:
    """Solve along an increasing eps_0 grid (agent's eps_1..eps_T fixed) and
    measure max-node gaps between scaled plans and the artificial solution.

    The artificial problem is solved first, then every grid point, all on
    one market problem; on an incomplete market each grid solve starts at
    the artificial optimum theta* (the limit of the grid optima at unit
    present value) when every habit surplus is positive there, and
    otherwise where a lone solve would start.  Every solve must meet the
    first-order tolerance ``tol`` (ConvergenceError otherwise).

    The decay rate is fitted by least squares on the log-log tail (last three
    grid points; the transient at small eps_0 contaminates the slope).
    """
    grid = check_eps0_grid(eps0_grid)
    endowments = [unit_initial_endowment(agent).endowment.values]
    for e0 in grid:
        vals = agent.endowment.values.copy()
        vals[0] = e0
        endowments.append(vals)
    star, *solved = solve_endowments(market, agent, endowments, tol)
    tree = market.tree
    rows = []
    for e0, r in zip(grid, solved):
        err_c = float(np.max(np.abs(r.c.values / e0 - star.c.values)))
        w_nodes = slice(1, tree.n_nodes)
        err_w = float(np.max(np.abs(r.W.values[w_nodes] / e0 - star.W.values[w_nodes]))) \
            if tree.horizon > 0 else 0.0
        rows.append((e0, err_c, err_w))
    tail = rows[-3:]
    x = np.log([t[0] for t in tail])
    y = np.log([max(t[1], 1e-300) for t in tail])
    slope = float(np.polyfit(x, y, 1)[0])
    return AsymptoticsReport(star.c, star.W, rows, slope,
                             habit_chain_floors(agent.habits))


@dataclass
class FloorsReport:
    alpha: np.ndarray
    consumption_margins: list     # per depth k: min over nodes of c_k/c_0 - alpha_k
    wealth_margins: list          # per depth k>=1: min of W_k/c_0 - alpha_T E[M_T/M_k|G_k]
    ok: bool
    violations: tuple


def check_ratio_floors(market: MarketSpec, agent: AgentSpec, result: SolveResult) -> FloorsReport:
    """Check the habit-chain floors on a solved plan (meant for the largest
    grid point of a sweep): c_k/c_0 > alpha_k nodewise and
    W_k/c_0 > alpha_T E[M_T/M_k | G_k] nodewise.  Report-only."""
    tree = market.tree
    T = tree.horizon
    alpha = habit_chain_floors(agent.habits)
    c0 = float(result.c.at_depth(0)[0])
    M = market.spd
    cons_margins, wealth_margins, violations = [], [], []
    mT = M.at_depth(T)
    for k in range(T + 1):
        margin = float(np.min(result.c.at_depth(k) / c0 - alpha[k]))
        cons_margins.append(margin)
        if margin <= 0.0:
            violations.append(("consumption", k))
        if k >= 1:
            emt = cond_expectation_arrays(tree, mT, T, k) / M.at_depth(k)
            wmargin = float(np.min(result.W.at_depth(k) / c0 - alpha[T] * emt))
            wealth_margins.append(wmargin)
            if wmargin <= 0.0:
                violations.append(("wealth", k))
    return FloorsReport(alpha, cons_margins, wealth_margins,
                        not violations, tuple(violations))
