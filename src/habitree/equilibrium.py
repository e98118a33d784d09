"""Arrow-Debreu equilibria under last-period habits in complete markets.

Every agent in the economy carries the same static habit coefficient beta;
the market is complete, so the equilibrium is an SPD plus consumption
processes that clear the market period by period.

* Homogeneous (one type): the SPD has a closed form driven by the
  habit-adjusted aggregate surpluses; existence is equivalent to two
  nodewise inequalities on the endowment.
* Geometric-random-walk endowments: zero-coupon bonds and the Lucas tree
  (equity paying the aggregate endowment) reduce to moment formulas in the
  growth distribution; both are increasing convex in beta, with an analytic
  bond derivative.
* Heterogeneous: inverting the aggregated first-order conditions node by
  node yields candidate SPDs g(lambda) for any positive agent weights; a
  damped multiplicative tatonnement on the excess demand h drives the budget
  gaps to zero on the unit simplex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConditionError, ConvergenceError, SchemaError
from .market import (consumption_from_surplus, habit_adjoint, habit_surplus, perturbed_spd,
                     static_habit_matrix)
from .tree import AdaptedProcess, EventTree, cond_expectation_arrays

WEIGHT_TOL = 1e-10          # target sup-norm of the excess demand
MARGIN_TOL = 1e-10          # strictness margin for existence conditions
MAX_TATONNEMENT = 500
MAX_WEIGHT_PASSES = 200     # Newton passes of the weight-equation solve
FD_STEP = 1e-5              # finite-difference step of beta_sensitivity

@dataclass
class EconomyAgent:
    gamma: float
    rho: float
    endowment: AdaptedProcess

    def __post_init__(self):
        for name in ("gamma", "rho"):
            if not math.isfinite(getattr(self, name)):
                raise SchemaError(name, "must be a finite number")
        if self.gamma <= 0.0 or self.gamma == 1.0:
            raise SchemaError("gamma", "power utility needs gamma > 0 and gamma != 1")
        if not np.all(np.isfinite(self.endowment.values)):
            raise SchemaError("endowment", "endowments must be finite")
        if np.any(self.endowment.values < 0.0):
            raise SchemaError("endowment", "endowments must be nonnegative")


@dataclass
class EconomySpec:
    """Complete-market economy: one tree, one common static habit beta, and
    agents differing in risk aversion, impatience and endowments."""

    tree: EventTree
    beta: float
    agents: tuple

    def __post_init__(self):
        self.agents = tuple(self.agents)
        if not math.isfinite(self.beta):
            raise SchemaError("beta", "must be a finite number")
        if self.beta < 0.0:
            raise SchemaError("beta", "habit coefficient must be nonnegative")
        if not self.agents:
            raise SchemaError("agents", "need at least one agent")
        T = self.tree.horizon
        for a in self.agents:
            if a.endowment.depth != T or a.endowment.tree is not self.tree:
                raise SchemaError("agents.endowment", "endowments must live on the economy tree")
        self.endowments = np.array([a.endowment.values for a in self.agents])
        agg = self.endowments.sum(axis=0)
        if np.any(agg <= 0.0):
            raise SchemaError("agents.endowment", "aggregate endowment must be strictly positive")
        self.aggregate = AdaptedProcess(self.tree, T, agg)
        self.habits = static_habit_matrix(self.beta, T)
        # constants of the weight equation that excess_demand solves at every
        # node: the aggregate habit surplus per node, the gammas as a column,
        # and per agent and node e^{-rho_i k} and e^{-(rho_i/g_i) k} (k the depth)
        self.node_surplus = habit_surplus(self.tree, self.habits, agg)
        self.surplus_min = float(np.min(self.node_surplus))
        self.gammas = np.array([[a.gamma] for a in self.agents])
        depth = self.tree.depth
        self.discount = np.array([[math.exp(-a.rho * k) for k in range(T + 1)]
                                  for a in self.agents])[:, depth]
        self.discount_g = np.array([[math.exp(-(a.rho / a.gamma) * k) for k in range(T + 1)]
                                    for a in self.agents])[:, depth]

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    # built on first use: every tatonnement step reads these, the closed form never does
    @cached_property
    def probabilities(self) -> np.ndarray:
        """Unconditional node probabilities."""
        return self.tree.probabilities()

    @cached_property
    def surplus_powers(self) -> np.ndarray:
        """s^{-g_i} per agent and node for the aggregate habit surplus s."""
        return self.node_surplus ** -self.gammas


@dataclass
class EquilibriumResult:
    M: AdaptedProcess
    Mtilde: AdaptedProcess
    lambdas: tuple
    consumptions: tuple
    residuals: dict
    walras_history: tuple = ()
    iterations: int = 0
    method: str = "closed-form"


@dataclass
class ConditionsReport:
    holds: bool
    surplus_margin: float        # min of eps_k - beta*eps_{k-1}
    foc_margin: float            # min of the conditional-moment inequality
    sufficient_margin: float     # min margin of the one-step sufficient condition
    near_boundary: bool


def homogeneous_conditions(economy: EconomySpec) -> ConditionsReport:
    """Existence conditions for the one-type equilibrium: positive aggregate
    surpluses and the conditional-moment inequality
    (eps_{k-1}-beta*eps_{k-2})^-g > beta e^-rho E[(eps_k-beta*eps_{k-1})^-g|G_{k-1}],
    plus the simpler sufficient condition
    eps_k > beta*eps_{k-1} + beta^{1/g} e^{-rho/g} (eps_{k-1}-beta*eps_{k-2})."""
    if economy.n_agents != 1:
        raise ConditionError("homogeneous analysis needs exactly one agent type")
    tree = economy.tree
    agent = economy.agents[0]
    beta, g, rho = economy.beta, agent.gamma, agent.rho
    s = economy.node_surplus
    surplus_margin = economy.surplus_min
    if surplus_margin > 0.0:
        foc_margin = float(np.min(_moment_terms(economy)[:tree.n_upto(tree.horizon - 1)],
                                  initial=math.inf))      # depths 0..T-1
        suff = s[1:] - beta ** (1.0 / g) * math.exp(-rho / g) * s[tree.parent[1:]]
        suff_margin = float(np.min(suff, initial=math.inf))
    else:
        foc_margin = -math.inf
        suff_margin = -math.inf
    holds = surplus_margin > MARGIN_TOL and foc_margin > MARGIN_TOL
    near = holds and min(surplus_margin, foc_margin) <= 100 * MARGIN_TOL
    return ConditionsReport(holds, surplus_margin, foc_margin, suff_margin, near)


def _moment_terms(economy: EconomySpec) -> np.ndarray:
    """s_k^-g - beta e^-rho E[s_{k+1}^-g | G_k] per node (s_T^-g at depth T)
    for the aggregate surplus s of a one-type economy: the habit adjoint with
    beta e^-rho on the subdiagonal."""
    tree = economy.tree
    agent = economy.agents[0]
    habits = static_habit_matrix(economy.beta * math.exp(-agent.rho), tree.horizon)
    return habit_adjoint(tree, habits, economy.node_surplus ** (-agent.gamma))


def homogeneous_spd(economy: EconomySpec) -> EquilibriumResult:
    """Closed-form equilibrium SPD of the one-type economy.

    M_k = e^{-rho k} ((s_k)^-g - beta e^-rho E[(s_{k+1})^-g | G_k]) / denom
    with s_k the aggregate surplus, the k = T term dropping the continuation,
    and denom normalizing M_0 = 1.  Market clearing consumption is the
    endowment itself; its first-order conditions under the perturbed SPD hold
    exactly and are reported as a residual.
    """
    report = homogeneous_conditions(economy)
    if not report.holds:
        raise ConditionError(
            f"equilibrium existence conditions fail: surplus margin "
            f"{report.surplus_margin:.3e}, moment margin {report.foc_margin:.3e}")
    tree = economy.tree
    agent = economy.agents[0]
    beta, g, rho = economy.beta, agent.gamma, agent.rho
    eps = economy.aggregate
    T = tree.horizon
    num = _moment_terms(economy)
    discount = np.array([math.exp(-rho * k) for k in range(T + 1)])
    M = AdaptedProcess(tree, T, discount[tree.depth] * num / num[0])
    if np.any(M.values <= 0.0):
        raise ConditionError("closed-form SPD not strictly positive; conditions violated numerically")
    Mt = perturbed_spd(M, beta)
    res = _static_foc_residual(tree, Mt, eps, beta, g, rho)
    return EquilibriumResult(
        M=M, Mtilde=Mt, lambdas=(1.0,), consumptions=(eps,),
        residuals={"clearing": 0.0, "budget": 0.0, "foc": res, "h_inf": 0.0})


def _static_foc_residual(tree: EventTree, Mt: AdaptedProcess, c: AdaptedProcess,
                         beta: float, g: float, rho: float) -> float:
    """Relative violation of (c_k - beta c_{k-1})^-g = e^rho (Mt_k/Mt_{k-1})
    (c_{k-1} - beta c_{k-2})^-g."""
    s = habit_surplus(tree, static_habit_matrix(beta, tree.horizon), c.values)
    worst = 0.0
    for k in range(1, tree.horizon + 1):
        nodes = tree.depth_nodes[k]
        parents = tree.parent[nodes]
        lhs = s[nodes] ** (-g)
        ratio = Mt.at_depth(k) / Mt.values[parents]
        rhs = math.exp(rho) * ratio * s[parents] ** (-g)
        gap = float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(lhs), np.abs(rhs))))
        if not math.isfinite(gap):      # a NaN or infinite ratio; max() would drop NaN
            return math.inf
        worst = max(worst, gap)
    return worst


# -- geometric-random-walk economies ---------------------------------------------


@dataclass
class IIDEconomy:
    """One-type economy whose aggregate endowment multiplies by i.i.d.
    positive growth factors each period (eps_0 = 1)."""

    support: tuple               # ((x_j, p_j), ...)
    gamma: float
    rho: float
    beta: float
    horizon: int

    def __post_init__(self):
        self.support = tuple((float(x), float(p)) for x, p in self.support)
        if not self.support:
            raise SchemaError("support", "empty growth distribution")
        if not all(math.isfinite(v) for xp in self.support for v in xp):
            raise SchemaError("support", "growth factors and probabilities must be finite")
        if abs(sum(p for _, p in self.support) - 1.0) > 1e-12:
            raise SchemaError("support", "probabilities must sum to 1")
        if any(p <= 0.0 for _, p in self.support):
            raise SchemaError("support", "probabilities must be positive")
        for name in ("gamma", "rho", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise SchemaError(name, "must be a finite number")
        if self.gamma <= 0.0 or self.gamma == 1.0:
            raise SchemaError("gamma", "power utility needs gamma > 0 and gamma != 1")
        if self.horizon < 1:
            raise SchemaError("horizon", "need at least one period")
        floor = self.beta + self.beta ** (1.0 / self.gamma) * math.exp(-self.rho / self.gamma)
        if self.beta < 0.0 or any(x <= floor for x, _ in self.support):
            raise SchemaError("beta", f"growth support must exceed beta + beta^(1/gamma)"
                                      f" e^(-rho/gamma) = {floor:.6g}")

    def with_beta(self, beta: float) -> "IIDEconomy":
        return IIDEconomy(self.support, self.gamma, self.rho, beta, self.horizon)

    def moment(self, f: Callable[[float], float]) -> float:
        return float(sum(p * f(x) for x, p in self.support))

    def tree_economy(self) -> EconomySpec:
        """Materialize the non-recombining growth tree with its aggregate
        endowment (support size ** horizon leaves)."""
        m = len(self.support)
        tree = EventTree.uniform(self.horizon, m, [p for _, p in self.support])
        vals = np.ones(tree.n_nodes)
        xs = np.array([x for x, _ in self.support])
        for k in range(1, self.horizon + 1):
            nodes = tree.depth_nodes[k]
            vals[nodes] = vals[tree.parent[nodes]] * xs[tree.sibling_slot[nodes]]
        eps = AdaptedProcess(tree, self.horizon, vals)
        return EconomySpec(tree, self.beta, (EconomyAgent(self.gamma, self.rho, eps),))

    def growth_at(self, tree: EventTree, k: int) -> np.ndarray:
        """X_k per depth-k node (the last growth factor on the node's path)."""
        xs = np.array([x for x, _ in self.support])
        return xs[tree.sibling_slot[tree.depth_nodes[k]]]


def _bond_moments(econ: IIDEconomy):
    g, rho, b = econ.gamma, econ.rho, econ.beta
    G = econ.moment(lambda x: x ** (-g))
    A = econ.moment(lambda x: (x - b) ** (-g))
    D = 1.0 - b * math.exp(-rho) * A
    return G, A, D


def bond_price(econ: IIDEconomy, k: int, n: int, x_k: Optional[float] = None) -> float:
    """Zero-coupon bond price E[M_n/M_k | G_k] in closed form.

    For k >= 1 the price depends on the period-k growth factor, passed as
    x_k.  Derived from the homogeneous SPD; verified against tree sums.
    """
    T = econ.horizon
    if not 0 <= k <= n <= T:
        raise ValueError("need 0 <= k <= n <= horizon")
    if k == n:
        return 1.0
    g, rho, b = econ.gamma, econ.rho, econ.beta
    G, A, D = _bond_moments(econ)
    if k == 0:
        num = math.exp(-rho * n) * G ** (n - 1) * A
        if n < T:
            num *= 1.0 - b * math.exp(-rho) * G
        return num / D
    if x_k is None:
        raise ValueError("bond prices at k >= 1 need the period-k growth factor x_k")
    denom_k = (1.0 - b / x_k) ** (-g) - b * math.exp(-rho) * A
    num = math.exp(-rho * (n - k)) * G ** (n - k - 1) * A
    if n < T:
        num *= 1.0 - b * math.exp(-rho) * G
    return num / denom_k


def bond_curve(econ: IIDEconomy, T: int, beta_grid: Sequence[float]) -> list:
    """Rows (beta, B(0, T)) for each beta on the grid; each beta is validated
    against the growth-support condition."""
    rows = []
    for b in beta_grid:
        e = IIDEconomy(econ.support, econ.gamma, econ.rho, float(b), T)
        rows.append((float(b), bond_price(e, 0, T)))
    return rows


def bond_derivative_beta(econ: IIDEconomy, T: int, beta: float, order: int = 1) -> float:
    """Analytic d/dbeta (or d^2/dbeta^2) of the maturity-T zero-coupon price.

    With A = E[(X-beta)^-g], A' = g E[(X-beta)^-g-1], A'' = g(g+1)E[(X-beta)^-g-2]
    and D = 1 - beta e^-rho A:
    first derivative  e^{-rho T} G^{T-1} (A' + e^-rho A^2) / D^2,
    second derivative e^{-rho T} G^{T-1} ((A''+2e^-rho A A')D
                       + 2(A'+e^-rho A^2)(e^-rho A + beta e^-rho A')) / D^3.
    Both are positive: the bond price is increasing and convex in beta.
    """
    e = econ.with_beta(beta) if beta != econ.beta else econ
    g, rho, b = e.gamma, e.rho, beta
    G, A, D = _bond_moments(e)
    A1 = g * e.moment(lambda x: (x - b) ** (-g - 1.0))
    lead = math.exp(-rho * T) * G ** (T - 1)
    if order == 1:
        return lead * (A1 + math.exp(-rho) * A * A) / D ** 2
    if order == 2:
        A2 = g * (g + 1.0) * e.moment(lambda x: (x - b) ** (-g - 2.0))
        num = (A2 + 2.0 * math.exp(-rho) * A * A1) * D \
            + 2.0 * (A1 + math.exp(-rho) * A * A) * (math.exp(-rho) * A + b * math.exp(-rho) * A1)
        return lead * num / D ** 3
    raise ValueError("order must be 1 or 2")


def long_run_yield(econ: IIDEconomy) -> float:
    """T -> infinity yield of the zero-coupon bond: rho - log E[X^-gamma];
    independent of the habit coefficient."""
    return econ.rho - math.log(econ.moment(lambda x: x ** (-econ.gamma)))


def _lucas_pieces(econ: IIDEconomy):
    g, rho, b = econ.gamma, econ.rho, econ.beta
    H = econ.moment(lambda x: x ** (1.0 - g))
    A = econ.moment(lambda x: (x - b) ** (-g))
    B1 = econ.moment(lambda x: x * (x - b) ** (-g))
    D = 1.0 - b * math.exp(-rho) * A
    return H, A, B1, D


def _geom_sum(q: float, terms: int) -> float:
    """sum_{j=0}^{terms-1} q^j."""
    if terms <= 0:
        return 0.0
    if abs(q - 1.0) < 1e-15:
        return float(terms)
    return (1.0 - q ** terms) / (1.0 - q)


def lucas_price(econ: IIDEconomy, k: int, T: Optional[int] = None,
                eps_k: float = 1.0, x_k: Optional[float] = None) -> float:
    """Lucas tree price sum_{n>k} E[(M_n/M_k) eps_n | G_k] in closed form.

    For k = 0 the price is deterministic; for k >= 1 it scales with eps_k and
    depends on the period-k growth factor x_k.  Derived by splitting the
    defining sum at the final period (whose SPD slice has no continuation
    term); matches defining tree sums for every rho.
    """
    T = econ.horizon if T is None else T
    if not 0 <= k <= T:
        raise ValueError("need 0 <= k <= horizon")
    if k == T:
        return 0.0
    e = econ if T == econ.horizon else IIDEconomy(econ.support, econ.gamma, econ.rho, econ.beta, T)
    g, rho, b = e.gamma, e.rho, e.beta
    H, A, B1, D = _lucas_pieces(e)
    q = math.exp(-rho) * H
    inner = (B1 - b * math.exp(-rho) * H * A) * math.exp(-rho) * _geom_sum(q, T - k - 1) \
        + math.exp(-rho * (T - k)) * H ** (T - k - 1) * B1
    if k == 0:
        return inner / D
    if x_k is None:
        raise ValueError("Lucas prices at k >= 1 need the period-k growth factor x_k")
    denom_k = (1.0 - b / x_k) ** (-g) - b * math.exp(-rho) * A
    return eps_k * inner / denom_k


def lucas_longrun(econ: IIDEconomy) -> float:
    """T -> infinity Lucas tree price at period 0; finite when
    e^-rho E[X^{1-gamma}] < 1."""
    g, rho, b = econ.gamma, econ.rho, econ.beta
    H, A, B1, D = _lucas_pieces(econ)
    q = math.exp(-rho) * H
    if q >= 1.0:
        raise ConditionError(f"long-run Lucas price diverges: e^-rho E[X^(1-gamma)] = {q:.6g} >= 1")
    return (B1 - b * math.exp(-rho) * H * A) * math.exp(-rho) / ((1.0 - q) * D)


def lucas_curve(econ: IIDEconomy, beta_grid: Sequence[float]) -> list:
    """Rows (beta, long-run Lucas price)."""
    rows = []
    for b in beta_grid:
        rows.append((float(b), lucas_longrun(econ.with_beta(float(b)))))
    return rows


@dataclass
class SensitivityReport:
    increasing: bool
    convex: bool
    derivative_positive: Optional[bool]
    second_derivative_positive: Optional[bool]
    max_derivative_rel_gap: Optional[float]


def beta_sensitivity(curve: Callable[[float], float], beta_grid: Sequence[float],
                     analytic_derivative: Optional[Callable[[float], float]] = None,
                     analytic_second: Optional[Callable[[float], float]] = None
                     ) -> SensitivityReport:
    """Monotonicity/convexity of a beta-curve on a grid, with an optional
    analytic-vs-centered-finite-difference derivative check (relative gap;
    interior points only)."""
    grid = [float(b) for b in beta_grid]
    if len(grid) < 10:
        raise ValueError("grid too coarse for sensitivity checks (need >= 10 points)")
    vals = [curve(b) for b in grid]
    increasing = all(b > a for a, b in zip(vals, vals[1:]))
    convex = all(vals[i + 1] <= 0.5 * (vals[i] + vals[i + 2]) + 1e-12
                 for i in range(len(vals) - 2))
    dpos = spos = gap = None
    if analytic_derivative is not None:
        dvals = [analytic_derivative(b) for b in grid]
        dpos = all(d > 0.0 for d in dvals)
        gap = 0.0
        for b, d in zip(grid[1:-1], dvals[1:-1]):
            fd = (curve(b + FD_STEP) - curve(b - FD_STEP)) / (2.0 * FD_STEP)
            gap = max(gap, abs(fd - d) / max(abs(d), 1e-300))
    if analytic_second is not None:
        spos = all(analytic_second(b) > 0.0 for b in grid)
    return SensitivityReport(increasing, convex, dpos, spos, gap)


# -- heterogeneous equilibrium -----------------------------------------------------


def heterogeneous_conditions(economy: EconomySpec) -> ConditionsReport:
    """Sufficient existence conditions for the many-type economy: beta below
    one, positive aggregate surpluses (required by the nodewise inversion),
    and beta E[max_j s_k^{-gamma_j} | G_{k-1}] < min_j e^{-rho_j} s_{k-1}^{-gamma_j}."""
    tree = economy.tree
    beta = economy.beta
    eps = economy.aggregate
    surplus_margin = economy.surplus_min
    scale_margin = float(np.min((1.0 - beta) * eps.values))
    moment_margin = math.inf
    if surplus_margin > 0.0:
        powers = economy.surplus_powers
        worst = powers.max(axis=0)
        best = (np.array([[math.exp(-a.rho)] for a in economy.agents]) * powers).min(axis=0)
        for k in range(1, tree.horizon + 1):
            lhs = beta * cond_expectation_arrays(tree, worst[tree.depth_nodes[k]], k, k - 1)
            margin = float(np.min(best[tree.depth_nodes[k - 1]] - lhs))
            # inf - inf from overflowing powers gives NaN, which min() skips
            moment_margin = min(moment_margin, -math.inf if math.isnan(margin) else margin)
    else:
        moment_margin = -math.inf
    holds = (scale_margin > MARGIN_TOL and surplus_margin > MARGIN_TOL
             and moment_margin > MARGIN_TOL)
    near = holds and min(scale_margin, surplus_margin, moment_margin) <= 100 * MARGIN_TOL
    return ConditionsReport(holds, min(surplus_margin, scale_margin), moment_margin,
                            math.inf, near)


_FLOAT_RANGE = "weight-equation root outside the floating-point range; rescale the endowments"


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _weight_equation_roots(economy: EconomySpec, lam: np.ndarray,
                           start: Optional[np.ndarray] = None):
    """gtilde at every node: the unique y > 0 with sum_i coef_i y^{-1/g_i} =
    rhs, where rhs is the node's aggregate surplus and coef_i =
    lam_i^{1/g_i} e^{-(rho_i/g_i)k} at depth k; returned with coef (agents x
    nodes) and a per-depth mask of stalled solves.

    The map is strictly decreasing; brackets come from the single-agent
    bounds, refined by safeguarded Newton to 1e-13 relative.  Node j starts
    at start[j] when that lies strictly inside its bracket (a NaN, 0 or inf
    does not), else at the bracket's geometric mean.  Every node runs its
    own iteration and leaves the active set once it stops, all nodes
    stepping together on (agents x nodes) arrays with numpy powers.  A
    coefficient, bracket or root that is not a finite float, or a bracket or
    root that is not positive, raises ConditionError.
    """
    gam = economy.gammas
    rhs = economy.node_surplus
    N = economy.n_agents
    coef = lam[:, None] ** (1.0 / gam) * economy.discount_g
    # agent i's term alone equals rhs at lam_i e^{-rho_i k} rhs^{-g_i} and
    # rhs/N at N^{g_i} times that.  An exponent broadcast along the nodes is
    # never 2, 0.5 or -1 here: numpy raises those by square, sqrt or
    # reciprocal, whose bits differ from its power's.
    single = lam[:, None] * economy.discount * economy.surplus_powers
    lo = single.max(axis=0)
    hi = (single * N ** gam).max(axis=0)
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    if not (np.all(lo > 0.0) and np.all(hi < math.inf) and np.all(coef < math.inf)):
        raise ConditionError(_FLOAT_RANGE)
    # rows: the terms of f, then of its derivative, powers of y by expo
    C = np.concatenate([coef, -coef / gam])
    expo = np.concatenate([-1.0 / gam, -1.0 / gam - 1.0])
    y = np.sqrt(lo * hi)
    if start is not None:
        y = np.where((lo < start) & (start < hi), start, y)
    gt = np.full(len(rhs), np.nan)
    active = np.arange(len(rhs))
    # solve to machine precision: small agent weights divide the budget gap,
    # so any slack here caps the attainable excess-demand accuracy
    for _ in range(MAX_WEIGHT_PASSES):
        terms = C * y ** expo
        fy = terms[:N].sum(axis=0) - rhs
        fprime = terms[N:].sum(axis=0)
        solved = np.abs(fy) <= 4e-16 * rhs
        up = fy > 0.0
        lo = np.where(up, y, lo)
        hi = np.where(up, hi, y)
        y_new = y - fy / fprime
        y_new = np.where((lo < y_new) & (y_new < hi), y_new, np.sqrt(lo * hi))
        stop = np.abs(y_new - y) <= 4e-16 * y
        y = np.where(solved, y, y_new)
        stop |= solved
        if stop.any():
            gt[active[stop]] = y[stop]
            keep = ~stop
            active, y, lo, hi, rhs = (v[keep] for v in (active, y, lo, hi, rhs))
            C = C[:, keep]
            if not len(active):
                break
    if np.any((gt <= 0.0) | (gt == math.inf)):     # stalled nodes stay NaN
        raise ConditionError(_FLOAT_RANGE)
    stalled = np.zeros(economy.tree.horizon + 1, dtype=bool)
    stalled[economy.tree.depth[active]] = True
    return gt, coef, stalled


@dataclass
class DemandSystem:
    """Candidate (non-normalized) SPD g and its perturbed companion gtilde
    per node, agent consumptions (agents x nodes), and the excess demand at
    given weights."""

    g: np.ndarray
    gtilde: np.ndarray
    consumptions: np.ndarray
    h: np.ndarray


def excess_demand(economy: EconomySpec, lam: Sequence[float],
                  start: Optional[Sequence[float]] = None) -> DemandSystem:
    """Excess demand h(lambda) of the heterogeneous economy.

    Backward pass: gtilde_k solves the aggregated first-order equation (the
    weight equation) at each depth-k node, g_k = gtilde_k -
    beta E[gtilde_{k+1} | G_k] (g_T = gtilde_T).  The weight equation is
    solved for every node of the tree at once, node j's Newton iteration
    starting at start[j] where that lies inside the node's bracket (a
    tatonnement step passes the previous step's gtilde).  For k = T down to
    0 a stalled solve at depth k raises ConvergenceError before a
    nonpositive g_k raises ConditionError; a coefficient, bracket or root
    beyond the float range raises ConditionError first.  Forward pass:
    c^i_k = beta c^i_{k-1} + e^{-(rho_i/g_i) k} lam_i^{1/g_i} gtilde_k^{-1/g_i}.  Then
    h_i = (sum_k E[g_k c^i_k] - sum_k E[g_k eps^i_k]) / lam_i: the scaled
    budget gap, zero for every agent exactly at equilibrium.  Walras' law
    sum_i lam_i h_i = 0 holds identically.  Weights must be positive and
    finite, and a start must hold one number per node (ValueError).
    """
    tree = economy.tree
    T = tree.horizon
    lam = np.asarray([float(l) for l in lam])
    if not np.all((lam > 0.0) & (lam < math.inf)):
        raise ValueError("agent weights must be strictly positive and finite")
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != (tree.n_nodes,):
            raise ValueError(f"start must have shape ({tree.n_nodes},), got {start.shape}")
    if economy.surplus_min <= 0.0:
        raise ConditionError("aggregate habit surplus not positive; weight equation unsolvable")
    gt, coef, stalled = _weight_equation_roots(economy, lam, start)
    g = habit_adjoint(tree, economy.habits, gt)     # g_k = gtilde_k - beta E[gtilde_{k+1}|G_k]
    if stalled.any() or np.any(g <= 0.0):
        for k in range(T, -1, -1):
            if stalled[k]:
                raise ConvergenceError(f"weight-equation root solve stalled at period {k}")
            if np.any(g[tree.depth_nodes[k]] <= 0.0):
                raise ConditionError(
                    f"candidate SPD nonpositive at depth {k}; existence conditions violated")
    # agent i's habit surplus is its term coef_i gtilde^{-1/g_i} of the weight equation
    c = consumption_from_surplus(tree, economy.habits, (coef * gt ** (-1.0 / economy.gammas)).T).T
    h = (c - economy.endowments) @ (economy.probabilities * g) / lam
    return DemandSystem(g, gt, c, h)


def _result_from_weights(economy: EconomySpec, lam: np.ndarray, system: DemandSystem,
                         walras: tuple, iterations: int, method: str) -> EquilibriumResult:
    tree = economy.tree
    T = tree.horizon
    g0 = float(system.g[0])
    M = AdaptedProcess(tree, T, system.g / g0)
    Mt = AdaptedProcess(tree, T, system.gtilde / g0)
    c = system.consumptions
    clearing = float(np.max(np.abs(c.sum(axis=0) - economy.aggregate.values)))
    budget = float(np.max(np.abs((c - economy.endowments) @ (economy.probabilities * M.values))))
    consumptions = tuple(AdaptedProcess(tree, T, ci) for ci in c)
    foc = max(_static_foc_residual(tree, Mt, ci, economy.beta, a.gamma, a.rho)
              for ci, a in zip(consumptions, economy.agents))
    return EquilibriumResult(
        M=M, Mtilde=Mt, lambdas=tuple(float(l) for l in lam), consumptions=consumptions,
        residuals={"clearing": clearing, "budget": budget, "foc": foc,
                   "h_inf": float(np.max(np.abs(system.h)))},
        walras_history=walras, iterations=iterations, method=method)


def heterogeneous_equilibrium(economy: EconomySpec, tol: float = WEIGHT_TOL) -> EquilibriumResult:
    """Find positive agent weights on the unit simplex with vanishing excess
    demand, then assemble the equilibrium.

    Damped multiplicative tatonnement lam_i <- lam_i exp(-kappa h_i/(1+|h_i|)),
    renormalized to the simplex each step, kappa halved on oscillation.  Each
    step starts its weight equations at the previous step's roots.  After
    MAX_TATONNEMENT steps MINPACK ``hybr`` on the log-weight ratios takes over
    (``method="tatonnement+root"``), and the final excess demand decides
    success.  Scale is unidentified (h is homogeneous of degree zero), so the
    simplex normalization is exact, not a restriction.  Raises ValueError
    unless 0 < tol < inf.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")
    cond = heterogeneous_conditions(economy)
    if not cond.holds:
        raise ConditionError(
            f"heterogeneous existence conditions fail: surplus margin "
            f"{cond.surplus_margin:.3e}, moment margin {cond.foc_margin:.3e}")
    N = economy.n_agents
    lam = np.full(N, 1.0 / N)
    kappa = 1.0
    walras = []
    prev_h = None
    start = None
    for it in range(1, MAX_TATONNEMENT + 1):
        system = excess_demand(economy, lam, start)
        start = system.gtilde
        h = system.h
        walras.append(float(np.dot(lam, h)))
        if np.max(np.abs(h)) < tol:
            return _result_from_weights(economy, lam, system, tuple(walras), it, "tatonnement")
        if prev_h is not None and float(np.dot(h, prev_h)) < 0.0:
            kappa *= 0.5
        prev_h = h
        # h_i > 0 means agent i's demanded value exceeds its budget, so its
        # weight must shrink: move against the excess demand
        lam = lam * np.exp(-kappa * h / (1.0 + np.abs(h)))
        lam = lam / lam.sum()

    # hybr evaluates h in its own order, so it and this final check start cold
    lam = _weights_by_root_finding(economy, lam)
    system = excess_demand(economy, lam)
    walras.append(float(np.dot(lam, system.h)))
    if np.max(np.abs(system.h)) >= tol:
        raise ConvergenceError(
            f"excess demand {np.max(np.abs(system.h)):.3e} after tatonnement + root finding",
            residual=float(np.max(np.abs(system.h))))
    return _result_from_weights(economy, lam, system, tuple(walras),
                                MAX_TATONNEMENT, "tatonnement+root")


def _weights_by_root_finding(economy: EconomySpec, lam0: np.ndarray) -> np.ndarray:
    """Weights zeroing the first N-1 excess demands (Walras' law gives the
    last), by MINPACK ``hybr`` on z = log(lam_i / lam_N).  One agent leaves
    z empty, which ``hybr`` returns as is: the weight stays 1."""
    from scipy import optimize

    def resid(z):
        lam = np.exp(np.concatenate([z, [0.0]]))
        lam = lam / lam.sum()
        return excess_demand(economy, lam).h[:-1]

    sol = optimize.root(resid, np.log(lam0[:-1] / lam0[-1]), method="hybr",
                        options={"xtol": 1e-14})
    lam = np.exp(np.concatenate([sol.x, [0.0]]))
    return lam / lam.sum()
