"""Upper-hedging prices and recursive consumption/wealth bounds.

For markets whose payoff-space projection is conditional expectation onto
intermediate partitions H_k (idiosyncratically incomplete markets qualify
with H_k generated by the parent atoms and the factor sigma-algebra), the
minimal super-replication wealth of a payment stream follows a backward
esssup recursion, and the optimal consumption and wealth of a habit-forming
agent are sandwiched by affine functions of past consumption whose
coefficients (m_k, xi^k_j, alpha^k_j, delta_k, eta_k) obey explicit backward
recursions.

The recursion discounts with M_{k+1}/M_k (the form consistent with the
super-replication definition, under which delta_k = -epsU_k holds exactly);
the eta/delta forms used here are the tight ones: on a deterministic market
all bounds collapse to equalities.

Caveat: the sandwich provably holds when the recursion coefficients
m_k, xi^k_j come out measurable with respect to the intermediate partitions,
which holds for idiosyncratic (factor) markets and complete markets but can
fail for other intermediate-partition markets with deterministic rates; on
those the bounds may be violated by the order of the coefficients'
within-block spread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConditionError
from .market import (
    MarketClassification,
    MarketSpec,
    intermediate_partitions,
    partitions_of_class,
    perturbed_spd,
    validate_market_class,
)
from .optimizer import AgentSpec, SolveResult
from .tree import AdaptedProcess, EventTree, Partition, blockwise_reduce

TIE_RTOL = 1e-12


def _discounted_cond_exp(tree: EventTree, M: AdaptedProcess, nxt: np.ndarray, k: int) -> np.ndarray:
    """E[(M_{k+1}/M_k) nxt | G_k] over depth-k nodes."""
    nodes = tree.depth_nodes[k + 1]
    return tree.sibling_sum(k + 1, tree.trans_prob[nodes] * M.at_depth(k + 1) * nxt) / M.at_depth(k)


def upper_hedging(market: MarketSpec, X: AdaptedProcess,
                  partitions: Optional[Sequence[Partition]] = None) -> list:
    """Upper hedging wealth process of the payment stream (X_k)_{k=1..T}.

    Backward recursion: X^u_T = esssup[X_T | H_T], then
    X^u_k = esssup[X_k + E[(M_{k+1}/M_k) X^u_{k+1} | G_k] | H_k], and
    X^u_0 = E[M_1 X^u_1].  Returns one array per depth (scalar array at 0).
    The initial value is the minimal cost of super-replicating the stream.
    """
    tree = market.tree
    T = tree.horizon
    if T == 0:
        raise ValueError("a zero-horizon tree carries no payment stream to hedge")
    H = tuple(partitions) if partitions is not None else intermediate_partitions(market)
    M = market.spd
    out = [None] * (T + 1)
    out[T] = blockwise_reduce(tree, X.at_depth(T), T, H[T - 1], np.maximum)
    for k in range(T - 1, 0, -1):
        carry = _discounted_cond_exp(tree, M, out[k + 1], k)
        out[k] = blockwise_reduce(tree, X.at_depth(k) + carry, k, H[k - 1], np.maximum)
    p = tree.probabilities()
    nodes1 = tree.depth_nodes[1]
    out[0] = np.array([float(np.sum(p[nodes1] * M.at_depth(1) * out[1]))])
    return out


@dataclass
class BoundCoefficients:
    """Backward-recursion coefficients of the consumption/wealth sandwich.

    m[k], xi[(k, j)], alpha[(k, j)], delta[k], deltap[k], eta[k], etap[k] are
    arrays over depth-k nodes (k = 0 entries are singleton arrays); epsU and
    negepsU are the upper-hedging wealth processes of (eps_k) and (-eps_k).
    The identities delta_k = -epsU_k and deltap_k = negepsU_k hold by
    construction and are re-verified in tests from the independent hedging
    recursion.  Every m_k lies in (0, 1] (see :func:`bound_coefficients`).
    """

    m: list
    xi: dict
    alpha: dict
    delta: dict
    deltap: dict
    eta: dict
    etap: dict
    epsU: list
    negepsU: list


def _require_hypothesis(market: MarketSpec) -> MarketClassification:
    cls = validate_market_class(market)
    if "idiosyncratic" in cls.labels:
        return cls
    if "classC" in cls.labels and "deterministic-rate" in cls.labels:
        return cls
    raise ConditionError(
        "bound recursions need an idiosyncratically incomplete market or an "
        f"intermediate-partition market with deterministic rate; got {sorted(cls.labels)}")


def bound_coefficients(market: MarketSpec, agent: AgentSpec) -> BoundCoefficients:
    """Coefficients of the sandwich bounds for (market, agent).

    Terminal seed m_T = 1, xi^T = 0; going backward the one-period-ahead
    alpha coefficients are discounted into m_k and xi^k_j, the endowment's
    hedging values enter through eta_k/eta'_k, and the perturbed-SPD ratio
    q_k = e^{-rho/gamma} (Mtilde_k/Mtilde_{k-1})^{-1/gamma} drives alpha^k_j.

    The denominators D_k = 1/m_k = 1 + E[(M_{k+1}/M_k) alpha^{k+1}_k | G_k]
    (D_T = 1) are at least 1, so every m_k lies in (0, 1] and no bound is
    vacuous.  Proof: the alpha, xi and D recursions are linear and take no
    esssup, so they are the coefficients of linear maps.  Fix a depth-k node
    and the consumption c_0..c_k on its path, and extend the plan below it
    by the rule s_n = q_n s_{n-1} (n > k) for the habit surplus
    s_n = c_n - sum_{j<n} beta^(n)_j c_j.  Let V_k = c_k + sum_{n>k}
    E[(M_n/M_k) c_n | G_k].  Backward induction shows that V_{k+1}, with
    c_{k+1} set by the rule, is sum_{j<=k} alpha^{k+1}_j c_j (V_T = c_T), so
    V_k = D_k c_k - D_k sum_{j<k} xi^k_j c_j, and D_k is dV_k/dc_k with
    c_0..c_{k-1} held fixed.  Raising c_k by one raises s_k by one and each
    later s_n by a product of q's, which is positive since Mtilde >= M > 0.
    Then dc_n/dc_k = ds_n/dc_k + sum_{k<=j<n} beta^(n)_j dc_j/dc_k > 0 by
    induction on n, as the habit coefficients are nonnegative.  Hence
    D_k = 1 + sum_{n>k} E[(M_n/M_k) dc_n/dc_k | G_k] >= 1, and the same
    argument at the root gives D_0 >= 1.  The off-diagonal alpha^k_j can be
    large and negative; only the diagonal one enters D.  In floating point
    D_k is 1 plus a rounded sum, so it can fall below 1 only by that
    sum's roundoff.
    """
    cls = _require_hypothesis(market)
    tree = market.tree
    T = tree.horizon
    if T == 0:
        raise ValueError("a zero-horizon tree has no periods to bound")
    H = partitions_of_class(cls)
    M = market.spd
    Mt = perturbed_spd(M, agent.habits)
    beta = agent.habits
    g, rho = agent.gamma, agent.rho
    eps = agent.endowment

    q = {}
    for k in range(1, T + 1):
        nodes = tree.depth_nodes[k]
        ratio = Mt.at_depth(k) / Mt.values[tree.parent[nodes]]
        q[k] = np.exp(-rho / g) * ratio ** (-1.0 / g)

    m = [None] * (T + 1)
    xi, alpha, delta, deltap, eta, etap = {}, {}, {}, {}, {}, {}
    for k in range(T, 0, -1):
        nk = len(tree.depth_nodes[k])
        if k == T:
            # convention: alpha^{T+1} = 0, delta_{T+1} = delta'_{T+1} = 0
            D = np.ones(nk)
            exp_alpha = {}
            arg_up = eps.at_depth(T)
            arg_lo = eps.at_depth(T)
        else:
            exp_alpha = {j: _discounted_cond_exp(tree, M, alpha[(k + 1, j)], k)
                         for j in range(k + 1)}
            D = 1.0 + exp_alpha[k]
            arg_up = eps.at_depth(k) - _discounted_cond_exp(tree, M, delta[k + 1], k)
            arg_lo = eps.at_depth(k) - _discounted_cond_exp(tree, M, deltap[k + 1], k)
        m[k] = 1.0 / D
        # xi enters the consumption bound additively, so it carries the
        # negated discounted next-period alpha
        for j in range(k):
            xi[(k, j)] = -(exp_alpha.get(j, np.zeros(nk))) / D
        etap[k] = blockwise_reduce(tree, arg_up, k, H[k - 1], np.maximum) / D
        eta[k] = blockwise_reduce(tree, arg_lo, k, H[k - 1], np.minimum) / D
        delta[k] = -etap[k] * D
        deltap[k] = -eta[k] * D
        alpha[(k, k - 1)] = (q[k] + beta[k, k - 1] - xi[(k, k - 1)]) * D
        for j in range(k - 1):
            alpha[(k, j)] = (beta[k, j] - beta[k - 1, j] * q[k] - xi[(k, j)]) * D

    p = tree.probabilities()
    nodes1 = tree.depth_nodes[1]
    w1 = p[nodes1] * M.at_depth(1)
    D0 = 1.0 + float(np.sum(w1 * alpha[(1, 0)]))
    m[0] = np.array([1.0 / D0])
    eta[0] = np.array([-float(np.sum(w1 * deltap[1])) / D0])
    etap[0] = np.array([-float(np.sum(w1 * delta[1])) / D0])

    epsU = upper_hedging(market, eps, H)
    neg = AdaptedProcess(tree, T, -eps.values)
    negepsU = upper_hedging(market, neg, H)
    return BoundCoefficients(m, xi, alpha, delta, deltap, eta, etap, epsU, negepsU)


def delta_identity_gap(coeffs: BoundCoefficients) -> float:
    """Max deviation in delta_k = -epsU_k and delta'_k = negepsU_k, the two
    sides computed by independent recursions."""
    worst = 0.0
    for k in coeffs.delta:
        worst = max(worst, float(np.max(np.abs(coeffs.delta[k] + coeffs.epsU[k]))))
        worst = max(worst, float(np.max(np.abs(coeffs.deltap[k] - coeffs.negepsU[k]))))
    return worst


@dataclass
class PeriodBounds:
    period: int
    quantity: str          # "consumption" or "wealth"
    lower: np.ndarray
    value: np.ndarray
    upper: np.ndarray

    @property
    def slack(self) -> float:
        return float(min(np.min(self.value - self.lower), np.min(self.upper - self.value)))

    def tightest(self) -> int:
        """Position of the node that sets the slack: the first one whose
        slack is within TIE_RTOL (relative to the largest |value|) of the
        smallest, so that roundoff does not choose between near-ties."""
        slack = np.minimum(self.value - self.lower, self.upper - self.value)
        tie = TIE_RTOL * float(np.max(np.abs(self.value)))
        return int(np.argmax(slack <= np.min(slack) + tie))


@dataclass
class SandwichReport:
    rows: list

    def min_slack(self) -> float:
        return min(r.slack for r in self.rows) if self.rows else float("inf")

    def min_slack_by_period(self) -> dict:
        out = {}
        for r in self.rows:
            out[r.period] = min(out.get(r.period, float("inf")), r.slack)
        return out


def check_sandwich(market: MarketSpec, agent: AgentSpec, result: SolveResult,
                   coeffs: Optional[BoundCoefficients] = None) -> SandwichReport:
    """Evaluate the sandwich bounds on a solved plan, period by period.

    Consumption at k >= 1 is bounded by eta_k + m_k W_k + sum_j xi^k_j c_j
    from below and the eta'_k analogue from above; period 0 by
    m_0 eps_0 + eta_0 and m_0 eps_0 + eta'_0; wealth by
    sum_j alpha^k_j c_j + delta_k and + delta'_k.  Negative slack beyond
    tolerance indicates a defect in the solver or the coefficients.
    """
    if coeffs is None:
        coeffs = bound_coefficients(market, agent)
    tree = market.tree
    T = tree.horizon
    c, W = result.c.values, result.W.values
    eps0 = float(agent.endowment.at_depth(0)[0])
    rows = [PeriodBounds(0, "consumption",
                         coeffs.m[0] * eps0 + coeffs.eta[0],
                         np.array([c[0]]),
                         coeffs.m[0] * eps0 + coeffs.etap[0])]
    for k in range(1, T + 1):
        nodes = tree.depth_nodes[k]
        anc = [nodes]           # anc[i]: the depth-(k - i) ancestors
        for _ in range(k):
            anc.append(tree.parent[anc[-1]])
        xi_sum = np.zeros(len(nodes))
        alpha_sum = np.zeros(len(nodes))
        for j in range(k):
            cj = c[anc[k - j]]
            xi_sum += coeffs.xi[(k, j)] * cj
            alpha_sum += coeffs.alpha[(k, j)] * cj
        base = coeffs.m[k] * W[nodes] + xi_sum
        rows.append(PeriodBounds(k, "consumption",
                                 coeffs.eta[k] + base, c[nodes], coeffs.etap[k] + base))
        rows.append(PeriodBounds(k, "wealth",
                                 alpha_sum + coeffs.delta[k], W[nodes],
                                 alpha_sum + coeffs.deltap[k]))
    return SandwichReport(rows)
