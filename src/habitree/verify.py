"""Batch property-suite runner behind the `verify` CLI command.

Each suite draws seeded random instances and checks one family of
invariants; results are aggregated order-independently (sorted by suite
name).
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass

import numpy as np

from . import instances as gen
from .equilibrium import EconomySpec, excess_demand, heterogeneous_conditions
from .errors import HabitreeError
from .estimates import bound_coefficients, check_sandwich, delta_identity_gap
from .market import perturbed_spd, project, validate_market_class
from .optimizer import brute_force_oracle, solve_consumption
from .tree import AdaptedProcess, cond_expectation_arrays, cond_expectation_on

DEFAULT_MANIFEST = {
    "tree-tower": 40,
    "perturbed-spd": 30,
    "spd-pricing": 25,
    "projection-classC": 20,
    "oracle-equivalence": 10,
    "sandwich-bounds": 20,
    "scaling": 8,
    "walras": 15,
}


@dataclass
class SuiteResult:
    name: str
    instances: int
    passed: int
    failed: int
    worst: float


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(ord(c) for c in name), len(name)])


def _suite(name: str, check):
    """The (seed, count) -> SuiteResult runner of one suite.  `check(rng)`
    draws one instance and returns (gap, ok); an instance that raises a
    HabitreeError counts as failed and leaves `worst` unchanged."""

    def run(seed: int, count: int) -> SuiteResult:
        rng = _rng(seed, name)
        passed = failed = 0
        worst = 0.0
        for _ in range(count):
            try:
                gap, ok = check(rng)
            except HabitreeError:
                failed += 1
                continue
            worst = max(worst, gap)
            passed, failed = (passed + 1, failed) if ok else (passed, failed + 1)
        return SuiteResult(name, count, passed, failed, worst)

    return run


def _tree_tower(rng: np.random.Generator):
    tree = gen.random_tree(rng)
    m = tree.horizon
    X = AdaptedProcess(tree, m, rng.uniform(-10, 10, size=tree.n_nodes))
    Y = AdaptedProcess(tree, m, rng.uniform(-10, 10, size=tree.n_nodes))
    gap = 0.0
    for k in range(m + 1):
        for j in range(k, m + 1):
            via_j = cond_expectation_arrays(tree, cond_expectation_arrays(
                tree, X.at_depth(m), m, j), j, k)
            direct = cond_expectation_arrays(tree, X.at_depth(m), m, k)
            gap = max(gap, float(np.max(np.abs(via_j - direct))))
    a, b = rng.uniform(-3, 3, size=2)
    lin = cond_expectation_arrays(tree, a * X.at_depth(m) + b * Y.at_depth(m), m, 0) \
        - a * cond_expectation_arrays(tree, X.at_depth(m), m, 0) \
        - b * cond_expectation_arrays(tree, Y.at_depth(m), m, 0)
    gap = max(gap, float(np.max(np.abs(lin))))
    return gap, gap < 1e-12


def _enumerate_chain_weight(habits: np.ndarray, top: int, bottom: int) -> float:
    """Brute-force habit-chain weight: sum over all strictly decreasing index
    paths from `top` to `bottom` of the products of coefficients."""
    total = 0.0
    inner = list(range(bottom + 1, top))
    for r in range(len(inner) + 1):
        for combo in itertools.combinations(inner, r):
            path = (top,) + tuple(sorted(combo, reverse=True)) + (bottom,)
            w = 1.0
            for a, b in zip(path, path[1:]):
                w *= habits[a, b]
            total += w
    return total


def _perturbed_spd(rng: np.random.Generator):
    tree = gen.random_tree(rng, max_depth=4)
    T = tree.horizon
    M = gen.random_positive_spd(rng, tree)
    habits = np.tril(rng.uniform(0.0, 0.5, size=(T + 1, T + 1)), k=-1)
    Mt = perturbed_spd(M, habits)
    gap = 0.0
    for k in range(T + 1):
        direct = M.at_depth(k).copy()
        for l in range(k + 1, T + 1):
            w = _enumerate_chain_weight(habits, l, k)
            direct = direct + w * cond_expectation_arrays(tree, M.at_depth(l), l, k)
        gap = max(gap, float(np.max(np.abs(direct - Mt.at_depth(k)))))
    return gap, gap < 1e-12


def _random_market_mixed(rng: np.random.Generator):
    kind = rng.integers(0, 3)
    if kind == 0:
        return gen.random_complete_market(rng, gen.random_tree(rng))
    if kind == 1:
        return gen.random_classC_market(rng, gen.random_tree(rng, min_depth=2))
    return gen.random_general_market(rng, gen.random_tree(rng, max_children=3, min_depth=2))


def _spd_pricing(rng: np.random.Generator):
    market = _random_market_mixed(rng)
    tree = market.tree
    M = market.spd
    gap = 0.0
    for k in range(1, tree.horizon + 1):
        tp = tree.trans_prob[tree.depth_nodes[k]]
        mk = M.at_depth(k)
        payoffs = [(1.0 + market.interest.at_depth(k), np.ones(len(tree.depth_nodes[k - 1])))]
        for a in market.assets:
            payoffs.append((a.prices.at_depth(k) + a.dividends.at_depth(k),
                            a.prices.at_depth(k - 1)))
        for pay, price in payoffs:
            lhs = price * M.at_depth(k - 1)
            rhs = tree.sibling_sum(k, tp * pay * mk)
            gap = max(gap, float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs)))))
        gap = max(gap, float(np.max(np.abs(project(market, mk, k) - mk))))
    return gap, gap < 1e-10


def _projection_classC(rng: np.random.Generator):
    market, truth = gen.random_classC_instance(rng, gen.random_tree(rng, min_depth=2))
    tree = market.tree
    cls = validate_market_class(market)
    # the derived blocks must be the generator's, in any order
    if "classC" not in cls.labels or any(set(d.blocks) != set(t.blocks)
                                         for d, t in zip(cls.classC_partitions, truth)):
        return np.inf, False
    gap = 0.0
    for k in range(1, tree.horizon + 1):
        part = cls.classC_partitions[k - 1]
        for _ in range(3):
            X = AdaptedProcess(tree, k, rng.uniform(-5, 5, size=tree.n_upto(k)))
            direct = project(market, X, k)
            blockwise = cond_expectation_on(tree, X, part)
            gap = max(gap, float(np.max(np.abs(direct - blockwise))))
    return gap, gap < 1e-10


def _oracle(rng: np.random.Generator):
    market = _random_market_mixed(rng)
    agent = gen.random_agent(rng, market.tree)
    foc = solve_consumption(market, agent)
    oracle = brute_force_oracle(market, agent)
    gap_u = abs(foc.utility - oracle.utility)
    gap_c = float(np.max(np.abs(foc.c.values - oracle.c.values)))
    return gap_u, gap_u < 1e-8 and gap_c < 1e-6


def _sandwich(rng: np.random.Generator):
    market, agent = gen.random_bound_instance(rng)
    # bounds are tight on low-uncertainty instances, so probe them with a
    # solution well below the slack tolerance
    result = solve_consumption(market, agent, tol=1e-11)
    coeffs = bound_coefficients(market, agent)
    report = check_sandwich(market, agent, result, coeffs)
    slack = report.min_slack()
    ident = delta_identity_gap(coeffs)
    ok = slack >= -1e-9 and ident < 1e-9
    return max(max(0.0, -slack), ident), ok


def _scaling(rng: np.random.Generator):
    market = _random_market_mixed(rng)
    agent = gen.random_agent(rng, market.tree)
    base = solve_consumption(market, agent)
    gap = 0.0
    for t in (0.5, 2.0, 10.0):
        scaled = gen.AgentSpec(agent.gamma, agent.rho, agent.habits.copy(),
                               agent.endowment * t)
        r = solve_consumption(market, scaled)
        gap = max(gap, float(np.max(np.abs(r.c.values - t * base.c.values)))
                  / float(np.max(np.abs(base.c.values))) / t)
    return gap, gap < 1e-9


def _random_economy(rng: np.random.Generator) -> EconomySpec:
    horizon = int(rng.integers(1, 3))
    econ = gen.example_iid_economy(beta=float(rng.uniform(0.0, 0.3)), horizon=horizon)
    base = econ.tree_economy()
    tree = base.tree
    n = int(rng.integers(2, 4))
    shares = rng.dirichlet(np.full(n, 4.0))
    agents = tuple(
        gen.EconomyAgent(float(rng.choice([1.5, 2.0, 3.0])), float(rng.uniform(0.0, 0.1)),
                         AdaptedProcess(tree, tree.horizon, s * base.aggregate.values))
        for s in shares)
    return EconomySpec(tree, econ.beta, agents)


def _walras(rng: np.random.Generator):
    economy = _random_economy(rng)
    if not heterogeneous_conditions(economy).holds:
        return 0.0, False
    gap = 0.0
    for _ in range(3):
        lam = rng.uniform(0.2, 2.0, size=economy.n_agents)
        system = excess_demand(economy, lam)
        gap = max(gap, abs(float(np.dot(lam, system.h))))
        for t in (0.5, 3.0):
            scaled = excess_demand(economy, t * lam)
            gap = max(gap, float(np.max(np.abs(scaled.h - system.h))))
    return gap, gap < 1e-10


SUITES = {name: _suite(name, check) for name, check in (
    ("tree-tower", _tree_tower),
    ("perturbed-spd", _perturbed_spd),
    ("spd-pricing", _spd_pricing),
    ("projection-classC", _projection_classC),
    ("oracle-equivalence", _oracle),
    ("sandwich-bounds", _sandwich),
    ("scaling", _scaling),
    ("walras", _walras),
)}


def run_suites(manifest: dict, seed: int) -> dict:
    """Run the named suites; returns a deterministic report dict."""
    names = sorted(manifest)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}")
    results = [SUITES[n](seed, int(manifest[n])) for n in names]
    return {
        "seed": seed,
        "suites": [asdict(r) for r in results],
        "all_passed": all(r.failed == 0 for r in results),
    }
