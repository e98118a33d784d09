"""Instance builders: seeded random markets/agents for the property suites
and the small named economies used throughout the tests and the CLI curves.

Random markets are built so that a strictly positive aggregate SPD exists by
construction (class-C and idiosyncratic types) or by rejection sampling
(general incomplete type); all constructions keep implied rates nonnegative.
"""

from __future__ import annotations

import numpy as np

from .equilibrium import EconomyAgent, EconomySpec, IIDEconomy, homogeneous_spd
from .errors import MarketError
from .market import (
    Asset,
    MarketSpec,
    complete_market_from_spd,
    spd_edge_ratios,
    static_habit_matrix,
)
from .optimizer import AgentSpec
from .tree import AdaptedProcess, EventTree, Partition

DEFAULT_SEED = 987654321
GENERAL_MARKET_TRIES = 50   # rejection-sampling draws of random_general_market


# -- trees ------------------------------------------------------------------


def random_tree(rng: np.random.Generator, max_depth: int = 3, max_children: int = 3,
                min_depth: int = 1) -> EventTree:
    T = int(rng.integers(min_depth, max_depth + 1))
    nodes = [("r", None, 1.0)]
    frontier = ["r"]
    for _ in range(T):
        nxt = []
        for nid in frontier:
            n_kids = int(rng.integers(1, max_children + 1))
            weights = rng.integers(1, 6, size=n_kids).astype(float)
            probs = weights / weights.sum()
            for j in range(n_kids):
                cid = f"{nid}.{j}" if nid != "r" else str(j)
                nodes.append((cid, nid, float(probs[j])))
                nxt.append(cid)
        frontier = nxt
    return EventTree.from_edges(nodes, T)


def random_positive_spd(rng: np.random.Generator, tree: EventTree,
                        per_depth_discount: bool = False) -> AdaptedProcess:
    """Strictly positive SPD with nonnegative implied rates: one-period
    ratios are positive draws scaled so each conditional mean is a discount
    factor below one (one discount per depth when `per_depth_discount`,
    which makes the implied bond rate deterministic)."""
    vals = np.ones(tree.n_nodes)
    depth_disc = rng.uniform(0.85, 0.99, size=tree.horizon + 1)
    for u in range(tree.n_nodes):
        kids = tree.children[u]
        if len(kids) == 0:
            continue
        draw = rng.uniform(0.5, 1.5, size=len(kids))
        disc = depth_disc[tree.depth[u] + 1] if per_depth_discount else rng.uniform(0.85, 0.99)
        mean = float(np.sum(tree.trans_prob[kids] * draw))
        vals[kids] = vals[u] * draw * (disc / mean)
    return AdaptedProcess(tree, tree.horizon, vals)


# -- markets ----------------------------------------------------------------


def random_complete_market(rng: np.random.Generator, tree: EventTree) -> MarketSpec:
    return complete_market_from_spd(tree, random_positive_spd(rng, tree))


def _random_sibling_partition(rng: np.random.Generator, kids) -> list:
    """Random partition of one sibling group (list of blocks of node ids)."""
    kids = list(int(k) for k in kids)
    rng.shuffle(kids)
    blocks = []
    i = 0
    while i < len(kids):
        size = int(rng.integers(1, len(kids) - i + 1))
        blocks.append(tuple(sorted(kids[i:i + size])))
        i += size
    return blocks


def random_classC_market(rng: np.random.Generator, tree: EventTree,
                         deterministic_rate: bool = False) -> MarketSpec:
    """The market of :func:`random_classC_instance`."""
    return random_classC_instance(rng, tree, deterministic_rate)[0]


def random_classC_instance(rng: np.random.Generator, tree: EventTree,
                           deterministic_rate: bool = False) -> tuple:
    """(market, partitions): a market whose payoff spaces are exactly the
    block-measurable claims of random intermediate partitions H_k (one per
    depth 1..T), with the SPD one-period ratios H-measurable by
    construction.  The partitions are the generator's own, an independent
    truth for the blocks that classification derives from the payoffs."""
    T = tree.horizon
    partitions = []
    for k in range(1, T + 1):
        blocks = []
        for u in tree.depth_nodes[k - 1]:
            blocks.extend(_random_sibling_partition(rng, tree.children[int(u)]))
        partitions.append(Partition(tree, k, tuple(blocks)))
    max_blocks = max(
        max(sum(1 for b in partitions[k - 1].blocks if int(tree.parent[b[0]]) == int(u))
            for u in tree.depth_nodes[k - 1])
        for k in range(1, T + 1))

    # interest rates (predictable; optionally one scalar per period)
    r_slices = [np.zeros(1)]
    det_rates = rng.uniform(0.0, 0.06, size=T + 1)
    for k in range(1, T + 1):
        r = [det_rates[k] if deterministic_rate else rng.uniform(0.0, 0.06)
             for _ in tree.depth_nodes[k - 1]]
        r_slices.append(np.array(r)[tree.parent_pos(k)])
    interest = AdaptedProcess.from_depth_arrays(tree, r_slices)

    # H-measurable SPD ratios with conditional mean = 1/(1+r)
    block_of = [None] + [partitions[k - 1].block_index() for k in range(1, T + 1)]
    M = np.ones(tree.n_nodes)
    for k in range(1, T + 1):
        nodes = tree.depth_nodes[k]
        bvals = rng.uniform(0.6, 1.4, size=len(partitions[k - 1].blocks))
        draws = bvals[block_of[k]]
        mean = tree.sibling_sum(k, tree.trans_prob[nodes] * draws)[tree.parent_pos(k)]
        M[nodes] = M[tree.parent[nodes]] * draws / ((1.0 + interest.at_depth(k)) * mean)

    # H-measurable payoffs spanning the block claims, priced off M; block
    # values within each atom are drawn well separated so the payoff Gram
    # stays comfortably nonsingular
    n_assets = max(1, max_blocks - 1)
    payoffs = []  # per asset: per depth array (H-measurable)
    for _ in range(n_assets):
        per_depth = [None]
        for k in range(1, T + 1):
            part = partitions[k - 1]
            bvals = np.empty(len(part.blocks))
            by_atom = {}
            for bi, b in enumerate(part.blocks):
                by_atom.setdefault(int(tree.parent[b[0]]), []).append(bi)
            for bis in by_atom.values():
                slots = rng.permutation(len(bis))
                for bi, slot in zip(bis, slots):
                    bvals[bi] = 1.0 + (slot + 0.25 + 0.5 * rng.random()) / len(bis)
            per_depth.append(bvals[block_of[k]])
        payoffs.append(per_depth)

    ratios = np.ones(tree.n_nodes)
    ratios[1:] = M[1:] / M[tree.parent[1:]]
    assets = []
    for j in range(n_assets):
        price = [None] * (T + 1)
        div = [np.zeros(len(tree.depth_nodes[k])) for k in range(T + 1)]
        # scale payoffs upward going backward so dividends stay positive
        payoff = [None] + [payoffs[j][k].copy() for k in range(1, T + 1)]
        price[T] = 0.5 * payoff[T]
        div[T] = 0.5 * payoff[T]
        for k in range(T - 1, -1, -1):
            nodes = tree.depth_nodes[k + 1]
            cur = tree.sibling_sum(k + 1, tree.trans_prob[nodes] * ratios[nodes] * payoff[k + 1])
            price[k] = cur
            if k >= 1:
                payoff[k] = payoff[k] * (float(np.max(cur)) + 1.0)
                div[k] = payoff[k] - cur
        assets.append(Asset(f"c{j}",
                            AdaptedProcess.from_depth_arrays(tree, price),
                            AdaptedProcess.from_depth_arrays(tree, div)))
    return MarketSpec(tree, tuple(assets), interest), tuple(partitions)


def product_tree(f_tree: EventTree, noise_branch: int, rng: np.random.Generator):
    """Tree over (factor node, noise path) pairs with independent noise;
    returns the product tree and the factor partitions F_k."""
    T = f_tree.horizon
    noise_probs = []
    for k in range(T):
        w = rng.integers(1, 6, size=noise_branch).astype(float)
        noise_probs.append(w / w.sum())
    nodes = [("r", None, 1.0)]
    f_of = {"r": 0}
    frontier = [("r", 0)]  # (product id, f node index)
    for k in range(T):
        nxt = []
        for pid, fi in frontier:
            for fc in f_tree.children[fi]:
                for w in range(noise_branch):
                    cid = f"{pid}|{f_tree.ids[int(fc)]}w{w}" if pid != "r" \
                        else f"{f_tree.ids[int(fc)]}w{w}"
                    prob = float(f_tree.trans_prob[int(fc)] * noise_probs[k][w])
                    nodes.append((cid, pid, prob))
                    f_of[cid] = int(fc)
                    nxt.append((cid, int(fc)))
        frontier = nxt
    tree = EventTree.from_edges(nodes, T)
    f_index = np.array([f_of[nid] for nid in tree.ids])
    partitions = []
    for k in range(1, T + 1):
        blocks = {}
        for v in tree.depth_nodes[k]:
            blocks.setdefault(int(f_index[int(v)]), []).append(int(v))
        partitions.append(Partition(tree, k, tuple(tuple(sorted(b)) for b in blocks.values())))
    return tree, f_index, tuple(partitions)


def random_idiosyncratic_market(rng: np.random.Generator, f_depth: int = 2,
                                f_branch: int = 2, noise_branch: int = 2,
                                deterministic_rate: bool = False) -> MarketSpec:
    """Complete market on a factor tree, tensored with independent noise;
    the factor partitions are attached as the idiosyncratic structure."""
    f_tree = EventTree.uniform(f_depth, f_branch,
                               list(rng.dirichlet(np.full(f_branch, 5.0))))
    f_market = complete_market_from_spd(
        f_tree, random_positive_spd(rng, f_tree, per_depth_discount=deterministic_rate))
    tree, f_index, partitions = product_tree(f_tree, noise_branch, rng)

    def lift(proc: AdaptedProcess) -> AdaptedProcess:
        return AdaptedProcess(tree, tree.horizon, proc.values[f_index])

    assets = tuple(Asset(a.name, lift(a.prices), lift(a.dividends)) for a in f_market.assets)
    return MarketSpec(tree, assets, lift(f_market.interest), idio=partitions)


def random_bound_instance(rng: np.random.Generator):
    """(market, agent) pairs satisfying the hypotheses under which the
    sandwich bounds provably hold.

    Arbitrary intermediate-partition markets with deterministic rates are NOT
    enough: the recursion coefficients must come out measurable with respect
    to the intermediate partitions, which factor (idiosyncratic) structure
    guarantees and synthetic partition markets violate.  The mix here:
    idiosyncratic products (stochastic or deterministic rate), complete
    markets with deterministic rate, and single-path markets.
    """
    kind = int(rng.integers(0, 4))
    if kind == 0:
        market = random_idiosyncratic_market(rng)
    elif kind == 1:
        market = random_idiosyncratic_market(rng, deterministic_rate=True)
    elif kind == 2:
        tree = random_tree(rng, min_depth=2)
        market = complete_market_from_spd(
            tree, random_positive_spd(rng, tree, per_depth_discount=True))
    else:
        market = deterministic_market(int(rng.integers(2, 5)), float(rng.uniform(0.0, 0.08)))
    agent = random_agent(rng, market.tree)
    return market, agent


def random_general_market(rng: np.random.Generator, tree: EventTree) -> MarketSpec:
    """Incomplete market (bond + one asset on a bushier tree) with stochastic
    predictable rates; rejection-sampled until the aggregate SPD is strictly
    positive."""
    T = tree.horizon
    for _ in range(GENERAL_MARKET_TRIES):
        Z = random_positive_spd(rng, tree)
        ratios = spd_edge_ratios(tree, Z)
        r_slices = [np.zeros(1)]
        for k in range(1, T + 1):
            nodes = tree.depth_nodes[k]
            disc = tree.sibling_sum(k, tree.trans_prob[nodes] * ratios[nodes])
            r_slices.append((1.0 / disc - 1.0)[tree.parent_pos(k)])
        interest = AdaptedProcess.from_depth_arrays(tree, r_slices)
        div = [np.zeros(len(tree.depth_nodes[k])) for k in range(T + 1)]
        for k in range(1, T + 1):
            div[k] = rng.uniform(0.2, 1.0, size=len(tree.depth_nodes[k]))
        price = [None] * (T + 1)
        price[T] = rng.uniform(0.5, 1.5, size=len(tree.depth_nodes[T]))
        for k in range(T - 1, -1, -1):
            nodes = tree.depth_nodes[k + 1]
            price[k] = tree.sibling_sum(k + 1, tree.trans_prob[nodes] * ratios[nodes]
                                        * (price[k + 1] + div[k + 1]))
        asset = Asset("risky",
                      AdaptedProcess.from_depth_arrays(tree, price),
                      AdaptedProcess.from_depth_arrays(tree, div))
        try:
            return MarketSpec(tree, (asset,), interest)
        except MarketError:
            continue
    raise MarketError("could not sample a general market with a positive aggregate SPD")


def deterministic_market(horizon: int, rate: float = 0.0) -> MarketSpec:
    """Single-path market: bond only (plus a bond-duplicating asset so the
    asset list is nonempty)."""
    tree = EventTree.single_path(horizon)
    r = AdaptedProcess(tree, horizon, np.array([0.0] + [rate] * horizon))
    price = np.empty(horizon + 1)
    price[horizon] = 1.0
    for k in range(horizon - 1, -1, -1):
        price[k] = (price[k + 1] + rate * price[k + 1]) / (1.0 + rate)
    asset = Asset("bondlike", AdaptedProcess(tree, horizon, price),
                  AdaptedProcess(tree, horizon,
                                 np.array([0.0] + [rate * price[k] for k in range(1, horizon + 1)])))
    return MarketSpec(tree, (asset,), r)


# -- agents -----------------------------------------------------------------


def random_habit_matrix(rng: np.random.Generator, horizon: int,
                        beta_max: float = 0.3) -> np.ndarray:
    """Strictly lower-triangular nonnegative matrix with row sums <= beta_max."""
    mat = np.zeros((horizon + 1, horizon + 1))
    for k in range(1, horizon + 1):
        row = rng.uniform(0.0, 1.0, size=k) * (rng.random(size=k) < 0.7)
        total = row.sum()
        if total > 0:
            row = row * (rng.uniform(0.3, 1.0) * beta_max / total)
        mat[k, :k] = row
    return mat


def random_agent(rng: np.random.Generator, tree: EventTree,
                 beta_max: float = 0.3, static: bool = False) -> AgentSpec:
    gamma = float(rng.choice([0.5, 0.8, 1.5, 2.0, 3.0, 4.0]))
    rho = float(rng.uniform(0.0, 0.1))
    habits = (static_habit_matrix(float(rng.uniform(0.0, beta_max)), tree.horizon)
              if static else random_habit_matrix(rng, tree.horizon, beta_max))
    endow = AdaptedProcess(tree, tree.horizon, rng.uniform(1.0, 2.0, size=tree.n_nodes))
    return AgentSpec(gamma, rho, habits, endow)


# -- named economies ----------------------------------------------------------


def example_iid_economy(beta: float = 0.0, horizon: int = 1,
                        gamma: float = 2.0, rho: float = 0.0) -> IIDEconomy:
    """Two-point growth economy (3 or 4, equally likely) used for the bond
    and Lucas-tree curves."""
    return IIDEconomy(((3.0, 0.5), (4.0, 0.5)), gamma, rho, beta, horizon)


def desk_heterogeneous_economy(beta: float = 0.1, shares=(0.6, 0.4),
                               gammas=(2.0, 3.0), rhos=(0.0, 0.05),
                               horizon: int = 2) -> EconomySpec:
    """Two-agent economy on the two-point growth tree: deterministic shares
    of the aggregate endowment, distinct risk aversions and impatience."""
    base = example_iid_economy(beta=beta, horizon=horizon).tree_economy()
    tree = base.tree
    eps = base.aggregate
    agents = tuple(
        EconomyAgent(g, r, AdaptedProcess(tree, tree.horizon, s * eps.values))
        for g, r, s in zip(gammas, rhos, shares))
    return EconomySpec(tree, beta, agents)


def market_from_homogeneous(economy: EconomySpec) -> MarketSpec:
    """Complete market whose aggregate SPD is the closed-form equilibrium SPD
    of the one-type economy (for feeding back into the optimizer)."""
    eq = homogeneous_spd(economy)
    return complete_market_from_spd(economy.tree, eq.M)
