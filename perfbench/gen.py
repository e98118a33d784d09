"""Seeded benchmark inputs as JSON documents in the README schema.

Built with numpy alone, so the inputs of a given seed stay the same when the
program under test changes (its own `habitree.instances` is not used).
Trees are uniform and stored breadth-first: node i has children
b*i+1 .. b*i+b, so every per-node quantity is a flat array and each level
is a contiguous slice.
"""

from __future__ import annotations

import json

import numpy as np

# Agent preferences are fixed per market kind; the seed draws markets and
# endowments.  The Newton iteration count of one solve jumps between ~9 and
# ~16 from instance to instance for other gammas (or a random habit matrix),
# which would make a run's median latency follow its seed.  With these it
# stays at 8-9 (complete and factor markets, gamma 4) and 14-16 (incomplete,
# gamma 1.5).
AGENT = {"rho": 0.02, "beta": 0.2}
GAMMA_STEADY, GAMMA_INCOMPLETE = 4.0, 1.5

# i.i.d. growth economy of the equilibrium workload
GROWTH = (0.95, 1.08)
ECON_BETA = 0.1
ECON_HORIZON = 8
# three agent types (gamma, rho, mean share of the aggregate endowment)
HETERO_AGENTS = ((0.5, 0.0, 0.27), (2.0, 0.02, 0.19), (5.0, 0.04, 0.54))
SHARE_NOISE = 0.3


class Tree:
    """Uniform tree of the given depth and branching; `probs[k]` holds the
    transition probability of each child slot on edges into depth k+1."""

    def __init__(self, depth: int, branch: int, probs):
        self.T, self.b = depth, branch
        self.n = (branch ** (depth + 1) - 1) // (branch - 1)
        idx = np.arange(self.n)
        self.parent = np.where(idx > 0, (idx - 1) // branch, -1)
        self.slot = np.where(idx > 0, (idx - 1) % branch, 0)
        self.level = [slice((branch ** k - 1) // (branch - 1),
                            (branch ** (k + 1) - 1) // (branch - 1)) for k in range(depth + 1)]
        self.prob = np.ones(self.n)
        for k in range(1, depth + 1):
            self.prob[self.level[k]] = np.tile(np.asarray(probs[k - 1], dtype=float),
                                               branch ** (k - 1))
        self.ids = [f"n{i}" for i in range(self.n)]

    def doc(self) -> dict:
        nodes = [{"id": self.ids[i], "parent": None if i == 0 else self.ids[self.parent[i]],
                  "prob": float(self.prob[i])} for i in range(self.n)]
        return {"horizon": self.T, "nodes": nodes}

    def node_map(self, values, first_depth: int = 0) -> dict:
        start = self.level[first_depth].start
        return {self.ids[i]: float(values[i]) for i in range(start, self.n)}

    def to_parent(self, values_k: np.ndarray) -> np.ndarray:
        """Sum over the children of each depth-(k-1) node."""
        return values_k.reshape(-1, self.b).sum(axis=1)

    def down(self, values_km1: np.ndarray) -> np.ndarray:
        """Repeat each depth-(k-1) value over its children."""
        return np.repeat(values_km1, self.b)


def uniform_probs(depth: int, branch: int) -> list:
    return [np.full(branch, 1.0 / branch)] * depth


def random_spd(rng: np.random.Generator, tree: Tree, per_depth_discount: bool = False) -> np.ndarray:
    """Strictly positive SPD whose one-period conditional mean is a discount
    factor in [0.85, 0.99] (one per depth when `per_depth_discount`, which
    makes the bond rate deterministic)."""
    M = np.ones(tree.n)
    depth_disc = rng.uniform(0.85, 0.99, size=tree.T + 1)
    for k in range(1, tree.T + 1):
        lv = tree.level[k]
        draw = rng.uniform(0.5, 1.5, size=lv.stop - lv.start)
        n_atoms = (lv.stop - lv.start) // tree.b
        disc = np.full(n_atoms, depth_disc[k]) if per_depth_discount \
            else rng.uniform(0.85, 0.99, size=n_atoms)
        mean = tree.to_parent(tree.prob[lv] * draw)
        M[lv] = tree.down(M[tree.level[k - 1]] * disc / mean) * draw
    return M


def _rates_from_spd(tree: Tree, M: np.ndarray) -> np.ndarray:
    r = np.zeros(tree.n)
    for k in range(1, tree.T + 1):
        lv, up = tree.level[k], tree.level[k - 1]
        disc = tree.to_parent(tree.prob[lv] * M[lv]) / M[up]
        r[lv] = tree.down(1.0 / disc - 1.0)
    return r


def _backward_prices(tree: Tree, M: np.ndarray, div: np.ndarray, terminal: np.ndarray) -> np.ndarray:
    price = np.empty(tree.n)
    price[tree.level[tree.T]] = terminal
    for k in range(tree.T, 0, -1):
        lv, up = tree.level[k], tree.level[k - 1]
        price[up] = tree.to_parent(tree.prob[lv] * M[lv] * (price[lv] + div[lv])) / M[up]
    return price


def _market_doc(tree: Tree, rates: np.ndarray, assets) -> dict:
    doc = tree.doc()
    doc["interest"] = tree.node_map(rates, 1)
    doc["assets"] = [{"name": name, "prices": tree.node_map(price),
                      "dividends": tree.node_map(div, 1)} for name, price, div in assets]
    return doc


def complete_assets(tree: Tree, M: np.ndarray):
    """Bond rates and b-1 slot assets (dividend 1, plus 1 in their own child
    slot; terminal price 1) priced off M: a complete market with SPD M."""
    assets = []
    for j in range(max(1, tree.b - 1)):
        div = 1.0 + (tree.slot == j + 1)
        div[0] = 0.0
        assets.append((f"slot{j + 1}", _backward_prices(tree, M, div, np.ones(tree.b ** tree.T)), div))
    return _rates_from_spd(tree, M), assets


def complete_market(rng: np.random.Generator, depth: int, branch: int) -> dict:
    tree = Tree(depth, branch, uniform_probs(depth, branch))
    return _market_doc(tree, *complete_assets(tree, random_spd(rng, tree)))


def _aggregate_spd_positive(tree: Tree, rates, price, div) -> bool:
    """Forward pass of the aggregate SPD of a bond + one-asset market: on
    each atom, the SPD lies in the payoff span and prices both instruments."""
    m_prev = np.ones(1)
    for k in range(1, tree.T + 1):
        lv, up = tree.level[k], tree.level[k - 1]
        X = np.stack([1.0 + rates[lv], price[lv] + div[lv]], axis=1).reshape(-1, tree.b, 2)
        w = tree.prob[lv].reshape(-1, tree.b, 1)
        gram = np.einsum("aci,acj->aij", X * w, X)
        target = np.stack([m_prev, m_prev * price[up]], axis=1)
        theta = np.linalg.solve(gram, target[..., None])[..., 0]
        m = np.einsum("aci,ai->ac", X, theta).reshape(-1)
        if np.any(m <= 0.0):
            return False
        m_prev = m
    return True


def general_market(rng: np.random.Generator, depth: int, branch: int, max_tries: int = 50) -> dict:
    """Incomplete market: bond plus one risky asset priced off a random SPD
    Z, with stochastic predictable rates; redrawn until the aggregate SPD is
    strictly positive."""
    tree = Tree(depth, branch, [rng.dirichlet(np.full(branch, 5.0))] * depth)
    for _ in range(max_tries):
        Z = random_spd(rng, tree)
        rates = _rates_from_spd(tree, Z)
        div = rng.uniform(0.2, 1.0, size=tree.n)
        div[0] = 0.0
        price = _backward_prices(tree, Z, div, rng.uniform(0.5, 1.5, size=branch ** depth))
        if _aggregate_spd_positive(tree, rates, price, div):
            return _market_doc(tree, rates, [("risky", price, div)])
    raise RuntimeError("no general market with a positive aggregate SPD")


def factor_market(rng: np.random.Generator, f_depth: int, f_branch: int, noise: int,
                  deterministic_rate: bool = False) -> dict:
    """Idiosyncratically incomplete market: a complete market on a factor
    tree, lifted to the product with independent noise, and the factor
    partitions written as `idio_factor` (blocks: nodes sharing a factor
    node).  `habitree.io.dump_market` would drop that section."""
    f_tree = Tree(f_depth, f_branch, [rng.dirichlet(np.full(f_branch, 5.0))] * f_depth)
    rates_f, assets_f = complete_assets(
        f_tree, random_spd(rng, f_tree, per_depth_discount=deterministic_rate))
    noise_probs = []
    for _ in range(f_depth):
        w = rng.integers(1, 6, size=noise).astype(float)
        noise_probs.append(w / w.sum())
    # child slot s of the product tree = (factor slot s // noise, noise slot s % noise)
    probs = [np.outer(f_tree.prob[f_tree.level[1]], noise_probs[k]).reshape(-1)
             for k in range(f_depth)]
    tree = Tree(f_depth, f_branch * noise, probs)
    f_of = np.zeros(tree.n, dtype=np.int64)
    for k in range(1, f_depth + 1):
        lv = tree.level[k]
        f_of[lv] = f_branch * tree.down(f_of[tree.level[k - 1]]) + 1 + tree.slot[lv] // noise
    doc = _market_doc(tree, rates_f[f_of],
                      [(name, price[f_of], div[f_of]) for name, price, div in assets_f])
    idio = {}
    for k in range(1, f_depth + 1):
        blocks = {}
        for i in range(tree.level[k].start, tree.level[k].stop):
            blocks.setdefault(int(f_of[i]), []).append(tree.ids[i])
        idio[str(k)] = list(blocks.values())
    doc["idio_factor"] = idio
    return doc


def agent(rng: np.random.Generator, market: dict, gamma: float) -> dict:
    ids = [node["id"] for node in market["nodes"]]
    endow = rng.uniform(1.0, 2.0, size=len(ids))
    return dict(AGENT, gamma=gamma, endowment={nid: float(v) for nid, v in zip(ids, endow)})


def growth_tree(growth=GROWTH, horizon: int = ECON_HORIZON):
    """Binary i.i.d. growth tree (equally likely factors) and its aggregate
    endowment, eps_0 = 1."""
    tree = Tree(horizon, len(growth), uniform_probs(horizon, len(growth)))
    eps = np.ones(tree.n)
    for k in range(1, horizon + 1):
        lv = tree.level[k]
        eps[lv] = tree.down(eps[tree.level[k - 1]]) * np.asarray(growth)[tree.slot[lv]]
    return tree, eps


def hetero_economy(rng: np.random.Generator) -> dict:
    """Three agent types whose endowments split the aggregate node by node
    around fixed mean shares."""
    tree, eps = growth_tree()
    mean = np.array([a[2] for a in HETERO_AGENTS])[:, None]
    w = mean * np.exp(SHARE_NOISE * rng.standard_normal((len(HETERO_AGENTS), tree.n)))
    w /= w.sum(axis=0)
    agents = [{"gamma": g, "rho": r, "endowment": tree.node_map(w[i] * eps)}
              for i, (g, r, _) in enumerate(HETERO_AGENTS)]
    return {"economy": {"tree": tree.doc(), "beta": ECON_BETA, "agents": agents}}


def homogeneous_economy(rng: np.random.Generator) -> dict:
    """One agent type on the same growth tree (closed-form equilibrium)."""
    tree, eps = growth_tree()
    one = {"gamma": float(rng.uniform(1.5, 4.0)), "rho": float(rng.uniform(0.0, 0.05)),
           "endowment": tree.node_map(eps)}
    return {"economy": {"tree": tree.doc(), "beta": ECON_BETA, "agents": [one]}}


def desk_economy() -> dict:
    """The two-agent desk economy: growth factors 3 or 4, horizon 2, shares
    0.6/0.4, gammas 2/3, rhos 0/0.05, beta 0.1."""
    tree, eps = growth_tree((3.0, 4.0), 2)
    agents = [{"gamma": g, "rho": r, "endowment": tree.node_map(s * eps)}
              for g, r, s in ((2.0, 0.0, 0.6), (3.0, 0.05, 0.4))]
    return {"economy": {"tree": tree.doc(), "beta": 0.1, "agents": agents}}


def with_agent(rng: np.random.Generator, market: dict, gamma: float = GAMMA_STEADY) -> dict:
    return {"market": market, "agent": agent(rng, market, gamma)}


# one generator per op input kind; each draws from its own stream
KINDS = {
    "complete": lambda rng: with_agent(rng, complete_market(rng, 9, 2)),
    "incomplete": lambda rng: with_agent(rng, general_market(rng, 6, 3), GAMMA_INCOMPLETE),
    "factor": lambda rng: with_agent(rng, factor_market(rng, 3, 3, 3)),
    "factor-det": lambda rng: with_agent(rng, factor_market(rng, 4, 2, 2, deterministic_rate=True)),
    "hetero": hetero_economy,
    "homogeneous": homogeneous_economy,
    "small-market": lambda rng: complete_market(rng, 3, 3),
}


def documents(kind: str, seed: int, count: int) -> list:
    """`count` JSON texts of one kind; document i depends on (seed, kind, i) only."""
    tag = sum(ord(c) for c in kind)
    return [json.dumps(KINDS[kind](np.random.default_rng([seed, tag, i])))
            for i in range(count)]
