"""Security market model on an event tree.

A market is a riskless bond (predictable rate) plus N dividend-paying risky
assets.  Period-k payoffs attainable from period k-1 portfolios form the
payoff space L_k; the associated aggregate state price density M is the unique
process with M_0 = 1 that prices every instrument and whose one-period
restriction lies in the payoff span.  Markets whose aggregate SPD vanishes or
changes sign are rejected at construction.

The perturbed SPD Mtilde augments M with habit-weighted conditional
expectations of its future values; it is the effective marginal price of
habit-adjusted consumption and feeds the optimizer's first-order conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import MarketError, SchemaError
from .tree import (
    AdaptedProcess,
    EventTree,
    Partition,
    blockwise_reduce,
    cond_expectation_arrays,
)

PRUNE_TOL = 1e-10      # relative tolerance for dropping dependent payoff columns
PRICE_TOL = 1e-10      # pricing-identity tolerance for the aggregate SPD
EPS = np.finfo(float).eps


@dataclass
class Asset:
    """One risky security: positive price process and nonnegative dividends
    (paid at depths 1..T; the root dividend entry must be zero)."""

    name: str
    prices: AdaptedProcess
    dividends: AdaptedProcess

    def __post_init__(self):
        T = self.prices.tree.horizon
        if self.prices.depth != T or self.dividends.depth != T:
            raise SchemaError("assets", f"{self.name}: prices/dividends must cover depths 0..{T}")
        if not np.all(np.isfinite(self.prices.values) & np.isfinite(self.dividends.values)):
            raise SchemaError("assets", f"{self.name}: prices and dividends must be finite")
        if np.any(self.prices.values <= 0.0):
            raise SchemaError("assets.prices", f"{self.name}: prices must be strictly positive")
        if np.any(self.dividends.values < 0.0):
            raise SchemaError("assets.dividends", f"{self.name}: dividends must be nonnegative")
        if abs(self.dividends.at_depth(0)[0]) != 0.0:
            raise SchemaError("assets.dividends", f"{self.name}: no dividend at the root")


@dataclass
class BasisGroup:
    """Payoff bases of the depth-(k-1) atoms that share a child count b and a
    kept-column set, stacked along axis 0 with the atoms in index order.
    Positions count within their own depth, as in
    :meth:`EventTree.child_groups`."""

    atoms: np.ndarray         # (G,) atom positions at depth k-1
    kids: np.ndarray          # (G, b) child positions at depth k
    kept_cols: tuple          # the r instruments kept, bond (0) first
    full: np.ndarray          # (G, b, J) all instrument payoffs, bond column 0
    cond_probs: np.ndarray    # (G, b)
    onb: np.ndarray           # (G, b, r)

    @property
    def rank(self) -> int:
        return len(self.kept_cols)


@dataclass
class MarketSpec:
    """Tree market: assets, predictable nonnegative interest, and optional
    idiosyncratic factor partitions F_k.  Construction validates the data and
    computes the aggregate SPD, rejecting markets without a strictly positive
    one.  The intermediate partitions H_k are not an input: they follow from
    the payoff spans (:func:`validate_market_class`)."""

    tree: EventTree
    assets: tuple
    interest: AdaptedProcess
    idio: Optional[tuple] = None        # Partition per depth k=1..T (F_k)
    _groups: list = field(init=False, repr=False)
    _complete: bool = field(init=False, repr=False)
    _spd: AdaptedProcess = field(init=False, repr=False)

    def __post_init__(self):
        tree = self.tree
        self.assets = tuple(self.assets)
        T = tree.horizon
        if self.interest.depth != T:
            raise SchemaError("interest", f"must cover depths 0..{T}")
        if not np.all(np.isfinite(self.interest.values)):
            raise SchemaError("interest", "rates must be finite")
        if np.any(self.interest.values < 0.0):
            raise SchemaError("interest", "rates must be nonnegative")
        for k in range(1, T + 1):
            rk = self.interest.at_depth(k)
            hi = np.full(len(tree.depth_nodes[k - 1]), -np.inf)
            lo = np.full(len(tree.depth_nodes[k - 1]), np.inf)
            np.maximum.at(hi, tree.parent_pos(k), rk)
            np.minimum.at(lo, tree.parent_pos(k), rk)
            bad = np.flatnonzero(hi - lo > 1e-12)
            if len(bad):
                u = tree.depth_nodes[k - 1][bad[0]]
                raise SchemaError("interest", f"rate not predictable below node {tree.ids[int(u)]}")
        if self.idio is not None:
            if len(self.idio) != T:
                raise SchemaError("idio_factor", f"need one partition per depth 1..{T}")
            for k, part in enumerate(self.idio, start=1):
                if part.depth != k:
                    raise SchemaError("idio_factor", f"partition {k} has depth {part.depth}")
        self._groups = [None] + [self._build_groups(k) for k in range(1, T + 1)]
        self._complete = all(len(g.kept_cols) == g.kids.shape[1]
                             for groups in self._groups[1:] for g in groups)
        self._spd = compute_aggregate_spd(self)

    # payoff bases ----------------------------------------------------------

    def payoffs(self, k: int) -> np.ndarray:
        """Depth-k payoffs of every instrument, (nodes, 1 + assets), bond
        column 0."""
        return np.column_stack([1.0 + self.interest.at_depth(k)]
                               + [a.prices.at_depth(k) + a.dividends.at_depth(k)
                                  for a in self.assets])

    def _build_groups(self, k: int) -> list:
        """Weighted Gram-Schmidt once per child-count group, then one
        :class:`BasisGroup` per kept-column set within it."""
        tree = self.tree
        payoffs = self.payoffs(k)
        probs = tree.trans_prob[tree.depth_nodes[k]]
        out = []
        for atoms, kids in tree.child_groups(k):
            full, w = payoffs[kids], probs[kids]
            keep, ortho = _gram_schmidt(full, w)
            # split off one kept-column set at a time (few sets per group)
            rest = np.arange(len(atoms))
            while len(rest):
                same = np.all(keep[rest] == keep[rest[0]], axis=1)
                sel, rest = rest[same], rest[~same]
                cols = np.flatnonzero(keep[sel[0]])
                out.append(BasisGroup(atoms[sel], kids[sel], tuple(int(j) for j in cols),
                                      full[sel], w[sel],
                                      np.ascontiguousarray(ortho[sel][:, :, cols])))
        return out

    def basis_groups(self, k: int) -> list:
        """The payoff bases of L_k as stacked :class:`BasisGroup` s."""
        if not 1 <= k <= self.tree.horizon:
            raise ValueError(f"depth {k} outside 1..{self.tree.horizon}")
        return self._groups[k]

    def atom_bases(self, k: int) -> list:
        """One-atom slices of :meth:`basis_groups`, one per depth-(k-1) atom
        in atom order, for callers that still count ranks atom by atom."""
        view = [None] * len(self.tree.depth_nodes[k - 1])
        for g in self.basis_groups(k):
            for i, a in enumerate(g.atoms):
                s = slice(i, i + 1)
                view[a] = BasisGroup(g.atoms[s], g.kids[s], g.kept_cols, g.full[s],
                                     g.cond_probs[s], g.onb[s])
        return view

    @property
    def spd(self) -> AdaptedProcess:
        return self._spd

    def is_complete(self) -> bool:
        return self._complete

    def deterministic_rate(self) -> bool:
        for k in range(1, self.tree.horizon + 1):
            rk = self.interest.at_depth(k)
            if np.max(rk) - np.min(rk) > 1e-12:
                return False
        return True


def _gram_schmidt(full: np.ndarray, w: np.ndarray):
    """Greedy weighted Gram-Schmidt on stacked atoms (full (G, b, J), weights
    w (G, b)), keeping numerically independent columns (bond first) at
    relative tolerance PRUNE_TOL, with one re-orthogonalization pass.
    Returns keep (G, J) and the orthonormal vectors (G, b, J), zero in the
    columns an atom drops: subtracting their zero projection leaves r as it
    is, so each atom gets the bits of running the loop on its own."""
    G, b, J = full.shape
    keep = np.zeros((G, J), dtype=bool)
    ortho = np.zeros((G, b, J))
    for j in range(J):
        v = full[:, :, j]
        norm0 = np.sqrt((w * v * v).sum(axis=1))
        r = v.copy()
        for _ in range(2):
            for i in range(j):
                q = ortho[:, :, i]
                r -= (w * q * r).sum(axis=1)[:, None] * q
        norm_r = np.sqrt((w * r * r).sum(axis=1))
        keep[:, j] = kj = norm_r > PRUNE_TOL * norm0
        ortho[kj, :, j] = r[kj] / norm_r[kj, None]
    return keep, ortho


def project(market: MarketSpec, X: Union[AdaptedProcess, np.ndarray], k: int) -> np.ndarray:
    """Orthogonal projection of X onto the payoff space L_k under E[XY].

    X may be an adapted process at depth >= k (its deepest slice is first
    conditioned down to depth k) or a raw array over depth-k nodes.  Returns
    the projection as an array over depth-k nodes.
    """
    tree = market.tree
    if k < 1:
        raise ValueError("payoff spaces start at depth 1")
    if isinstance(X, AdaptedProcess):
        target = cond_expectation_arrays(tree, X.at_depth(X.depth), X.depth, k)
    else:
        target = np.asarray(X, dtype=float)
        if target.shape != (len(tree.depth_nodes[k]),):
            raise ValueError("array input must align with depth-k nodes")
    out = np.empty_like(target)
    for g in market.basis_groups(k):
        coords = np.matmul(g.onb.transpose(0, 2, 1), (g.cond_probs * target[g.kids])[:, :, None])
        out[g.kids] = np.matmul(g.onb, coords)[:, :, 0]
    return out


def compute_aggregate_spd(market: MarketSpec) -> AdaptedProcess:
    """Aggregate state price density: M_0 = 1, every instrument priced at
    every atom, and M_k's restriction inside the payoff span.

    Solved depth by depth going forward: on each atom the payoff-span
    coordinates of M_k satisfy a moment system, solved by least squares for
    a whole basis group at once; prices of pruned (redundant) instruments
    are then verified.  Raises MarketError, naming the first offending atom
    in index order, when no solution exists or the SPD vanishes/changes
    sign.
    """
    tree = market.tree
    slices = [np.array([1.0])]
    for k in range(1, tree.horizon + 1):
        prev = slices[k - 1]
        # instrument prices times M_{k-1}, per depth-(k-1) atom, bond first
        priced = prev[:, None] * np.column_stack([np.ones(len(prev))]
                                                 + [a.prices.at_depth(k - 1) for a in market.assets])
        cur = np.empty(len(tree.depth_nodes[k]))
        gaps = np.empty_like(priced)
        for g in market.basis_groups(k):
            target = priced[g.atoms]
            fullT = g.full.transpose(0, 2, 1)
            # moment system over the orthonormal span coordinates; the
            # unsquared least-squares solve avoids Gram-conditioning loss.
            # np.linalg.lstsq takes one matrix; the gufunc under it runs the
            # same LAPACK gelsd on each matrix of a stack, with its default
            # rcond, so every atom gets the bits of its own lstsq call.
            # This private gufunc and its 'ddd->ddid' signature are verified
            # on numpy 2.4 only, hence the numpy>=2.4 floor in pyproject.toml;
            # the bit-for-bit SPD test against np.linalg.lstsq guards them
            A = np.matmul(fullT, g.cond_probs[:, :, None] * g.onb)
            with np.errstate(all="ignore"):
                theta = _umath_linalg.lstsq(A, target[:, :, None], EPS * max(A.shape[1:]),
                                            signature="ddd->ddid")[0]
            m_kids = np.matmul(g.onb, theta)[:, :, 0]
            cur[g.kids] = m_kids
            implied = np.matmul(fullT, (g.cond_probs * m_kids)[:, :, None])[:, :, 0]
            gaps[g.atoms] = np.abs(implied - target)
        # redundant instruments must be priced consistently, else no SPD
        scale = np.maximum(1.0, np.abs(priced))
        bad = np.flatnonzero(np.any(gaps > PRICE_TOL * scale, axis=1))
        if len(bad):
            u = bad[0]
            j = int(np.argmax(gaps[u] / scale[u]))
            raise MarketError(
                f"no aggregate SPD: instrument {j} mispriced at atom "
                f"{tree.ids[tree.n_upto(k - 2) + u]} depth {k} (gap {gaps[u, j]:.3e})")
        if not np.all(cur > 0.0):
            raise MarketError(
                f"aggregate SPD vanishes or changes sign at depth {k}; market rejected")
        slices.append(cur)
    return AdaptedProcess.from_depth_arrays(tree, slices)


def spd_edge_ratios(tree: EventTree, M: AdaptedProcess) -> np.ndarray:
    """Per-node array of M(node)/M(parent) (1.0 at the root)."""
    ratios = np.ones(tree.n_nodes)
    ratios[1:] = M.values[1:] / M.values[tree.parent[1:]]
    return ratios


# -- perturbed SPD ------------------------------------------------------------


def static_habit_matrix(beta: float, horizon: int) -> np.ndarray:
    """Habit coefficients for last-period habits: beta on the first
    subdiagonal, zero elsewhere."""
    mat = np.zeros((horizon + 1, horizon + 1))
    for k in range(1, horizon + 1):
        mat[k, k - 1] = beta
    return mat


def habit_terms(tree: EventTree, habits: np.ndarray):
    """(depth-k nodes, their depth-l ancestors, beta^(k)_l) for every nonzero
    habit coefficient, k ascending, then l ascending."""
    for k, l in zip(*np.nonzero(habits)):
        nodes = anc = tree.depth_nodes[k]
        for _ in range(k - l):
            anc = tree.parent[anc]
        yield nodes, anc, habits[k, l]


def habit_surplus(tree: EventTree, habits: np.ndarray, c: np.ndarray) -> np.ndarray:
    """s_k = c_k - sum_{l<k} beta^(k)_l c_l (ancestors' consumption)."""
    s = c.copy()
    for nodes, anc, b in habit_terms(tree, habits):
        s[nodes] -= b * c[anc]
    return s


def consumption_from_surplus(tree: EventTree, habits: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Inverse of :func:`habit_surplus`, run forward through the depths."""
    c = s.copy()
    for nodes, anc, b in habit_terms(tree, habits):
        c[nodes] += b * c[anc]
    return c


def _check_habits(habits: np.ndarray, horizon: int) -> np.ndarray:
    habits = np.asarray(habits, dtype=float)
    if habits.shape != (horizon + 1, horizon + 1):
        raise SchemaError("beta_matrix", f"expected shape {(horizon + 1, horizon + 1)}")
    if not np.all(np.isfinite(habits)):
        raise SchemaError("beta_matrix", "habit coefficients must be finite")
    if np.any(habits < 0.0):
        raise SchemaError("beta_matrix", "habit coefficients must be nonnegative")
    if np.any(np.triu(habits) != 0.0):
        raise SchemaError("beta_matrix", "habit matrix must be strictly lower triangular")
    return habits


def habit_expectations(tree: EventTree, habits: np.ndarray, y: np.ndarray):
    """The backward habit walk: for k = T-1 down to 0 yields (k, [(beta^(m)_k,
    E[y_m | G_k]) for m > k with beta^(m)_k != 0], m ascending).  Step k reads
    y at depth k+1 only, so a caller may fill in y in place as the walk goes."""
    T = len(habits) - 1
    nz = habits != 0.0
    lowest = np.where(nz.any(axis=1), nz.argmax(axis=1), T + 1).tolist()
    # running[m] = E[y_m | G_k], kept while row m has a nonzero at depth <= k
    running = {}
    for k in range(T - 1, -1, -1):
        running[k + 1] = y[tree.depth_nodes[k + 1]]
        running = {m: cond_expectation_arrays(tree, v, k + 1, k)
                   for m, v in running.items() if lowest[m] <= k}
        yield k, [(habits[m, k], running[m]) for m in range(k + 1, T + 1) if nz[m, k]]


def _habit_walk(tree: EventTree, habits: np.ndarray, y: np.ndarray, out: np.ndarray,
                sign: float) -> np.ndarray:
    """out_k = y_k + sign sum_{m>k} beta^(m)_k E[y_m | G_k] for k < T; out may
    be y itself."""
    for k, terms in habit_expectations(tree, habits, y):
        nodes = tree.depth_nodes[k]
        acc = y[nodes]
        for b, e in terms:
            acc = acc + sign * b * e
        out[nodes] = acc
    return out


def habit_adjoint(tree: EventTree, habits: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x_k - sum_{m>k} beta^(m)_k E[x_m | G_k], the adjoint of the habit map.
    Applied to the marginal utilities e^{-rho k} s_k^{-gamma} it gives the
    supporting SPD R*; applied to the perturbed SPD it gives M."""
    return _habit_walk(tree, habits, x, x.copy(), -1.0)


def perturbed_spd(M: AdaptedProcess, habits: Union[float, np.ndarray]) -> AdaptedProcess:
    """Perturbed aggregate SPD, the inverse of :func:`habit_adjoint` applied
    to M: the backward recursion
    ``Mtilde_k = M_k + sum_{m>k} beta^(m)_k E[Mtilde_m | G_k]``
    (for static habits ``Mtilde_k = M_k + beta E[Mtilde_{k+1}|G_k]``), which
    unrolls to the habit-chain multi-sum over E[M_l | G_k].
    """
    T = M.depth
    if np.isscalar(habits):
        habits = static_habit_matrix(float(habits), T)
    habits = _check_habits(habits, T)
    tilde = M.values.copy()
    return AdaptedProcess(M.tree, T, _habit_walk(M.tree, habits, tilde, tilde, 1.0))


@dataclass
class SpdPair:
    """Aggregate SPD together with its habit-perturbed companion."""

    M: AdaptedProcess
    Mtilde: AdaptedProcess

    def __post_init__(self):
        if abs(self.M.at_depth(0)[0] - 1.0) > 1e-12:
            raise MarketError("aggregate SPD must be normalized to M_0 = 1")
        if np.any(self.M.values == 0.0):
            raise MarketError("aggregate SPD must be nonzero at every node")
        if np.any(self.Mtilde.values < self.M.values - 1e-12):
            raise MarketError("perturbed SPD below aggregate SPD despite nonnegative habits")


def spd_pair(market: MarketSpec, habits: Union[float, np.ndarray]) -> SpdPair:
    M = market.spd
    return SpdPair(M, perturbed_spd(M, habits))


# -- pricing utilities ---------------------------------------------------------


def present_value(tree: EventTree, M: AdaptedProcess, payments: AdaptedProcess, k: int) -> np.ndarray:
    """sum_{n>k} E[(M_n/M_k) payments_n | G_k] over depth-k nodes (payments
    at depths k+1..T; the depth-k slice itself is not included)."""
    T = payments.depth
    ratios = spd_edge_ratios(tree, M)
    v = np.zeros(len(tree.depth_nodes[T]))
    for n in range(T, k, -1):
        nodes = tree.depth_nodes[n]
        v = tree.sibling_sum(n, tree.trans_prob[nodes] * ratios[nodes] * (payments.at_depth(n) + v))
    return v


# -- market classification -----------------------------------------------------


@dataclass
class MarketClassification:
    """Constructively verified labels plus the intermediate partitions that
    witness the class-C property, derived from the payoff spans."""

    labels: frozenset
    classC_partitions: Optional[tuple] = None


def _projections(g: BasisGroup) -> np.ndarray:
    """Matrices of the orthogonal projection onto each atom's payoff span in
    the weighted inner product, stacked (G, b, b)."""
    return np.matmul(g.onb, g.onb.transpose(0, 2, 1) * g.cond_probs[:, None, :])


def _derive_intermediate(market: MarketSpec, k: int) -> Optional[Partition]:
    """Find H_k with projection = conditional expectation onto H_k, if the
    payoff projections have exact block structure.  The candidate blocks are
    the connected components of each projection's support; blocks come out
    ordered by their first child, children in index order."""
    tree = market.tree
    first = np.empty(len(tree.depth_nodes[k]), dtype=np.int64)
    for g in market.basis_groups(k):
        proj = _projections(g)
        b = proj.shape[1]
        reach = np.abs(proj) > 1e-8
        reach |= reach.transpose(0, 2, 1) | np.eye(b, dtype=bool)
        # each squaring doubles the path length covered; b - 1 suffices
        for _ in range(max(b - 2, 0).bit_length()):
            reach = np.matmul(reach, reach)
        # the projection must be conditional expectation onto those blocks
        w = g.cond_probs[:, None, :]
        mass = np.where(reach, w, 0.0).sum(axis=2)
        if np.max(np.abs(proj - np.where(reach, w / mass[:, :, None], 0.0))) > 1e-10:
            return None
        # label each child by its first block-mate
        first[g.kids] = np.take_along_axis(g.kids, reach.argmax(axis=2), axis=1)
    order = np.argsort(first, kind="stable")
    starts = np.flatnonzero(np.diff(first[order]))
    return Partition(tree, k, tuple(np.split(tree.n_upto(k - 1) + order, starts + 1)))


def _verify_idiosyncratic(market: MarketSpec) -> bool:
    """Definition check: securities adapted to F, F-claims replicable, and
    E[X|G_k] = E[X|F_k] on a basis of the depth-(k+1) factor claims."""
    if market.idio is None:
        return False
    tree = market.tree
    T = tree.horizon
    p = tree.probabilities()
    for k in range(1, T + 1):
        part = market.idio[k - 1]
        payoffs = market.payoffs(k)
        spread = (blockwise_reduce(tree, payoffs, k, part, np.maximum)
                  - blockwise_reduce(tree, payoffs, k, part, np.minimum))
        if np.max(spread) > 1e-10:
            return False
        # replicability of factor claims: on an atom's children, the
        # indicator of child j's block is column j of `same`
        label = part.block_index()
        for g in market.basis_groups(k):
            lab = label[g.kids]
            same = (lab[:, :, None] == lab[:, None, :]).astype(float)
            if np.max(np.abs(np.matmul(_projections(g), same) - same)) > 1e-10:
                return False
    # conditional independence on indicators of F_{k+1}; at k = 0 both
    # sigma-algebras are trivial, so the check starts at k = 1
    for k in range(1, T):
        pk = p[tree.depth_nodes[k]]
        fk = market.idio[k - 1].block_index()
        nxt = market.idio[k].block_index()
        # mass[u, b]: probability of u's children that lie in F_{k+1} block b
        onehot = nxt[:, None] == np.arange(len(market.idio[k].blocks))
        mass = tree.sibling_sum(k + 1, p[tree.depth_nodes[k + 1]][:, None] * onehot)
        cond_g = mass / pk[:, None]
        fmass = np.zeros((len(market.idio[k - 1].blocks), mass.shape[1]))
        np.add.at(fmass, fk, mass)
        cond_f = (fmass / np.bincount(fk, weights=pk)[:, None])[fk]
        if np.max(np.abs(cond_g - cond_f)) > 1e-12:
            return False
    return True


def validate_market_class(market: MarketSpec) -> MarketClassification:
    """Classify the market, verifying each label constructively.

    Labels: 'complete', 'classC' (projection equals conditional expectation
    onto an intermediate partition: the singletons on a complete market, else
    the blocks :func:`_derive_intermediate` finds in the payoff spans),
    'idiosyncratic' (explicit factor filtration satisfying the definition),
    and 'deterministic-rate'.  When nothing holds the label is {'general'}.
    """
    tree = market.tree
    labels = set()
    partitions = None
    if market.is_complete():
        labels.update(("complete", "classC"))
        partitions = tuple(Partition.singletons(tree, k) for k in range(1, tree.horizon + 1))
    else:
        derived = tuple(_derive_intermediate(market, k) for k in range(1, tree.horizon + 1))
        if all(d is not None for d in derived):
            labels.add("classC")
            partitions = tuple(derived)
    if _verify_idiosyncratic(market):
        labels.add("idiosyncratic")
    if market.deterministic_rate():
        labels.add("deterministic-rate")
    if not labels:
        labels.add("general")
    return MarketClassification(frozenset(labels), partitions)


def intermediate_partitions(market: MarketSpec) -> tuple:
    """The H_k partitions used by hedging and the bound recursions, derived
    from the payoff spans (singletons on a complete market).  On a verified
    idiosyncratic market they are sigma(G_{k-1}, F_k)."""
    return partitions_of_class(validate_market_class(market))


def partitions_of_class(cls: MarketClassification) -> tuple:
    """:func:`intermediate_partitions` from an existing classification."""
    if cls.classC_partitions is None:
        raise MarketError("market has no class-C structure (derived from its payoff spans)")
    return cls.classC_partitions


# -- complete-market synthesis ---------------------------------------------------


def complete_market_from_spd(tree: EventTree, M: AdaptedProcess) -> MarketSpec:
    """Build a complete market whose aggregate SPD is exactly M.

    Bond rate from one-period bond pricing; risky assets pay 1 plus a
    child-slot indicator dividend each period, with prices backed out of the
    SPD.  Requires the implied rates to be nonnegative.
    """
    T = tree.horizon
    slot = tree.sibling_slot
    r_slices = [np.zeros(1)]
    for k in range(1, T + 1):
        nodes = tree.depth_nodes[k]
        disc = tree.sibling_sum(k, tree.trans_prob[nodes] * M.at_depth(k)) / M.at_depth(k - 1)
        if np.any(disc > 1.0 + 1e-12):
            raise MarketError("SPD implies a negative interest rate; cannot synthesize market")
        r_slices.append((1.0 / disc - 1.0)[tree.parent_pos(k)])
    interest = AdaptedProcess.from_depth_arrays(tree, r_slices)

    ratios = spd_edge_ratios(tree, M)
    assets = []
    for j in range(max(1, int(slot.max()))):
        div_slices = [np.zeros(1)]
        for k in range(1, T + 1):
            div_slices.append(1.0 + (slot[tree.depth_nodes[k]] == j + 1).astype(float))
        price_slices = [None] * (T + 1)
        price_slices[T] = np.ones(len(tree.depth_nodes[T]))
        for k in range(T - 1, -1, -1):
            nodes = tree.depth_nodes[k + 1]
            nxt = price_slices[k + 1] + div_slices[k + 1]
            price_slices[k] = tree.sibling_sum(k + 1, tree.trans_prob[nodes] * ratios[nodes] * nxt)
        assets.append(Asset(f"slot{j + 1}",
                            AdaptedProcess.from_depth_arrays(tree, price_slices),
                            AdaptedProcess.from_depth_arrays(tree, div_slices)))
    return MarketSpec(tree, tuple(assets), interest)
