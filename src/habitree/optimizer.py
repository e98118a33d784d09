"""Habit-forming power-utility consumption/investment optimization.

One agent maximizes  sum_k e^{-rho k} E[(c_k - sum_l beta^(k)_l c_l)^{1-gamma}/(1-gamma)]
over feasible consumption plans financed by trading in the market: c_k =
eps_k + W_k - E[(M_{k+1}/M_k) W_{k+1} | G_k] with each W_k inside the payoff
span L_k (W_0 = 0, W_{T+1} = 0).

``solve_consumption`` takes one route per market class, named in the
result's ``method``:

* complete markets -- ``"closed-form"``, ``iterations=0``.  The perturbed SPD
  Mtilde is the marginal price of habit-adjusted consumption, so the optimum
  satisfies e^{-rho k} s_k^{-gamma} = y Mtilde_k for the habit surplus s; the
  consumption follows forward through the habits and the multiplier y from
  the budget, and the wealth is the backward self-financing recursion.
* incomplete markets -- ``"newton"``: damped Newton on the first-order system
  over the pruned payoff-space wealth coordinates (stationarity of the
  utility in those coordinates is exactly the positive-SPD condition
  P^L_k[R*_k / R*_{k-1}] = M_k / M_{k-1}), and a line search that keeps
  every habit surplus positive.  It starts at the endowment (theta = 0)
  when every habit surplus of the endowment is positive, otherwise at a
  plan that trades only the bond account when that one is strictly
  feasible, and otherwise at the point of a phase-1 LP (the only use of
  scipy.optimize on this route, and the one that decides that no plan is
  feasible).  ``solve_endowments`` solves several endowments under one
  agent's preferences on one market with the maps built once, and starts
  every solve after the first at the first one's optimum wherever every
  habit surplus is positive there (the asymptotics sweep starts its grid
  at the artificial optimum this way).  Newton's linear maps are plain
  numpy arrays of their nonzero entries (:class:`_Map`), applied with the
  bits of scipy.sparse's products but without importing it.  Each Newton
  step solves its system by block elimination along the tree, deepest
  atoms first, since the Hessian couples an atom's coordinates only with
  those of a few generations of its ancestors.
  Iterates are tested with the first-order residual read off Newton's own
  gradient.  Once an iterate meets ``tol`` it takes one more Newton step,
  so the result sits at roundoff and does not depend on the start; a
  result is returned only when the residual recomputed from its plan meets
  ``tol`` too.

Either route checks the first-order residual of its result against ``tol``
and raises ConvergenceError when it is not met; Newton also stops, with the
same error, on a singular Newton system, a failed line search, a residual
that stagnates in the quadratic basin or MAX_NEWTON_ITER iterations.  The
residual is homogeneous of degree 0 in the endowment, and where the
supporting SPD leaves the float range it is read off the plan at unit
present value, so endowments that differ only in scale pass or fail alike.

``brute_force_oracle`` is the independent check: direct concave maximization
over the same wealth coordinates by log-barrier path following with a generic
quasi-Newton minimizer; it shares only the problem assembly with the Newton
route."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConvergenceError, InfeasibleProblemError, SchemaError
from .market import (MarketSpec, _check_habits, consumption_from_surplus, habit_adjoint,
                     habit_surplus, habit_terms, perturbed_spd, project, static_habit_matrix)
from .tree import AdaptedProcess, cond_expectation_arrays

FOC_TOL = 1e-9
MAX_NEWTON_ITER = 200
STALL_STEPS = 3
BACKTRACK = 0.5
SURPLUS_FLOOR = 1e-12
_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max


@dataclass
class AgentSpec:
    """Risk aversion gamma (> 0, != 1), impatience rho, habit coefficient
    matrix beta^(k)_l (strictly lower triangular, >= 0) and a nonnegative
    endowment stream."""

    gamma: float
    rho: float
    habits: np.ndarray
    endowment: AdaptedProcess

    def __post_init__(self):
        for name in ("gamma", "rho"):
            if not np.isfinite(getattr(self, name)):
                raise SchemaError(name, "must be a finite number")
        if self.gamma <= 0.0 or self.gamma == 1.0:
            raise SchemaError("gamma", "power utility needs gamma > 0 and gamma != 1")
        T = self.endowment.tree.horizon
        if self.endowment.depth != T:
            raise SchemaError("endowment", f"must cover depths 0..{T}")
        if not np.all(np.isfinite(self.endowment.values)):
            raise SchemaError("endowment", "endowment must be finite")
        if np.any(self.endowment.values < 0.0):
            raise SchemaError("endowment", "endowment must be nonnegative")
        if np.isscalar(self.habits):
            self.habits = static_habit_matrix(float(self.habits), T)
        self.habits = _check_habits(self.habits, T)


@dataclass
class SolveResult:
    """Optimal plan: consumption c, wealth W (W_0 = 0 stored at the root),
    the positive SPD R* supporting the optimum, and diagnostics."""

    c: AdaptedProcess
    W: AdaptedProcess
    R: AdaptedProcess
    utility: float
    foc_residual: float
    iterations: int
    method: str


# -- internal problem assembly -------------------------------------------------


def _check_same_tree(market: MarketSpec, agent: AgentSpec) -> None:
    if agent.endowment.tree is not market.tree and agent.endowment.tree.ids != market.tree.ids:
        raise SchemaError("endowment", "agent endowment lives on a different tree")


class _Map:
    """A sparse matrix as its entries (``row``, ``col``, ``val``), each
    row's entries listed in the order in which scipy.sparse sums them:
    ``A @ x`` adds each row's products up from 0 in that order, as scipy's
    CSR and CSC products do, so the two agree bit for bit.  ``indptr``,
    ``indices`` and ``data`` are the compressed rows (CSR) or, with
    ``by_row=False``, compressed columns (CSC), each row (column) in entry
    order; they are sorted out on first use."""

    def __init__(self, row, col, val, shape, by_row=True):
        self.row, self.col, self.val, self.shape, self.by_row = row, col, val, shape, by_row
        self.nnz = len(val)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.row, weights=self.val * x[self.col], minlength=self.shape[0])

    @property
    def T(self) -> "_Map":
        """The transpose, entries in this map's order.  When this map lists
        its entries by ascending row, each row of the transpose lists its
        entries in ascending column order, as scipy's ``A.T.tocsr()`` of a
        CSR ``A`` does."""
        return _Map(self.col, self.row, self.val, self.shape[::-1])

    @cached_property
    def _compressed(self):
        major, minor = (self.row, self.col) if self.by_row else (self.col, self.row)
        order = np.argsort(major, kind="stable")
        counts = np.bincount(major, minlength=self.shape[0 if self.by_row else 1])
        return np.concatenate([[0], np.cumsum(counts)]), minor[order], self.val[order]

    indptr = property(lambda self: self._compressed[0])
    indices = property(lambda self: self._compressed[1])
    data = property(lambda self: self._compressed[2])

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        np.add.at(dense, (self.row, self.col), self.val)
        return dense


def _product(L: _Map, K: _Map) -> _Map:
    """L K, entry for entry as scipy's ``L @ K`` of a CSR L stores it: rows
    ascending, each row's columns descending, each entry summed up from 0
    over L's row in entry order, and exact zeros dropped."""
    (n, _), m = L.shape, K.shape[1]
    Kr = _Map(K.row, K.col, K.val, K.shape)            # K's rows, columns ascending
    # join each entry of L with K's row at its column; the keys come nearly
    # sorted, and a stable sort keeps each key's terms in L's order
    count = np.diff(Kr.indptr)[L.col]
    e = np.repeat(np.arange(L.nnz), count)
    kk = np.repeat(Kr.indptr[L.col] - np.cumsum(count) + count, count) + np.arange(len(e))
    key = L.row[e] * m + Kr.indices[kk]
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.concatenate([[True], key[1:] != key[:-1]])
    sums = np.bincount(np.cumsum(first) - 1, weights=(L.val[e] * Kr.data[kk])[order])
    key, sums = key[first][sums != 0.0], sums[sums != 0.0]
    row = key // max(m, 1)
    # reverse each row: entry u of a row spanning [lo, hi) moves to lo + hi - 1 - u
    hi = np.cumsum(np.bincount(row, minlength=n))
    lo = np.concatenate([[0], hi[:-1]])
    rev = (lo + hi - 1)[row] - np.arange(len(row))
    return _Map(row, key[rev] % max(m, 1), sums[rev], (n, m))


class _Problem:
    """The market x preferences part of the problem: sparse linear maps and
    the Newton system's block pattern, shared by every endowment solved on
    the same market with the same preferences (the agent's gamma, rho and
    habits; its endowment is not read).  :class:`_Endowed` adds one
    endowment.

    c = base + K theta,  s = L c,  U(theta) = sum_n pw_n s_n^{1-gamma}/(1-gamma),
    W = Kw theta.  The maps are :class:`_Map` entry lists.  K (by columns)
    has one column per orthonormal payoff-basis vector and Kw is K without
    each column's parent-atom entry; L and LK = L K list their entries by
    rows, and LT and LKT are their transposes.  Newton's gradient is LKT phi
    at the marginal utilities phi = pw s^-gamma (:meth:`marginal`).  The
    Hessian LK^T diag(d) LK is assembled per Newton step as per-atom blocks
    (:meth:`hess`), in a pattern fixed here.
    """

    def __init__(self, market: MarketSpec, agent: AgentSpec):
        _check_same_tree(market, agent)
        tree = market.tree
        self.market = market
        self.agent = agent
        T = tree.horizon
        n = tree.n_nodes
        self.p = tree.probabilities()
        self.pw = self.p * np.exp(-agent.rho * tree.depth.astype(float))
        self.gamma = agent.gamma

        # L = I - sum_{l<k} beta^(k)_l (ancestor at depth l): each row holds
        # its ancestors' terms, l ascending, then the diagonal
        self.habit_terms = list(habit_terms(tree, agent.habits))
        indptr = np.concatenate([[0], np.cumsum(1 + np.count_nonzero(agent.habits, axis=1)[tree.depth])])
        indices, data = np.empty(indptr[-1], dtype=np.int64), np.empty(indptr[-1])
        indices[indptr[1:] - 1], data[indptr[1:] - 1] = np.arange(n), 1.0
        fill = indptr[:-1].copy()
        for nodes, anc, b in self.habit_terms:
            indices[fill[nodes]], data[fill[nodes]] = anc, -b
            fill[nodes] += 1
        self.L = _Map(np.repeat(np.arange(n), np.diff(indptr)), indices, data, (n, n))

        # wealth coordinates over the orthonormalized payoff bases (same
        # spans as the pruned raw payoffs, far better conditioned), atom by
        # atom in node order.  Column j of K holds, at the atom, minus the
        # price of basis vector j (np.sum(cond_probs * M * onb[:, j]) /
        # M[atom]), then the vector itself on the atom's children, which are
        # contiguous.
        M = market.spd.values
        groups = [(tree.n_upto(k - 2) + g.atoms, tree.n_upto(k - 1) + g.kids, g)
                  for k in range(1, T + 1) for g in market.basis_groups(k)]
        rank, first_kid, n_kids = (np.zeros(n, dtype=np.int64) for _ in range(3))
        for atoms, children, g in groups:
            rank[atoms], n_kids[atoms] = len(g.kept_cols), children.shape[1]
            first_kid[atoms] = children[:, 0]
        m = self.n_theta = int(rank.sum())
        first_col = np.cumsum(rank) - rank
        atom = np.repeat(np.arange(n), rank)
        height = np.repeat(n_kids + 1, rank)
        indptr = np.concatenate([[0], np.cumsum(height)])
        t = np.arange(indptr[-1]) - np.repeat(indptr[:-1], height)    # position in column
        kids = t > 0
        indices = np.where(kids, np.repeat(first_kid[atom] - 1, height) + t,
                           np.repeat(atom, height))
        data = np.empty(len(t))
        for atoms, children, g in groups:
            _, b, r = g.onb.shape
            # contiguous rows, so each price sums its b terms as one 1-D sum
            onb_rows = g.onb.transpose(0, 2, 1).copy()
            start = indptr[first_col[atoms][:, None] + np.arange(r)]        # (G, r)
            data[start] = -((g.cond_probs * M[children])[:, None, :] * onb_rows).sum(axis=2) \
                / M[atoms][:, None]
            data[start[:, :, None] + 1 + np.arange(b)] = onb_rows
        # per basis group, for the first-order residual and the bond start:
        # its atoms and children (node indices), theta's columns and the
        # scale 1 + |M_c/M_a| of the residual
        self._groups = [_Group(atoms, children, first_col[atoms][:, None] + np.arange(g.rank),
                               g.onb, g.cond_probs, 1.0 + np.abs(M[children] / M[atoms][:, None]))
                        for atoms, children, g in groups]
        col = np.repeat(np.arange(m), height)
        self.K = _Map(indices, col, data, (n, m), by_row=False)
        # the wealth map: K without each column's parent-atom entry
        self.Kw = _Map(indices[kids], col[kids], data[kids], (n, m), by_row=False)
        self.LK = LK = _product(self.L, self.K)
        self.LKT = LK.T
        self.LT = self.L.T

        # The Newton system -H d = g in tree-sparse blocks.  A row of LK
        # touches one root path, so -H = LK^T diag(d) LK couples an atom's
        # coordinates only with its own and with those of its ancestors at
        # most `reach` generations up.  The atoms of one depth are
        # independent, and are split into classes that share a block shape:
        # within a depth, ranks are bucketed from the top so that each
        # bucket's ranks lie within a factor of two, and a class is the
        # atoms with equal buckets for themselves and each ancestor.  A
        # class of rank r whose ancestors' ranks reach w_1 .. w_q owns one
        # r x (r + w_1 + .. + w_q + 1) row-major matrix per atom,
        # [-H(a, a) | -H(a, anc_1(a)) | .. | -H(a, anc_q(a)) | g], rows and
        # columns past a rank being zero except for an identity diagonal.
        # Each pair (e, f) of entries in one row of LK, f's atom an ancestor
        # of (or equal to) e's, adds into one position of the block array.
        # A row lists its columns descending, so its atoms' depths never
        # rise along it: f runs from the first entry of e's atom to the
        # row's end.
        self.n_atoms = n_atoms = tree.n_upto(T - 1)
        rows, ae = LK.row, atom[LK.col]
        dep = tree.depth[ae]
        run = np.flatnonzero(np.diff(rows, prepend=-1) | np.diff(ae, prepend=-1))
        first = np.repeat(run, np.diff(np.append(run, LK.nnz)))    # first entry of e's atom
        reps = np.cumsum(np.bincount(rows, minlength=n))[rows] - first
        f = np.repeat(first - np.cumsum(reps) + reps, reps) + np.arange(reps.sum())
        gap = np.repeat(dep, reps) - dep[f]
        R = self.reach = int(gap.max(initial=0))
        anc = np.empty((n_atoms, R + 1), dtype=np.int64)      # anc[:, i]: i generations up
        anc[:, 0] = np.arange(n_atoms)
        for i in range(1, R + 1):
            anc[:, i] = tree.parent[np.maximum(anc[:, i - 1], 0)]
        bucket = np.zeros(n_atoms, dtype=np.int64)
        for k in range(T):
            nodes = tree.depth_nodes[k]
            top, b = 0, -1
            for rk in np.unique(rank[nodes])[::-1]:
                if 2 * rk < top or b < 0:
                    top, b = rk, b + 1
                bucket[nodes[rank[nodes] == rk]] = b
        # per atom: its class's rank r, row width, and where the block of
        # each generation gap starts in the row
        row_r, wid = np.zeros(n_atoms, dtype=np.int64), np.zeros(n_atoms, dtype=np.int64)
        col0 = np.zeros((n_atoms, R + 1), dtype=np.int64)
        classes = []                                # (depth, atoms, w), root first
        for k in range(T):
            nodes = tree.depth_nodes[k]
            q = min(R, k)
            keys = bucket[anc[nodes, :q + 1]]
            order = np.lexsort(keys.T)                  # label the distinct rows of keys
            label = np.empty(len(nodes), dtype=np.int64)
            label[order] = np.cumsum(np.diff(keys[order], axis=0, prepend=keys[order[:1]]).any(axis=1))
            for j in range(label.max() + 1):
                atoms = nodes[label == j]
                w = rank[anc[atoms, :q + 1]].max(axis=0)           # w[0] = the class's r
                row_r[atoms], wid[atoms] = w[0], w.sum() + 1
                col0[atoms, 1:q + 1] = w[0] + np.cumsum(w[1:]) - w[1:]
                classes.append((k, atoms, w))
        size = row_r * wid
        row0 = np.zeros(n_atoms, dtype=np.int64)    # classes in order, root first
        order = np.concatenate([atoms for _, atoms, _ in classes])
        row0[order] = np.cumsum(size[order]) - size[order]
        depth0 = np.concatenate([[0], np.cumsum(np.bincount(tree.depth[:n_atoms], weights=size,
                                                             minlength=T))]).astype(np.int64)
        slot = np.arange(m) - first_col[atom]
        se = slot[LK.col]
        self._blk_pos = np.repeat(row0[ae] + se * wid[ae], reps) + col0[np.repeat(ae, reps), gap] + se[f]
        self._blk_per_row = np.bincount(rows, weights=reps, minlength=n).astype(np.int64)  # pairs per row
        self._blk_w = np.repeat(LK.val, reps) * LK.val[f]
        self._blk_size = int(size.sum())
        self._g_pos = row0[atom] + slot * wid[atom] + wid[atom] - 1
        n_pad = row_r - rank[:n_atoms]
        pad_atom = np.repeat(np.arange(n_atoms), n_pad)
        pad_slot = rank[pad_atom] + np.arange(len(pad_atom)) - np.repeat(np.cumsum(n_pad) - n_pad, n_pad)
        self._pad_pos = row0[pad_atom] + pad_slot * (wid[pad_atom] + 1)
        # the elimination order, deepest classes first.  Per class: its
        # slice of the block array; theta's index of each row (m + 1 for a
        # padded row); and, below the root, the window of its ancestors'
        # rows, where each entry of its Schur update A^T [Z_1 .. Z_q | y]
        # lands in that window (A = the ancestor blocks, Z and y their
        # solves), and theta's index of each ancestor coordinate (m for a
        # padded one, which stays 0).  Row block i+1 of the update (ancestor
        # anc_{i+1}) takes its Z_{i+1} columns into that ancestor's diagonal
        # block, Z_{i+2} .. Z_q into its ancestor blocks and y into its g;
        # the Z_1 .. Z_i columns and padded rows and columns land in one
        # discarded position past the window.
        self._sweep = []
        for k, atoms, w in reversed(classes):
            r, q = int(w[0]), len(w) - 1
            seg = slice(int(row0[atoms[0]]), int(row0[atoms[0]] + len(atoms) * size[atoms[0]]))
            p = np.arange(r)
            theta = np.where(p < rank[atoms, None], first_col[atoms, None] + p, m + 1)
            if q == 0:
                self._sweep.append(_Class(k, atoms, r, seg, theta, None, None, None))
                continue
            gen = np.repeat(np.arange(q), w[1:])                  # ancestor generation - 1
            sl = np.arange(len(gen)) - np.repeat(np.cumsum(w[1:]) - w[1:], w[1:])
            up = anc[atoms][:, 1 + gen]                           # (atoms, sum w)
            live = sl < rank[up]
            gather = np.where(live, first_col[up] + sl, m)
            lo, hi = depth0[k - q], depth0[k]
            col = np.concatenate([col0[up[:, :, None], np.maximum(gen - gen[:, None], 0)] + sl,
                                  (wid[up] - 1)[:, :, None]], axis=2)
            keep = (live[:, :, None] & np.pad(live, ((0, 0), (0, 1)), constant_values=True)[:, None, :]
                    & (np.append(gen, q) >= gen[:, None]))
            pos = np.where(keep, (row0[up] + sl * wid[up] - lo)[:, :, None] + col, hi - lo)
            self._sweep.append(_Class(k, atoms, r, seg, theta, slice(lo, hi), pos.reshape(-1), gather))

    def wealth(self, theta: np.ndarray) -> np.ndarray:
        return self.Kw @ theta

    def utility(self, s) -> float:
        return np.sum(self.pw * s ** (1.0 - self.gamma)) / (1.0 - self.gamma)

    def marginal(self, s: np.ndarray) -> np.ndarray:
        """pw s^-gamma, whose image under L^T is p R*."""
        return self.pw * s ** (-self.gamma)

    def grad_residual(self, g: np.ndarray, phi: np.ndarray) -> float:
        """:func:`_foc_residual` read off the gradient g = LK^T phi at the
        marginal utilities phi.  Column j of an atom a's block of K^T takes
        the inner product with basis vector onb_j, so with y = L^T phi =
        p R*, g_j = p_a R*_a <R*_c/R*_a - M_c/M_a, onb_j>_q over a's
        children c (q their conditional probabilities).  M_c/M_a lies in
        L_k, hence P^L[R*_c/R*_a] - M_c/M_a = onb (g / (p_a R*_a)): one
        stacked product per basis group, and no habit walk or projection.
        A nonpositive p_a R*_a or a non-finite gap reads as inf."""
        y = self.LT @ phi
        if not np.min(y[:self.n_atoms]) > 0.0:
            return np.inf
        worst = 0.0
        for grp in self._groups:
            coords = g[grp.cols] / y[grp.atoms][:, None]
            gap = float(np.max(np.abs(np.matmul(grp.onb, coords[:, :, None])[:, :, 0]) / grp.scale))
            if not np.isfinite(gap):
                return np.inf
            worst = max(worst, gap)
        return worst

    def hess(self, s: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The Newton system -H d = g at surplus s and gradient g, as the
        flat tree-sparse block array that :func:`_newton_direction`
        eliminates: class by class, root first, one row-major
        [diagonal block | ancestor blocks | g] matrix per atom."""
        d = self.pw * self.gamma * s ** (-self.gamma - 1.0)
        blocks = np.bincount(self._blk_pos, weights=self._blk_w * np.repeat(d, self._blk_per_row),
                             minlength=self._blk_size)
        blocks[self._pad_pos] = 1.0
        blocks[self._g_pos] = g
        return blocks


class _Endowed:
    """One endowment on a :class:`_Problem`: base, the endowment at unit
    present value, and its habit surplus Lbase = L base."""

    def __init__(self, problem: _Problem, base: np.ndarray):
        self.problem = problem
        self.base = base
        self.Lbase = problem.L @ base

    def consumption(self, theta: np.ndarray) -> np.ndarray:
        return self.base + self.problem.K @ theta

    def surplus(self, theta: np.ndarray) -> np.ndarray:
        return self.Lbase + self.problem.LK @ theta


class _Group(NamedTuple):
    """One basis group of :class:`_Problem`, in node indices."""

    atoms: np.ndarray                   # (G,)
    kids: np.ndarray                    # (G, b)
    cols: np.ndarray                    # (G, r) theta's index of each basis vector
    onb: np.ndarray                     # (G, b, r)
    q: np.ndarray                       # (G, b) conditional probabilities
    scale: np.ndarray                   # (G, b) 1 + |M_c / M_a|


class _Class(NamedTuple):
    """Same-depth atoms whose Newton blocks share one shape (see
    :class:`_Problem`)."""

    depth: int
    atoms: np.ndarray
    r: int                              # rows per atom
    seg: slice                          # its part of the block array
    theta: np.ndarray                   # theta's index of each row, m + 1 if padded
    window: Optional[slice]             # its ancestors' part of the block array
    pos: Optional[np.ndarray]           # where its Schur update lands in the window
    gather: Optional[np.ndarray]        # theta's index of each ancestor coordinate, m if padded


def _block_views(cls: _Class, blocks: np.ndarray):
    """One class's diagonal blocks (atoms, r, r) and [ancestor blocks | g]
    rows (atoms, r, width) in a block array, as views."""
    rows = blocks[cls.seg].reshape(len(cls.atoms), cls.r, -1)
    return rows[:, :, :cls.r], rows[:, :, cls.r:]


def _newton_direction(problem: _Problem, blocks: np.ndarray) -> np.ndarray:
    """Solve the Newton system from :meth:`_Problem.hess` by block
    elimination on the tree.  Atoms go deepest first, each class one
    stacked solve of its diagonal blocks against [ancestor blocks | g] and
    one stacked product for the Schur updates, scattered onto the ancestors'
    rows in place; eliminating an atom only updates blocks between its
    ancestors, so there is no fill.  Back substitution then runs top-down.
    Raises numpy.linalg.LinAlgError on an exactly singular diagonal block."""
    solved = []
    for cls in problem._sweep:
        diag, off = _block_views(cls, blocks)
        S = np.linalg.solve(diag, off)                      # [Z_1 .. Z_q | y]
        solved.append(S)
        if cls.window is not None:
            U = np.matmul(off[:, :, :-1].transpose(0, 2, 1), S)
            blocks[cls.window] -= np.bincount(cls.pos, weights=U.reshape(-1),
                                              minlength=cls.window.stop - cls.window.start + 1)[:-1]
    m = problem.n_theta
    x = np.zeros(m + 2)            # x[m] stays 0 for padded ancestor coordinates
    for cls, S in zip(reversed(problem._sweep), reversed(solved)):
        y = S[:, :, -1]
        if cls.gather is not None:
            y = y - np.matmul(S[:, :, :-1], x[cls.gather][:, :, None])[:, :, 0]
        x[cls.theta] = y
    return x[:m]


def _phase1_interior(endowed: _Endowed):
    """LP: maximize the worst surplus over wealth coordinates.  Returns a
    strictly feasible theta or raises InfeasibleProblemError."""
    from scipy import optimize, sparse

    LK = endowed.problem.LK
    n, m = LK.shape
    # A_ub = [-LK, 1] as triplets (linprog hands HiGHS a copy in CSC)
    A_ub = sparse.coo_array((np.concatenate([-LK.val, np.ones(n)]),
                             (np.concatenate([LK.row, np.arange(n)]),
                              np.concatenate([LK.col, np.full(n, m)]))), shape=(n, m + 1))
    c = np.zeros(m + 1)
    c[-1] = -1.0
    res = optimize.linprog(c, A_ub=A_ub, b_ub=endowed.Lbase,
                           bounds=[(None, None)] * (m + 1), method="highs")
    if not res.success:
        raise ConvergenceError(f"phase-1 LP failed: {res.message}")
    t_star = -res.fun
    if t_star <= SURPLUS_FLOOR:
        raise InfeasibleProblemError(
            f"habit floor not coverable: best attainable worst surplus {t_star:.3e}")
    return res.x[:-1]


# -- per-depth maps shared by both routes -------------------------------------------


@np.errstate(over="ignore", invalid="ignore")
def _supporting_spd(agent: AgentSpec, tree, s: np.ndarray) -> np.ndarray:
    """Positive SPD of the first-order conditions at habit surplus s; 0 or
    inf where s^-gamma leaves the float range."""
    phi = np.exp(-agent.rho * tree.depth.astype(float)) * s ** (-agent.gamma)
    return habit_adjoint(tree, agent.habits, phi)


def in_float_range(x: np.ndarray) -> bool:
    """True when every entry of x is a positive normal float, so that ratios
    of entries keep full precision."""
    return bool(np.all((x >= _TINY) & (x <= _HUGE)))


def _foc_residual(market: MarketSpec, R: np.ndarray) -> float:
    """Normalized violation of P^L_k[R*_k/R*_{k-1}] = M_k/M_{k-1}.  In a
    complete market L_k holds every depth-k variable and P^L_k is the
    identity."""
    tree = market.tree
    if tree.horizon == 0:
        return 0.0
    # R* appears as a denominator at depths 0..T-1; nonpositive values mean
    # the point is far from optimal
    if np.any(R[: tree.n_upto(tree.horizon - 1)] <= 0.0):
        return np.inf
    M = market.spd.values
    complete = market.is_complete()
    worst = 0.0
    for k in range(1, tree.horizon + 1):
        nodes = tree.depth_nodes[k]
        parents = tree.parent[nodes]
        ratio = R[nodes] / R[parents]
        mratio = M[nodes] / M[parents]
        proj = ratio if complete else project(market, ratio, k)
        gap = float(np.max(np.abs(proj - mratio) / (1.0 + np.abs(mratio))))
        if not np.isfinite(gap):      # a NaN or infinite ratio; max() would drop NaN
            return np.inf
        worst = max(worst, gap)
    return worst


def _foc_residual_on(market: MarketSpec, agent: AgentSpec, c: np.ndarray,
                     R: Optional[np.ndarray] = None) -> float:
    """:func:`_foc_residual` of plan c, whose supporting SPD R may be passed
    in.  The residual is homogeneous of degree 0 in c, so where R leaves the
    normal float range (far from unit scale, where s^-gamma over- or
    underflows) it is read off c at unit present value instead."""
    tree = market.tree
    if R is None:
        R = _supporting_spd(agent, tree, habit_surplus(tree, agent.habits, c))
    if not in_float_range(R):
        c = c / float(np.sum(tree.probabilities() * market.spd.values * c))
        R = _supporting_spd(agent, tree, habit_surplus(tree, agent.habits, c))
    return _foc_residual(market, R)


def _utility_of_surplus(agent: AgentSpec, tree, s: np.ndarray) -> float:
    if np.any(s < 0.0) and agent.gamma < 1.0:
        raise ValueError("negative habit surplus: consumption outside the utility domain")
    if agent.gamma > 1.0 and np.any(s <= 0.0):
        return -np.inf
    p = tree.probabilities()
    pw = p * np.exp(-agent.rho * tree.depth.astype(float))
    with np.errstate(divide="ignore", over="ignore"):
        terms = s ** (1.0 - agent.gamma)
    return float(np.sum(pw * terms) / (1.0 - agent.gamma))


def evaluate_utility(agent: AgentSpec, c: AdaptedProcess) -> float:
    """Discounted expected power utility of the habit surpluses of c.

    For gamma > 1 a nonpositive surplus is the infinite-marginal-utility pole
    and the value is -inf; for gamma < 1 a zero surplus contributes zero and
    negative surpluses are outside the utility domain.
    """
    return _utility_of_surplus(agent, c.tree, habit_surplus(c.tree, agent.habits, c.values))


def _result(market: MarketSpec, agent: AgentSpec, c: np.ndarray, W: np.ndarray,
            iterations: int, method: str) -> SolveResult:
    tree = market.tree
    s = habit_surplus(tree, agent.habits, c)
    R = _supporting_spd(agent, tree, s)
    return SolveResult(
        c=AdaptedProcess(tree, tree.horizon, c),
        W=AdaptedProcess(tree, tree.horizon, W),
        R=AdaptedProcess(tree, tree.horizon, R),
        utility=_utility_of_surplus(agent, tree, s),
        foc_residual=_foc_residual_on(market, agent, c, R),
        iterations=iterations,
        method=method,
    )


def _result_from_theta(endowed: _Endowed, theta: np.ndarray, scale: float,
                       iterations: int, method: str) -> SolveResult:
    problem = endowed.problem
    return _result(problem.market, problem.agent, endowed.consumption(theta) * scale,
                   problem.wealth(theta) * scale, iterations, method)


def _wealth(tree, M: np.ndarray, net: np.ndarray) -> np.ndarray:
    """Self-financing wealth of net consumption c - eps: W_T = net_T,
    W_k = net_k + E[M_{k+1} W_{k+1} | G_k] / M_k, and W_0 = 0 at the root."""
    W = np.zeros(tree.n_nodes)
    for k in range(tree.horizon, 0, -1):
        nodes = tree.depth_nodes[k]
        W[nodes] = net[nodes]
        if k < tree.horizon:
            kids = tree.depth_nodes[k + 1]
            W[nodes] += cond_expectation_arrays(tree, M[kids] * W[kids], k + 1, k) / M[nodes]
    return W


def _solve_complete(market: MarketSpec, agent: AgentSpec, tol: float) -> SolveResult:
    """Closed-form optimum of a complete market: e^{-rho k} s_k^{-gamma} =
    y Mtilde_k, consumption forward through the habits, y from the budget."""
    tree = market.tree
    M = market.spd.values
    eps = agent.endowment.values
    Mt = perturbed_spd(market.spd, agent.habits).values
    s1 = (np.exp(agent.rho * tree.depth.astype(float)) * Mt) ** (-1.0 / agent.gamma)
    c1 = consumption_from_surplus(tree, agent.habits, s1)
    p = tree.probabilities()
    c = c1 * (np.sum(p * M * eps) / np.sum(p * M * c1))
    result = _result(market, agent, c, _wealth(tree, M, c - eps), 0, "closed-form")
    if result.foc_residual >= tol:
        raise ConvergenceError(
            f"closed-form first-order residual {result.foc_residual:.3e}",
            residual=result.foc_residual)
    return result


def solve_consumption(market: MarketSpec, agent: AgentSpec, tol: float = FOC_TOL) -> SolveResult:
    """Solve the utility maximization, one route per market class.

    Complete markets get the closed form through the perturbed SPD
    (``method="closed-form"``, ``iterations=0``).  Incomplete markets get
    damped Newton on the first-order system over wealth coordinates
    (``method="newton"``), with the endowment internally normalized to unit
    present value under the aggregate SPD (results rescale exactly by the
    power-utility scaling property).  Newton starts at the endowment when its
    habit surplus is positive everywhere, else at a bond-account plan when
    that one is strictly feasible, else at a phase-1 LP point, and returns
    the point one Newton step past the first iterate that meets ``tol``
    (that iterate itself if the extra step fails or leaves ``tol``).
    Raises ConvergenceError with the residual when the first-order residual
    is not brought below ``tol`` (Newton names its stop: a singular Newton
    system, a failed line search, a stagnated residual or MAX_NEWTON_ITER
    iterations), SchemaError on an identically zero endowment, and
    ValueError unless 0 < tol < inf.  This is the one-endowment case of
    :func:`solve_endowments`.
    """
    return solve_endowments(market, agent, [agent.endowment.values], tol)[0]


def solve_endowments(market: MarketSpec, agent: AgentSpec, endowments,
                     tol: float = FOC_TOL) -> list:
    """Solve one market for each endowment in ``endowments`` (arrays of node
    values, each checked as an agent's endowment) under the preferences of
    ``agent`` (gamma, rho and habits; its own endowment is not read).

    Each result is what :func:`solve_consumption` would give up to Newton's
    roundoff, and the first one is exactly that.  On an incomplete market
    the maps and the Newton block pattern are built once, and every solve
    after the first starts at the first solve's optimal wealth coordinates
    (in the unit-present-value normalization) when every habit surplus is
    positive there, and otherwise at :func:`solve_consumption`'s start.
    Raises as :func:`solve_consumption` does, at the first endowment that
    fails.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")
    tree = agent.endowment.tree
    agents = [AgentSpec(agent.gamma, agent.rho, agent.habits, AdaptedProcess(tree, tree.horizon, e))
              for e in endowments]
    if any(np.all(a.endowment.values == 0.0) for a in agents):
        raise SchemaError("endowment", "endowment must not be identically zero")
    _check_same_tree(market, agent)
    if market.is_complete():
        return [_solve_complete(market, a, tol) for a in agents]
    return _solve_newton(_Problem(market, agent), agents, tol)


def _interior_start(endowed: _Endowed) -> np.ndarray:
    """A strictly feasible Newton start: the endowment itself (theta = 0)
    when every habit surplus of it is positive, else the bond-account plan
    of :func:`_bond_start` when that one is strictly feasible, else the
    phase-1 LP's point (which raises InfeasibleProblemError when no plan is
    feasible).  The endowment is normalized to unit present value, so the
    tests are scale-free."""
    if np.min(endowed.Lbase) > SURPLUS_FLOOR:
        return np.zeros(endowed.problem.n_theta)
    theta = _bond_start(endowed)
    return theta if theta is not None else _phase1_interior(endowed)


def _bond_start(endowed: _Endowed) -> Optional[np.ndarray]:
    """Theta of a plan that trades only the bond account B (B_root = 1,
    B_n = B_parent (1 + r_n)), or None when that plan is not strictly
    feasible.

    The plan consumes base + a_k B_n at depth-k nodes.  M B is a martingale,
    so it is budget-neutral when sum_k a_k = 0, and its wealth is
    W_k = (sum_{j >= k} a_j) B_k.  Root consumption is cut by half its
    surplus (a_0 = -Lbase_root / 2); then for 1 <= k < T, a_k is the largest
    habit shortfall over depth-k nodes divided by B_n, plus a margin eta, and
    a_T = -sum_{k<T} a_k takes the rest.  eta is the largest margin for
    which a_T still covers depth T's shortfall plus eta.  Every a_k with
    k < T grows with eta, so that slack falls at least T times as fast as
    eta, and the largest eta lies in [0, slack(0) / T]; it is searched in a
    few rounds of evenly spaced candidates, each round evaluated as one
    array.  Theta projects the plan's wealth on each atom's children onto
    the atom's basis."""
    problem = endowed.problem
    tree = problem.market.tree
    T = tree.horizon
    r = problem.market.interest.values
    B = np.ones(tree.n_nodes)
    for k in range(1, T + 1):
        nodes = tree.depth_nodes[k]
        B[nodes] = B[tree.parent[nodes]] * (1.0 + r[nodes])
    Lbase = endowed.Lbase
    terms = [[] for _ in range(T + 1)]          # per depth k: (l, beta B_anc)
    for nodes, anc, b in problem.habit_terms:
        terms[tree.depth[nodes[0]]].append((tree.depth[anc[0]], b * B[anc]))

    def plan(eta: np.ndarray):
        """(a (C, T+1), slack (C,)) for candidate margins eta (C,)."""
        a = np.empty((len(eta), T + 1))
        a[:, 0] = -0.5 * Lbase[0]
        for k in range(1, T + 1):
            nodes = tree.depth_nodes[k]
            short = np.broadcast_to(-Lbase[nodes], (len(eta), len(nodes)))
            for l, bB in terms[k]:
                short = short + a[:, l, None] * bB
            need = np.max(short / B[nodes], axis=1)
            if k < T:
                a[:, k] = need + eta
        a[:, T] = -a[:, :T].sum(axis=1)
        return a, a[:, T] - need - eta

    _, slack = plan(np.zeros(1))
    if not slack[0] > 0.0:
        return None
    lo, hi = 0.0, float(slack[0]) / T
    for _ in range(3):              # each round narrows [lo, hi] 32-fold
        eta = np.linspace(lo, hi, 33)
        a, slack = plan(eta)
        i = max(np.flatnonzero(slack >= 0.0), default=0)     # eta[0] = lo is feasible
        lo, hi = eta[i], eta[min(i + 1, 32)]
    held = np.cumsum(a[i, ::-1])[::-1]          # sum_{j >= k} a_j
    W = held[tree.depth] * B
    theta = np.zeros(problem.n_theta)
    for grp in problem._groups:
        coords = np.matmul(grp.onb.transpose(0, 2, 1), (grp.q * W[grp.kids])[:, :, None])
        theta[grp.cols] = coords[:, :, 0]
    if np.min(endowed.surplus(theta)) > SURPLUS_FLOOR:
        return theta
    return None


def _solve_newton(problem: _Problem, agents: list, tol: float) -> list:
    """Damped Newton over the wealth coordinates (incomplete markets) for
    agents with the problem's preferences, each with its own endowment.
    The first agent starts at :func:`_interior_start`; the others start at
    the first one's final theta wherever that is strictly feasible for them."""
    M = problem.market.spd.values
    p = problem.market.tree.probabilities()
    results, first = [], None
    for agent in agents:
        pv = float(np.sum(p * M * agent.endowment.values))
        endowed = _Endowed(problem, agent.endowment.values / pv)
        if first is not None and np.min(endowed.surplus(first)) > SURPLUS_FLOOR:
            theta = first
        else:
            theta = _interior_start(endowed)
        theta, result = _newton(endowed, theta, pv, tol)
        results.append(result)
        if first is None:
            first = theta
    return results


def _newton(endowed: _Endowed, theta: np.ndarray, pv: float, tol: float):
    """Damped Newton from the strictly feasible ``theta``; returns the final
    theta and its result, scaled back by the present value ``pv``.  The
    first iterate that meets ``tol`` is held while one more Newton step is
    taken: quadratic convergence puts that step's point at roundoff, where
    it depends on the problem rather than on the path.  Iterates are tested
    with the residual read off the gradient; a result is returned only when
    :func:`_foc_residual` confirms it, and Newton goes on when neither the
    held iterate nor the step past it is confirmed."""
    problem = endowed.problem
    met = None                    # (theta, iteration) of the first iterate below tol
    best, stalled = np.inf, 0     # best residual in the quadratic basin
    s = endowed.surplus(theta)
    for it in range(1, MAX_NEWTON_ITER + 1):
        if met is not None:
            for point, at in ((theta, it), met):
                result = _result_from_theta(endowed, point, pv, at, "newton")
                if result.foc_residual < tol:
                    return point, result
            met = None
        phi = problem.marginal(s)
        g = problem.LKT @ phi
        res = problem.grad_residual(g, phi)
        if res < tol:
            met = theta, it
        u0 = problem.utility(s)
        basin = float(np.max(np.abs(g))) < 1e-6 * (1.0 + abs(u0))
        if basin:
            # Newton converges quadratically here, so a residual that has
            # not halved for STALL_STEPS steps sits at roundoff
            if res < 0.5 * best:
                best, stalled = res, 0
            else:
                stalled += 1
                if stalled == STALL_STEPS:
                    reason = "stagnated"
                    break
        try:
            d = _newton_direction(problem, problem.hess(s, g))
        except np.linalg.LinAlgError:
            reason = "singular Newton system"
            break
        ds = problem.LK @ d
        neg = ds < 0.0
        alpha_max = 1.0
        if np.any(neg):
            alpha_max = min(1.0, 0.995 * float(np.min(-s[neg] / ds[neg])))
        if basin:
            # quadratic basin: Armijo cannot resolve the tiny improvement in
            # floating point; take the (feasibility-capped) Newton step as is
            theta = theta + alpha_max * d
            s = endowed.surplus(theta)
            continue
        slope = float(g @ d)
        alpha = alpha_max
        while alpha > 1e-14:
            # an accepted trial's surplus is the next iterate's
            trial = theta + alpha * d
            s_trial = endowed.surplus(trial)
            if np.all(s_trial > 0.0) and problem.utility(s_trial) > u0 + 1e-4 * alpha * slope:
                theta, s = trial, s_trial
                break
            alpha *= BACKTRACK
        else:
            reason = "line search failed"
            break
    else:
        reason = "iteration limit reached"
        phi = problem.marginal(s)
        res = problem.grad_residual(problem.LKT @ phi, phi)
    if met is not None:
        result = _result_from_theta(endowed, met[0], pv, met[1], "newton")
        if result.foc_residual < tol:
            return met[0], result
        res = result.foc_residual
    raise ConvergenceError(f"Newton stopped after {it} iterations ({reason}): "
                           f"first-order residual {res:.3e}", residual=res)


# -- the independent oracle ------------------------------------------------------

BARRIER_SCHEDULE = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 0.0)


def _maximize_interior(endowed: _Endowed, theta0: np.ndarray) -> np.ndarray:
    """Log-barrier path following: minimize -U(theta) - mu sum(log s(theta))
    with a generic quasi-Newton method along a decreasing mu schedule, then
    polish stationarity of the pure objective with a MINPACK root find.
    Infeasible trial points evaluate to +inf and are rejected by the line
    search; the barrier keeps the path interior."""
    from scipy import optimize

    problem, Lbase = endowed.problem, endowed.Lbase
    theta = theta0.copy()
    # BFGS takes thousands of products with LK on at most ~200 coordinates;
    # a dense copy spares each one the sparse operator's call overhead
    LK = problem.LK.toarray()

    def neg_value(t):
        s = Lbase + LK @ t
        if np.min(s) <= 0.0:
            return np.inf
        return -np.sum(problem.pw * s ** (1.0 - problem.gamma)) / (1.0 - problem.gamma)

    def neg_grad(t, mu=0.0):
        s = np.maximum(Lbase + LK @ t, SURPLUS_FLOOR)
        inner = problem.pw * s ** (-problem.gamma)
        if mu > 0.0:
            inner = inner + mu / s
        return -(LK.T @ inner)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for mu in BARRIER_SCHEDULE:

            def fun(t, mu=mu):
                base = neg_value(t)
                if not np.isfinite(base) or mu == 0.0:
                    return base
                s = Lbase + LK @ t
                return base - mu * np.sum(np.log(s))

            res = optimize.minimize(fun, theta, jac=lambda t, mu=mu: neg_grad(t, mu),
                                    method="BFGS",
                                    options={"gtol": max(mu * 1e-2, 1e-12), "maxiter": 1000})
            if np.isfinite(res.fun):
                theta = res.x
    # low-curvature directions leave BFGS short of nodewise precision;
    # finish on the stationarity system itself
    with np.errstate(over="ignore", invalid="ignore"):
        sol = optimize.root(neg_grad, theta, method="hybr", options={"xtol": 1e-14})
        if np.isfinite(neg_value(sol.x)) and \
                neg_value(sol.x) <= neg_value(theta) + 1e-12 * (1.0 + abs(neg_value(theta))):
            theta = sol.x
    return theta


def brute_force_oracle(market: MarketSpec, agent: AgentSpec) -> SolveResult:
    """Direct concave maximization over the pruned wealth coordinates.

    An independent check on :func:`solve_consumption`: log-barrier path
    following with a generic quasi-Newton minimizer, sharing only the
    problem assembly.  Limited to small instances (<= ~200 coordinates) with
    at least one period: a one-node tree has no coordinates to search.
    """
    if np.all(agent.endowment.values == 0.0):
        raise SchemaError("endowment", "endowment must not be identically zero")
    if market.tree.horizon == 0:
        raise ValueError("a one-node tree has no decision variables for the oracle")
    M = market.spd.values
    p = market.tree.probabilities()
    pv = float(np.sum(p * M * agent.endowment.values))
    problem = _Problem(market, agent)
    if problem.n_theta > 200:
        raise ValueError(f"{problem.n_theta} decision variables exceed the oracle limit of 200")
    endowed = _Endowed(problem, agent.endowment.values / pv)
    theta = _phase1_interior(endowed)
    theta = _maximize_interior(endowed, theta)
    return _result_from_theta(endowed, theta, pv, 0, "oracle")


def foc_residual(market: MarketSpec, agent: AgentSpec, result: SolveResult) -> float:
    """Max over periods and atoms of the normalized first-order violation
    |P^L_k[R*_k/R*_{k-1}] - M_k/M_{k-1}| / (1 + |M_k/M_{k-1}|); zero exactly
    at the optimum.  Scale-free in the endowment."""
    _check_same_tree(market, agent)
    return _foc_residual_on(market, agent, result.c.values)


def budget_gap(market: MarketSpec, agent: AgentSpec, result: SolveResult) -> float:
    """sum_k E[M_k c_k] - sum_k E[M_k eps_k]; zero for any self-financed plan."""
    p = market.tree.probabilities()
    M = market.spd.values
    return float(np.sum(p * M * (result.c.values - agent.endowment.values)))
