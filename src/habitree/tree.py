"""Finite event trees and the measure-theoretic primitives built on them.

A rooted tree with transition probabilities is the whole probability model:
depth-k nodes are the atoms of the period-k information set, the filtration
is the sequence of depth partitions, and every random process is one number
per node (an :class:`AdaptedProcess`).  Coarser conditioning structures
(intermediate sigma-algebras, idiosyncratic factor filtrations) are
:class:`Partition` objects over the nodes of one depth.

Conventions
-----------
* Nodes are stored in breadth-first order (depth never decreases along the
  index range and siblings are contiguous; construction rejects any other
  order), so the nodes of depths <= d form a prefix of the index range; an
  adapted process over periods 0..d is a flat array over that prefix.
* Each depth is therefore one contiguous index range: a depth-k node's
  position inside its depth slice is ``node - n_upto(k-1)``, and the
  children of an atom are one contiguous run.  Per-atom work goes through
  :meth:`EventTree.parent_pos`, :meth:`EventTree.sibling_sum` and
  ``EventTree.sibling_slot`` rather than node -> position maps.
* Probabilities are stored as parent->child transition probabilities;
  unconditional atom probabilities are recomputed on demand as products along
  the root path (no renormalization drift).
* Comparisons use absolute tolerance 1e-12 on order-one quantities unless a
  caller overrides.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import SchemaError

PROB_TOL = 1e-12


@dataclass
class EventTree:
    """Rooted finite probability tree with depth-indexed filtration.

    Attributes
    ----------
    ids : tuple of str
        External node identifiers, breadth-first order (root first).
    parent : ndarray of int
        Parent index per node, -1 for the root.
    trans_prob : ndarray of float
        Transition probability from the parent, in (0, 1]; 1.0 at the root.
    horizon : int
        Number of periods T; all leaves sit at depth T.
    """

    ids: tuple
    parent: np.ndarray
    trans_prob: np.ndarray
    horizon: int
    depth: np.ndarray = field(init=False)
    depth_nodes: list = field(init=False)
    sibling_slot: np.ndarray = field(init=False)

    def __post_init__(self):
        n = len(self.ids)
        self.parent = np.asarray(self.parent, dtype=np.int64)
        self.trans_prob = np.asarray(self.trans_prob, dtype=np.float64)
        self._index = {nid: i for i, nid in enumerate(self.ids)}
        if len(self._index) != n:
            raise SchemaError("nodes.id", "duplicate node ids")
        roots = np.flatnonzero(self.parent < 0)
        if len(roots) != 1 or roots[0] != 0:
            raise SchemaError("nodes.parent", "exactly one root, stored first")
        if not np.all((self.parent[1:] >= 0) & (self.parent[1:] < np.arange(1, n))):
            raise SchemaError("nodes.parent", "nodes must be breadth-first ordered")
        depth = np.zeros(n, dtype=np.int64)
        # parents precede their children, so the longest root path settles
        # every depth within that many gathers
        while True:
            nxt = depth[self.parent] + 1
            nxt[0] = 0
            if np.array_equal(nxt, depth):
                break
            depth = nxt
        self.depth = depth
        if np.any(np.diff(depth) < 0):
            raise SchemaError("nodes.parent", "nodes must be breadth-first ordered")
        kid_parent = self.parent[1:]
        # contiguous siblings: one run of equal entries per parent
        sibling_runs = np.count_nonzero(np.diff(kid_parent)) + (n > 1)
        if sibling_runs != len(np.unique(kid_parent)):
            raise SchemaError("nodes.parent", "siblings must be stored contiguously")
        if np.any((self.trans_prob <= 0.0) | (self.trans_prob > 1.0)):
            raise SchemaError("nodes.prob", "transition probabilities must lie in (0, 1]")
        n_kids = np.bincount(kid_parent, minlength=n)
        if self.horizon != int(depth.max()):
            raise SchemaError("horizon", f"horizon {self.horizon} != deepest node depth {int(depth.max())}")
        short = np.flatnonzero((n_kids == 0) & (depth != self.horizon))
        if len(short):
            i = int(short[0])
            raise SchemaError("nodes", f"leaf {self.ids[i]} at depth {depth[i]} < horizon")
        psum = np.bincount(kid_parent, weights=self.trans_prob[1:], minlength=n)
        bad = np.flatnonzero((n_kids > 0) & (np.abs(psum - 1.0) > PROB_TOL))
        if len(bad):
            i = int(bad[0])
            raise SchemaError("nodes.prob", f"children of {self.ids[i]} sum to {psum[i]!r}")
        self._upto = np.concatenate([[0], np.cumsum(np.bincount(depth))])
        self.depth_nodes = [np.arange(self._upto[k], self._upto[k + 1])
                            for k in range(self.horizon + 1)]
        # position of each node among its siblings (0 at the root)
        run_start = np.maximum.accumulate(
            np.where(np.diff(self.parent, prepend=-2) != 0, np.arange(n), 0))
        self.sibling_slot = np.arange(n) - run_start
        self._groups = {}
        for arr in (self.parent, self.trans_prob, self.depth, self.sibling_slot):
            arr.setflags(write=False)

    @cached_property
    def children(self) -> list:
        """Child indices of every node, one array per node in index order
        (built on first use)."""
        kid_parent = self.parent[1:]
        n_kids = np.bincount(kid_parent, minlength=self.n_nodes)
        by_parent = np.argsort(kid_parent, kind="stable") + 1
        return np.split(by_parent, np.cumsum(n_kids)[:-1])

    # -- construction -------------------------------------------------------

    @classmethod
    def from_edges(cls, nodes: Iterable, horizon: Optional[int] = None) -> "EventTree":
        """Build a tree from (id, parent_id or None, transition_prob) triples.

        Input order is free; nodes are re-sorted breadth-first.
        """
        raw = list(nodes)
        by_id = {nid: (pid, float(prob)) for nid, pid, prob in raw}
        if len(by_id) != len(raw):
            seen = set()
            for nid, _, _ in raw:
                if nid in seen:
                    raise SchemaError("nodes.id", f"duplicate id {nid!r}")
                seen.add(nid)
        roots = [nid for nid, (pid, _) in by_id.items() if pid is None]
        if len(roots) != 1:
            raise SchemaError("nodes.parent", f"need exactly one root, got {len(roots)}")
        kids = {}
        for nid, (pid, _) in by_id.items():
            if pid is not None:
                if pid not in by_id:
                    raise SchemaError("nodes.parent", f"unknown parent {pid!r} of {nid!r}")
                kids.setdefault(pid, []).append(nid)
        # breadth-first, one level per pass: the passes count the depth
        order, frontier, depth_max = [roots[0]], [roots[0]], 0
        while True:
            frontier = [c for nid in frontier for c in kids.get(nid, ())]
            if not frontier:
                break
            order.extend(frontier)
            depth_max += 1
        if len(order) != len(by_id):
            raise SchemaError("nodes.parent", "cycle or unreachable nodes")
        pos = {nid: i for i, nid in enumerate(order)}
        parent = np.array([-1 if by_id[n][0] is None else pos[by_id[n][0]] for n in order])
        prob = np.array([1.0 if by_id[n][0] is None else by_id[n][1] for n in order])
        return cls(tuple(order), parent, prob, horizon if horizon is not None else depth_max)

    @classmethod
    def single_path(cls, horizon: int) -> "EventTree":
        """Deterministic tree: one node per period."""
        nodes = [("n0", None, 1.0)]
        nodes += [(f"n{k}", f"n{k - 1}", 1.0) for k in range(1, horizon + 1)]
        return cls.from_edges(nodes, horizon)

    @classmethod
    def uniform(cls, horizon: int, branching: int,
                probs: Optional[Sequence[float]] = None) -> "EventTree":
        """Regular tree with the same branching and child probabilities at
        every non-leaf node."""
        if probs is None:
            probs = [1.0 / branching] * branching
        if len(probs) != branching:
            raise SchemaError("probs", "one probability per child required")
        nodes = [("r", None, 1.0)]
        frontier = ["r"]
        for k in range(horizon):
            nxt = []
            for nid in frontier:
                for j in range(branching):
                    cid = f"{nid}.{j}" if nid != "r" else f"{j}"
                    nodes.append((cid, nid, float(probs[j])))
                    nxt.append(cid)
            frontier = nxt
        return cls.from_edges(nodes, horizon)

    # -- queries -------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.ids)

    def index(self, node_id: str) -> int:
        try:
            return self._index[node_id]
        except KeyError:
            raise SchemaError("node", f"unknown node id {node_id!r}") from None

    def n_upto(self, depth: int) -> int:
        """Number of nodes at depths <= depth (the BFS prefix length; 0 for
        depth -1, so ``n_upto(k - 1)`` is where depth k starts)."""
        return int(self._upto[depth + 1])

    def parent_pos(self, k: int) -> np.ndarray:
        """Position of each depth-k node's parent inside the depth-(k-1)
        slice (k >= 1)."""
        return self.parent[self.depth_nodes[k]] - self._upto[k - 1]

    def sibling_sum(self, k: int, x: np.ndarray) -> np.ndarray:
        """Per depth-(k-1) atom, the sum of x (given over depth-k nodes,
        trailing axes carried along) over the atom's children.

        Each sibling group is summed in child order with ``np.sum``, so the
        bits equal summing each group on its own (``np.bincount`` would match
        only below 8 terms, ``np.add.reduceat`` only below 3)."""
        x = np.asarray(x, dtype=float)
        out = np.empty((len(self.depth_nodes[k - 1]),) + x.shape[1:])
        for rows, cols in self.child_groups(k):
            out[rows] = np.sum(x[cols], axis=1)
        return out

    def ancestor_matrix(self) -> np.ndarray:
        """anc[i, l] = ancestor of node i at depth l (or -1 for l > depth(i))."""
        anc = np.full((self.n_nodes, self.horizon + 1), -1, dtype=np.int64)
        anc[0, 0] = 0
        for k in range(1, self.horizon + 1):
            nodes = self.depth_nodes[k]
            anc[nodes, :k] = anc[self.parent[nodes], :k]
            anc[nodes, k] = nodes
        return anc

    def child_groups(self, k: int) -> list:
        """The depth-(k-1) atoms grouped by child count, as pairs (atom
        positions, child positions) with one row per atom and children in
        index order; positions count within their own depth.  Cached per
        depth."""
        groups = self._groups.get(k)
        if groups is None:
            # siblings are contiguous: each run of one parent is a group
            kid_parent = self.parent[self.depth_nodes[k]]
            starts = np.flatnonzero(np.diff(kid_parent, prepend=-1))
            counts = np.diff(starts, append=len(kid_parent))
            atoms = kid_parent[starts] - self._upto[k - 1]
            groups = []
            for b in np.unique(counts):
                sel = counts == b
                cols = starts[sel][:, None] + np.arange(b)
                groups.append((atoms[sel], cols))
            self._groups[k] = groups
        return groups

    def probabilities(self) -> np.ndarray:
        """Unconditional atom probabilities, recomputed as root-path products."""
        p = np.ones(self.n_nodes)
        for k in range(1, self.horizon + 1):
            nodes = self.depth_nodes[k]
            p[nodes] = p[self.parent[nodes]] * self.trans_prob[nodes]
        return p


def node_probability(tree: EventTree, node) -> float:
    """Unconditional probability of a node's atom (product of transition
    probabilities along the root path).  `node` may be an id or an index."""
    i = tree.index(node) if isinstance(node, str) else int(node)
    if not 0 <= i < tree.n_nodes:
        raise SchemaError("node", f"unknown node index {node!r}")
    p = 1.0
    while i >= 0:
        p *= tree.trans_prob[i]
        i = tree.parent[i]
    return p


@dataclass
class AdaptedProcess:
    """One real value per node for every depth up to `depth`.

    Adaptedness is structural: the depth-k slice is the period-k random
    variable.  Values are stored flat over the BFS prefix of the tree.
    """

    tree: EventTree
    depth: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        want = self.tree.n_upto(self.depth)
        if self.values.shape != (want,):
            raise SchemaError("process", f"expected {want} values for depth {self.depth}, "
                                         f"got {self.values.shape}")
        self.values.setflags(write=False)

    @classmethod
    def constant(cls, tree: EventTree, value: float, depth: Optional[int] = None) -> "AdaptedProcess":
        d = tree.horizon if depth is None else depth
        return cls(tree, d, np.full(tree.n_upto(d), float(value)))

    @classmethod
    def from_depth_arrays(cls, tree: EventTree, arrays: Sequence[np.ndarray]) -> "AdaptedProcess":
        return cls(tree, len(arrays) - 1, np.concatenate([np.asarray(a, dtype=float) for a in arrays]))

    def at_depth(self, k: int) -> np.ndarray:
        lo = self.tree.n_upto(k - 1) if k > 0 else 0
        return self.values[lo:self.tree.n_upto(k)]

    def value_at(self, node) -> float:
        i = self.tree.index(node) if isinstance(node, str) else int(node)
        return float(self.values[i])

    def __mul__(self, scalar: float) -> "AdaptedProcess":
        return AdaptedProcess(self.tree, self.depth, self.values * float(scalar))

    __rmul__ = __mul__


@dataclass
class Partition:
    """Grouping of same-depth nodes into disjoint covering blocks.

    Represents a sub-sigma-algebra of the depth-`depth` information set:
    an intermediate sigma-algebra between consecutive depths (derived from
    the payoff spans, so each block lies in one sibling group), or an
    idiosyncratic factor sigma-algebra (whose blocks may span sibling
    groups).
    """

    tree: EventTree
    depth: int
    blocks: tuple

    def __post_init__(self):
        self.blocks = tuple(tuple(b.tolist()) if isinstance(b, np.ndarray) and b.dtype.kind in "iu"
                            else tuple(map(int, b)) for b in self.blocks)
        # coverage and disjointness from the counts of the concatenated
        # blocks; the walk below only runs to name the first offending
        # block or node
        try:
            pos = np.fromiter(itertools.chain.from_iterable(self.blocks), dtype=np.int64) \
                - self.tree.n_upto(self.depth - 1)
        except OverflowError:           # a node beyond int64, named by the walk
            pos = None
        width = len(self.tree.depth_nodes[self.depth])
        if (pos is not None and all(self.blocks) and len(pos) == width and pos.min() >= 0
                and pos.max() < width and np.bincount(pos, minlength=width).max() == 1):
            return
        want = set(int(i) for i in self.tree.depth_nodes[self.depth])
        seen = set()
        for b in self.blocks:
            if not b:
                raise SchemaError("partition", "empty block")
            for i in b:
                if i not in want:
                    raise SchemaError("partition", f"node {i} not at depth {self.depth}")
                if i in seen:
                    raise SchemaError("partition", f"node {i} in two blocks")
                seen.add(i)
        if seen != want:
            raise SchemaError("partition", "blocks do not cover the depth")

    @classmethod
    def trivial(cls, tree: EventTree, depth: int) -> "Partition":
        return cls(tree, depth, (tuple(int(i) for i in tree.depth_nodes[depth]),))

    @classmethod
    def singletons(cls, tree: EventTree, depth: int) -> "Partition":
        return cls(tree, depth, tuple((int(i),) for i in tree.depth_nodes[depth]))

    @classmethod
    def sibling_groups(cls, tree: EventTree, depth: int) -> "Partition":
        """Blocks = children groups of each depth-(k-1) node (the depth-(k-1)
        information set viewed at depth k)."""
        if depth == 0:
            return cls.trivial(tree, 0)
        blocks = tuple(tuple(int(c) for c in tree.children[int(u)])
                       for u in tree.depth_nodes[depth - 1])
        return cls(tree, depth, blocks)

    @classmethod
    def from_node_ids(cls, tree: EventTree, depth: int, id_blocks) -> "Partition":
        return cls(tree, depth, tuple(tuple(tree.index(i) for i in b) for b in id_blocks))

    def block_index(self) -> np.ndarray:
        """Block number of each depth-k node, by position in the depth slice."""
        out = np.empty(len(self.tree.depth_nodes[self.depth]), dtype=np.int64)
        sizes = [len(b) for b in self.blocks]
        out[np.concatenate(self.blocks) - self.tree.n_upto(self.depth - 1)] = \
            np.repeat(np.arange(len(sizes)), sizes)
        return out

    def refines(self, other: "Partition") -> bool:
        """True when every block of self lies inside a block of other."""
        owner = {}
        for bi, b in enumerate(other.blocks):
            for i in b:
                owner[i] = bi
        return all(len({owner[i] for i in b}) == 1 for b in self.blocks)


# -- conditioning operations -------------------------------------------------


def _aggregate_one_level(tree: EventTree, values: np.ndarray, k: int) -> np.ndarray:
    """E[X | depth k-1] for X given on depth-k nodes, via transition weights."""
    return tree.sibling_sum(k, tree.trans_prob[tree.depth_nodes[k]] * values)


def cond_expectation_arrays(tree: EventTree, values_m: np.ndarray, m: int, k: int) -> np.ndarray:
    """E[X_m | G_k] as an array over depth-k nodes."""
    if k > m:
        raise ValueError(f"cannot condition depth {m} data on finer depth {k}")
    cur = np.asarray(values_m, dtype=float)
    for j in range(m, k, -1):
        cur = _aggregate_one_level(tree, cur, j)
    return cur


def cond_expectation(tree: EventTree, process: AdaptedProcess, k: int) -> AdaptedProcess:
    """Conditional expectation of the deepest slice of `process` onto depth k.

    Returns the martingale closure (E[X | G_j])_{j<=k} as an adapted process,
    so the depth-k slice is E[X | G_k] and the tower property is composition.
    """
    m = process.depth
    if k > m:
        raise ValueError(f"cannot condition depth {m} process on finer depth {k}")
    cur = process.at_depth(m).copy()
    for j in range(m, k, -1):
        cur = _aggregate_one_level(tree, cur, j)
    slices = [cur]
    for j in range(k, 0, -1):
        cur = _aggregate_one_level(tree, cur, j)
        slices.append(cur)
    slices.reverse()
    return AdaptedProcess.from_depth_arrays(tree, slices)


def _block_walk(tree: EventTree, partition: Partition, m: int):
    """The depth-m nodes below each block of `partition`, as depth-m
    positions in walk order: block by block, each block's nodes in their
    listed order, and below each node its descendants in child order.
    Returns (order, start of each block's run, block of each position of the
    partition's depth)."""
    k = partition.depth
    if k > m:
        raise ValueError("partition depth exceeds process depth")
    lo = tree.n_upto(k - 1)
    label = partition.block_index()
    rank = np.empty(len(label), dtype=np.int64)
    rank[np.concatenate(partition.blocks) - lo] = np.arange(len(label))
    keys, a = [], tree.depth_nodes[m]
    for _ in range(m - k):
        keys.append(tree.sibling_slot[a])
        a = tree.parent[a]
    keys.append(rank[a - lo])
    order = np.lexsort(keys)
    starts = np.flatnonzero(np.diff(label[a[order] - lo], prepend=-1))
    return order, starts, label


def blockwise_reduce(tree: EventTree, values: np.ndarray, m: int, partition: Partition,
                     ufunc) -> np.ndarray:
    """Reduce depth-m values over the descendants of each partition block
    with `ufunc` (``np.maximum`` or ``np.minimum``), returned as an array
    over the partition's depth (constant on blocks).  Axis 0 runs over the
    depth-m nodes; trailing axes are carried through."""
    order, starts, label = _block_walk(tree, partition, m)
    return ufunc.reduceat(np.asarray(values, dtype=float)[order], starts, axis=0)[label]


def cond_esssup(tree: EventTree, process: AdaptedProcess, partition: Partition) -> np.ndarray:
    """Blockwise essential supremum of the deepest slice of `process`,
    returned as an array over the partition's depth (constant on blocks)."""
    m = process.depth
    return blockwise_reduce(tree, process.at_depth(m), m, partition, np.maximum)


def cond_essinf(tree: EventTree, process: AdaptedProcess, partition: Partition) -> np.ndarray:
    """Blockwise essential infimum; see :func:`cond_esssup`."""
    m = process.depth
    return blockwise_reduce(tree, process.at_depth(m), m, partition, np.minimum)


def cond_expectation_on(tree: EventTree, process: AdaptedProcess, partition: Partition) -> np.ndarray:
    """Conditional expectation onto the sigma-algebra generated by a
    partition: blockwise probability-weighted average of the deepest slice."""
    m = process.depth
    order, starts, label = _block_walk(tree, partition, m)
    w = tree.probabilities()[tree.depth_nodes[m]][order]
    wv = w * process.at_depth(m)[order]
    ends = np.append(starts[1:], len(order))
    # one np.sum per block, in walk order, as summing each block on its own
    means = np.array([np.sum(wv[i:j]) / np.sum(w[i:j]) for i, j in zip(starts, ends)])
    return means[label]
