import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from habitree import (
    AdaptedProcess,
    EventTree,
    Partition,
    SchemaError,
    cond_essinf,
    cond_esssup,
    cond_expectation,
    cond_expectation_on,
    node_probability,
)
from habitree.instances import random_positive_spd
from habitree.market import complete_market_from_spd, present_value, spd_edge_ratios
from habitree.tree import blockwise_reduce, cond_expectation_arrays

TOL = 1e-12


# -- random tree strategy (depths <= 3, <= 3 children) -------------------------


@st.composite
def trees(draw, max_depth=3, max_children=3):
    depth = draw(st.integers(1, max_depth))
    nodes = [("r", None, 1.0)]
    frontier = ["r"]
    for level in range(depth):
        nxt = []
        for nid in frontier:
            n_kids = draw(st.integers(1, max_children))
            weights = [draw(st.integers(1, 5)) for _ in range(n_kids)]
            total = sum(weights)
            for j, w in enumerate(weights):
                cid = f"{nid}/{level}{j}"
                nodes.append((cid, nid, w / total))
                nxt.append(cid)
        frontier = nxt
    return EventTree.from_edges(nodes, depth)


@st.composite
def tree_with_values(draw):
    tree = draw(trees())
    vals = [draw(st.floats(-10, 10)) for _ in range(tree.n_nodes)]
    return tree, np.array(vals)


def test_node_probability_root_is_one():
    tree = EventTree.single_path(2)
    assert node_probability(tree, "n0") == 1.0


def test_node_probability_two_leaf_symmetry(binary_one_period):
    assert node_probability(binary_one_period, "u") == 0.5
    assert node_probability(binary_one_period, "d") == 0.5


def test_node_probability_hand_product():
    tree = EventTree.from_edges([
        ("r", None, 1.0), ("a", "r", 0.3), ("b", "r", 0.7),
        ("aa", "a", 0.4), ("ab", "a", 0.6), ("ba", "b", 0.5), ("bb", "b", 0.5),
    ], 2)
    assert node_probability(tree, "aa") == pytest.approx(0.12, abs=1e-15)


def test_node_probability_unknown_id():
    tree = EventTree.single_path(1)
    with pytest.raises(SchemaError):
        node_probability(tree, "nope")


def test_depth_probabilities_sum_to_one():
    tree = EventTree.uniform(3, 3, [0.2, 0.3, 0.5])
    p = tree.probabilities()
    for k in range(4):
        assert np.sum(p[tree.depth_nodes[k]]) == pytest.approx(1.0, abs=TOL)


def test_cond_expectation_constant(binary_one_period):
    X = AdaptedProcess.constant(binary_one_period, 4.2)
    out = cond_expectation(binary_one_period, X, 0)
    assert out.at_depth(0)[0] == pytest.approx(4.2, abs=TOL)


def test_cond_expectation_two_leaves(binary_one_period):
    X = AdaptedProcess.from_depth_arrays(binary_one_period,
                                         [np.array([0.0]), np.array([3.0, 4.0])])
    assert cond_expectation(binary_one_period, X, 0).at_depth(0)[0] == pytest.approx(3.5)


def test_cond_expectation_identity_at_own_depth(binary_one_period):
    X = AdaptedProcess.from_depth_arrays(binary_one_period,
                                         [np.array([0.0]), np.array([3.0, 4.0])])
    out = cond_expectation(binary_one_period, X, 1)
    assert np.allclose(out.at_depth(1), [3.0, 4.0], atol=TOL)


def test_cond_expectation_rejects_finer_depth(binary_one_period):
    X = AdaptedProcess.constant(binary_one_period, 1.0, depth=0)
    with pytest.raises(ValueError):
        cond_expectation(binary_one_period, X, 1)


@settings(max_examples=50, deadline=None)
@given(tree_with_values())
def test_tower_property(tv):
    tree, vals = tv
    m = tree.horizon
    x = vals[-len(tree.depth_nodes[m]):]
    for k in range(m + 1):
        direct = cond_expectation_arrays(tree, x, m, k)
        for j in range(k, m + 1):
            via = cond_expectation_arrays(tree, cond_expectation_arrays(tree, x, m, j), j, k)
            assert np.max(np.abs(via - direct)) < TOL


@settings(max_examples=50, deadline=None)
@given(tree_with_values(), st.floats(-3, 3), st.floats(-3, 3), st.integers(0, 10_000))
def test_linearity(tv, a, b, salt):
    tree, x = tv
    m = tree.horizon
    rng = np.random.default_rng(salt)
    y = rng.uniform(-10, 10, size=tree.n_nodes)
    xs, ys = x[-len(tree.depth_nodes[m]):], y[-len(tree.depth_nodes[m]):]
    lhs = cond_expectation_arrays(tree, a * xs + b * ys, m, 0)
    rhs = a * cond_expectation_arrays(tree, xs, m, 0) + b * cond_expectation_arrays(tree, ys, m, 0)
    assert np.max(np.abs(lhs - rhs)) < TOL


def test_esssup_constant(binary_one_period):
    X = AdaptedProcess.constant(binary_one_period, 2.5)
    part = Partition.trivial(binary_one_period, 1)
    assert np.allclose(cond_esssup(binary_one_period, X, part), 2.5, atol=TOL)


def test_esssup_essinf_block(binary_one_period):
    X = AdaptedProcess.from_depth_arrays(binary_one_period,
                                         [np.array([0.0]), np.array([3.0, 4.0])])
    part = Partition.trivial(binary_one_period, 1)
    assert np.allclose(cond_esssup(binary_one_period, X, part), 4.0)
    assert np.allclose(cond_essinf(binary_one_period, X, part), 3.0)


def test_esssup_trivial_partition_three_leaves():
    tree = EventTree.from_edges([("r", None, 1.0), ("a", "r", 0.2),
                                 ("b", "r", 0.5), ("c", "r", 0.3)], 1)
    X = AdaptedProcess.from_depth_arrays(tree, [np.array([0.0]), np.array([1.0, 5.0, 2.0])])
    assert np.allclose(cond_esssup(tree, X, Partition.trivial(tree, 1)), 5.0)


def test_esssup_depth_mismatch():
    tree = EventTree.uniform(2, 2)
    X = AdaptedProcess.constant(tree, 1.0, depth=1)
    with pytest.raises(ValueError):
        cond_esssup(tree, X, Partition.trivial(tree, 2))


@settings(max_examples=40, deadline=None)
@given(trees(), st.integers(0, 10_000))
def test_blockwise_reduce_on_columns_equals_one_call_per_column(tree, salt):
    rng = np.random.default_rng(salt)
    m = tree.horizon
    k = int(rng.integers(0, m + 1))
    # random blocks of depth-k nodes, free to span sibling groups
    nodes = rng.permutation(tree.depth_nodes[k])
    cuts = np.sort(rng.choice(np.arange(1, len(nodes)), size=min(2, len(nodes) - 1),
                              replace=False))
    part = Partition(tree, k, tuple(np.split(nodes, cuts)))
    values = rng.normal(size=(len(tree.depth_nodes[m]), 4))
    for ufunc in (np.maximum, np.minimum):
        want = np.column_stack([blockwise_reduce(tree, values[:, j], m, part, ufunc)
                                for j in range(values.shape[1])])
        assert np.array_equal(blockwise_reduce(tree, values, m, part, ufunc), want)


@settings(max_examples=40, deadline=None)
@given(tree_with_values(), st.integers(0, 10_000))
def test_essinf_below_blockwise_mean_below_esssup(tv, salt):
    tree, vals = tv
    m = tree.horizon
    X = AdaptedProcess(tree, m, vals)
    rng = np.random.default_rng(salt)
    # random partition coarser than the depth filtration
    nodes = [int(i) for i in tree.depth_nodes[m]]
    rng.shuffle(nodes)
    cut = rng.integers(1, len(nodes) + 1)
    blocks = [tuple(sorted(nodes[:cut]))]
    if cut < len(nodes):
        blocks.append(tuple(sorted(nodes[cut:])))
    part = Partition(tree, m, tuple(blocks))
    lo = cond_essinf(tree, X, part)
    mid = cond_expectation_on(tree, X, part)
    hi = cond_esssup(tree, X, part)
    assert np.all(lo <= mid + TOL) and np.all(mid <= hi + TOL)


def test_partition_validation():
    tree = EventTree.uniform(1, 2)
    with pytest.raises(SchemaError):
        Partition(tree, 1, ((1,),))            # does not cover
    with pytest.raises(SchemaError):
        Partition(tree, 1, ((1, 2), (2,)))     # overlap
    sib = Partition.sibling_groups(tree, 1)
    assert Partition.singletons(tree, 1).refines(sib)
    assert not sib.refines(Partition.singletons(tree, 1))


@pytest.mark.parametrize("blocks,message", [
    (((), (3, 4, 5, 6)), "empty block"),
    (((3, 4, 7), (5, 6)), "node 7 not at depth 2"),
    (((3, 4, 5), (5, 6)), "node 5 in two blocks"),
    (((3, 4), (6,)), "blocks do not cover the depth"),
    # the first offence in block order is named, as by a walk over the nodes
    (((3, 4), (4, 2), (5, 6)), "node 4 in two blocks"),
    (((3, 10 ** 30), (4, 5, 6)), f"node {10 ** 30} not at depth 2"),
])
def test_partition_names_the_offending_node(blocks, message):
    tree = EventTree.uniform(2, 2)
    with pytest.raises(SchemaError, match=f"^partition: {message}$"):
        Partition(tree, 2, blocks)
    with pytest.raises(SchemaError, match=f"^partition: {message}$"):
        Partition(tree, 2, tuple(np.array(b, dtype=object if 10 ** 30 in b else np.int64)
                                 for b in blocks))


def test_partition_blocks_are_tuples_of_ints():
    tree = EventTree.uniform(2, 2)
    for blocks in (((3, 4), (5, 6)), (np.array([3, 4]), np.array([5, 6])),
                   ((np.int64(3), 4.0), [5, np.int32(6)])):
        part = Partition(tree, 2, blocks)
        assert part.blocks == ((3, 4), (5, 6))
        assert all(type(i) is int for b in part.blocks for i in b)


def test_tree_invariant_violations():
    with pytest.raises(SchemaError):   # child probabilities must sum to one
        EventTree.from_edges([("r", None, 1.0), ("a", "r", 0.6), ("b", "r", 0.6)], 1)
    with pytest.raises(SchemaError):   # leaves must sit at the horizon
        EventTree.from_edges([("r", None, 1.0), ("a", "r", 0.5), ("b", "r", 0.5),
                              ("aa", "a", 1.0)], 2)
    with pytest.raises(SchemaError):   # duplicate ids
        EventTree.from_edges([("r", None, 1.0), ("a", "r", 0.5), ("a", "r", 0.5)], 1)
    with pytest.raises(SchemaError):   # two roots
        EventTree.from_edges([("r", None, 1.0), ("s", None, 1.0)], 0)
    with pytest.raises(SchemaError):   # probability outside (0, 1]
        EventTree.from_edges([("r", None, 1.0), ("a", "r", 0.0), ("b", "r", 1.0)], 1)


def test_adapted_process_shape_checked():
    tree = EventTree.uniform(2, 2)
    with pytest.raises(SchemaError):
        AdaptedProcess(tree, 1, np.zeros(2))


def test_tree_rejects_depth_first_order():
    # parent[i] < i holds, but node 2 (depth 2) precedes node 3 (depth 1):
    # a depth-1 slice taken as an index prefix would include node 2
    with pytest.raises(SchemaError):
        EventTree(("r", "a", "aa", "b", "bb"), [-1, 0, 1, 0, 3], [1.0, 0.5, 1.0, 0.5, 1.0], 2)


def test_tree_rejects_interleaved_siblings():
    # depth never decreases, but the children of "a" (nodes 3 and 5) are split
    with pytest.raises(SchemaError):
        EventTree(("r", "a", "b", "aa", "ba", "ab"), [-1, 0, 0, 1, 2, 1],
                  [1.0, 0.5, 0.5, 0.5, 1.0, 0.5], 2)


def _mixed_tree(rng):
    """Branching 1..12 near the root (wide sibling groups included), nodes
    handed to from_edges in shuffled order."""
    nodes, frontier = [("r", None, 1.0)], ["r"]
    for level in range(3):
        nxt = []
        for nid in frontier:
            b = int(rng.choice([1, 2, 3, 8, 9, 12])) if level < 2 else int(rng.integers(1, 4))
            w = rng.uniform(0.1, 1.0, b)
            for j, x in enumerate(w / w.sum()):
                nodes.append((f"{nid}.{j}", nid, float(x)))
                nxt.append(f"{nid}.{j}")
        frontier = nxt
    return EventTree.from_edges([nodes[i] for i in rng.permutation(len(nodes))], 3)


def _present_value_loops(tree, M, payments, k):
    """present_value as one np.sum per atom (the reference the per-depth
    version must match bit for bit)."""
    ratios = spd_edge_ratios(tree, M)
    v = np.zeros(len(tree.depth_nodes[payments.depth]))
    for n in range(payments.depth, k, -1):
        pay, lo = payments.at_depth(n), tree.n_upto(n - 1)
        v = np.array([np.sum(tree.trans_prob[kids] * ratios[kids] * (pay[kids - lo] + v[kids - lo]))
                      for kids in (tree.children[int(u)] for u in tree.depth_nodes[n - 1])])
    return v


def _complete_market_loops(tree, M):
    """Interest and (price, dividend) values of complete_market_from_spd,
    built atom by atom (the reference for the per-depth version)."""
    T = tree.horizon
    slot = np.zeros(tree.n_nodes, dtype=int)
    for u in range(tree.n_nodes):
        for j, c in enumerate(tree.children[u]):
            slot[int(c)] = j
    rate = np.zeros(tree.n_nodes)
    for k in range(1, T + 1):
        mk, mprev, lo = M.at_depth(k), M.at_depth(k - 1), tree.n_upto(k - 1)
        for j, u in enumerate(tree.depth_nodes[k - 1]):
            kids = tree.children[int(u)]
            rate[kids] = 1.0 / (np.sum(tree.trans_prob[kids] * mk[kids - lo]) / mprev[j]) - 1.0
    ratios = spd_edge_ratios(tree, M)
    assets = []
    for j in range(max(1, int(slot.max()))):
        div = np.where(tree.depth > 0, 1.0 + (slot == j + 1), 0.0)
        price = np.ones(tree.n_nodes)
        for u in range(tree.n_upto(T - 1) - 1, -1, -1):
            kids = tree.children[u]
            price[u] = np.sum(tree.trans_prob[kids] * ratios[kids] * (price[kids] + div[kids]))
        assets.append((price, div))
    return rate, assets


def _blockwise_loops(tree, process, partition, reducer):
    """Per-block reduction over each block's descendants, walked node by
    node (the reference for the per-depth block walk)."""
    m, k = process.depth, partition.depth
    vals, out = process.at_depth(m), np.empty(len(tree.depth_nodes[k]))
    for b in partition.blocks:
        desc = list(b)
        for _ in range(m - k):
            desc = [int(c) for d in desc for c in tree.children[d]]
        out[np.asarray(b) - tree.n_upto(k - 1)] = reducer(vals[np.asarray(desc) - tree.n_upto(m - 1)],
                                                          desc)
    return out


def test_vectorised_tree_queries_match_node_loops():
    rng = np.random.default_rng(17)
    spd_rng = np.random.default_rng(18)
    for _ in range(20):
        tree = _mixed_tree(rng)
        p = np.ones(tree.n_nodes)
        anc = np.full((tree.n_nodes, tree.horizon + 1), -1)
        for i in range(tree.n_nodes):
            kids = tree.children[i]
            assert np.array_equal(kids, np.flatnonzero(tree.parent == i))
            if i:
                p[i] = p[tree.parent[i]] * tree.trans_prob[i]
            j = i
            for l in range(int(tree.depth[i]), -1, -1):
                anc[i, l] = j
                j = tree.parent[j]
        assert np.array_equal(tree.probabilities(), p)          # bit for bit
        assert np.array_equal(tree.ancestor_matrix(), anc)
        for k in range(1, tree.horizon + 1):
            x = rng.standard_normal(len(tree.depth_nodes[k])) * 10.0 ** rng.uniform(-3, 3)
            lo = tree.n_upto(k - 1)
            want = [np.sum(tree.trans_prob[tree.children[int(u)]] * x[tree.children[int(u)] - lo])
                    for u in tree.depth_nodes[k - 1]]
            assert np.array_equal(cond_expectation_arrays(tree, x, k, k - 1), want)
            kids = [tree.children[int(u)] - lo for u in tree.depth_nodes[k - 1]]
            assert np.array_equal(tree.sibling_sum(k, x), [np.sum(x[c]) for c in kids])
            xx = np.column_stack([x, -2.0 * x, x ** 2])
            assert np.array_equal(tree.sibling_sum(k, xx), [np.sum(xx[c], axis=0) for c in kids])
            parents = list(tree.depth_nodes[k - 1])
            assert np.array_equal(tree.parent_pos(k),
                                  [parents.index(tree.parent[v]) for v in tree.depth_nodes[k]])
        slot = np.zeros(tree.n_nodes, dtype=int)
        for u in range(tree.n_nodes):
            slot[tree.children[u]] = np.arange(len(tree.children[u]))
        assert np.array_equal(tree.sibling_slot, slot)
        for k in range(tree.horizon + 1):
            nodes = [int(i) for i in tree.depth_nodes[k]]
            rng.shuffle(nodes)
            cut = int(rng.integers(1, len(nodes) + 1))
            part = Partition(tree, k, tuple(b for b in (nodes[:cut], nodes[cut:]) if b))
            X = AdaptedProcess(tree, tree.horizon, rng.standard_normal(tree.n_nodes))
            assert np.array_equal(cond_esssup(tree, X, part),
                                  _blockwise_loops(tree, X, part, lambda v, _: np.max(v)))
            assert np.array_equal(cond_essinf(tree, X, part),
                                  _blockwise_loops(tree, X, part, lambda v, _: np.min(v)))
            mean = _blockwise_loops(tree, X, part, lambda v, d: np.sum(p[d] * v) / np.sum(p[d]))
            assert np.array_equal(cond_expectation_on(tree, X, part), mean)
        M = random_positive_spd(spd_rng, tree)
        pay = AdaptedProcess(tree, tree.horizon, spd_rng.uniform(0.0, 2.0, tree.n_nodes))
        for k in range(tree.horizon + 1):
            assert np.array_equal(present_value(tree, M, pay, k), _present_value_loops(tree, M, pay, k))
        market = complete_market_from_spd(tree, M)
        rate, assets = _complete_market_loops(tree, M)
        assert np.array_equal(market.interest.values, rate)
        assert len(market.assets) == len(assets)
        for a, (price, div) in zip(market.assets, assets):
            assert np.array_equal(a.prices.values, price)
            assert np.array_equal(a.dividends.values, div)
