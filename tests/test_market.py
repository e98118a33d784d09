import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import habitree.instances as gi
import habitree.market as market_mod
from habitree import (
    AdaptedProcess,
    Asset,
    EventTree,
    MarketError,
    MarketSpec,
    Partition,
    SchemaError,
    SpdPair,
    complete_market_from_spd,
    intermediate_partitions,
    perturbed_spd,
    project,
    spd_pair,
    static_habit_matrix,
    validate_market_class,
)
from habitree.market import (consumption_from_surplus, habit_adjoint, habit_expectations,
                             habit_surplus)
from habitree.tree import cond_expectation_arrays, cond_expectation_on


def bond_only_market(tree, rate=0.0):
    """Bond plus a bond-duplicating asset (the asset list must be nonempty)."""
    T = tree.horizon
    r = AdaptedProcess.constant(tree, rate)
    price = AdaptedProcess.constant(tree, 1.0)
    div = AdaptedProcess(tree, T, np.where(tree.depth > 0, rate, 0.0))
    return MarketSpec(tree, (Asset("b2", price, div),), r)


# -- payoff bases ---------------------------------------------------------------


def test_basis_bond_only_is_ones():
    tree = EventTree.uniform(1, 3)
    market = bond_only_market(tree, 0.0)
    [g] = market.basis_groups(1)
    assert g.rank == 1
    assert np.allclose(g.full[0][:, list(g.kept_cols)][:, 0], 1.0)


def test_basis_prunes_duplicated_bond():
    market = gi.deterministic_market(2, 0.07)
    for k in (1, 2):
        for g in market.basis_groups(k):
            assert g.rank == 1                  # the risky asset duplicates the bond
            assert g.kept_cols == (0,)          # bond kept first


def test_basis_binary_market_full_rank(binary_market):
    [g] = binary_market.basis_groups(1)
    assert g.rank == 2
    assert np.linalg.matrix_rank(g.full[0]) == 2


# -- projection -------------------------------------------------------------------


def test_project_idempotent(binary_market):
    [g] = binary_market.basis_groups(1)
    x = g.full[0] @ np.array([0.3, -1.2])
    assert np.allclose(project(binary_market, x, 1), x, atol=1e-12)


def test_project_complete_equals_conditional_expectation():
    rng = np.random.default_rng(0)
    tree = gi.random_tree(rng, min_depth=2)
    market = gi.random_complete_market(rng, tree)
    X = AdaptedProcess(tree, tree.horizon, rng.normal(size=tree.n_nodes))
    for k in range(1, tree.horizon + 1):
        want = cond_expectation_arrays(tree, X.at_depth(tree.horizon), tree.horizon, k)
        got = project(market, X, k)
        assert np.max(np.abs(got - want)) < 1e-10


def test_project_classC_equals_blockwise_mean_100_draws():
    rng = np.random.default_rng(1)
    market = gi.random_classC_market(rng, gi.random_tree(rng, min_depth=2))
    tree = market.tree
    cls = validate_market_class(market)
    assert "classC" in cls.labels
    for _ in range(100):
        k = int(rng.integers(1, tree.horizon + 1))
        X = AdaptedProcess(tree, k, rng.uniform(-5, 5, size=tree.n_upto(k)))
        direct = project(market, X, k)
        blockwise = cond_expectation_on(tree, X, cls.classC_partitions[k - 1])
        assert np.max(np.abs(direct - blockwise)) < 1e-10


def test_projection_residual_orthogonal():
    rng = np.random.default_rng(2)
    tree = gi.random_tree(rng, min_depth=2)
    market = gi.random_general_market(rng, tree)
    p = tree.probabilities()
    for k in range(1, tree.horizon + 1):
        x = rng.normal(size=len(tree.depth_nodes[k]))
        proj = project(market, x, k)
        resid = x - proj
        for g in market.basis_groups(k):
            pw = p[tree.n_upto(k - 1) + g.kids]
            for j in g.kept_cols:
                assert np.max(np.abs(np.sum(pw * g.full[:, :, j] * resid[g.kids], axis=1))) < 1e-10


# -- aggregate SPD ----------------------------------------------------------------


def test_spd_deterministic_market():
    market = gi.deterministic_market(3, 0.1)
    assert np.allclose(market.spd.values, [(1.1) ** -k for k in range(4)], atol=1e-14)


def test_spd_binary_hand_solve(binary_market):
    # E[M_1] = 1 and E[M_1 S_1] = 3.5 with payoffs {3,4}, P = 1/2 -> M_1 = (1,1)
    assert np.allclose(binary_market.spd.at_depth(1), [1.0, 1.0], atol=1e-12)


def test_spd_binary_asymmetric_hand_solve(binary_one_period):
    tree = binary_one_period
    prices = AdaptedProcess.from_depth_arrays(tree, [np.array([3.4]), np.array([3.0, 4.0])])
    market = MarketSpec(tree, (Asset("s", prices, AdaptedProcess.constant(tree, 0.0)),),
                        AdaptedProcess.constant(tree, 0.0))
    # 0.5(m_u + m_d) = 1, 0.5(3 m_u + 4 m_d) = 3.4  ->  m_u = 1.2, m_d = 0.8
    assert np.allclose(market.spd.at_depth(1), [1.2, 0.8], atol=1e-12)


def test_spd_duplicated_bond_is_path_independent():
    market = gi.deterministic_market(3, 0.04)
    assert np.allclose(market.spd.values, [(1.04) ** -k for k in range(4)], atol=1e-13)


def test_spd_pricing_identity_and_membership():
    rng = np.random.default_rng(3)
    for _ in range(5):
        tree = gi.random_tree(rng, min_depth=2)
        market = gi.random_general_market(rng, tree)
        M = market.spd
        p = tree.probabilities()
        for k in range(1, tree.horizon + 1):
            mk = M.at_depth(k)
            pos = {int(n): j for j, n in enumerate(tree.depth_nodes[k])}
            payoffs = [(1.0 + market.interest.at_depth(k), np.ones(len(tree.depth_nodes[k - 1])))]
            for a in market.assets:
                payoffs.append((a.prices.at_depth(k) + a.dividends.at_depth(k),
                                a.prices.at_depth(k - 1)))
            for j, u in enumerate(tree.depth_nodes[k - 1]):
                kids = tree.children[int(u)]
                sel = [pos[int(c)] for c in kids]
                for pay, price in payoffs:
                    lhs = price[j] * M.at_depth(k - 1)[j]
                    rhs = np.sum(tree.trans_prob[kids] * pay[sel] * mk[sel])
                    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))
            assert np.max(np.abs(project(market, mk, k) - mk)) < 1e-10


def test_spd_rejects_sign_change(binary_one_period):
    tree = binary_one_period
    # price above the maximum discounted payoff forces a negative state price
    prices = AdaptedProcess.from_depth_arrays(tree, [np.array([5.0]), np.array([3.0, 4.0])])
    with pytest.raises(MarketError):
        MarketSpec(tree, (Asset("s", prices, AdaptedProcess.constant(tree, 0.0)),),
                   AdaptedProcess.constant(tree, 0.0))


def test_spd_rejects_mispriced_redundant_asset(binary_one_period):
    tree = binary_one_period
    zeros = AdaptedProcess.constant(tree, 0.0)
    a1 = Asset("s1", AdaptedProcess.from_depth_arrays(tree, [np.array([3.5]), np.array([3.0, 4.0])]), zeros)
    a2 = Asset("s2", AdaptedProcess.from_depth_arrays(tree, [np.array([3.2]), np.array([3.0, 4.0])]), zeros)
    with pytest.raises(MarketError):
        MarketSpec(tree, (a1, a2), AdaptedProcess.constant(tree, 0.0))


@pytest.mark.parametrize("prices,dividends,field,message", [
    ([2.0, 2.0], [0.0, 1.0, 1.0], "assets", "s: prices/dividends must cover depths 0..2"),
    ([2.0, 0.0, 1.0], [0.0, 1.0, 1.0], "assets.prices", "s: prices must be strictly positive"),
    ([2.0, 1.0, 1.0], [0.0, -1.0, 1.0], "assets.dividends", "s: dividends must be nonnegative"),
    ([2.0, 1.0, 1.0], [0.5, 1.0, 1.0], "assets.dividends", "s: no dividend at the root"),
], ids=["depth", "price-zero", "dividend-negative", "root-dividend"])
def test_asset_checks(prices, dividends, field, message):
    tree = EventTree.single_path(2)
    with pytest.raises(SchemaError) as info:
        Asset("s", AdaptedProcess(tree, len(prices) - 1, np.array(prices)),
              AdaptedProcess(tree, len(dividends) - 1, np.array(dividends)))
    assert (info.value.field, str(info.value)) == (field, f"{field}: {message}")


@pytest.mark.parametrize("change,field,message", [
    (dict(interest=[0.0, 0.05]), "interest", "must cover depths 0..2"),
    (dict(interest=[0.0, 0.05, -0.01]), "interest", "rates must be nonnegative"),
    (dict(idio=1), "idio_factor", "need one partition per depth 1..2"),
    (dict(idio=2), "idio_factor", "partition 2 has depth 1"),
], ids=["interest-depth", "interest-negative", "factor-count", "factor-depth"])
def test_market_spec_checks(change, field, message):
    tree = EventTree.single_path(2)
    rates = change.get("interest", [0.0, 0.05, 0.05])
    idio = (Partition.trivial(tree, 1),) * change.get("idio", 0) or None
    asset = Asset("s", AdaptedProcess.constant(tree, 1.0),
                  AdaptedProcess(tree, 2, np.array([0.0, 0.05, 0.05])))
    with pytest.raises(SchemaError) as info:
        MarketSpec(tree, (asset,), AdaptedProcess(tree, len(rates) - 1, np.array(rates)),
                   idio=idio)
    assert (info.value.field, str(info.value)) == (field, f"{field}: {message}")


# -- stacked payoff bases ---------------------------------------------------------


def _prune_reference(full, w):
    """Greedy weighted Gram-Schmidt on one atom, the per-atom loop the stacked
    bases replace."""
    kept_cols, ortho = [], []
    for j in range(full.shape[1]):
        v = full[:, j].astype(float)
        norm0 = np.sqrt(np.sum(w * v * v))
        r = v.copy()
        for _ in range(2):
            for q in ortho:
                r -= np.sum(w * q * r) * q
        norm_r = np.sqrt(np.sum(w * r * r))
        if norm_r > market_mod.PRUNE_TOL * norm0:
            kept_cols.append(j)
            ortho.append(r / norm_r)
    onb = np.column_stack(ortho) if ortho else np.zeros((full.shape[0], 0))
    return tuple(kept_cols), onb


def _atoms_reference(tree, assets, interest, k):
    """(atom, children, cond probs, full payoffs, kept cols, onb) per
    depth-(k-1) atom, in index order."""
    payoffs = np.column_stack([1.0 + interest.at_depth(k)]
                              + [a.prices.at_depth(k) + a.dividends.at_depth(k) for a in assets])
    for u in tree.depth_nodes[k - 1]:
        kids = tree.children[int(u)]
        w, full = tree.trans_prob[kids], payoffs[kids - tree.n_upto(k - 1)]
        yield (int(u), kids, w, full) + _prune_reference(full, w)


def _spd_reference(tree, assets, interest):
    """The per-atom lstsq loop, raising the same errors as
    compute_aggregate_spd."""
    slices = [np.array([1.0])]
    for k in range(1, tree.horizon + 1):
        prev = slices[k - 1]
        cur = np.empty(len(tree.depth_nodes[k]))
        for u, kids, w, full, _, onb in _atoms_reference(tree, assets, interest, k):
            target = np.array([1.0] + [a.prices.value_at(u) for a in assets]) \
                * prev[u - tree.n_upto(k - 2)]
            theta, *_ = np.linalg.lstsq(full.T @ (w[:, None] * onb), target, rcond=None)
            m_kids = onb @ theta
            gaps = np.abs(full.T @ (w * m_kids) - target)
            scale = np.maximum(1.0, np.abs(target))
            if np.any(gaps > market_mod.PRICE_TOL * scale):
                bad = int(np.argmax(gaps / scale))
                raise MarketError(f"no aggregate SPD: instrument {bad} mispriced at atom "
                                  f"{tree.ids[u]} depth {k} (gap {gaps[bad]:.3e})")
            cur[kids - tree.n_upto(k - 1)] = m_kids
        if np.any(cur <= 0.0):
            raise MarketError(
                f"aggregate SPD vanishes or changes sign at depth {k}; market rejected")
        slices.append(cur)
    return np.concatenate(slices)


def _mixed_rank_markets():
    """Class-C markets on trees that mix child counts and, inside one child
    count, kept-column sets (an asset redundant on some atoms only)."""
    out = []
    for seed in range(12):
        rng = np.random.default_rng(seed)
        market = gi.random_classC_market(rng, gi.random_tree(rng, max_depth=3, max_children=4,
                                                             min_depth=2))
        groups = [market.basis_groups(k) for k in range(1, market.tree.horizon + 1)]
        if any(len({g.kids.shape[1] for g in gs}) < len(gs) for gs in groups):
            out.append(market)
    assert len(out) >= 5
    return out


def test_stacked_bases_match_per_atom_gram_schmidt_bit_for_bit():
    for market in _mixed_rank_markets():
        tree = market.tree
        for k in range(1, tree.horizon + 1):
            ref = list(_atoms_reference(tree, market.assets, market.interest, k))
            view = market.atom_bases(k)
            seen = 0
            for g in market.basis_groups(k):
                assert g.onb.shape == g.kids.shape + (g.rank,)
                for i, a in enumerate(g.atoms):
                    u, kids, w, full, kept_cols, onb = ref[a]
                    assert np.array_equal(tree.n_upto(k - 1) + g.kids[i], kids)
                    assert g.kept_cols == kept_cols
                    assert g.onb[i].tobytes() == onb.tobytes()
                    assert g.full[i].tobytes() == full.tobytes()
                    # atom_bases(k)[a] is atom a's one-atom slice of its group
                    basis = view[a]
                    assert tree.n_upto(k - 2) + int(basis.atoms[0]) == u
                    assert basis.kept_cols == kept_cols and basis.rank == len(kept_cols)
                    for name in ("atoms", "kids", "full", "cond_probs", "onb"):
                        assert getattr(basis, name).tobytes() == getattr(g, name)[i:i + 1].tobytes()
                    seen += 1
            assert seen == len(ref) == len(view)


def test_stacked_project_matches_per_atom_loop_bit_for_bit():
    rng = np.random.default_rng(5)
    for market in _mixed_rank_markets():
        tree = market.tree
        for k in range(1, tree.horizon + 1):
            x = rng.normal(size=len(tree.depth_nodes[k]))
            want = np.empty_like(x)
            for u, kids, w, full, kept_cols, onb in _atoms_reference(tree, market.assets,
                                                                     market.interest, k):
                sel = kids - tree.n_upto(k - 1)
                want[sel] = onb @ (onb.T @ (w * x[sel]))
            assert project(market, x, k).tobytes() == want.tobytes()


def test_stacked_spd_matches_per_atom_lstsq_bit_for_bit():
    for market in _mixed_rank_markets():
        want = _spd_reference(market.tree, market.assets, market.interest)
        assert market.spd.values.tobytes() == want.tobytes()


def _three_atom_market(prices_1, prices_2):
    """Horizon 2, r = 0, one asset without depth-2 dividends.  The depth-1
    atoms a and b have three children, c has two, so at depth 2 the
    two-child group [c] comes before the group [a, b]."""
    kids = {"r": ("a", "b", "c"), "a": ("a0", "a1", "a2"), "b": ("b0", "b1", "b2"),
            "c": ("c0", "c1")}
    edges = [("r", None, 1.0)] + [(kid, u, 1.0 / len(ks)) for u, ks in kids.items() for kid in ks]
    tree = EventTree.from_edges(edges, 2)
    prices = AdaptedProcess.from_depth_arrays(tree, [np.array([0.66]), np.array(prices_1),
                                                     np.array(prices_2)])
    dividends = AdaptedProcess.from_depth_arrays(
        tree, [np.zeros(1), np.array([0.1, 0.2, 0.3]), np.zeros(8)])
    return tree, (Asset("s", prices, dividends),), AdaptedProcess.constant(tree, 0.0)


def _raised(tree, assets, interest, build):
    with pytest.raises(MarketError) as info:
        build(tree, assets, interest)
    return str(info.value)


def test_mispriced_atom_is_named_in_atom_order():
    # b and c both misprice a bond-duplicating payoff; b comes first among
    # the atoms but its group comes second
    tree, assets, interest = _three_atom_market(
        [0.5, 0.45, 0.45], [0.4, 0.5, 0.6, 0.5, 0.5, 0.5, 0.5, 0.5])
    assert [len(a) for a, _ in tree.child_groups(2)] == [1, 2]
    got = _raised(tree, assets, interest, MarketSpec)
    assert got == _raised(tree, assets, interest, _spd_reference)
    assert re.match(r"no aggregate SPD: instrument 1 mispriced at atom b depth 2 ", got)


def test_sign_change_names_the_same_depth():
    # b's asset price exceeds its largest payoff; a and c price consistently
    tree, assets, interest = _three_atom_market(
        [0.5, 0.65, 0.5], [0.4, 0.5, 0.6, 0.4, 0.5, 0.6, 0.5, 0.5])
    got = _raised(tree, assets, interest, MarketSpec)
    assert got == _raised(tree, assets, interest, _spd_reference)
    assert "changes sign at depth 2" in got


# -- perturbed SPD ----------------------------------------------------------------


def test_perturbed_spd_zero_habits():
    market = gi.deterministic_market(3, 0.05)
    Mt = perturbed_spd(market.spd, 0.0)
    assert np.allclose(Mt.values, market.spd.values, atol=1e-15)


def test_perturbed_spd_static_deterministic_unroll():
    tree = EventTree.single_path(2)
    M = AdaptedProcess.constant(tree, 1.0)
    beta = 0.3
    Mt = perturbed_spd(M, beta)
    assert np.allclose(Mt.values, [1 + beta + beta ** 2, 1 + beta, 1.0], atol=1e-15)


def enumerate_chain_weight(habits, top, bottom):
    import itertools
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


def test_perturbed_spd_direct_sum_on_path():
    tree = EventTree.single_path(3)
    rng = np.random.default_rng(9)
    M = gi.random_positive_spd(rng, tree)
    habits = np.tril(rng.uniform(0.0, 0.5, size=(4, 4)), k=-1)
    Mt = perturbed_spd(M, habits)
    for k in range(4):
        direct = M.values[k] + sum(
            enumerate_chain_weight(habits, l, k) * M.values[l] for l in range(k + 1, 4))
        assert Mt.values[k] == pytest.approx(direct, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_perturbed_spd_recursion_equals_chain_sum(seed, T):
    rng = np.random.default_rng(seed)
    tree = gi.random_tree(rng, max_depth=T, min_depth=T)
    M = gi.random_positive_spd(rng, tree)
    habits = np.tril(rng.uniform(0.0, 0.5, size=(T + 1, T + 1)), k=-1)
    Mt = perturbed_spd(M, habits)
    for k in range(T + 1):
        direct = M.at_depth(k).copy()
        for l in range(k + 1, T + 1):
            w = enumerate_chain_weight(habits, l, k)
            direct = direct + w * cond_expectation_arrays(tree, M.at_depth(l), l, k)
        assert np.max(np.abs(direct - Mt.at_depth(k))) < 1e-12


def test_spd_pair_invariants():
    market = gi.deterministic_market(2, 0.02)
    pair = spd_pair(market, 0.25)
    assert pair.M.at_depth(0)[0] == 1.0
    assert np.all(pair.Mtilde.values >= pair.M.values - 1e-12)
    bad = AdaptedProcess(market.tree, 2, market.spd.values * 2.0)
    with pytest.raises(MarketError):
        SpdPair(bad, bad)


# -- classification ----------------------------------------------------------------


def test_classify_complete_market():
    rng = np.random.default_rng(11)
    market = gi.random_complete_market(rng, gi.random_tree(rng, min_depth=2))
    labels = validate_market_class(market).labels
    assert "complete" in labels and "classC" in labels and "general" not in labels


def test_classify_idiosyncratic_product():
    rng = np.random.default_rng(12)
    market = gi.random_idiosyncratic_market(rng)
    labels = validate_market_class(market).labels
    assert "idiosyncratic" in labels
    assert "complete" not in labels


def _factor_market_variant(case):
    """The factor market of test_classify_idiosyncratic_product with one
    defect that breaks the idiosyncratic definition."""
    market = gi.random_idiosyncratic_market(np.random.default_rng(12))
    tree, T = market.tree, market.tree.horizon
    prob, assets, idio = tree.trans_prob.copy(), market.assets, market.idio
    if case == "payoff-not-factor-adapted":
        # one node's dividend differs from the rest of its F_1 block
        div = assets[0].dividends.values.copy()
        div[tree.depth_nodes[1][0]] += 0.01
        assets = (Asset(assets[0].name, assets[0].prices,
                        AdaptedProcess(tree, T, div)),) + assets[1:]
    elif case == "factor-claim-not-replicable":
        # F = G: every node is a factor claim, but the noise is not traded
        idio = tuple(Partition.singletons(tree, k) for k in range(1, T + 1))
    else:
        # below one depth-1 node the factor moves depend on the noise:
        # shift mass between the first factor child's block and the rest
        kids = tree.children[int(tree.depth_nodes[1][0])]
        block = market.idio[1].block_index()[kids - tree.n_upto(1)]
        first, rest = kids[block == block[0]], kids[block != block[0]]
        prob[first] *= 0.9
        prob[rest] *= (1.0 - prob[first].sum()) / prob[rest].sum()
    tree2 = EventTree(tree.ids, tree.parent, prob, T)

    def move(proc):
        return AdaptedProcess(tree2, T, proc.values)

    return MarketSpec(tree2, tuple(Asset(a.name, move(a.prices), move(a.dividends))
                                   for a in assets),
                      move(market.interest),
                      idio=tuple(Partition(tree2, p.depth, p.blocks) for p in idio))


def _derive_reference(market, k):
    """H_k by the per-atom support-merge loop: labels merged over each
    atom's projector support, blocks in first-child order within an atom,
    atoms in index order; None without exact block structure."""
    tree = market.tree
    blocks_all = []
    for u, kids, w, full, kept_cols, onb in _atoms_reference(tree, market.assets,
                                                             market.interest, k):
        proj = onb @ (onb.T * w[None, :])
        n = len(kids)
        labels = list(range(n))
        for i in range(n):
            for j in range(i + 1, n):
                if abs(proj[i, j]) > 1e-8 or abs(proj[j, i]) > 1e-8:
                    li, lj = labels[i], labels[j]
                    labels = [li if l == lj else l for l in labels]
        lab = np.array(labels)
        mass = np.bincount(lab, weights=w)[lab]
        if np.max(np.abs(proj - np.where(lab[:, None] == lab, w / mass[:, None], 0.0))) > 1e-10:
            return None
        groups = {}
        for c, l in zip(kids, labels):
            groups.setdefault(l, []).append(int(c))
        blocks_all.extend(tuple(g) for g in groups.values())
    return tuple(blocks_all)


def test_derived_partitions_match_per_atom_merge_loop():
    noncontiguous = 0
    for seed in range(60):
        rng = np.random.default_rng(seed)
        market, truth = gi.random_classC_instance(
            rng, gi.random_tree(rng, max_children=5, min_depth=2))
        for k in range(1, market.tree.horizon + 1):
            derived = market_mod._derive_intermediate(market, k)
            assert derived.blocks == _derive_reference(market, k)
            # the generator's own blocks, in any order
            assert set(derived.blocks) == set(truth[k - 1].blocks)
            noncontiguous += any(b[-1] - b[0] >= len(b) for b in derived.blocks)
        if not market.is_complete():
            assert validate_market_class(market).classC_partitions == \
                tuple(market_mod._derive_intermediate(market, k)
                      for k in range(1, market.tree.horizon + 1))
    assert noncontiguous >= 60          # depths where some block skips a sibling


def test_no_derived_partition_without_block_structure():
    found = []
    for seed in range(8):
        rng = np.random.default_rng(seed)
        market = gi.random_general_market(rng, gi.random_tree(rng, min_depth=2))
        for k in range(1, market.tree.horizon + 1):
            derived = market_mod._derive_intermediate(market, k)
            want = _derive_reference(market, k)
            assert (derived is None and want is None) or derived.blocks == want
            found.append(derived is not None)
    assert any(found) and not all(found)    # both outcomes are reached


@pytest.mark.parametrize("case", ["payoff-not-factor-adapted", "factor-claim-not-replicable",
                                  "noise-depends-on-factor"])
def test_classify_idiosyncratic_rejections(case):
    labels = validate_market_class(_factor_market_variant(case)).labels
    assert "idiosyncratic" not in labels


def test_classify_general_market():
    rng = np.random.default_rng(13)
    tree = EventTree.uniform(2, 3)
    market = gi.random_general_market(rng, tree)
    assert validate_market_class(market).labels == frozenset({"general"})


@pytest.mark.parametrize("seed,shape", [(s, shape) for s, shape in enumerate(
    [(2, 2, 2, False), (3, 2, 2, True), (2, 3, 2, False), (1, 2, 3, True), (2, 2, 3, False)],
    start=70)])
def test_factor_market_partitions_are_parent_and_factor_blocks(seed, shape):
    f_depth, f_branch, noise, det = shape
    market = gi.random_idiosyncratic_market(np.random.default_rng(seed), f_depth, f_branch,
                                            noise, deterministic_rate=det)
    assert "idiosyncratic" in validate_market_class(market).labels
    tree = market.tree
    for k, part in enumerate(intermediate_partitions(market), start=1):
        # sigma(G_{k-1}, F_k): nodes sharing a parent and an F_k block
        blocks = {}
        keys = zip(tree.parent[tree.depth_nodes[k]], market.idio[k - 1].block_index())
        for v, key in zip(tree.depth_nodes[k], keys):
            blocks.setdefault(key, set()).add(int(v))
        assert {frozenset(map(int, b)) for b in part.blocks} == set(map(frozenset, blocks.values()))


def test_unverified_factor_structure_gives_no_partitions():
    rng = np.random.default_rng(13)
    tree = EventTree.uniform(2, 3)
    plain = gi.random_general_market(rng, tree)
    market = MarketSpec(tree, plain.assets, plain.interest,
                        idio=tuple(Partition.sibling_groups(tree, k) for k in (1, 2)))
    assert validate_market_class(market).labels == frozenset({"general"})
    with pytest.raises(MarketError):
        intermediate_partitions(market)


def test_classify_deterministic_rate_label():
    market = gi.deterministic_market(2, 0.03)
    labels = validate_market_class(market).labels
    assert "deterministic-rate" in labels and "complete" in labels


# -- synthesis ----------------------------------------------------------------------


def test_complete_market_from_spd_roundtrip():
    rng = np.random.default_rng(14)
    for _ in range(4):
        tree = gi.random_tree(rng, min_depth=2)
        M = gi.random_positive_spd(rng, tree)
        market = complete_market_from_spd(tree, M)
        assert market.is_complete()
        assert np.max(np.abs(market.spd.values - M.values)) < 1e-12


def test_interest_must_be_predictable(binary_one_period):
    tree = binary_one_period
    r = AdaptedProcess.from_depth_arrays(tree, [np.array([0.0]), np.array([0.01, 0.02])])
    prices = AdaptedProcess.from_depth_arrays(tree, [np.array([3.5]), np.array([3.0, 4.0])])
    with pytest.raises(Exception):
        MarketSpec(tree, (Asset("s", prices, AdaptedProcess.constant(tree, 0.0)),), r)


# -- habit maps -------------------------------------------------------------------


def _surplus_loop(tree, habits, c):
    """The per-depth ancestor_matrix loop habit_surplus replaced (reference)."""
    anc = tree.ancestor_matrix()
    s = c.copy()
    for k in range(1, tree.horizon + 1):
        nodes = tree.depth_nodes[k]
        for l in range(k):
            b = habits[k, l]
            if b != 0.0:
                s[nodes] -= b * c[anc[nodes, l]]
    return s


def _consumption_loop(tree, habits, s):
    """The loop consumption_from_surplus replaced (reference)."""
    anc = tree.ancestor_matrix()
    c = s.copy()
    for k in range(1, tree.horizon + 1):
        nodes = tree.depth_nodes[k]
        for l in range(k):
            b = habits[k, l]
            if b != 0.0:
                c[nodes] += b * c[anc[nodes, l]]
    return c


def test_habit_maps_match_ancestor_loops():
    rng = np.random.default_rng(53)
    for _ in range(30):
        tree = gi.random_tree(rng, max_depth=5)
        x = rng.uniform(0.5, 2.0, size=tree.n_nodes)
        for habits in (static_habit_matrix(float(rng.uniform(0.0, 0.9)), tree.horizon),
                       gi.random_habit_matrix(rng, tree.horizon, beta_max=0.9)):
            s = habit_surplus(tree, habits, x)
            assert np.array_equal(s, _surplus_loop(tree, habits, x))
            c = consumption_from_surplus(tree, habits, x)
            assert np.array_equal(c, _consumption_loop(tree, habits, x))
            assert np.allclose(habit_surplus(tree, habits, c), x, rtol=1e-13, atol=0.0)


def _perturbed_spd_loop(M, habits):
    """The per-depth running-dict loop perturbed_spd replaced (reference)."""
    tree, T = M.tree, M.depth
    slices = [M.at_depth(k).copy() for k in range(T + 1)]
    tilde = [None] * (T + 1)
    tilde[T] = slices[T]
    running = {T: tilde[T]}
    for k in range(T - 1, -1, -1):
        for m in list(running):
            running[m] = cond_expectation_arrays(tree, running[m], k + 1, k)
        acc = slices[k]
        for m in range(k + 1, T + 1):
            b = habits[m, k]
            if b != 0.0:
                acc = acc + b * running[m]
        tilde[k] = acc
        running[k] = tilde[k]
    return np.concatenate(tilde)


def _habit_adjoint_loop(tree, habits, x):
    """The optimizer's running-dict adjoint loop habit_adjoint replaced
    (reference)."""
    T = tree.horizon
    out = x.copy()
    running = {}
    for k in range(T - 1, -1, -1):
        running[k + 1] = x[tree.depth_nodes[k + 1]]
        for m in running:
            running[m] = cond_expectation_arrays(tree, running[m], k + 1, k)
        acc = x[tree.depth_nodes[k]]
        for m in range(k + 1, T + 1):
            b = habits[m, k]
            if b != 0.0:
                acc = acc - b * running[m]
        out[tree.depth_nodes[k]] = acc
    return out


def _three_habit_kinds(rng, T):
    return (static_habit_matrix(float(rng.uniform(0.0, 0.9)), T),
            gi.random_habit_matrix(rng, T, beta_max=0.9),
            np.tril(rng.uniform(0.0, 0.5, size=(T + 1, T + 1)), k=-1))


def test_backward_habit_walk_matches_running_loops():
    rng = np.random.default_rng(54)
    for _ in range(40):
        tree = gi.random_tree(rng, max_depth=5)
        M = gi.random_positive_spd(rng, tree)
        x = rng.uniform(0.5, 2.0, size=tree.n_nodes)
        for habits in _three_habit_kinds(rng, tree.horizon):
            Mt = perturbed_spd(M, habits)
            assert np.array_equal(Mt.values, _perturbed_spd_loop(M, habits))
            assert np.array_equal(habit_adjoint(tree, habits, x),
                                  _habit_adjoint_loop(tree, habits, x))
            # the adjoint undoes the perturbation
            assert np.allclose(habit_adjoint(tree, habits, Mt.values), M.values,
                               rtol=1e-12, atol=0.0)


def test_habit_expectations_terms_and_pruning(monkeypatch):
    """Each step lists the nonzero beta^(m)_k with E[y_m | G_k], m ascending;
    static habits condition each depth once, not O(T^2) times."""
    rng = np.random.default_rng(55)
    tree = gi.random_tree(rng, min_depth=3, max_depth=4)
    T = tree.horizon
    y = rng.uniform(0.5, 2.0, size=tree.n_nodes)
    habits = np.tril(rng.uniform(0.1, 0.5, size=(T + 1, T + 1)), k=-1)
    habits[T, 0] = 0.0
    for k, terms in habit_expectations(tree, habits, y):
        ms = [m for m in range(k + 1, T + 1) if habits[m, k] != 0.0]
        assert [b for b, _ in terms] == [habits[m, k] for m in ms]
        for (_, e), m in zip(terms, ms):
            assert np.array_equal(e, cond_expectation_arrays(tree, y[tree.depth_nodes[m]], m, k))
    calls = []
    real = market_mod.cond_expectation_arrays

    def counted(tree, values, m, k):
        calls.append((m, k))
        return real(tree, values, m, k)

    monkeypatch.setattr(market_mod, "cond_expectation_arrays", counted)
    for _ in habit_expectations(tree, static_habit_matrix(0.3, T), y):
        pass
    assert calls == [(k + 1, k) for k in range(T - 1, -1, -1)]


@pytest.mark.parametrize("field", ["prices", "dividends", "interest"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_market_rejects_non_finite_numbers(binary_one_period, field, value):
    # these once reached LAPACK and came back as "SVD did not converge"
    tree = binary_one_period
    data = {"prices": [3.5, 3.0, 4.0], "dividends": [0.0, 0.0, 0.0], "interest": [0.0, 0.0, 0.0]}
    data[field][2] = value
    with pytest.raises(SchemaError) as info:
        asset = Asset("s", AdaptedProcess(tree, 1, np.array(data["prices"])),
                      AdaptedProcess(tree, 1, np.array(data["dividends"])))
        MarketSpec(tree, (asset,), AdaptedProcess(tree, 1, np.array(data["interest"])))
    assert info.value.field == ("interest" if field == "interest" else "assets")
