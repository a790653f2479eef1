import hashlib
import json
import math

import numpy as np
import pytest
from scipy import integrate, stats

from treefront import (
    BartConfig,
    Dataset,
    DegenerateDataError,
    Domain,
    eval_ensemble,
    fit_bart,
    fit_multi_bart,
    log_marginal_leaf,
    sample_prior_tree,
    sample_sigma2,
    scale_outputs,
    tree_leaf_regions,
)
from treefront.fileio import write_draws
from treefront.harness import maximin_lhs
from treefront.sampler import _TreeState, as_generator, cutpoint_grids
from treefront.trees import Leaf, Tree, node_to_dict

from conftest import stump

UNIT1 = Domain.unit(1)
UNIT2 = Domain.unit(2)


def _grown_state(tree, X, domain, cfg):
    """A tree state on X with ``tree`` grown on it by split and apply_birth."""
    X = np.asarray(X, dtype=float)
    state = _TreeState(X, domain, cutpoint_grids(X, cfg.n_cutpoints), cfg)

    def grow(snode, node):
        if isinstance(node, Leaf):
            snode.mu = node.mu
            return
        state.apply_birth(snode, node.var, node.cut, state.split(snode, node.var, node.cut))
        grow(snode.left, node.left)
        grow(snode.right, node.right)

    grow(state.root, tree.root)
    return state


def sample_leaf_means(tree, X, residuals, sigma2, sigma_mu2, domain, seed):
    """Conjugate draw of every leaf mean of ``tree`` given the residuals."""
    state = _grown_state(tree, X, domain, BartConfig(min_leaf_obs=1))
    state.draw_leaf_means(np.asarray(residuals, dtype=float), sigma2, sigma_mu2,
                          as_generator(seed))
    return state.to_tree()


def mh_tree_step(tree, X, residuals, sigma2, cfg, domain, seed):
    """One topology proposal on ``tree``; a rejection returns an equal tree."""
    state = _grown_state(tree, X, domain, cfg)
    state.mh_step(np.asarray(residuals, dtype=float), sigma2, as_generator(seed))
    return state.to_tree()


# -- output scaling -------------------------------------------------------------

def test_scale_outputs_endpoints():
    scaled, tr = scale_outputs([0.0, 10.0])
    assert scaled.tolist() == [-0.5, 0.5]
    assert tr.center == 5.0 and tr.scale == 10.0


def test_scale_outputs_linear():
    scaled, _ = scale_outputs([2.0, 4.0, 6.0])
    assert scaled.tolist() == [-0.5, 0.0, 0.5]


def test_scale_outputs_round_trip():
    rng = np.random.default_rng(0)
    y = rng.normal(3.0, 7.0, size=100)
    scaled, tr = scale_outputs(y)
    assert np.allclose(tr.to_raw(scaled), y, atol=1e-12)


def test_scale_outputs_constant_column_raises():
    with pytest.raises(DegenerateDataError):
        scale_outputs(np.full(5, 2.5))


# -- leaf marginal likelihood ------------------------------------------------------

def quad_log_marginal(resids, sigma2, sigma_mu2):
    def integrand(mu):
        return math.exp(
            -0.5 * np.sum((resids - mu) ** 2) / sigma2 - 0.5 * mu * mu / sigma_mu2
        )

    val, _ = integrate.quad(integrand, -np.inf, np.inf)
    norm = (2 * np.pi * sigma2) ** (-len(resids) / 2) * (2 * np.pi * sigma_mu2) ** -0.5
    return math.log(norm * val)


def test_empty_leaf_contributes_zero():
    assert log_marginal_leaf([(0, 0.0, 0.0)], 0.5, 0.1) == 0.0


def test_single_observation_closed_form():
    r = 0.37
    sigma2, sigma_mu2 = 0.4, 0.09
    got = log_marginal_leaf([(1, r, r * r)], sigma2, sigma_mu2)
    want = stats.norm.logpdf(r, loc=0.0, scale=math.sqrt(sigma2 + sigma_mu2))
    assert got == pytest.approx(want, rel=1e-12)


def test_three_leaves_match_quadrature():
    rng = np.random.default_rng(1)
    sigma2, sigma_mu2 = 0.3, 0.02
    total = 0.0
    leaf_stats = []
    for k in (2, 5, 9):
        r = rng.normal(0.1, 0.5, size=k)
        leaf_stats.append((k, float(r.sum()), float((r * r).sum())))
        total += quad_log_marginal(r, sigma2, sigma_mu2)
    got = log_marginal_leaf(leaf_stats, sigma2, sigma_mu2)
    assert got == pytest.approx(total, rel=1e-9)


# -- error-variance draws -------------------------------------------------------------

def test_sigma2_prior_parameterization():
    # nu * lam / (nu - 2) is the prior mean implied by the default config
    cfg = BartConfig()
    assert cfg.nu * cfg.lam / (cfg.nu - 2.0) == pytest.approx(0.0003)


def test_sigma2_prior_draws_recover_prior_mean():
    # the prior has infinite variance at nu=3, so the mean is estimated
    # through the well-behaved reciprocal moment E[1/sigma2] = 1/lam
    rng = np.random.default_rng(2)
    draws = np.array([sample_sigma2([], 3.0, 0.0001, rng) for _ in range(100_000)])
    lam_hat = 1.0 / np.mean(1.0 / draws)
    implied_mean = 3.0 * lam_hat / (3.0 - 2.0)
    assert implied_mean == pytest.approx(0.0003, rel=0.01)


def test_sigma2_concentrates_on_residual_variance():
    rng = np.random.default_rng(3)
    v = 0.07
    r = rng.normal(0.0, math.sqrt(v), size=200_000)
    draws = [sample_sigma2(r, 3.0, 0.0001, rng) for _ in range(50)]
    assert np.mean(draws) == pytest.approx(v, rel=0.02)


def test_sigma2_posterior_moment_check():
    # posterior with 10 residuals has 13 dof: finite variance, so the plain
    # mean over 1e5 draws must sit within 1% of the analytic mean
    rng = np.random.default_rng(4)
    r = rng.normal(0.0, 0.2, size=10)
    nu, lam = 3.0, 0.0001
    nu_post = nu + len(r)
    lam_post = (nu * lam + np.sum(r * r)) / nu_post
    analytic_mean = nu_post * lam_post / (nu_post - 2.0)
    draws = np.array([sample_sigma2(r, nu, lam, rng) for _ in range(100_000)])
    assert draws.mean() == pytest.approx(analytic_mean, rel=0.01)
    assert np.all(draws > 0)


# -- leaf-mean draws ---------------------------------------------------------------

def test_leaf_means_likelihood_dominates_at_tiny_sigma():
    X = np.linspace(0.0, 1.0, 40).reshape(-1, 1)
    resid = np.where(X[:, 0] < 0.5, 1.0, -2.0)
    tree = stump(0, 0.5, 0.0, 0.0)
    out = sample_leaf_means(tree, X, resid, 1e-12, 0.25, UNIT1, 5)
    left, right = out.root.left.mu, out.root.right.mu
    assert left == pytest.approx(1.0, abs=1e-5)
    assert right == pytest.approx(-2.0, abs=1e-5)


def test_leaf_means_empty_leaf_draws_from_prior():
    X = np.full((30, 1), 0.9)  # all mass on the right child
    resid = np.zeros(30)
    tree = stump(0, 0.5, 0.0, 0.0)
    sigma_mu2 = 0.04
    draws = []
    for seed in range(400):
        out = sample_leaf_means(tree, X, resid, 0.5, sigma_mu2, UNIT1, seed)
        draws.append(out.root.left.mu)
    draws = np.array(draws)
    assert abs(draws.mean()) < 3.5 * math.sqrt(sigma_mu2 / len(draws))
    assert draws.var() == pytest.approx(sigma_mu2, rel=0.25)


def test_leaf_means_replicate_conjugate_formulas():
    X = np.linspace(0.0, 1.0, 20).reshape(-1, 1)
    rng = np.random.default_rng(6)
    resid = rng.normal(size=20)
    sigma2, sigma_mu2 = 0.3, 0.05
    tree = stump(0, 0.5, 0.0, 0.0)
    out = sample_leaf_means(tree, X, resid, sigma2, sigma_mu2, UNIT1, 123)

    mirror = np.random.default_rng(123)
    mus = []
    for mask in (X[:, 0] < 0.5, X[:, 0] >= 0.5):  # leaves in left-to-right order
        k, s = mask.sum(), resid[mask].sum()
        var_post = 1.0 / (k / sigma2 + 1.0 / sigma_mu2)
        mus.append(var_post * s / sigma2 + math.sqrt(var_post) * mirror.standard_normal())
    assert out.root.left.mu == mus[0]
    assert out.root.right.mu == mus[1]


# -- topology moves ----------------------------------------------------------------

def _fresh_state(n=60, seed=0, cfg=None):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 2))
    cfg = cfg or BartConfig(min_leaf_obs=5)
    return _TreeState(X, UNIT2, cutpoint_grids(X, cfg.n_cutpoints), cfg)


def test_birth_then_death_restores_topology():
    state = _fresh_state()
    leaf = state.root
    cut = float(leaf.cuts[0][0])
    state.apply_birth(leaf, 0, cut, state.split(leaf, 0, cut))
    assert state.root.left is not None
    state.apply_death(state.root)
    assert state.root.left is None
    assert set(state.root.idx.tolist()) == set(range(60))


def test_chain_never_violates_min_leaf_obs():
    rng = np.random.default_rng(7)
    state = _fresh_state(n=80, cfg=BartConfig(min_leaf_obs=10))
    resid = rng.normal(0, 0.2, size=80)
    for _ in range(2000):
        state.mh_step(resid, 0.05, rng)
        for node in state.leaves:
            assert len(node.idx) >= 10 or state.root.left is None


def test_proposals_only_use_interior_cuts_with_enough_points():
    state = _fresh_state(n=40, cfg=BartConfig(min_leaf_obs=15))
    cuts = state.root.cuts[0]
    xs = np.sort(state.X[:, 0])
    for c in cuts:
        n_left = int(np.searchsorted(xs, c, side="left"))
        assert 15 <= n_left <= 40 - 15
        assert 0.0 < c < 1.0
    small = state.new_node(np.arange(10), 0).cuts
    assert 0 not in small  # a 10-point leaf cannot split under min 15


def _recount_prunable(node):
    if node.left is None:
        return []
    if node.left.left is None and node.right.left is None:
        return [node]
    return _recount_prunable(node.left) + _recount_prunable(node.right)


def _leaf_depths(node, depth=0):
    if isinstance(node, Leaf):
        return [depth]
    return _leaf_depths(node.left, depth + 1) + _leaf_depths(node.right, depth + 1)


def _assert_float_cut_table(node, lo, hi, X, grids, m):
    # the cut table by float comparisons: every grid value strictly inside the
    # node's box [lo, hi) that leaves at least m of its rows on each side
    table = {}
    for v, grid in enumerate(grids):
        xs = X[node.idx, v]
        ok = [c for c in grid if lo[v] < c < hi[v]
              and m <= np.sum(xs < c) <= len(xs) - m]
        if ok:
            table[v] = ok
    assert list(node.cuts) == list(table)
    assert all(node.cuts[v].tolist() == table[v] for v in table)


def _hard_inputs(rng, n):
    lattice = np.arange(32) / 31  # each interior value is a cutpoint of [0, 1]
    ties = rng.integers(0, 5, size=n) / 4
    on_cuts = np.concatenate([[0.0, 1.0], rng.choice(lattice, size=n - 2)])
    return {
        "ties": np.column_stack([ties, rng.integers(0, 3, size=n) / 2]),
        "on_cuts": np.column_stack([on_cuts, rng.permutation(on_cuts)]),
        "constant_column": np.column_stack([rng.random(n), np.full(n, 0.5)]),
        "p3": np.column_stack([ties, on_cuts, rng.random(n)]),
    }


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("case", ["ties", "on_cuts", "constant_column", "p3"])
def test_cut_table_matches_float_comparisons_on_hard_inputs(case, m):
    # the integer-coded table must equal the float one where codes are easiest
    # to get wrong: ties, inputs equal to a cutpoint, an empty grid, the
    # smallest leaf floor and three variables; nodes come from random growth
    # (boxes that hold their rows, tracked beside each split) and random row
    # subsets of the root
    rng = np.random.default_rng(31)
    X = _hard_inputs(rng, 60)[case]
    domain = Domain.unit(X.shape[1])
    grids = cutpoint_grids(X, 30)
    if case == "on_cuts":
        assert np.isin(X, grids[0]).sum() > 50
    if case == "constant_column":
        assert grids[1].size == 0
    state = _TreeState(X, domain, grids, BartConfig(min_leaf_obs=m))
    checked = 0
    for _ in range(3):
        stack = [(state.root, domain.lo, domain.hi)]
        while stack:
            node, lo, hi = stack.pop()
            _assert_float_cut_table(node, lo, hi, X, grids, m)
            checked += 1
            if node.cuts:
                var, cut = state.draw_split(node, rng)
                left, right = state.split(node, var, cut)
                hi_l, lo_r = hi.copy(), lo.copy()
                hi_l[var] = lo_r[var] = cut
                stack.extend([(left, lo, hi_l), (right, lo_r, hi)])
    for k in range(2 * m, len(X) + 1, 7):
        node = state.new_node(np.sort(rng.choice(len(X), k, replace=False)), 0)
        _assert_float_cut_table(node, domain.lo, domain.hi, X, grids, m)
    assert checked > 20


def test_leaf_means_reuse_only_sums_of_the_same_residuals():
    # draw_leaf_means reuses the leaf sums mh_step took on the same residual
    # array; on another array it sums every leaf itself.  Either way each mean
    # must equal the conjugate draw from freshly taken sums, to the last bit.
    # Residuals spread over six decades make a sum depend on its order, and a
    # large error variance lets the prior accept many births and deaths.
    rng = np.random.default_rng(12)
    state = _fresh_state(n=60, seed=13)
    resid = rng.normal(size=60) * 10.0 ** rng.uniform(-3, 3, size=60)
    sigma2, sigma_mu2 = 1e6, 0.1
    moves = 0
    for step in range(600):
        moves += state.mh_step(resid, sigma2, rng)
        for node in state.leaves:
            if node in state.sums:
                assert state.sums[node] == float(np.sum(resid[node.idx]))
        used = resid if step % 3 else resid + 0.5
        seed = int(rng.integers(1 << 30))
        state.draw_leaf_means(used, sigma2, sigma_mu2, np.random.default_rng(seed))
        zs = np.random.default_rng(seed).standard_normal(len(state.leaves))
        for node, z in zip(state.leaves, zs):
            var_post = 1.0 / (len(node.idx) / sigma2 + 1.0 / sigma_mu2)
            mean_post = var_post * float(np.sum(used[node.idx])) / sigma2
            assert node.mu == mean_post + math.sqrt(var_post) * z
    assert moves > 100


def test_leaf_table_matches_tree_after_every_step():
    # the leaf list and each node's depth, rows and cut table are kept
    # incrementally; after every move they must equal a recomputation from
    # the tree itself, whose leaf regions give each leaf's box
    rng = np.random.default_rng(25)
    n, m = 60, 5
    state = _fresh_state(n=n, seed=26, cfg=BartConfig(min_leaf_obs=m))
    X, grids = state.X, state.grids
    resid = np.sin(6 * X[:, 0]) * X[:, 1] + rng.normal(0, 0.1, size=n)
    births = deaths = 0
    for _ in range(1500):
        before = len(state.leaves)
        state.mh_step(resid, 0.05, rng)
        births += len(state.leaves) > before
        deaths += len(state.leaves) < before
        state.draw_leaf_means(resid, 0.05, 0.1, rng)

        tree = state.to_tree()
        regions = tree_leaf_regions(tree, UNIT2)
        assert len(regions) == len(state.leaves)
        assert [lf.mu for lf in state.leaves] == [mu for _, mu in regions]
        for node, (box, _), depth in zip(state.leaves, regions, _leaf_depths(tree.root)):
            lo, hi = np.array(box.lo), np.array(box.hi)
            assert node.depth == depth
            upper_ok = (X < hi) | ((hi >= UNIT2.hi) & (X <= hi))
            inside = np.flatnonzero(np.all((X >= lo) & upper_ok, axis=1))
            assert sorted(node.idx.tolist()) == inside.tolist()
            _assert_float_cut_table(node, lo, hi, X, grids, m)
        recount = _recount_prunable(state.root)
        assert [id(nd) for nd in state.prunable()] == [id(nd) for nd in recount]
    assert births > 50 and deaths > 50


def test_mh_tree_step_wrapper_round_trip():
    rng = np.random.default_rng(8)
    X = rng.random((50, 2))
    resid = rng.normal(size=50)
    cfg = BartConfig(min_leaf_obs=5)
    tree = Tree(Leaf(0.0))
    for seed in range(10):
        tree = mh_tree_step(tree, X, resid, 0.1, cfg, UNIT2, seed)
        tree.validate(UNIT2)


def test_flat_likelihood_chain_matches_prior_depth_distribution():
    # with the likelihood term removed, the stationary law of the topology
    # chain is the (validity-truncated) prior; compare depth histograms
    rng = np.random.default_rng(9)
    n = 100
    X = rng.random((n, 2))
    cfg = BartConfig(min_leaf_obs=10)
    grids = cutpoint_grids(X, cfg.n_cutpoints)

    def depth(tree_root):
        if tree_root.left is None:
            return 0
        return 1 + max(depth(tree_root.left), depth(tree_root.right))

    state = _TreeState(X, UNIT2, grids, cfg)
    chain_depths = []
    for sweep in range(20_000):
        state.mh_step(np.zeros(n), 1.0, rng, flat_likelihood=True)
        if sweep % 20 == 0:
            chain_depths.append(depth(state.root))

    prior_depths = []
    for _ in range(2000):
        tree = sample_prior_tree(X, UNIT2, cfg, rng)
        d = 0
        stack = [(tree.root, 0)]
        while stack:
            node, dd = stack.pop()
            if hasattr(node, "left"):
                stack.extend([(node.left, dd + 1), (node.right, dd + 1)])
            else:
                d = max(d, dd)
        prior_depths.append(d)

    cap = 3
    chain_counts = np.bincount(np.minimum(chain_depths, cap), minlength=cap + 1)
    prior_counts = np.bincount(np.minimum(prior_depths, cap), minlength=cap + 1)
    keep = (chain_counts + prior_counts) > 0
    table = np.vstack([chain_counts[keep], prior_counts[keep]])
    _, p_value, _, _ = stats.chi2_contingency(table)
    assert p_value > 0.01


def test_pure_noise_leaf_counts_near_prior():
    # uniform noise, no signal: the chain's long-run mean leaf count must
    # stay close to the mean under direct prior simulation
    rng = np.random.default_rng(10)
    n = 200
    X = rng.random((n, 2))
    y = rng.random(n)  # pure noise
    cfg = BartConfig(m=30, kappa=1.0, n_burn=200, n_draws=300)
    draws = fit_bart(X, y, UNIT2, cfg, 11)
    chain_mean = np.mean(
        [len(tree_leaf_regions(t, UNIT2)) for ens, _ in draws[::10] for t in ens.trees]
    )
    prior_rng = np.random.default_rng(12)
    prior_mean = np.mean(
        [len(tree_leaf_regions(sample_prior_tree(X, UNIT2, cfg, prior_rng), UNIT2))
         for _ in range(3000)]
    )
    assert abs(chain_mean - prior_mean) / prior_mean < 0.15


# -- single-output fits --------------------------------------------------------------

def test_fit_constant_plus_tiny_noise():
    rng = np.random.default_rng(13)
    n = 60
    X = rng.random((n, 1))
    y = 5.0 + rng.normal(0.0, 0.01, size=n)
    cfg = BartConfig(n_burn=100, n_draws=100)
    draws = fit_bart(X, y, UNIT1, cfg, 14)
    grid = np.linspace(0.0, 1.0, 21)
    preds = np.mean(
        [[eval_ensemble(ens, [g]) for g in grid] for ens, _ in draws], axis=0
    )
    assert np.all(np.abs(preds - 5.0) < 0.05)


def test_fit_step_function_rmse():
    n = 200
    X = np.linspace(0.0, 1.0, n).reshape(-1, 1)
    y = (X[:, 0] >= 0.5).astype(float)
    # 31 interior cutpoints put a grid value exactly on the jump
    cfg = BartConfig(n_cutpoints=31, n_burn=300, n_draws=200)
    draws = fit_bart(X, y, UNIT1, cfg, 15)
    grid = np.linspace(0.0, 1.0, 101)
    preds = np.mean(
        [[eval_ensemble(ens, [g]) for g in grid] for ens, _ in draws], axis=0
    )
    truth = (grid >= 0.5).astype(float)
    rmse = float(np.sqrt(np.mean((preds - truth) ** 2)))
    assert rmse < 0.05 * (y.max() - y.min())


def test_fit_bart_seeded_runs_identical():
    rng = np.random.default_rng(16)
    X = rng.random((40, 2))
    y = np.sin(6 * X[:, 0]) + X[:, 1]
    cfg = BartConfig(min_leaf_obs=5, n_burn=30, n_draws=10)
    a = fit_bart(X, y, UNIT2, cfg, 99)
    b = fit_bart(X, y, UNIT2, cfg, 99)
    for (ens_a, s2_a), (ens_b, s2_b) in zip(a, b):
        assert ens_a == ens_b
        assert s2_a == s2_b


def test_seeded_sampler_output_pinned(tmp_path):
    # recorded once and never re-recorded: the digests pin the sampler's RNG
    # consumption and its float summation order
    rng = np.random.default_rng(40)
    X = rng.random((40, 2))
    Y = np.column_stack([X[:, 0] ** 2 - X[:, 1], X[:, 0] * X[:, 1]])
    cfg = BartConfig(m=10, min_leaf_obs=5, n_burn=40, n_draws=5)
    path = tmp_path / "draws.jsonl"
    write_draws(path, fit_multi_bart(Dataset(X, Y, UNIT2), cfg, seed=41))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "dae0b665529919cb2bf3d8c35a227cdbe07baff416d830c057eee7ee9bc736ba"
    )
    prior_rng = np.random.default_rng(42)
    prior_cfg = BartConfig(min_leaf_obs=3)
    trees = [
        node_to_dict(sample_prior_tree(X, UNIT2, prior_cfg, prior_rng).root) for _ in range(20)
    ]
    assert hashlib.sha256(json.dumps(trees).encode()).hexdigest() == (
        "f77a209c1a154ad2122cd3fcf02fc5b33ab311095e504039b3778ee06b440688"
    )


def test_fit_bart_chain_stays_finite_and_positive():
    rng = np.random.default_rng(17)
    X = rng.random((50, 2))
    y = X[:, 0] ** 2 + rng.normal(0, 0.1, 50)
    cfg = BartConfig(min_leaf_obs=5, n_burn=50, n_draws=50)
    draws = fit_bart(X, y, UNIT2, cfg, 18)
    for ens, s2 in draws:
        assert s2 > 0
        for t in ens.trees:
            for _, mu in tree_leaf_regions(t, UNIT2):
                assert math.isfinite(mu)


def test_fitted_trees_respect_leaf_size_floor():
    rng = np.random.default_rng(30)
    X = rng.random((60, 2))
    y = np.sin(5 * X[:, 0]) + rng.normal(0, 0.05, 60)
    cfg = BartConfig(min_leaf_obs=10, n_burn=100, n_draws=30)
    draws = fit_bart(X, y, UNIT2, cfg, 31)
    for ens, _ in draws[::5]:
        for tree in ens.trees:
            regions = tree_leaf_regions(tree, UNIT2)
            if len(regions) == 1:
                continue
            for box, _ in regions:
                inside = sum(box.contains(x, UNIT2) for x in X)
                assert inside >= 10


# -- multi-output fits ----------------------------------------------------------------

def _tiny_cfg(**kw):
    return BartConfig(min_leaf_obs=5, n_burn=30, n_draws=8, **kw)


def test_fit_multi_identical_columns_same_seeds():
    rng = np.random.default_rng(19)
    X = rng.random((40, 2))
    y = np.sin(5 * X[:, 0])
    data = Dataset(X, np.column_stack([y, y]), UNIT2)
    draws = fit_multi_bart(data, _tiny_cfg(), per_output_seeds=[7, 7])
    for d in draws:
        assert d.me.outputs[0] == d.me.outputs[1]
        assert d.sigma2[0] == d.sigma2[1]


def test_fit_multi_returns_n_draws():
    rng = np.random.default_rng(20)
    X = rng.random((30, 2))
    data = Dataset(X, rng.random((30, 2)), UNIT2)
    draws = fit_multi_bart(data, _tiny_cfg(), seed=0)
    assert len(draws) == 8


def test_fit_multi_column_permutation_equivariance():
    rng = np.random.default_rng(21)
    X = rng.random((40, 2))
    Y = np.column_stack([np.sin(5 * X[:, 0]), X[:, 1] ** 2])
    cfg = _tiny_cfg()
    ab = fit_multi_bart(Dataset(X, Y, UNIT2), cfg, per_output_seeds=[1, 2])
    ba = fit_multi_bart(Dataset(X, Y[:, ::-1], UNIT2), cfg, per_output_seeds=[2, 1])
    for d_ab, d_ba in zip(ab, ba):
        assert d_ab.me.outputs[0] == d_ba.me.outputs[1]
        assert d_ab.me.outputs[1] == d_ba.me.outputs[0]


def test_fit_multi_too_few_points_raises():
    rng = np.random.default_rng(22)
    X = rng.random((12, 2))
    data = Dataset(X, rng.random((12, 2)), UNIT2)
    with pytest.raises(ValueError):
        fit_multi_bart(data, BartConfig(), seed=0)


def test_fit_multi_mop2_held_out_accuracy():
    from treefront import get_benchmark, unit_scale

    bench = unit_scale(get_benchmark("mop2"))
    design = maximin_lhs(128, 2, 23, restarts=2)
    F = bench.evaluate(design)
    data = Dataset(design, F, UNIT2)
    cfg = BartConfig(n_burn=300, n_draws=100)
    draws = fit_multi_bart(data, cfg, seed=24)

    grid = np.linspace(0.02, 0.98, 15)
    G1, G2 = np.meshgrid(grid, grid)
    test_X = np.column_stack([G1.ravel(), G2.ravel()])
    truth = bench.evaluate(test_X)
    preds = np.zeros_like(truth)
    for d in draws:
        for j in range(2):
            preds[:, j] += [
                eval_ensemble(d.me.outputs[j], x) for x in test_X
            ]
    preds /= len(draws)
    mae = np.mean(np.abs(preds - truth), axis=0)
    assert mae[0] < 0.1 and mae[1] < 0.1
