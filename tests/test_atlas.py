import hashlib

import numpy as np
import pytest

from treefront import (
    BartConfig,
    Dataset,
    Domain,
    Ensemble,
    Hyperrectangle,
    Leaf,
    MultiEnsemble,
    OutputTransform,
    Split,
    Tree,
    eval_ensemble,
    eval_multi,
    eval_tree,
    fit_multi_bart,
    get_benchmark,
    maximin_lhs,
    multi_cells,
    tree_leaf_regions,
)
from treefront.atlas import _fold
from treefront.cli import main
from treefront.fileio import write_csv

from conftest import (
    PAIRED_STUMP_IMAGE,
    paired_stump_ensembles,
    random_ensemble,
    random_multi,
    random_tree,
    stump,
)
from oracles import intersect_boxes, leaf_box_fold

UNIT2 = Domain.unit(2)


def ensemble_cells(ens):
    """(value, box) cells of a single-output ensemble, values in raw units."""
    atlas = multi_cells(MultiEnsemble((ens,)))
    return [(float(atlas.alphas[i, 0]), atlas.box(i)) for i in range(len(atlas))]


def test_intersect_elementary():
    a = Hyperrectangle((0.0, 0.0), (1.0, 1.0))
    b = Hyperrectangle((0.5, 0.5), (2.0, 2.0))
    got = intersect_boxes(a, b)
    assert got == Hyperrectangle((0.5, 0.5), (1.0, 1.0))


def test_intersect_disjoint_is_empty():
    a = Hyperrectangle((0.0,), (0.5,))
    b = Hyperrectangle((0.5,), (1.0,))
    assert intersect_boxes(a, b) is None
    c = Hyperrectangle((0.7,), (1.0,))
    assert intersect_boxes(a, c) is None


def test_intersect_dimension_mismatch():
    with pytest.raises(ValueError):
        intersect_boxes(Hyperrectangle((0.0,), (1.0,)), Hyperrectangle((0.0, 0.0), (1.0, 1.0)))


def test_intersect_membership_oracle():
    rng = np.random.default_rng(0)
    dom = Domain.unit(3)
    for _ in range(10_000):
        lo1, lo2 = rng.random((2, 3)) * 0.8
        a = Hyperrectangle(tuple(lo1), tuple(lo1 + rng.random(3) * 0.5))
        b = Hyperrectangle(tuple(lo2), tuple(lo2 + rng.random(3) * 0.5))
        inter = intersect_boxes(a, b)
        x = rng.random(3)
        joint = a.contains(x, dom) and b.contains(x, dom)
        assert joint == (inter is not None and inter.contains(x, dom))


def test_single_tree_cells_equal_leaf_regions():
    rng = np.random.default_rng(1)
    tree = random_tree(rng, UNIT2, max_depth=3)
    ens = Ensemble((tree,), OutputTransform.identity(), UNIT2)
    cells = ensemble_cells(ens)
    regions = tree_leaf_regions(tree, UNIT2)
    assert {(mu, box) for box, mu in regions} == {(a, box) for a, box in cells}


def test_three_stump_ensemble_cells():
    # six cells; sums of the printed leaf values, e.g. -1-2-3 on the low corner
    ens = paired_stump_ensembles().outputs[0]
    cells = ensemble_cells(ens)
    assert len(cells) == 6
    assert sorted(a for a, _ in cells) == [-6.0, -4.0, 0.0, 0.0, 2.0, 6.0]
    lookup = {box: a for a, box in cells}
    corner = Hyperrectangle((0.0, 0.0), (0.3, 0.8))
    assert lookup[corner] == -6.0


def test_random_ensemble_cells_match_evaluation():
    rng = np.random.default_rng(2)
    for _ in range(10):
        ens = random_ensemble(rng, UNIT2, m=4)
        for alpha, box in ensemble_cells(ens):
            assert eval_ensemble(ens, box.midpoint()) == alpha


def test_paired_stump_image_is_exact():
    atlas = multi_cells(paired_stump_ensembles())
    assert len(atlas) == 16
    got = set(map(tuple, atlas.alphas.tolist()))
    assert got == PAIRED_STUMP_IMAGE


def test_duplicated_output_repeats_alpha():
    rng = np.random.default_rng(3)
    ens = random_ensemble(rng, UNIT2, m=3)
    me = MultiEnsemble((ens, ens))
    atlas = multi_cells(me)
    assert np.all(atlas.alphas[:, 0] == atlas.alphas[:, 1])
    singles = dict()
    for a, box in ensemble_cells(ens):
        singles[box] = a
    for i in range(len(atlas)):
        assert singles[atlas.box(i)] == atlas.alphas[i][0]


def test_atlas_grid_membership_oracle():
    rng = np.random.default_rng(4)
    me = random_multi(rng, p=2, d=2, m=4)
    atlas = multi_cells(me)
    grid = np.linspace(0.0, 1.0, 50)
    for x1 in grid:
        for x2 in grid:
            x = np.array([x1, x2])
            i = atlas.contains_point_index(x)
            assert i >= 0
            assert np.array_equal(eval_multi(me, x), atlas.alphas[i])


def test_atlas_partition_volume_and_disjointness():
    rng = np.random.default_rng(5)
    me = random_multi(rng, p=3, d=2, m=3)
    atlas = multi_cells(me)
    assert atlas.total_volume() == pytest.approx(me.domain.volume, rel=1e-9)
    # pairwise interior disjointness on a small instance
    for i in range(len(atlas)):
        for j in range(i + 1, len(atlas)):
            inter = intersect_boxes(atlas.box(i), atlas.box(j))
            assert inter is None or inter.volume == 0.0


def test_cell_count_bounded_by_leaf_product():
    rng = np.random.default_rng(6)
    me = random_multi(rng, p=2, d=2, m=3)
    atlas = multi_cells(me)
    bound = 1
    for ens in me.outputs:
        for t in ens.trees:
            bound *= len(tree_leaf_regions(t, me.domain))
    assert 1 <= len(atlas) <= bound


def test_alphas_untransformed_once_per_cell():
    rng = np.random.default_rng(7)
    dom = Domain.unit(2)
    ens = random_ensemble(rng, dom, m=4, transform=OutputTransform(3.0, 11.0))
    for alpha, box in ensemble_cells(ens):
        mid = box.midpoint()
        assert alpha == eval_ensemble(ens, mid)
        assert alpha == float(ens.transform.to_raw(sum(eval_tree(t, mid, dom) for t in ens.trees)))


# -- the fold against the leaf-box oracle, byte for byte ---------------------------------------

def _assert_fold_matches_oracle(ensembles, domain):
    got = _fold(ensembles, domain)
    want = leaf_box_fold(ensembles, domain)
    for name, g, w in zip(("sums", "los", "his"), got, want):
        assert g.shape == w.shape, name
        assert g.tobytes() == w.tobytes(), name


def _lhs_in_domain(bench, n, seed):
    """A maximin LHS design mapped into the benchmark's domain (exact for unit ones)."""
    lo, hi = bench.domain.lo, bench.domain.hi
    return lo + (hi - lo) * maximin_lhs(n, bench.p, seed, restarts=1)


@pytest.mark.parametrize("bench_name, n",
                         [("dtlz2m", 128), ("mop2", 128), ("zdt3", 96), ("turning", 128)])
def test_fold_matches_oracle_on_sampler_draws(bench_name, n):
    # dtlz2m has p=4 and gives tens of thousands of cells per draw
    bench = get_benchmark(bench_name)
    X = _lhs_in_domain(bench, n, 1)
    cfg = BartConfig(m=30, n_burn=60, n_draws=8)
    for draw in fit_multi_bart(Dataset(X, bench.evaluate(X), bench.domain), cfg, seed=1):
        _assert_fold_matches_oracle(draw.me.outputs, draw.me.domain)


@pytest.mark.parametrize("bench_name", ["mop2", "zdt3", "dtlz2m", "turning"])
def test_atlas_invariants_on_sampler_draws(bench_name):
    # the cells partition the domain, and each training input's cell holds the
    # draw's value there bit for bit: the fold and eval_ensemble both add the
    # leaf values in tree order starting from 0.0, then map to raw units once
    bench = get_benchmark(bench_name)
    X = _lhs_in_domain(bench, 128, 2)
    cfg = BartConfig(m=30, n_burn=40, n_draws=4)
    for draw in fit_multi_bart(Dataset(X, bench.evaluate(X), bench.domain), cfg, seed=2):
        atlas = multi_cells(draw.me)
        assert atlas.total_volume() == pytest.approx(draw.me.domain.volume, rel=1e-9)
        for x in X:
            i = atlas.contains_point_index(x)
            assert i >= 0
            assert eval_multi(draw.me, x).tobytes() == atlas.alphas[i].tobytes()


def _chain(var, cuts, mus):
    """Right-leaning chain of splits on one variable."""
    node = Leaf(mus[-1])
    for cut, mu in zip(reversed(cuts), reversed(mus[:-1])):
        node = Split(var, cut, Leaf(mu), node)
    return Tree(node)


HAND_BUILT = {
    "root_is_leaf": ((Tree(Leaf(0.7)), stump(1, 0.4, -1.0, 2.0)), (Tree(Leaf(-0.3)),)),
    "chain_of_four_splits": (
        (stump(0, 0.5, 1.0, -1.0), _chain(0, (0.2, 0.4, 0.6, 0.8), (1.0, 2.0, 3.0, 4.0, 5.0))),
        (_chain(0, (0.1, 0.3, 0.7, 0.9), (-1.0, -2.0, -3.0, -4.0, -5.0)),),
    ),
    "same_cut_twice": (
        (stump(0, 0.5, 1.0, 2.0), stump(0, 0.5, 3.0, 4.0)),
        (stump(1, 0.25, 0.5, 0.0), stump(0, 0.5, -1.0, 1.0)),
    ),
    # output 1 only cuts x2, so its cells straddle output 2's cut on x1
    "straddle_in_one_output": (
        (stump(1, 0.5, 1.0, 2.0),),
        (stump(0, 0.3, -1.0, 1.0), Tree(Split(1, 0.6, stump(0, 0.7, 0.1, 0.2).root, Leaf(0.3)))),
    ),
}


@pytest.mark.parametrize("case", sorted(HAND_BUILT))
def test_fold_matches_oracle_on_hand_built_trees(case):
    dom = Domain.unit(2)
    ident = OutputTransform.identity()
    me = MultiEnsemble(tuple(Ensemble(trees, ident, dom) for trees in HAND_BUILT[case]))
    _assert_fold_matches_oracle(me.outputs, dom)


def test_fold_matches_oracle_on_random_trees_off_the_unit_box():
    rng = np.random.default_rng(8)
    dom = Domain(((-2.0, 1.5), (0.25, 3.0), (-1.0, -0.5)))
    for _ in range(5):
        outputs = tuple(random_ensemble(rng, dom, m=6, max_depth=4) for _ in range(2))
        _assert_fold_matches_oracle(outputs, dom)


def test_seeded_atlas_file_pinned(tmp_path):
    # the setup of C10; recorded once on the leaf-box fold and never re-recorded
    bench = get_benchmark("mop2")
    X = maximin_lhs(24, 2, 0, restarts=1, n_swaps=100)
    data = tmp_path / "train.csv"
    write_csv(data, ["x1", "x2", "y1", "y2"], [list(x) + list(y) for x, y in zip(X, bench.evaluate(X))])
    assert main(["fit", "--data", str(data), "--out", str(tmp_path / "draws.jsonl"),
                 "--m", "10", "--min-leaf", "5", "--burn", "50", "--draws", "12",
                 "--seed", "3"]) == 0
    atlas = tmp_path / "atlas.jsonl"
    assert main(["extract", "--draws", str(tmp_path / "draws.jsonl"), "--out", str(atlas),
                 "--front"]) == 0
    assert hashlib.sha256(atlas.read_bytes()).hexdigest() == (
        "0b03827be76ff2a67388ffc57e33257ef6c56f702960ca9374cc3519dfbd8fd6"
    )
