import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from treefront import (
    Domain,
    DomainError,
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
    tree_leaf_regions,
)
from treefront.trees import ensemble_from_dict, ensemble_to_dict

from conftest import paired_stump_ensembles, random_ensemble, random_multi, random_tree, stump

UNIT2 = Domain.unit(2)


def quadrant_tree():
    # root x2 < 0.7; left child splits x1 < 0.2, right child splits x1 < 0.4
    return Tree(
        Split(
            1,
            0.7,
            Split(0, 0.2, Leaf(1.0), Leaf(2.0)),
            Split(0, 0.4, Leaf(3.0), Leaf(4.0)),
        )
    )


def test_eval_tree_routes_to_expected_leaf():
    # the worked two-level example: (0.9, 0.6) satisfies x2<0.7 then fails x1<0.2
    assert eval_tree(quadrant_tree(), [0.9, 0.6], UNIT2) == 2.0


def test_eval_tree_single_leaf_stump():
    t = Tree(Leaf(3.25))
    for x in ([0.0, 0.0], [1.0, 1.0], [0.4, 0.9]):
        assert eval_tree(t, x, UNIT2) == 3.25


def test_eval_tree_first_stump_of_paired_example():
    t = stump(0, 0.3, -1.0, 1.0)
    assert eval_tree(t, [0.1, 0.3], UNIT2) == -1.0


def test_eval_tree_outside_domain_raises():
    with pytest.raises(DomainError):
        eval_tree(quadrant_tree(), [1.5, 0.5], UNIT2)
    with pytest.raises(DomainError):
        eval_tree(quadrant_tree(), [0.5, -0.01], UNIT2)


def test_eval_ensemble_paired_example_value():
    me = paired_stump_ensembles()
    assert eval_ensemble(me.outputs[0], [0.1, 0.3]) == -6.0
    assert eval_multi(me, [0.1, 0.3]).tolist() == [-6.0, -7.0]


def test_eval_ensemble_zero_stumps():
    dom = Domain.unit(2)
    ens = Ensemble(
        tuple(Tree(Leaf(0.0)) for _ in range(4)), OutputTransform.identity(), dom
    )
    rng = np.random.default_rng(0)
    for x in rng.random((20, 2)):
        assert eval_ensemble(ens, x) == 0.0


def test_eval_ensemble_matches_per_tree_sum():
    rng = np.random.default_rng(1)
    ens = random_ensemble(rng, UNIT2, m=5)
    for x in rng.random((100, 2)):
        scaled = sum(eval_tree(t, x, UNIT2) for t in ens.trees)
        assert eval_ensemble(ens, x) == float(ens.transform.to_raw(scaled))


def test_eval_multi_componentwise():
    rng = np.random.default_rng(2)
    me = random_multi(rng, p=3, d=3, m=3)
    for x in rng.random((50, 3)):
        v = eval_multi(me, x)
        for j in range(3):
            assert v[j] == eval_ensemble(me.outputs[j], x)


def test_identical_outputs_give_equal_components():
    rng = np.random.default_rng(3)
    ens = random_ensemble(rng, UNIT2, m=3)
    me = MultiEnsemble((ens, ens, ens))
    v = eval_multi(me, [0.2, 0.8])
    assert v[0] == v[1] == v[2]


def test_leaf_regions_of_quadrant_tree():
    regions = tree_leaf_regions(quadrant_tree(), UNIT2)
    assert len(regions) == 4
    lookup = {box: mu for box, mu in regions}
    # the value-2 leaf covers [0.2, 1] x [0, 0.7)
    box = Hyperrectangle((0.2, 0.0), (1.0, 0.7))
    assert lookup[box] == 2.0


def test_leaf_regions_stump_splits_domain():
    regions = tree_leaf_regions(stump(0, 0.5, -1.0, 1.0), UNIT2)
    assert len(regions) == 2
    boxes = {box for box, _ in regions}
    assert Hyperrectangle((0.0, 0.0), (0.5, 1.0)) in boxes
    assert Hyperrectangle((0.5, 0.0), (1.0, 1.0)) in boxes


def test_leaf_region_midpoints_evaluate_to_their_value():
    rng = np.random.default_rng(4)
    for _ in range(10):
        tree = random_tree(rng, UNIT2, max_depth=4)
        for box, mu in tree_leaf_regions(tree, UNIT2):
            assert eval_tree(tree, box.midpoint(), UNIT2) == mu


def test_partition_property_random_inputs():
    rng = np.random.default_rng(5)
    tree = random_tree(rng, UNIT2, max_depth=4, split_prob=0.9)
    regions = tree_leaf_regions(tree, UNIT2)
    X = rng.random((10_000, 2))
    X[:50] = np.round(X[:50], 1)  # force some points onto box faces
    X[0] = [1.0, 1.0]
    for x in X:
        hits = [mu for box, mu in regions if box.contains(x, UNIT2)]
        assert len(hits) == 1
        assert hits[0] == eval_tree(tree, x, UNIT2)


def test_points_exactly_on_cuts_route_right():
    tree = quadrant_tree()
    regions = tree_leaf_regions(tree, UNIT2)
    for x in ([0.2, 0.3], [0.9, 0.7], [0.4, 0.9], [0.2, 0.7], [0.4, 0.7]):
        hits = [mu for box, mu in regions if box.contains(x, UNIT2)]
        assert len(hits) == 1
        assert hits[0] == eval_tree(tree, x, UNIT2)
    # a value equal to the cut fails "x < cut", so it belongs to the right box
    assert eval_tree(tree, [0.2, 0.3], UNIT2) == 2.0
    assert eval_tree(tree, [0.3, 0.7], UNIT2) == 3.0


def test_degenerate_cut_rejected():
    dom = Domain.unit(2)
    bad = Tree(Split(0, 0.5, Split(0, 0.5, Leaf(0.0), Leaf(1.0)), Leaf(2.0)))
    with pytest.raises(ValueError):
        Ensemble((bad,), OutputTransform.identity(), dom)
    with pytest.raises(ValueError):
        tree_leaf_regions(Tree(Split(0, 0.0, Leaf(0.0), Leaf(1.0))), dom)


def test_bad_splits_reported_left_subtree_first_by_both_walkers():
    # validate and tree_leaf_regions share one walk: the same message for the
    # same first bad split, in preorder with the left subtree first
    dom = Domain.unit(2)
    bad_var = Split(3, 0.5, Leaf(0.0), Leaf(1.0))
    left_bad = Tree(Split(0, 0.5, Split(0, 0.7, Leaf(0.0), Leaf(1.0)), bad_var))
    right_bad = Tree(Split(0, 0.5, Leaf(0.0), bad_var))
    for tree, message in ((left_bad, r"cut 0.7 not strictly inside \[0.0, 0.5\] for variable 0"),
                          (right_bad, r"split variable 3 out of range")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            tree.validate(dom)
        with pytest.raises(ValueError, match=f"^{message}$"):
            tree_leaf_regions(tree, dom)


def test_mixed_domains_rejected():
    e1 = random_ensemble(np.random.default_rng(0), Domain.unit(2))
    e2 = random_ensemble(np.random.default_rng(0), Domain(((0.0, 2.0), (0.0, 1.0))))
    with pytest.raises(ValueError):
        MultiEnsemble((e1, e2))


@given(
    center=st.floats(-100, 100),
    scale=st.floats(0.01, 1000),
    y=st.floats(-1e6, 1e6),
)
def test_transform_round_trip(center, scale, y):
    tr = OutputTransform(center, scale)
    back = float(tr.to_raw(tr.to_scaled(y)))
    assert back == pytest.approx(y, abs=1e-12 * max(1.0, abs(y)))


def test_json_round_trip_preserves_evaluation():
    rng = np.random.default_rng(7)
    ens = random_ensemble(rng, UNIT2, m=5)
    doc = json.dumps(ensemble_to_dict(ens))
    back = ensemble_from_dict(json.loads(doc))
    assert back == ens
    for x in rng.random((25, 2)):
        assert eval_ensemble(back, x) == eval_ensemble(ens, x)


def test_box_closure_at_domain_top_face():
    box = Hyperrectangle((0.5, 0.0), (1.0, 0.7))
    assert box.contains([1.0, 0.3], UNIT2)       # on the domain's top face
    assert not box.contains([0.5, 0.7], UNIT2)   # interior upper face is open
    inner = Hyperrectangle((0.0, 0.0), (0.5, 1.0))
    assert not inner.contains([0.5, 0.5], UNIT2)
    assert inner.contains([0.0, 1.0], UNIT2)
