import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from treefront import kung_front, multi_cells, pf_ps
from treefront.pareto import _strictly_dominated_mask

from conftest import front_boxes, paired_stump_ensembles, random_multi
from oracles import Dominance, dominates


def brute_force_front(points):
    """Quadratic scan oracle: points not strictly dominated by any point."""
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    keep = []
    for v in pts:
        strict = np.all(pts <= v, axis=1) & np.any(pts < v, axis=1)
        if not strict.any():
            keep.append(tuple(v))
    return set(keep)


def as_set(arr):
    return set(map(tuple, np.asarray(arr).tolist()))


def test_dominates_strict():
    assert dominates([1, 2], [2, 2]) is Dominance.STRICT


def test_dominates_weak_on_equality():
    assert dominates([1, 2], [1, 2]) is Dominance.WEAK


def test_dominates_incomparable():
    assert dominates([1, 3], [2, 1]) is Dominance.NONE


def test_dominates_length_mismatch():
    with pytest.raises(ValueError):
        dominates([1, 2], [1, 2, 3])


def test_kung_small_example():
    got = as_set(kung_front([(1, 2), (2, 1), (3, 3)]))
    assert got == {(1.0, 2.0), (2.0, 1.0)}


def test_kung_singleton_returns_itself():
    assert as_set(kung_front([(4.0, 7.0)])) == {(4.0, 7.0)}


def test_kung_collapses_duplicates():
    got = kung_front([(1, 1), (1, 1), (2, 0)])
    assert len(got) == 2
    assert as_set(got) == {(1.0, 1.0), (2.0, 0.0)}


def test_kung_matches_brute_force_oracle():
    rng = np.random.default_rng(42)
    for trial in range(1000):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(1, 201))
        pts = rng.random((n, d))
        if trial % 3 == 0:
            pts = np.round(pts, 1)  # force ties and duplicates
        assert as_set(kung_front(pts)) == brute_force_front(pts)


@given(
    hnp.arrays(
        float,
        st.tuples(st.integers(1, 40), st.integers(2, 4)),
        elements=st.floats(-10, 10, allow_nan=False),
    )
)
@settings(max_examples=200, deadline=None)
def test_kung_idempotent(pts):
    first = kung_front(pts)
    again = kung_front(first)
    assert as_set(first) == as_set(again)


@given(
    hnp.arrays(
        float,
        st.tuples(st.integers(1, 40), st.integers(2, 4)),
        elements=st.floats(-10, 10, allow_nan=False),
    ),
    st.randoms(),
)
@settings(max_examples=100, deadline=None)
def test_kung_order_invariant(pts, pyrandom):
    order = list(range(len(pts)))
    pyrandom.shuffle(order)
    assert as_set(kung_front(pts)) == as_set(kung_front(pts[order]))


# dyadic lattice values keep the shifted sums exactly representable
_dyadic = st.integers(-640, 640).map(lambda k: k / 64.0)


@given(
    hnp.arrays(float, st.tuples(st.integers(1, 30), st.just(3)), elements=_dyadic),
    st.tuples(_dyadic, _dyadic, _dyadic),
)
@settings(max_examples=100, deadline=None)
def test_kung_monotone_shift(pts, shift):
    shift = np.array(shift)
    base = kung_front(pts)
    shifted = kung_front(pts + shift)
    assert as_set(shifted) == as_set(base + shift)


def test_pf_ps_on_paired_stump_example():
    atlas = multi_cells(paired_stump_ensembles())
    result = pf_ps(atlas)
    assert [p.objective for p in result.front] == [(-6.0, -15.0)]
    # the single front cell is the low corner box
    (fp,) = result.front
    assert len(fp.cell_refs) == 1
    (box,) = front_boxes(atlas, result)
    assert box.lo == (0.0, 0.0)
    assert box.hi == (0.3, 0.2)


def test_pf_ps_all_equal_alphas_covers_domain():
    atlas = multi_cells(paired_stump_ensembles())
    flat = atlas.with_alphas(np.tile([2.0, 5.0], (len(atlas), 1)))
    result = pf_ps(flat)
    assert [p.objective for p in result.front] == [(2.0, 5.0)]
    boxes = front_boxes(flat, result)
    assert len(boxes) == len(flat)
    assert sum(b.volume for b in boxes) == pytest.approx(1.0)


def test_pf_ps_matches_brute_force_and_reevaluation():
    rng = np.random.default_rng(3)
    for _ in range(10):
        me = random_multi(rng, p=2, d=2, m=3)
        atlas = multi_cells(me)
        result = pf_ps(atlas)
        got = {p.objective for p in result.front}
        assert got == brute_force_front(atlas.alphas)
        # each referenced cell re-evaluates onto its front point
        from treefront import eval_multi

        for fp in result.front:
            for ref in fp.cell_refs:
                mid = atlas.box(ref).midpoint()
                assert tuple(eval_multi(me, mid)) == fp.objective


def test_every_non_front_alpha_strictly_dominated():
    rng = np.random.default_rng(4)
    me = random_multi(rng, p=2, d=2, m=4)
    atlas = multi_cells(me)
    result = pf_ps(atlas)
    front = np.array([p.objective for p in result.front])
    dominated = _strictly_dominated_mask(atlas.alphas, front)
    is_front = np.array(
        [tuple(a) in {p.objective for p in result.front} for a in atlas.alphas]
    )
    assert np.all(dominated | is_front)


# -- two objectives: the lexsort sweep ----------------------------------------------

def test_kung_2d_matches_brute_force_with_ties_duplicates_and_infinities():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 17, 200, 1000, 5000):
        # few distinct first coordinates force heavy ties and duplicate rows
        pts = np.column_stack([rng.integers(0, 12, n), rng.integers(0, 40, n)]).astype(float)
        pts[rng.random(n) < 0.05, 0] = np.inf
        pts[rng.random(n) < 0.05, 1] = np.inf
        pts[rng.random(n) < 0.02, 0] = -np.inf
        pts[rng.random(n) < 0.02, 1] = -np.inf
        assert as_set(kung_front(pts)) == brute_force_front(pts)


def test_kung_2d_infinite_coordinates():
    assert as_set(kung_front([(0, np.inf), (1, 5), (np.inf, -3)])) == {
        (0.0, np.inf), (1.0, 5.0), (np.inf, -3.0)
    }
    assert as_set(kung_front([(0, np.inf), (0, 5)])) == {(0.0, 5.0)}
    assert as_set(kung_front([(-np.inf, 4), (1, -np.inf), (2, -np.inf)])) == {
        (-np.inf, 4.0), (1.0, -np.inf)
    }


def test_kung_2d_signed_zeros_are_one_vector():
    front, refs = kung_front([(0.0, 1.0), (-0.0, 1.0), (1.0, -0.0), (1.0, 0.0)], return_refs=True)
    assert as_set(front) == {(0.0, 1.0), (1.0, 0.0)}
    assert [r.tolist() for r in refs] == [[0, 1], [2, 3]]


def test_kung_rejects_nan_naming_first_row():
    with pytest.raises(ValueError, match=r"^row 0 has a NaN") as exc:
        kung_front([[1, np.nan], [0, 2], [2, 0], [3, 3]])
    assert "\n" not in str(exc.value)
    with pytest.raises(ValueError, match=r"^row 2 has a NaN"):
        kung_front([[1, 1, 1], [0, 2, 2], [np.nan, 0, 0], [3, np.nan, 3]])


def test_pf_ps_rejects_nan_cell():
    atlas = multi_cells(paired_stump_ensembles())
    alphas = atlas.alphas.copy()
    alphas[5, 1] = np.nan
    with pytest.raises(ValueError, match=r"^row 5 has a NaN"):
        pf_ps(atlas.with_alphas(alphas))


def _assert_front_and_refs(atlas, result):
    front = np.array([p.objective for p in result.front])
    # strictly increasing first objective, strictly decreasing second
    assert np.all(np.diff(front[:, 0]) > 0)
    assert np.all(np.diff(front[:, 1]) < 0)
    for fp in result.front:
        refs = np.array(fp.cell_refs)
        assert np.all(np.diff(refs) > 0)
        expected = np.nonzero(np.all(atlas.alphas == np.array(fp.objective), axis=1))[0]
        assert refs.tolist() == expected.tolist()
    n_refs = sum(len(fp.cell_refs) for fp in result.front)
    # no cell is named twice: distinct cells of a partition have distinct boxes
    assert len(set(front_boxes(atlas, result))) == n_refs


def test_pf_ps_front_order_and_cell_refs():
    rng = np.random.default_rng(12)
    shared = 0
    for trial in range(10):
        atlas = multi_cells(random_multi(rng, p=2, d=2, m=4))
        _assert_front_and_refs(atlas, pf_ps(atlas))
        # rounding the values forces coincident cells onto shared front points
        coarse = atlas.with_alphas(np.round(atlas.alphas, trial % 2))
        result = pf_ps(coarse)
        _assert_front_and_refs(coarse, result)
        shared += sum(len(fp.cell_refs) > 1 for fp in result.front)
    assert shared > 0


def test_pf_ps_on_sampler_draws_p4():
    from treefront import BartConfig, Dataset, fit_multi_bart, get_benchmark, unit_scale

    bench = unit_scale(get_benchmark("dtlz2m"))
    X = np.random.default_rng(13).random((48, bench.p))
    data = Dataset(X, bench.evaluate(X), bench.domain)
    draws = fit_multi_bart(data, BartConfig(m=8, min_leaf_obs=5, n_burn=15, n_draws=2), 13)
    for draw in draws:
        atlas = multi_cells(draw.me)
        result = pf_ps(atlas)
        _assert_front_and_refs(atlas, result)
        front = np.array([p.objective for p in result.front])
        assert not np.any(_strictly_dominated_mask(front, atlas.alphas))
        on_front = np.zeros(len(atlas), dtype=bool)
        for fp in result.front:
            on_front[list(fp.cell_refs)] = True
        assert np.all(_strictly_dominated_mask(atlas.alphas[~on_front], front))
        assert len(atlas) > 100 and len(front) > 1


# -- the anchor prefilter: rows the least-sum row strictly dominates go first ----

def _assert_front_and_refs_match_scan(pts):
    """Front equals the quadratic scan, in lexicographic order, and each front
    row's refs are the ascending indices of every input row equal to it."""
    pts = np.asarray(pts, dtype=float)
    front, refs = kung_front(pts, return_refs=True)
    assert as_set(front) == brute_force_front(pts)
    assert front.tolist() == sorted(front.tolist())
    assert len(refs) == len(front)
    for row, r in zip(front, refs):
        assert r.tolist() == np.flatnonzero(np.all(pts == row, axis=1)).tolist()


def test_kung_prefilter_on_sampler_atlases():
    from treefront import BartConfig, Dataset, fit_multi_bart, get_benchmark, unit_scale

    for name in ("dtlz2m", "mop2"):
        bench = unit_scale(get_benchmark(name))
        X = np.random.default_rng(14).random((48, bench.p))
        data = Dataset(X, bench.evaluate(X), bench.domain)
        cfg = BartConfig(m=8, min_leaf_obs=5, n_burn=15, n_draws=2)
        for draw in fit_multi_bart(data, cfg, 14):
            alphas = multi_cells(draw.me).alphas
            assert len(alphas) > 100
            _assert_front_and_refs_match_scan(alphas)


def test_kung_prefilter_keeps_rows_tied_with_the_anchor():
    # (1, 1) has the least sum; its copies stay, rows tied with it in one
    # coordinate and worse in the other go, and (0, 3), (3, 0) stay
    pts = [(2, 1), (1, 1), (1, 2), (0, 3), (1, 1), (3, 0), (1, 1), (0.0, 2), (-0.0, 2)]
    _assert_front_and_refs_match_scan(pts)
    front, refs = kung_front(pts, return_refs=True)
    assert front.tolist() == [[0.0, 2.0], [1.0, 1.0], [3.0, 0.0]]
    assert [r.tolist() for r in refs] == [[7, 8], [1, 4, 6], [5]]
    # every row ties with the anchor
    _assert_front_and_refs_match_scan([(2, 2)] * 5)


def test_kung_prefilter_with_infinite_rows():
    inf = np.inf
    # the first row's coordinate sum is NaN, and argmin picks the first NaN
    _assert_front_and_refs_match_scan([(inf, -inf), (inf, 3), (0, 0), (-inf, inf), (-inf, 5)])
    _assert_front_and_refs_match_scan([(0, 0), (inf, inf), (-inf, 1), (1, -inf), (1, -inf)])
    rng = np.random.default_rng(15)
    for n in (2, 9, 300):
        pts = rng.integers(0, 6, (n, 2)).astype(float)
        pts[rng.random(n) < 0.1, 0] = inf
        pts[rng.random(n) < 0.1, 1] = -inf
        pts[rng.random(n) < 0.1, 1] = inf
        _assert_front_and_refs_match_scan(pts)


def test_kung_prefilter_three_objectives():
    rng = np.random.default_rng(16)
    for n in (1, 5, 40, 400):
        _assert_front_and_refs_match_scan(np.round(rng.random((n, 3)), 1))
    _assert_front_and_refs_match_scan([(1, 1, 1), (1, 1, 2), (1, 1, 1), (0, 5, 0), (2, 2, 2)])


def test_kung_empty_input():
    for d in (2, 3):
        front, refs = kung_front(np.empty((0, d)), return_refs=True)
        assert front.shape == (0, d) and refs == []
        assert kung_front(np.empty((0, d))).shape == (0, d)
