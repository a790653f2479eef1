import math

import numpy as np
import pytest

from treefront import (
    CPF,
    Staircase,
    band_contains,
    band_depth,
    h_cut,
    modified_band_depth,
    pf_cloud_mbd,
)

from conftest import random_cpf, random_cpfs


# -- oracles -----------------------------------------------------------------

def grid_memberships(cpfs, n_grid=400):
    """Dominated-region membership of every grid point of the joint box."""
    pts = np.vstack([c.objectives() for c in cpfs])
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    g1 = np.linspace(lo[0], hi[0], n_grid)
    g2 = np.linspace(lo[1], hi[1], n_grid)
    G1, G2 = np.meshgrid(g1, g2, indexing="ij")
    Q = np.column_stack([G1.ravel(), G2.ravel()])
    masks = []
    for c in cpfs:
        m = np.zeros(len(Q), dtype=bool)
        for p in c.objectives():
            m |= np.all(Q >= p, axis=1)
        masks.append(m)
    return masks


def grid_band_contains(mi, mj, mk):
    inter_ok = np.all(mi | ~(mj & mk))
    union_ok = np.all(~mi | mj | mk)
    return bool(inter_ok and union_ok)


def grid_band_depth(cpfs, n_grid=400):
    masks = grid_memberships(cpfs, n_grid)
    n = len(cpfs)
    pairs = n * (n - 1) // 2
    depths = np.zeros(n)
    for i in range(n):
        count = 0
        for j in range(n - 1):
            for k in range(j + 1, n):
                if grid_band_contains(masks[i], masks[j], masks[k]):
                    count += 1
        depths[i] = count / pairs
    return depths


def counting_row_values(h_row):
    """Per-cut pair counts: sandwiching pairs minus the all-tied pairs."""
    n = len(h_row)
    pairs = n * (n - 1) // 2
    out = np.zeros(n)
    for j in range(n):
        count = 0
        ties = 0
        for a in range(n - 1):
            for b in range(a + 1, n):
                lo, hi = min(h_row[a], h_row[b]), max(h_row[a], h_row[b])
                if lo <= h_row[j] <= hi:
                    count += 1
                if h_row[a] == h_row[j] == h_row[b]:
                    ties += 1
        out[j] = (count - ties) / pairs
    return out


def counting_mbd(cpfs, q):
    stairs = [Staircase.from_cpf(c) for c in cpfs]
    pts = np.vstack([c.objectives() for c in cpfs])
    t = np.linspace(pts[:, 0].min(), pts[:, 0].max(), q)
    s = np.linspace(pts[:, 1].min(), pts[:, 1].max(), q)
    rows = []
    for axis, cuts in ((1, t), (2, s)):
        for v in cuts:
            rows.append([h_cut(st, axis, v) for st in stairs])
    per_row = np.array([counting_row_values(np.array(r)) for r in rows])
    return per_row.mean(axis=0), per_row


# -- staircase / h queries ----------------------------------------------------

def test_h_cut_through_a_front_point():
    stair = Staircase([[0.2, 0.9], [0.5, 0.4], [0.8, 0.1]])
    assert h_cut(stair, 1, 0.5) == 0.4
    assert h_cut(stair, 2, 0.4) == 0.5


def test_h_cut_left_of_all_points_is_infinite():
    stair = Staircase([[0.2, 0.9], [0.5, 0.4]])
    assert h_cut(stair, 1, 0.1) == math.inf
    assert h_cut(stair, 2, 0.3) == math.inf


def test_h_cut_matches_scan_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        pts = rng.random((8, 2))
        stair = Staircase(pts)
        for _ in range(50):
            t = rng.random() * 1.2 - 0.1
            qualifying = pts[pts[:, 0] <= t, 1]
            expect = qualifying.min() if len(qualifying) else math.inf
            assert h_cut(stair, 1, t) == expect
            qualifying = pts[pts[:, 1] <= t, 0]
            expect = qualifying.min() if len(qualifying) else math.inf
            assert h_cut(stair, 2, t) == expect


def test_h_cut_handles_unordered_point_sets():
    # staircases built from non-front sets use their dominated region
    stair = Staircase([[0.5, 0.5], [0.2, 0.9], [0.6, 0.6]])
    assert h_cut(stair, 1, 0.55) == 0.5
    assert h_cut(stair, 1, 0.7) == 0.5


# -- exact band containment -----------------------------------------------------

def test_band_with_itself_contains():
    rng = np.random.default_rng(1)
    c = random_cpf(rng)
    other = random_cpf(rng, 1)
    assert band_contains(c, c, other)
    assert band_contains(c, other, c)


def test_nested_staircases_contain_middle():
    inner = CPF.from_points(0, [[0.1, 0.3], [0.3, 0.1]])
    middle = CPF.from_points(1, [[0.3, 0.5], [0.5, 0.3]])
    outer = CPF.from_points(2, [[0.5, 0.7], [0.7, 0.5]])
    assert band_contains(middle, inner, outer)
    assert not band_contains(inner, middle, outer)
    assert not band_contains(outer, inner, middle)


def test_band_contains_rejects_higher_dim():
    c3 = CPF.from_points(0, [[0.1, 0.2, 0.3]])
    with pytest.raises(ValueError):
        band_contains(c3, c3, c3)


def test_band_contains_matches_grid_oracle():
    rng = np.random.default_rng(2)
    agree = 0
    for _ in range(150):
        ci, cj, ck = random_cpfs(rng, 3, n_raw=8)
        masks = grid_memberships([ci, cj, ck], n_grid=400)
        got = band_contains(ci, cj, ck)
        want = grid_band_contains(*masks)
        assert got == want
        agree += got
    assert 0 < agree < 150  # both outcomes exercised


# -- exact band depth ------------------------------------------------------------

def test_band_depth_two_fronts_both_one():
    rng = np.random.default_rng(3)
    cpfs = random_cpfs(rng, 2)
    res = band_depth(cpfs)
    assert res.depths.tolist() == [1.0, 1.0]


def test_band_depth_identical_fronts_all_one():
    rng = np.random.default_rng(4)
    base = random_cpf(rng)
    cpfs = [CPF(i, base.points) for i in range(5)]
    res = band_depth(cpfs)
    assert np.all(res.depths == 1.0)


def test_band_depth_matches_grid_triple_loop():
    rng = np.random.default_rng(5)
    cpfs = random_cpfs(rng, 10, n_raw=8)
    res = band_depth(cpfs)
    oracle = grid_band_depth(cpfs)
    assert np.array_equal(res.depths, oracle)


# -- modified band depth -----------------------------------------------------------

def test_mbd_two_fronts_depth_one():
    rng = np.random.default_rng(6)
    cpfs = random_cpfs(rng, 2)
    res = modified_band_depth(cpfs, q=21)
    assert res.depths.tolist() == [1.0, 1.0]


def test_mbd_three_single_point_fronts_by_hand():
    # heights along every cut order the three fronts (0,0) < (1,1) < (2,2),
    # with infinities before a front's corner is reached; the middle front
    # is sandwiched at two of three cuts per axis
    c1 = CPF.from_points(0, [[0.0, 0.0]])
    c2 = CPF.from_points(1, [[1.0, 1.0]])
    c3 = CPF.from_points(2, [[2.0, 2.0]])
    res = modified_band_depth([c1, c2, c3], q=3)
    assert res.depths[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert res.depths[1] == pytest.approx(8.0 / 9.0, abs=1e-12)
    assert res.depths[2] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert res.ranking.tolist() == [1, 0, 2]  # depth tie broken by lower draw


def test_mbd_matches_counting_oracle():
    rng = np.random.default_rng(7)
    for n_cpfs in (5, 20, 50):
        cpfs = random_cpfs(rng, n_cpfs, n_raw=10)
        res = modified_band_depth(cpfs, q=21)
        oracle_depths, _ = counting_mbd(cpfs, q=21)
        assert np.allclose(res.depths, oracle_depths, atol=1e-12)


def test_mbd_counting_oracle_with_forced_ties():
    rng = np.random.default_rng(8)
    cpfs = [
        CPF.from_points(i, np.round(random_cpf(rng, i, n_raw=10).objectives(), 1))
        for i in range(12)
    ]
    res = modified_band_depth(cpfs, q=11)
    oracle_depths, _ = counting_mbd(cpfs, q=11)
    assert np.allclose(res.depths, oracle_depths, atol=1e-12)


def test_mbd_identical_fronts_share_maximal_depth():
    # heights tie everywhere, so every front gets the same depth, which is
    # then maximal within the sample by definition
    rng = np.random.default_rng(21)
    base = random_cpf(rng)
    cpfs = [CPF(i, base.points) for i in range(6)]
    res = modified_band_depth(cpfs, q=11)
    assert np.all(res.depths == res.depths[0])
    assert np.all(res.depths == res.depths.max())
    assert res.ranking.tolist() == [0, 1, 2, 3, 4, 5]  # ties fall back to draw order


def test_mbd_depths_within_unit_interval():
    rng = np.random.default_rng(9)
    cpfs = random_cpfs(rng, 15)
    res = modified_band_depth(cpfs)
    assert np.all(res.depths >= 0.0) and np.all(res.depths <= 1.0)


def test_mbd_translation_invariant():
    rng = np.random.default_rng(10)
    cpfs = random_cpfs(rng, 12, n_raw=9)
    shift = np.array([3.5, -1.25])
    shifted = [CPF.from_points(c.draw_index, c.objectives() + shift) for c in cpfs]
    base = modified_band_depth(cpfs, q=31)
    moved = modified_band_depth(shifted, q=31)
    assert np.allclose(base.depths, moved.depths, atol=1e-12)


def test_mbd_ranking_descends():
    rng = np.random.default_rng(11)
    cpfs = random_cpfs(rng, 20)
    res = modified_band_depth(cpfs)
    ranked = res.depths[res.ranking]
    assert np.all(np.diff(ranked) <= 0)


# -- depth-based cloud ----------------------------------------------------------

def test_mbd_cloud_selects_ceil_alpha_n():
    rng = np.random.default_rng(12)
    cpfs = random_cpfs(rng, 101)
    res = modified_band_depth(cpfs, q=21)
    cloud = pf_cloud_mbd(cpfs, res, 0.5)
    assert len({pt.draw_index for pt in cloud.points}) == 51
    expect_points = sum(cpfs[int(i)].n_i for i in res.ranking[:51])
    assert len(cloud) == expect_points


def test_mbd_cloud_two_fronts_tie_break():
    rng = np.random.default_rng(13)
    cpfs = random_cpfs(rng, 2)
    res = modified_band_depth(cpfs, q=21)
    cloud = pf_cloud_mbd(cpfs, res, 0.5)
    assert {pt.draw_index for pt in cloud.points} == {0}  # both depth 1, lower draw wins


def test_mbd_cloud_permutation_invariant_selection():
    rng = np.random.default_rng(14)
    cpfs = random_cpfs(rng, 15, n_raw=9)
    res = modified_band_depth(cpfs, q=21)
    cloud = pf_cloud_mbd(cpfs, res, 0.4)
    chosen = {pt.draw_index for pt in cloud.points}

    perm = rng.permutation(15)
    permuted = [cpfs[i] for i in perm]
    res_p = modified_band_depth(permuted, q=21)
    cloud_p = pf_cloud_mbd(permuted, res_p, 0.4)
    assert {pt.draw_index for pt in cloud_p.points} == chosen


def test_mbd_cloud_rejects_bad_alpha():
    rng = np.random.default_rng(15)
    cpfs = random_cpfs(rng, 4)
    res = modified_band_depth(cpfs, q=11)
    for alpha in (0.0, 1.0):
        with pytest.raises(ValueError):
            pf_cloud_mbd(cpfs, res, alpha)
