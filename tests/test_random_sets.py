import dataclasses

import numpy as np
import pytest

from treefront import (
    CPF,
    CellRefError,
    ObjectiveBox,
    PFCloud,
    eaf,
    multi_cells,
    pf_cloud_rs,
    pf_ps,
    ps_cloud,
)
from treefront.harness import extract_cpfs
from treefront.sampler import PosteriorDraw

from conftest import front_boxes, paired_stump_ensembles, random_cpfs, random_multi
from oracles import Dominance, dominates, dpsc_contains


def oracle_contains(cpf, y):
    return any(
        dominates(p.objective, y) in (Dominance.WEAK, Dominance.STRICT)
        for p in cpf.points
    )


def oracle_eaf(cpfs, y):
    return sum(oracle_contains(c, y) for c in cpfs) / len(cpfs)


def test_dpsc_contains_own_points():
    cpf = CPF.from_points(0, [[1.0, 3.0], [2.0, 1.0]])
    assert dpsc_contains(cpf, [1.0, 3.0])
    assert dpsc_contains(cpf, [2.0, 1.0])


def test_dpsc_excludes_points_below_front():
    cpf = CPF.from_points(0, [[1.0, 3.0], [2.0, 1.0]])
    assert not dpsc_contains(cpf, [0.5, 0.5])
    assert not dpsc_contains(cpf, [0.99, 2.99])


def test_dpsc_matches_scan_oracle():
    rng = np.random.default_rng(0)
    for _ in range(200):
        cpf = random_cpfs(rng, 1, n_raw=10)[0]
        y = rng.random(2) * 1.4 - 0.2
        assert dpsc_contains(cpf, y) == oracle_contains(cpf, y)


def test_eaf_two_front_example():
    # one front dominates everything near the origin, the other sits higher;
    # a point below both fronts scores 0, between them 1/2, above both 1
    c1 = CPF.from_points(0, [[1.0, 1.0]])
    c2 = CPF.from_points(1, [[2.0, 2.0]])
    assert eaf([c1, c2], [0.5, 0.5]) == 0.0
    assert eaf([c1, c2], [1.5, 1.5]) == 0.5
    assert eaf([c1, c2], [2.5, 2.5]) == 1.0


def test_eaf_single_cpf_binary():
    rng = np.random.default_rng(1)
    cpf = random_cpfs(rng, 1)[0]
    for _ in range(100):
        y = rng.random(2)
        assert eaf([cpf], y) in (0.0, 1.0)


def test_eaf_matches_double_loop_oracle():
    rng = np.random.default_rng(2)
    cpfs = random_cpfs(rng, 20, n_raw=15)
    for _ in range(1000):
        y = rng.random(2) * 1.5 - 0.25
        assert eaf(cpfs, y) == oracle_eaf(cpfs, y)


def test_eaf_monotone_along_dominance():
    rng = np.random.default_rng(3)
    cpfs = random_cpfs(rng, 15)
    for _ in range(300):
        y = rng.random(2)
        worse = y + rng.random(2) * 0.3  # y weakly dominates worse
        assert eaf(cpfs, y) <= eaf(cpfs, worse)


def test_eaf_of_own_point_at_least_one_over_n():
    rng = np.random.default_rng(4)
    cpfs = random_cpfs(rng, 12)
    for c in cpfs:
        for p in c.points:
            assert eaf(cpfs, p.objective) >= 1.0 / len(cpfs)


def test_pf_cloud_rs_band_on_two_cpf_geometry():
    # the lower front's point is attained only by itself (eaf 1/2); the
    # upper front's point is attained by both (eaf 1)
    c1 = CPF.from_points(0, [[1.0, 1.0]])
    c2 = CPF.from_points(1, [[2.0, 2.0]])
    cloud = pf_cloud_rs([c1, c2], 0.25)
    assert [pt.objective for pt in cloud.points] == [(1.0, 1.0)]
    assert cloud.points[0].eaf == 0.5


def test_pf_cloud_rs_wide_band_keeps_interior_values():
    rng = np.random.default_rng(5)
    cpfs = random_cpfs(rng, 10, n_raw=8)
    wide = pf_cloud_rs(cpfs, 0.999999)
    vals = np.array([pt.eaf for pt in wide.points])
    assert np.all((vals > 0.0) & (vals <= 1.0))
    expected = 0
    for c in cpfs:
        for p in c.points:
            v = oracle_eaf(cpfs, p.objective)
            if 0.5 - 0.999999 / 2 <= v <= 0.5 + 0.999999 / 2:
                expected += 1
    assert len(wide) == expected


def test_pf_cloud_rs_matches_per_point_oracle_filter():
    rng = np.random.default_rng(6)
    cpfs = random_cpfs(rng, 25, n_raw=10)
    alpha = 0.25
    cloud = pf_cloud_rs(cpfs, alpha)
    got = {(pt.objective, pt.draw_index) for pt in cloud.points}
    expected = set()
    for c in cpfs:
        for p in c.points:
            v = oracle_eaf(cpfs, p.objective)
            if 0.375 <= v <= 0.625:
                expected.add((p.objective, c.draw_index))
    assert got == expected
    for pt in cloud.points:
        assert pt.eaf == oracle_eaf(cpfs, pt.objective)


def test_pf_cloud_rs_rejects_bad_alpha():
    rng = np.random.default_rng(7)
    cpfs = random_cpfs(rng, 3)
    for alpha in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            pf_cloud_rs(cpfs, alpha)


def test_objective_box_from_points():
    box = ObjectiveBox.from_points([[0.0, 5.0], [2.0, 1.0], [1.0, 3.0]])
    assert box.bounds == ((0.0, 2.0), (1.0, 5.0))
    assert box.d == 2


def test_ps_cloud_empty():
    assert len(ps_cloud(pf_cloud_rs([CPF.from_points(0, [[0.0, 0.0]])], 0.9), [])) == 0


def test_ps_cloud_single_draw_covers_whole_front():
    # a cloud holding one draw's entire front recovers exactly that draw's
    # preimage boxes
    from treefront import CloudPoint

    atlas = multi_cells(paired_stump_ensembles())
    result = pf_ps(atlas)
    cpf = CPF.from_result(0, result)
    cloud = PFCloud(
        tuple(CloudPoint(p.objective, 0, p.cell_refs, eaf=1.0) for p in cpf.points)
    )
    psc = ps_cloud(cloud, [cpf])
    assert [b.box for b in psc.boxes] == list(front_boxes(atlas, result))
    # with a single draw, every own point has attainment 1, outside any band
    assert len(pf_cloud_rs([cpf], 0.9)) == 0


def test_ps_cloud_boxes_reevaluate_onto_cloud_points():
    rng = np.random.default_rng(8)
    draws = [PosteriorDraw(random_multi(rng, p=2, d=2, m=3), np.ones(2)) for _ in range(6)]
    atlases, cpfs = _extract(draws)
    cloud = pf_cloud_rs(cpfs, 0.8)
    assert len(cloud) > 0
    psc = ps_cloud(cloud, cpfs)
    # the CPFs' set boxes are the boxes of the full atlases' cells
    want = [(pt.draw_index, atlases[pt.draw_index].box(r)) for pt in cloud.points
            for r in pt.cell_refs]
    assert [(e.draw_index, e.box) for e in psc.boxes] == want
    from treefront import eval_multi

    by_draw = {}
    for pt in cloud.points:
        by_draw.setdefault(pt.draw_index, set()).add(pt.objective)
    for entry in psc.boxes:
        me = draws[entry.draw_index].me
        val = tuple(eval_multi(me, entry.box.midpoint()))
        assert val in by_draw[entry.draw_index]


def _extract(draws):
    """Full atlases and fronts of every draw."""
    atlases, cpfs = {}, []
    for i, atlas, cpf in extract_cpfs(draws):
        atlases[i] = atlas
        cpfs.append(cpf)
    return atlases, cpfs


def test_ps_cloud_dangling_ref_raises():
    rng = np.random.default_rng(9)
    draws = [PosteriorDraw(random_multi(rng, p=2, d=2, m=2), np.ones(2)) for _ in range(3)]
    atlases, cpfs = _extract(draws)
    cloud = pf_cloud_rs(cpfs, 0.999)
    assert len(cloud) > 0
    pt = cloud.points[0]
    # a draw with no front
    missing = [c for c in cpfs if c.draw_index != pt.draw_index]
    with pytest.raises(CellRefError, match=f"no front for draw {pt.draw_index}"):
        ps_cloud(cloud, missing)
    # a cell of the draw's atlas that is not one of its front cells, and a
    # ref past the atlas's last cell
    front = {r for fp in cpfs[pt.draw_index].points for r in fp.cell_refs}
    n_cells = len(atlases[pt.draw_index])
    for ref in (min(set(range(n_cells)) - front), n_cells):
        stray = PFCloud((dataclasses.replace(pt, cell_refs=(ref,)),))
        with pytest.raises(CellRefError, match=f"cell {ref} is not a front cell"):
            ps_cloud(stray, cpfs)
