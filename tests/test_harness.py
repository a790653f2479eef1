import hashlib
import pickle
import tracemalloc

import numpy as np
import pytest

from treefront import (
    BartConfig,
    DegenerateDataError,
    Scenario,
    generate_data,
    get_benchmark,
    kung_front,
    maximin_lhs,
    multi_cells,
    run_scenario,
    run_turning,
    unit_scale,
)
from treefront.harness import extract_cpfs


def min_pairwise_dist(design):
    diff = design[:, None, :] - design[None, :, :]
    d2 = np.sum(diff * diff, axis=2)
    np.fill_diagonal(d2, np.inf)
    return float(np.sqrt(d2.min()))


# -- designs -------------------------------------------------------------------

@pytest.mark.parametrize("make, message", [
    (lambda: maximin_lhs(10, 2, 0, restarts=0), "restarts=0 must be >= 1"),
    (lambda: Scenario(benchmark="mop2", n=40, replicates=0), "replicates=0 must be >= 1"),
    (lambda: Scenario(benchmark="mop2", n=40, lhs_restarts=0), "lhs_restarts=0 must be >= 1"),
    (lambda: BartConfig(n_burn=-1), "n_burn=-1 must be >= 0"),
    (lambda: BartConfig(n_draws=0), "n_draws=0 must be >= 1"),
], ids=["lhs_restarts", "replicates", "scenario_lhs_restarts", "burn", "draws"])
def test_run_sizes_below_their_floor_raise(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_lhs_marginal_stratification():
    design = maximin_lhs(20, 3, 0, restarts=2, n_swaps=200)
    for j in range(3):
        col = np.sort(design[:, j])
        strata = np.floor(col * 20).astype(int)
        assert strata.tolist() == list(range(20))


def test_lhs_two_points_in_different_halves():
    for seed in range(20):
        design = maximin_lhs(2, 1, seed, restarts=1, n_swaps=10)
        lo, hi = sorted(design[:, 0])
        assert lo < 0.5 <= hi or (lo < 0.5 and hi >= 0.5)
        assert lo < 0.5 and hi >= 0.5


def test_lhs_optimization_never_hurts():
    # paired against the plain hypercube the optimizer starts from
    for seed in range(100):
        plain = maximin_lhs(16, 2, seed, restarts=1, n_swaps=0)
        tuned = maximin_lhs(16, 2, seed, restarts=1, n_swaps=300)
        assert min_pairwise_dist(tuned) >= min_pairwise_dist(plain)


def test_lhs_needs_two_points():
    with pytest.raises(ValueError):
        maximin_lhs(1, 2, 0)


def test_seeded_lhs_pinned():
    # recorded once and never re-recorded: the digests pin the design's RNG
    # consumption and every accept/reject decision of the swap search; the
    # first is the design of the dtlz2m p=4 scenario at seed 1, replicate 0
    s_design = np.random.SeedSequence([1, 0]).spawn(3)[0]
    designs = {
        "1eec612baca8219190edd9b7f7b7031dab97e2984d0bf9bea955facc587abcd4":
            maximin_lhs(128, 4, s_design, restarts=1),
        "5f762021e4b96fa7b4f6405f77930bd3275e69e1709065ada72f734e11c0533e":
            maximin_lhs(40, 3, 5, restarts=3),
    }
    for digest, design in designs.items():
        assert hashlib.sha256(design.tobytes()).hexdigest() == digest


# -- data generation ------------------------------------------------------------

def test_generate_data_noiseless_is_exact():
    bench = get_benchmark("mop2")
    design = maximin_lhs(30, 2, 1, restarts=1, n_swaps=50)
    data = generate_data(bench, design, 0.0, 2)
    assert np.array_equal(data.outputs, bench.evaluate(design))


def test_generate_data_noise_variance_matches():
    bench = unit_scale(get_benchmark("mop2"))
    rng = np.random.default_rng(3)
    design = rng.random((100_000, 2))
    mult = 0.25
    data = generate_data(bench, design, mult, 4)
    resid = data.outputs - bench.evaluate(design)
    target = mult * np.asarray(bench.output_variances)
    assert np.allclose(resid.var(axis=0), target, rtol=0.02)
    # independent noise across outputs
    corr = np.corrcoef(resid.T)[0, 1]
    assert abs(corr) < 0.02


def test_generate_data_negative_noise_rejected():
    bench = get_benchmark("mop2")
    with pytest.raises(ValueError):
        generate_data(bench, np.full((20, 2), 0.5), -0.1, 0)


def test_generate_data_turning_noise_unsupported():
    bench = get_benchmark("turning")
    design = np.column_stack([np.linspace(10, 400, 30), np.linspace(0.04, 1, 30)])
    with pytest.raises(ValueError):
        generate_data(bench, design, 0.1, 0)
    assert generate_data(bench, design, 0.0, 0).outputs.shape == (30, 2)


def test_constant_column_fails_with_degenerate_error():
    from treefront import Dataset, Domain, fit_multi_bart

    X = np.random.default_rng(5).random((30, 2))
    Y = np.column_stack([np.ones(30), X[:, 0]])
    with pytest.raises(DegenerateDataError):
        fit_multi_bart(Dataset(X, Y, Domain.unit(2)), BartConfig(min_leaf_obs=5), 0)


# -- scenario pipeline -------------------------------------------------------------

def _micro_scenario(seed=0):
    return Scenario(
        benchmark="mop2",
        n=20,
        noise_mult=0.0,
        replicates=1,
        bart=BartConfig(n_burn=50, n_draws=5),
        seed=seed,
        lhs_restarts=1,
        truth_samples=200,
    )


def test_micro_scenario_completes_and_reports():
    report = run_scenario(_micro_scenario())
    assert len(report.rows) == 4  # 2 methods x 2 targets
    for row in report.rows:
        assert np.isfinite(row.overcoverage) and row.overcoverage >= 0
        assert np.isfinite(row.undercoverage) and row.undercoverage >= 0
    assert report.timings["total"] > 0
    # the recorded objective box spans the replicate's training outputs,
    # which for a noiseless unit-scaled benchmark sit inside the unit square
    obox = report.artifacts[0].objective_box
    assert obox.d == 2
    for lo, hi in obox.bounds:
        assert 0.0 <= lo <= hi <= 1.0


def test_scenario_seeded_rerun_is_identical():
    a = run_scenario(_micro_scenario(seed=42))
    b = run_scenario(_micro_scenario(seed=42))
    assert a.rows == b.rows
    for art_a, art_b in zip(a.artifacts, b.artifacts):
        assert art_a.rs_cloud == art_b.rs_cloud
        assert art_a.mbd_cloud == art_b.mbd_cloud
        assert np.array_equal(art_a.depths.depths, art_b.depths.depths)


def test_scenario_validates_sample_size():
    with pytest.raises(ValueError):
        Scenario(benchmark="mop2", n=10, bart=BartConfig())


def test_scenario_rejects_empty_attainment_band():
    # attainment over 3 draws is k/3, never inside [0.375, 0.625]
    with pytest.raises(ValueError, match=r"n_draws=3 with alpha_rs=0\.25") as exc:
        Scenario(benchmark="mop2", n=40, alpha_rs=0.25, bart=BartConfig(n_draws=3))
    assert "\n" not in str(exc.value)
    with pytest.raises(ValueError, match="alpha_rs=0.25"):
        Scenario(benchmark="mop2", n=40, alpha_rs=0.25, bart=BartConfig(n_draws=1))
    # the band is closed: at alpha_rs = 1/3 its upper end is 2/3 in floating point
    Scenario(benchmark="mop2", n=40, alpha_rs=1 / 3, bart=BartConfig(n_draws=3))
    for n_draws in (2, 4, 5, 500):
        Scenario(benchmark="mop2", n=40, alpha_rs=0.25, bart=BartConfig(n_draws=n_draws))


def test_scenario_rejects_alpha_outside_unit_interval():
    with pytest.raises(ValueError, match=r"^alpha_rs=1\.0 must be in \(0, 1\)$"):
        Scenario(benchmark="mop2", n=40, alpha_rs=1.0)
    with pytest.raises(ValueError, match=r"^alpha_mbd=1\.5 must be in \(0, 1\)$"):
        Scenario(benchmark="mop2", n=40, alpha_mbd=1.5)
    for bad in (0.0, -0.25, float("nan")):
        with pytest.raises(ValueError, match="must be in"):
            Scenario(benchmark="mop2", n=40, alpha_mbd=bad)


def test_exp_transform_commutes_with_front_extraction():
    # fronts of exponentiated values equal exponentiated fronts
    rng = np.random.default_rng(6)
    for _ in range(20):
        vals = rng.normal(size=(50, 2))
        front_then_exp = np.exp(kung_front(vals))
        exp_then_front = kung_front(np.exp(vals))
        a = front_then_exp[np.lexsort(front_then_exp.T[::-1])]
        b = exp_then_front[np.lexsort(exp_then_front.T[::-1])]
        assert np.array_equal(a, b)


def test_exp_transform_commutes_on_atlases():
    from treefront import multi_cells, pf_ps
    from conftest import front_boxes, random_multi

    rng = np.random.default_rng(7)
    for _ in range(10):
        atlas = multi_cells(random_multi(rng, p=2, d=2, m=3))
        exp_atlas = atlas.with_alphas(np.exp(atlas.alphas))
        log_front = {p.objective for p in pf_ps(atlas).front}
        exp_front = {p.objective for p in pf_ps(exp_atlas).front}
        assert exp_front == {tuple(np.exp(np.array(o))) for o in log_front}
        # the preimage boxes agree as well
        assert front_boxes(atlas, pf_ps(atlas)) == front_boxes(exp_atlas, pf_ps(exp_atlas))


def test_turning_study_desk_scale():
    res = run_turning(n=400, draws=60, burn=150, seed=3, m=20, lhs_restarts=2)
    objs = res.cloud.objectives()
    assert np.all(objs > 0)  # exp range
    # the nondominated subset of the cloud traces a proper 2-d front
    nd = kung_front(objs)
    order = np.argsort(nd[:, 0])
    assert np.all(np.diff(nd[order, 1]) <= 0)
    assert res.overcoverage < 0.05
    # every selected box lies inside the speed/feed domain
    dom = get_benchmark("turning").domain
    for entry in res.ps.boxes:
        assert np.all(np.array(entry.box.lo) >= dom.lo - 1e-12)
        assert np.all(np.array(entry.box.hi) <= dom.hi + 1e-12)


def test_scenario_memory_flat_in_draws(monkeypatch):
    # a replicate keeps only each draw's front cells, so four times the
    # draws must not raise the traced peak by even one atlas; keeping every
    # atlas raised it by about five of them
    from treefront import harness

    atlas_bytes = []

    def sized(me):
        atlas = multi_cells(me)
        atlas_bytes.append(atlas.alphas.nbytes + atlas.los.nbytes + atlas.his.nbytes)
        return atlas

    monkeypatch.setattr(harness, "multi_cells", sized)
    peaks = []
    for draws in (2, 8):
        sc = Scenario(benchmark="dtlz2m", n=128, bart=BartConfig(n_burn=20, n_draws=draws),
                      seed=1, lhs_restarts=1, truth_samples=200)
        tracemalloc.start()
        try:
            run_scenario(sc)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(atlas_bytes) == 10
    assert peaks[1] - peaks[0] < max(atlas_bytes)


@pytest.mark.parametrize(
    "name,n",
    [("zdt3", 64), ("dtlz2m", 40)],
)
def test_other_benchmarks_run_end_to_end(name, n):
    sc = Scenario(
        benchmark=name,
        n=n,
        noise_mult=0.1,
        replicates=1,
        bart=BartConfig(n_burn=100, n_draws=25),
        seed=1,
        lhs_restarts=1,
        truth_samples=300,
    )
    report = run_scenario(sc)
    assert len(report.rows) == 4
    for row in report.rows:
        assert np.isfinite(row.overcoverage) and np.isfinite(row.undercoverage)
    art = report.artifacts[0]
    assert len(art.rs_cloud) > 0 and len(art.mbd_cloud) > 0
    p = get_benchmark(name).p
    for entry in art.mbd_ps.boxes:
        assert len(entry.box.lo) == p


def test_turning_seeded_rerun_identical():
    a = run_turning(n=150, draws=15, burn=50, seed=9, m=10, lhs_restarts=1)
    b = run_turning(n=150, draws=15, burn=50, seed=9, m=10, lhs_restarts=1)
    assert a.cloud == b.cloud
    assert a.overcoverage == b.overcoverage


def test_seeded_turning_pinned():
    # recorded once on the turning loop before it ran through extract_cpfs,
    # and never re-recorded: the digest pins the fit, the exp-mapped fronts,
    # the depths, the cloud, its boxes and the coverage
    res = run_turning(n=150, draws=15, burn=50, seed=9, m=10, lhs_restarts=1)
    assert hashlib.sha256(pickle.dumps(res, protocol=4)).hexdigest() == (
        "87b8d3bc50670078b783f1c911315db1765774b58b705d163bfae5a2259bcd9b"
    )


def test_extract_cpfs_consistency():
    from treefront import eval_multi, fit_multi_bart, Dataset, Domain

    bench = unit_scale(get_benchmark("mop2"))
    design = maximin_lhs(30, 2, 7, restarts=1, n_swaps=100)
    data = generate_data(bench, design, 0.0, 8)
    draws = fit_multi_bart(data, BartConfig(n_burn=40, n_draws=6), 9)
    extracted = list(extract_cpfs(draws))
    assert [i for i, _, _ in extracted] == list(range(6))
    for i, atlas, cpf in extracted:
        assert cpf.draw_index == i
        for fp in cpf.points:
            for ref in fp.cell_refs:
                mid = atlas.box(ref).midpoint()
                assert tuple(eval_multi(draws[i].me, mid)) == fp.objective
                assert cpf.box(ref) == atlas.box(ref)
