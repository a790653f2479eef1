import csv
import json
import tracemalloc

import numpy as np
import pytest

from treefront import (BartConfig, Dataset, Domain, ImageAtlas, eval_multi, fit_multi_bart,
                       get_benchmark, maximin_lhs, multi_cells, pf_ps, unit_scale)
from treefront.cli import main
from treefront.fileio import (read_atlas_file, read_draws, read_points_csv, write_atlas_file,
                              write_csv)


@pytest.fixture(scope="module")
def dataset_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "train.csv"
    bench = get_benchmark("mop2")
    X = maximin_lhs(30, 2, 0, restarts=1, n_swaps=100)
    Y = bench.evaluate(X)
    rows = [list(x) + list(y) for x, y in zip(X, Y)]
    write_csv(path, ["x1", "x2", "y1", "y2"], rows)
    return path


FIT_FLAGS = ["--m", "8", "--min-leaf", "5", "--burn", "20", "--draws", "4", "--seed", "1"]


def test_fit_writes_readable_draws(dataset_csv, tmp_path):
    out = tmp_path / "draws.jsonl"
    assert main(["fit", "--data", str(dataset_csv), "--out", str(out)] + FIT_FLAGS) == 0
    draws = read_draws(out)
    assert len(draws) == 4
    for d in draws:
        assert d.me.d == 2
        assert np.all(d.sigma2 > 0)
    with open(out) as fh:
        first = json.loads(fh.readline())
    assert set(first) == {"draw_index", "sigma2", "domain", "outputs"}


def test_fit_deterministic_bytes(dataset_csv, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    main(["fit", "--data", str(dataset_csv), "--out", str(a)] + FIT_FLAGS)
    main(["fit", "--data", str(dataset_csv), "--out", str(b)] + FIT_FLAGS)
    assert a.read_bytes() == b.read_bytes()


@pytest.fixture(scope="module")
def draws_file(dataset_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("fit") / "draws.jsonl"
    main(["fit", "--data", str(dataset_csv), "--out", str(out)] + FIT_FLAGS)
    return out


def test_extract_atlas_schema_and_values(draws_file, tmp_path):
    out = tmp_path / "atlas.jsonl"
    assert main(["extract", "--draws", str(draws_file), "--out", str(out)]) == 0
    entries = list(read_atlas_file(out))
    draws = read_draws(draws_file)
    assert len(entries) == len(draws)
    for (idx, atlas), draw in zip(entries, draws):
        i = atlas.contains_point_index(atlas.box(0).midpoint())
        assert i >= 0
        got = eval_multi(draw.me, atlas.box(i).midpoint())
        assert np.allclose(got, atlas.alphas[i], atol=1e-12)


def test_extract_with_front_flag(draws_file, tmp_path):
    out = tmp_path / "atlas_front.jsonl"
    assert main(["extract", "--draws", str(draws_file), "--out", str(out), "--front"]) == 0
    with open(out) as fh:
        rec = json.loads(fh.readline())
    assert "front" in rec and "set_boxes" in rec
    assert rec["front"][0]["cell_refs"]


@pytest.fixture(scope="module")
def atlas_file(draws_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("extract") / "atlas.jsonl"
    main(["extract", "--draws", str(draws_file), "--out", str(out)])
    return out


def test_uq_rs_outputs(atlas_file, tmp_path):
    assert main([
        "uq", "--atlas", str(atlas_file), "--method", "rs",
        "--alpha", "0.25", "--out-dir", str(tmp_path),
    ]) == 0
    with open(tmp_path / "rs_pf_cloud.csv") as fh:
        header = next(csv.reader(fh))
    assert header == ["y1", "y2", "eaf", "draw_index"]
    assert (tmp_path / "rs_ps_boxes.csv").exists()


def test_uq_mbd_outputs(atlas_file, tmp_path):
    assert main([
        "uq", "--atlas", str(atlas_file), "--method", "mbd",
        "--alpha", "0.5", "--cuts", "51", "--out-dir", str(tmp_path),
    ]) == 0
    with open(tmp_path / "mbd_pf_cloud.csv") as fh:
        header = next(csv.reader(fh))
    assert header == ["y1", "y2", "depth_rank", "draw_index"]
    with open(tmp_path / "depths.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["draw_index", "depth"]
    assert len(rows) == 5  # header + one depth per draw
    with open(tmp_path / "mbd_ps_boxes.csv") as fh:
        header = next(csv.reader(fh))
    assert header == ["lo1", "hi1", "lo2", "hi2", "draw_index"]


def _edit_record(i, edit):
    """File text with record ``i`` (0-based) replaced by ``edit`` of it."""
    def text(lines):
        rec = json.loads(lines[i])
        edit(rec)
        return "".join(lines[:i] + [json.dumps(rec) + "\n"] + lines[i + 1:])
    return text


def _outside_cut(rec):
    leaf = {"mu": 0.0}
    rec["outputs"][0]["trees"][0] = {"var": 0, "cut": 5.0, "left": leaf, "right": leaf}


@pytest.mark.parametrize("source, text, problem", [
    ("draws", lambda lines: lines[0] + lines[1].rstrip()[:-1] + "\n",
     "line 2: Expecting ',' delimiter at column "),
    ("draws", _edit_record(0, _outside_cut), "line 1: cut 5.0 not strictly inside ["),
    ("draws", _edit_record(2, lambda rec: rec.pop("sigma2")), "line 3: missing field 'sigma2'"),
    ("draws", lambda lines: "", "no records"),
    ("atlas", _edit_record(1, lambda rec: rec.update(cells=[])), "line 2: record has no cells"),
    ("atlas", lambda lines: "\n", "no records"),
    ("atlas", lambda lines: "".join(lines + [lines[3]]), "line 5: draw_index 3 repeats line 4"),
], ids=["truncated_json", "cut_outside_box", "missing_field", "empty_draws", "no_cells",
        "blank_atlas", "repeated_draw_index"])
def test_record_errors_name_file_and_line(draws_file, atlas_file, tmp_path, capsys,
                                          source, text, problem):
    good = draws_file if source == "draws" else atlas_file
    bad = tmp_path / f"bad_{source}.jsonl"
    bad.write_text(text(good.read_text().splitlines(keepends=True)))
    out = tmp_path / "out"
    if source == "draws":
        argv = ["extract", "--draws", str(bad), "--out", str(out)]
    else:
        argv = ["uq", "--atlas", str(bad), "--method", "mbd", "--alpha", "0.5",
                "--out-dir", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {bad}: {problem}")
    assert not out.exists()


def test_metrics_command(tmp_path):
    cloud = tmp_path / "cloud.csv"
    truth = tmp_path / "truth.csv"
    write_csv(cloud, ["y1", "y2"], [[0.0, 0.0], [2.0, 0.0]])
    write_csv(truth, ["y1", "y2"], [[0.0, 0.0]])
    out = tmp_path / "metrics.csv"
    assert main(["metrics", "--cloud", str(cloud), "--truth", str(truth), "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["overcoverage", "undercoverage"]
    assert float(rows[1][0]) == 1.0
    assert float(rows[1][1]) == 0.0


def test_metrics_accepts_box_csv_as_centroids(tmp_path):
    boxes = tmp_path / "boxes.csv"
    truth = tmp_path / "truth.csv"
    write_csv(boxes, ["lo1", "hi1", "lo2", "hi2", "draw_index"], [[0.0, 1.0, 0.0, 1.0, 0]])
    write_csv(truth, ["y1", "y2"], [[0.5, 0.5]])
    out = tmp_path / "m.csv"
    assert main(["metrics", "--cloud", str(boxes), "--truth", str(truth), "--out", str(out)]) == 0
    got = read_points_csv(boxes)
    assert got.tolist() == [[0.5, 0.5]]


SIM_ARGS = [
    "simulate", "--bench", "mop2", "--n", "20", "--noise", "0.0",
    "--reps", "2", "--draws", "5", "--burn", "40", "--m", "10",
    "--alpha-rs", "0.25", "--alpha-mbd", "0.5", "--seed", "5",
]


def test_simulate_outputs(tmp_path):
    out = tmp_path / "sim"
    assert main(SIM_ARGS + ["--out", str(out)]) == 0
    with open(out / "report.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["replicate", "method", "target", "overcoverage", "undercoverage"]
    assert len(rows) == 1 + 2 * 4  # 2 replicates x 2 methods x 2 targets
    cfg = json.loads((out / "config.json").read_text())
    assert cfg["benchmark"] == "mop2" and cfg["n"] == 20 and cfg["seed"] == 5
    clouds = sorted(p.name for p in (out / "clouds").iterdir())
    assert "rep000_rs_pf.csv" in clouds
    assert "rep001_mbd_ps_boxes.csv" in clouds
    assert "rep000_depths.csv" in clouds


def test_simulate_repeat_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(SIM_ARGS + ["--out", str(out_a)])
    main(SIM_ARGS + ["--out", str(out_b)])
    for rel in ["report.csv", "config.json"]:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()
    names = sorted(p.name for p in (out_a / "clouds").iterdir())
    assert names == sorted(p.name for p in (out_b / "clouds").iterdir())
    for name in names:
        assert (out_a / "clouds" / name).read_bytes() == (out_b / "clouds" / name).read_bytes()


def test_cli_error_paths(tmp_path):
    assert main(["fit", "--data", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "o")]) == 1
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    assert main(["fit", "--data", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert main(["uq", "--atlas", str(tmp_path / "missing"), "--method", "rs",
                 "--alpha", "0.25", "--out-dir", str(tmp_path)]) == 1


@pytest.mark.parametrize("body, problem", [
    ("", "need at least 2 data rows, found 0"),
    ("0.1,0.2,1.0,2.0\n", "need at least 2 data rows, found 1"),
    ("0.5,0.1,1.0,2.0\n0.5,0.9,3.0,1.0\n0.5,0.4,2.0,2.5\n", "input column x1 is constant"),
    ("0.1,0.1,1.0,2.0\n0.9,0.9,1.0,1.0\n0.4,0.4,1.0,2.5\n", "output column y1 is constant"),
    ("0.1,0.2,1.0,2.0\n0.3,nan,1.5,1.0\n", "line 3, column x2: 'nan' is not finite"),
    ("0.1,0.2,1.0,2.0\n0.3,0.4,1.5,inf\n", "line 3, column y2: 'inf' is not finite"),
    ("0.1,0.2,1.0,2.0\n0.3,0.4,1.5\n0.5,0.6,2.0,1.0\n", "line 3 has 3 fields, expected 4"),
])
def test_fit_input_errors_name_file_and_problem(tmp_path, capsys, body, problem):
    data = tmp_path / "train.csv"
    data.write_text("x1,x2,y1,y2\n" + body)
    out = tmp_path / "draws.jsonl"
    assert main(["fit", "--data", str(data), "--out", str(out)] + FIT_FLAGS) == 1
    assert capsys.readouterr().err == f"error: {data}: {problem}\n"
    assert not out.exists()


def test_empty_csv_names_file(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["fit", "--data", str(empty), "--out", str(tmp_path / "d.jsonl")] + FIT_FLAGS) == 1
    assert capsys.readouterr().err == f"error: {empty}: expected header columns x1..xp and y1..yd\n"
    assert main(["metrics", "--cloud", str(empty), "--truth", str(empty),
                 "--out", str(tmp_path / "cov.csv")]) == 1
    assert capsys.readouterr().err == f"error: no coordinate columns found in {empty}\n"


def test_simulate_rejects_alpha_outside_unit_interval(tmp_path, capsys):
    args = list(SIM_ARGS)
    args[args.index("--alpha-rs") + 1] = "1.0"
    assert main(args + ["--out", str(tmp_path / "sim")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "alpha_rs=1.0" in err
    assert not (tmp_path / "sim").exists()


def test_simulate_rejects_empty_attainment_band(tmp_path, capsys):
    args = list(SIM_ARGS)
    args[args.index("--draws") + 1] = "3"
    assert main(args + ["--out", str(tmp_path / "sim")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "n_draws=3" in err and "alpha_rs=0.25" in err
    assert not (tmp_path / "sim").exists()


def test_uq_rs_rejects_band_without_attainment(tmp_path, capsys):
    # attainment over 3 draws is k/3, never inside [0.375, 0.625]
    data = tmp_path / "train.csv"
    X = maximin_lhs(40, 2, 0, restarts=1, n_swaps=100)
    write_csv(data, ["x1", "x2", "y1", "y2"],
              [list(x) + list(y) for x, y in zip(X, get_benchmark("mop2").evaluate(X))])
    draws, atlas = tmp_path / "draws.jsonl", tmp_path / "atlas.jsonl"
    assert main(["fit", "--data", str(data), "--out", str(draws),
                 "--burn", "5", "--draws", "3", "--min-leaf", "5"]) == 0
    assert main(["extract", "--draws", str(draws), "--out", str(atlas)]) == 0
    capsys.readouterr()
    out_dir = tmp_path / "uq"
    assert main(["uq", "--atlas", str(atlas), "--method", "rs", "--alpha", "0.25",
                 "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "n_draws=3 with alpha_rs=0.25" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("body, problem", [
    ("0.1,0.2\n0.3,0.4,0.5\n", "line 3 has 3 fields, expected 2"),
    ("0.1,abc\n", "line 2, column y2: 'abc' is not a number"),
    ("", "no data rows"),
])
def test_metrics_input_errors_name_file_and_problem(tmp_path, capsys, body, problem):
    cloud, truth = tmp_path / "cloud.csv", tmp_path / "truth.csv"
    cloud.write_text("y1,y2\n" + body)
    write_csv(truth, ["y1", "y2"], [[0.0, 0.0]])
    out = tmp_path / "cov.csv"
    assert main(["metrics", "--cloud", str(cloud), "--truth", str(truth), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {cloud}: {problem}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, problem", [
    (["fit", "--draws", "0"], "n_draws=0 must be >= 1"),
    (["fit", "--burn", "-2"], "n_burn=-2 must be >= 0"),
    (["simulate", "--reps", "0"], "replicates=0 must be >= 1"),
], ids=["no_draws", "negative_burn", "no_replicates"])
def test_run_sizes_below_their_floor_fail_with_one_line(dataset_csv, tmp_path, capsys, argv,
                                                        problem):
    out = tmp_path / "out"
    if argv[0] == "fit":
        argv = argv + ["--data", str(dataset_csv), "--out", str(out)]
    else:
        args = list(SIM_ARGS)
        args[args.index(argv[1]) + 1] = argv[2]
        argv = args + ["--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {problem}\n"
    assert not out.exists()


def test_uq_empty_cloud_headers_name_every_input_and_output(tmp_path):
    # two equal draws attain each front point with 1, outside the RS band,
    # so the clouds are empty; the headers still follow d=3 and p=3
    rng = np.random.default_rng(4)
    los = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
    his = np.array([[0.5, 1.0, 1.0], [1.0, 1.0, 1.0]])
    atlas = ImageAtlas(rng.random((2, 3)), los, his, Domain.unit(3))
    path = tmp_path / "atlas.jsonl"
    write_atlas_file(path, [(0, atlas, None), (1, atlas, None)])
    out = tmp_path / "uq"
    assert main(["uq", "--atlas", str(path), "--method", "rs", "--alpha", "0.25",
                 "--out-dir", str(out)]) == 0
    assert (out / "rs_pf_cloud.csv").read_text() == "y1,y2,y3,eaf,draw_index\n"
    assert (out / "rs_ps_boxes.csv").read_text() == "lo1,hi1,lo2,hi2,lo3,hi3,draw_index\n"


def test_uq_memory_flat_in_draws(tmp_path, monkeypatch):
    # uq keeps only each draw's front and set boxes, so four times the draws
    # must not raise the traced peak by even one atlas; keeping every atlas
    # raised it by about four of them
    from treefront import cli

    bench = unit_scale(get_benchmark("dtlz2m"))
    X = np.random.default_rng(7).random((128, bench.p))
    draws = fit_multi_bart(Dataset(X, bench.evaluate(X), bench.domain),
                           BartConfig(m=12, n_burn=20, n_draws=8), seed=3)
    eight = tmp_path / "eight.jsonl"
    write_atlas_file(eight, ((i, multi_cells(d.me), None) for i, d in enumerate(draws)))
    # a parsed record takes many times its atlas's bytes, so the 2-draw file
    # holds the 8-draw file's two longest records: both runs parse the same
    # largest one
    lines = eight.read_text().splitlines(keepends=True)
    two = tmp_path / "two.jsonl"
    two.write_text("".join(sorted(lines, key=len)[-2:]))

    atlas_bytes = []

    def sized(atlas):
        atlas_bytes.append(atlas.alphas.nbytes + atlas.los.nbytes + atlas.his.nbytes)
        return pf_ps(atlas)

    monkeypatch.setattr(cli, "pf_ps", sized)
    peaks = []
    for path in (two, eight):
        tracemalloc.start()
        try:
            assert main(["uq", "--atlas", str(path), "--method", "mbd", "--alpha", "0.5",
                         "--out-dir", str(tmp_path / path.stem)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(atlas_bytes) == 10
    assert peaks[1] - peaks[0] < max(atlas_bytes)
