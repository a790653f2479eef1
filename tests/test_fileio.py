"""The atlas file writer against the dict-building writer, byte for byte."""

import numpy as np
import pytest

from treefront import (
    CPF,
    BartConfig,
    Dataset,
    Domain,
    Ensemble,
    FrontPoint,
    ImageAtlas,
    MultiEnsemble,
    OutputTransform,
    fit_multi_bart,
    get_benchmark,
    multi_cells,
    pf_ps,
    unit_scale,
)
from treefront.fileio import read_atlas_file, write_atlas_file

from conftest import random_multi, stump
from oracles import dict_atlas_writer


def _assert_same_bytes(tmp_path, entries):
    """Both writers on the same entries, once as given and once with no CPFs."""
    for with_cpf in (True, False):
        got, want = tmp_path / "got.jsonl", tmp_path / "want.jsonl"
        rows = [(i, at, cpf if with_cpf else None) for i, at, cpf in entries]
        write_atlas_file(got, iter(rows))
        dict_atlas_writer(want, iter(rows))
        assert got.read_bytes() == want.read_bytes(), f"with_cpf={with_cpf}"


def _front_entries(atlases):
    return [(i, at, CPF.from_result(i, pf_ps(at))) for i, at in enumerate(atlases)]


@pytest.mark.parametrize("bench_name", ["mop2", "zdt3", "dtlz2m"])
def test_writer_matches_oracle_on_sampler_atlases(bench_name, tmp_path):
    # dtlz2m has p=4 and tens of thousands of cells per draw
    bench = unit_scale(get_benchmark(bench_name))
    X = np.random.default_rng(7).random((128, bench.p))
    cfg = BartConfig(n_burn=20, n_draws=2)
    draws = fit_multi_bart(Dataset(X, bench.evaluate(X), bench.domain), cfg, seed=3)
    _assert_same_bytes(tmp_path, _front_entries(multi_cells(d.me) for d in draws))


def test_writer_matches_oracle_on_special_floats(tmp_path):
    # 0.0 and -0.0 share a column, so values must be told apart by bit pattern
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e22, 1.0]
    alphas = np.array([[v, special[-1 - k]] for k, v in enumerate(special)])
    los = np.array([[-0.0, v] for v in special])
    his = np.array([[0.0, 1e22]] * len(special))
    atlas = ImageAtlas(alphas, los, his, Domain.unit(2))
    cpf = CPF(0, (FrontPoint((-0.0, 1e22), (1, 5)), FrontPoint((5e-324, -np.inf), (4,))),
              los[[1, 5, 4]], his[[1, 5, 4]])
    _assert_same_bytes(tmp_path, [(0, atlas, cpf), (7, atlas, None)])
    write_atlas_file(tmp_path / "a.jsonl", [(0, atlas, None)])
    text = (tmp_path / "a.jsonl").read_text()
    for spelled in ("[-0.0, 1e+22]", "[NaN, 5e-324]", "[Infinity, -Infinity]"):
        assert f'"alpha": {spelled}' in text


def test_writer_matches_oracle_on_one_cell(tmp_path):
    atlas = ImageAtlas(np.array([[0.25, -3.0]]), np.array([[0.0, 0.0]]),
                       np.array([[1.0, 1.0]]), Domain.unit(2))
    _assert_same_bytes(tmp_path, _front_entries([atlas]))


def test_writer_matches_oracle_with_one_input_and_one_output(tmp_path):
    dom = Domain(((-1.0, 2.0),))
    trees = (stump(0, 0.5, -1.0, 2.0), stump(0, -0.25, 0.125, 0.0), stump(0, 1.5, 3.0, -3.0))
    atlas = multi_cells(MultiEnsemble((Ensemble(trees, OutputTransform.identity(), dom),)))
    assert atlas.alphas.shape == (4, 1) and atlas.los.shape == (4, 1)
    _assert_same_bytes(tmp_path, _front_entries([atlas]))


def test_writer_matches_oracle_with_three_outputs(tmp_path):
    rng = np.random.default_rng(5)
    atlases = [multi_cells(random_multi(rng, p=3, d=3, m=4)) for _ in range(3)]
    assert all(at.alphas.shape[1] == 3 and at.los.shape[1] == 3 for at in atlases)
    _assert_same_bytes(tmp_path, _front_entries(atlases))


def test_written_atlas_reads_back_bit_for_bit(tmp_path):
    rng = np.random.default_rng(6)
    atlas = multi_cells(random_multi(rng, p=2, d=2, m=5))
    atlas = atlas.with_alphas(np.where(atlas.alphas > 0, atlas.alphas, -0.0))
    write_atlas_file(tmp_path / "a.jsonl", [(4, atlas, None)])
    [(i, back)] = read_atlas_file(tmp_path / "a.jsonl")
    assert i == 4
    for name in ("alphas", "los", "his"):
        assert getattr(back, name).tobytes() == getattr(atlas, name).tobytes(), name
