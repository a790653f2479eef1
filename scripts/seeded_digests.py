#!/usr/bin/env python3
"""Print SHA-256 digests of seeded outputs, to show a speed-up is byte-identical.

Runs the seeded CLI workflow (`fit --burn 20 --draws 25 --seed 3`,
`extract` with and without `--front`, `uq` rs 0.25 and mbd 0.5) on 128-row
training sets of unit-scaled mop2 and zdt3, and `fit --burn 20 --draws 4
--seed 3`, `extract --front`, then `uq` rs 0.25 and mbd 0.5 on a 128-row
training set of unit-scaled dtlz2m (p=4, about 40k cells per atlas record).
Also runs one `run_scenario` of dtlz2m at n=128, 60 burn + 8 draws, one LHS
restart, and one `run_turning` at n=150, 50 burn + 15 draws, m=10, one LHS
restart, seed 9.  Prints one line per output file of the mop2 and zdt3
workflows, one for the dtlz2m atlas file, one per dtlz2m `uq` output file,
one for the pickled scenario report (timings left out) and one for the
pickled turning result.  Run it on two checkouts and compare the output:

    python3 scripts/seeded_digests.py > digests.txt
"""

import argparse
import dataclasses
import hashlib
import pickle
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from treefront import BartConfig, Scenario, get_benchmark, run_scenario, run_turning, unit_scale
from treefront.cli import main as cli_main
from treefront.fileio import write_csv


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(argv) -> None:
    with redirect_stdout(StringIO()):
        if cli_main(argv) != 0:
            raise SystemExit(f"treefront {' '.join(argv)} failed")


def _fit_and_extract(name: str, root: Path, n_draws: int) -> tuple[Path, str, str]:
    """Training set, `fit` and `extract --front`; the directory and both files."""
    bench = unit_scale(get_benchmark(name))
    X = np.random.default_rng(7).random((128, bench.p))
    Y = bench.evaluate(X)
    d = root / name
    d.mkdir()
    header = [f"x{j + 1}" for j in range(bench.p)] + [f"y{j + 1}" for j in range(Y.shape[1])]
    write_csv(d / "train.csv", header, np.hstack([X, Y]))
    draws, atlas = str(d / "draws.jsonl"), str(d / "atlas.jsonl")
    _cli(["fit", "--data", str(d / "train.csv"), "--out", draws,
          "--burn", "20", "--draws", str(n_draws), "--seed", "3"])
    _cli(["extract", "--draws", draws, "--out", atlas, "--front"])
    return d, draws, atlas


def _uq(d: Path, atlas: str) -> list[Path]:
    """`uq` rs 0.25 and mbd 0.5 on an atlas file; the files they wrote."""
    _cli(["uq", "--atlas", atlas, "--method", "rs", "--alpha", "0.25", "--out-dir", str(d / "uq")])
    _cli(["uq", "--atlas", atlas, "--method", "mbd", "--alpha", "0.5", "--out-dir", str(d / "uq")])
    return sorted((d / "uq").iterdir())


def cli_workflow(name: str, root: Path) -> list[Path]:
    d, draws, atlas = _fit_and_extract(name, root, 25)
    _cli(["extract", "--draws", draws, "--out", str(d / "atlas_cells.jsonl")])
    _uq(d, atlas)
    return sorted(p for p in d.rglob("*") if p.is_file())


def scenario_report() -> bytes:
    sc = Scenario(benchmark="dtlz2m", n=128, bart=BartConfig(n_burn=60, n_draws=8),
                  seed=1, lhs_restarts=1)
    report = run_scenario(sc)
    return pickle.dumps(dataclasses.replace(report, timings={}), protocol=4)


def turning_result() -> bytes:
    res = run_turning(n=150, draws=15, burn=50, seed=9, m=10, lhs_restarts=1)
    return pickle.dumps(res, protocol=4)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name in ("mop2", "zdt3"):
            for path in cli_workflow(name, root):
                print(f"{_sha(path.read_bytes())}  {path.relative_to(root)}")
        d, _, atlas = _fit_and_extract("dtlz2m", root, 4)
        for path in [Path(atlas)] + _uq(d, atlas):
            print(f"{_sha(path.read_bytes())}  {path.relative_to(root)}")
    print(f"{_sha(scenario_report())}  dtlz2m_p4 run_scenario report")
    print(f"{_sha(turning_result())}  turning run_turning result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
