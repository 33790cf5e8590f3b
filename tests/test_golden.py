"""Seeded outputs pinned by sha256.

A speedup may not change a seeded result. These hashes were recorded before
the label sweep's state moved from a numpy label array to flags and a bit
set; a change that alters one of them changes a seeded result, and must say
so and why when it records new hashes.
"""

import hashlib

import pytest

from mesoscale.cli import main

ANALYZE = ["analyze", "--dataset", "karate", "--samples", "600", "--burn-in", "100"]
CASES = {
    "analyze-karate-pi-0.5": (ANALYZE + ["--seed", "3"], {
        "report.json": "15afbe0e291857c6707063f70584856a62b39cc27ee51d39a39f199983ca8dfb",
        "traces.csv": "a9141224241d5caf6546aba1bac9a6974e18bb299e793bfad4bd75ccaa35dd94",
    }),
    "analyze-karate-pi-0.2": (ANALYZE + [
        "--seed", "4", "--pi", "0.2", "--a0", "0.3", "--chains", "2", "--thin", "3",
    ], {
        "report.json": "c50e2c7e2533fcb65f09a62ad633b351c0024a562cba8e3cbc6058f168739101",
        "traces.csv": "9fe60a665dc9c7858bd97048f367743a6eaf55ec86c45853d263d0124f0aad11",
    }),
    "simulate-two-point-grid": ([
        "simulate", "--replicates", "1", "--grid", "0.1,0.2", "--n", "40",
        "--samples", "300", "--burn-in", "100", "--seed", "5",
    ], {
        "sweep.csv": "e06bde87a7fef153160a5c088a81ccef70cca79f6227d64a135ba3e1730717e5",
        "raw.csv": "bf939e298ec9cef6a8ff06f5ac5bec2d29da16823c39ec538f5c7256f65ed50b",
    }),
}
FLAGS = {"report.json": "--out", "traces.csv": "--emit-traces",
         "sweep.csv": "--out", "raw.csv": "--raw-out"}


@pytest.mark.parametrize("case", CASES)
def test_seeded_output_is_unchanged(case, tmp_path):
    argv, expected = CASES[case]
    for name in expected:
        argv = argv + [FLAGS[name], str(tmp_path / name)]
    assert main(argv) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in expected}
    assert got == expected
