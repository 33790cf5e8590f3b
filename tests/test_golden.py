"""Seeded outputs pinned by sha256.

A speedup may not change a seeded result unless it says so and why. These
hashes were recorded when the label sweeps began to draw their visiting
orders and uniforms a block of sweeps at a time (sampler.sweep_draws), which
moved those draws in each chain's RNG stream. A change that alters one of
them changes a seeded result, and must say so and why when it records new
hashes.

The two analyze report.json hashes were re-pinned when the degree-split start
(--init degree) was deleted: every chain now starts from its own prior draw,
so the report's config no longer echoes "init": "random_labels". That line is
the only difference; the draws and both traces.csv hashes did not change.

The oracle case was recorded when the oracle began to integrate against
p12's CDF, from the same Beta CDF tables as p11 and p22, on a grid graded
toward both ends, in place of Simpson's rule on p12's density. Its verdict
moved by at most 4e-8 and the report gained quadrature_error. It was re-pinned
when the error bound began to be summed chunk by chunk, which moved
quadrature_error in its last digit and left the verdict's bytes unchanged.

The dolphins analyze case and the 100-node simulate case, where many flips
are accepted, were pinned before the sweep began to hold its neighbour
counts as floats; that change left every hash here as it was.

The default-length simulate case, one 1500-iteration fit at p12 = 0.125 on
100 nodes, was pinned before k1 and k0 were taken as c1 + s*n1 and
c0 - s*n1 (sampler module docstring). That form rounds differently from the
one it replaced, and it moved no hash here.
"""

import hashlib

import pytest

from mesoscale.cli import main

ANALYZE = ["analyze", "--dataset", "karate", "--samples", "600", "--burn-in", "100"]
# the oracle case's input, written into the case's directory first
SBM_14 = ["generate", "--n", "14", "--sizes", "6,8", "--p11", "0.7", "--p12", "0.3",
          "--p22", "0.2", "--seed", "13", "--out", "sbm"]
CASES = {
    "analyze-karate-pi-0.5": (ANALYZE + ["--seed", "3"], {
        "report.json": "1e0ce489812ee76a23acd55df0bcd2404947b14643d9c376040f2f3a2b2511c2",
        "traces.csv": "d7619f42d63583bcb8fc70518e7a081e96b857fa202596597e700426ecdaee70",
    }),
    "analyze-karate-pi-0.2": (ANALYZE + [
        "--seed", "4", "--pi", "0.2", "--a0", "0.3", "--chains", "2", "--thin", "3",
    ], {
        "report.json": "9ebc60b83cfbf3d8dff97f5abce85cb7afba90ff3b3daa89c64f99cd0836f8ca",
        "traces.csv": "ae79d47dbfc009fd9f6525e776088274e4f796e6ed8fc8a5063ee0cb323dbe1c",
    }),
    "simulate-two-point-grid": ([
        "simulate", "--replicates", "1", "--grid", "0.1,0.2", "--n", "40",
        "--samples", "300", "--burn-in", "100", "--seed", "5",
    ], {
        "sweep.csv": "9f683cca2df74193b408b023aec355333b343adf19cc922a8b1d63efacba17fa",
        "raw.csv": "8eee201c7c6f0d4d86333b9b5f4f0030962aafff4ea44753abcea85a6b0cc3ff",
    }),
    "analyze-dolphins-seed-7": ([
        "analyze", "--dataset", "dolphins", "--samples", "2000", "--burn-in", "500",
        "--seed", "7",
    ], {
        "report.json": "e164c1f3094fb9c89c09cee887d9227021ab216b7717320c48183c53dfac7aef",
        "traces.csv": "5cf6ff343174561229cd301492151356d86aac52523341a021b869e784d29dc6",
    }),
    # n = 100 at p12 = 0.125: about 40% of the flips are accepted
    "simulate-n-100-high-acceptance": ([
        "simulate", "--n", "100", "--grid", "0.125", "--replicates", "2",
        "--samples", "300", "--burn-in", "100", "--seed", "3",
    ], {
        "sweep.csv": "3f42bff423895d346fa6a20b0a426108dd6d548a87f261cc627cb270a755432c",
        "raw.csv": "e20703ca6fec2ed5926e0a0e5f4509c7a2d9c9866db872f2bbecd57ef07430ef",
    }),
    # one fit of simulate-p12's default length at its highest-acceptance point
    "simulate-n-100-default-length": ([
        "simulate", "--n", "100", "--grid", "0.125", "--replicates", "1",
        "--samples", "1500", "--burn-in", "500", "--seed", "11",
    ], {
        "sweep.csv": "acb24b6732b6f430cc3299867185cf6e4222e4f34016307217913b2d81582c0a",
        "raw.csv": "11a6b8b86cfa10e678b07ffb183cc9ff42effc2218b8bee1bce1c4fe6dc22d25",
    }),
    "oracle-sbm-14-pi-0.2": ([
        "oracle", "sbm.edges", "--nodes", "sbm.nodes", "--pi", "0.2",
    ], {
        "oracle.json": "559bf940f09f828c940d97560c05d5cb7f6562e1bfda804769b048532b02ffd3",
    }),
}
FLAGS = {"report.json": "--out", "traces.csv": "--emit-traces",
         "sweep.csv": "--out", "raw.csv": "--raw-out", "oracle.json": "--out"}


@pytest.mark.parametrize("case", CASES)
def test_seeded_output_is_unchanged(case, tmp_path, monkeypatch):
    argv, expected = CASES[case]
    monkeypatch.chdir(tmp_path)  # the oracle report echoes its input path
    if argv[0] == "oracle":
        assert main(SBM_14) == 0
    for name in expected:
        argv = argv + [FLAGS[name], str(tmp_path / name)]
    assert main(argv) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in expected}
    assert got == expected
