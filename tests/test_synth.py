import tracemalloc

import numpy as np
import pytest

from mesoscale import synth
from mesoscale.model import BlockProbs
from mesoscale.sampler import ChainConfig
from mesoscale.synth import (
    GeneratorSpec,
    SweepSpec,
    generate_sbm,
    run_sweep,
    sweep_table_csv,
)
from reference import triu_generate_sbm


class TestGenerateSbm:
    def test_zero_probabilities_give_empty_graph(self):
        g, truth = generate_sbm(GeneratorSpec(n=12, sizes=(5, 7),
                                              p=BlockProbs(0, 0, 0), seed=1))
        assert g.n == 12
        assert g.m == 0
        assert truth.tolist() == [1] * 5 + [2] * 7

    def test_unit_probabilities_give_complete_graph(self):
        g, _ = generate_sbm(GeneratorSpec(n=10, sizes=(4, 6),
                                          p=BlockProbs(1, 1, 1), seed=1))
        assert g.m == 10 * 9 // 2

    def test_deterministic_under_seed(self):
        spec = GeneratorSpec(n=30, sizes=(12, 18), p=BlockProbs(0.4, 0.1, 0.3),
                             seed=77)
        g1, _ = generate_sbm(spec)
        g2, _ = generate_sbm(spec)
        assert g1.names == g2.names
        assert g1.adjacency == g2.adjacency

    def test_graphs_are_valid(self):
        g, _ = generate_sbm(GeneratorSpec(n=25, sizes=(10, 15),
                                          p=BlockProbs(0.5, 0.2, 0.4), seed=3))
        assert sum(len(a) for a in g.adjacency) == 2 * g.m
        for i in range(g.n):
            assert i not in g.adjacency[i]

    def test_block_density_moments(self):
        """Mean per-block edge counts across replicates sit within three
        binomial standard errors of their expectations."""
        n1, n2 = 40, 60
        p = BlockProbs(0.20, 0.10, 0.10)
        pair_totals = (n1 * (n1 - 1) // 2, n1 * n2, n2 * (n2 - 1) // 2)
        reps = 200
        counts = np.zeros((reps, 3))
        for rep in range(reps):
            g, truth = generate_sbm(GeneratorSpec(n=100, sizes=(n1, n2),
                                                  p=p, seed=1000 + rep))
            in1 = truth == 1
            for i, j in g.edges():
                block = int(in1[i]) + int(in1[j])  # 2 -> 11, 1 -> 12, 0 -> 22
                counts[rep, 2 - block] += 1
        for col, (m, q) in enumerate(zip(pair_totals, p)):
            se = np.sqrt(m * q * (1 - q) / reps)
            assert abs(counts[:, col].mean() - m * q) < 3 * se

    # (n, sizes, p, seed): one node, empty blocks, p in {0, 1}, and a 11
    # block of 311 655 pairs, which the default chunk splits mid-row
    EDGE_CASES = {
        "n-1-in-block-1": (1, (1, 0), (1.0, 1.0, 1.0), 1),
        "n-1-in-block-2": (1, (0, 1), (1.0, 1.0, 1.0), 2),
        "block-1-empty": (7, (0, 7), (0.5, 0.5, 0.5), 3),
        "block-2-empty": (7, (7, 0), (0.5, 0.5, 0.5), 4),
        "p-0-1-0": (9, (4, 5), (0.0, 1.0, 0.0), 5),
        "p-1-0-1": (9, (4, 5), (1.0, 0.0, 1.0), 6),
        "mixed": (15, (6, 9), (0.3, 0.5, 0.7), 7),
        "sizes-790-10": (800, (790, 10), (0.3, 0.2, 0.6), 8),
    }

    @pytest.mark.parametrize("chunk", [1, 5, synth.PAIR_CHUNK])
    @pytest.mark.parametrize("case", EDGE_CASES)
    def test_chunked_draw_matches_one_draw_per_block(self, case, chunk,
                                                     monkeypatch):
        n, sizes, p, seed = self.EDGE_CASES[case]
        spec = GeneratorSpec(n=n, sizes=sizes, p=BlockProbs(*p), seed=seed)
        monkeypatch.setattr(synth, "PAIR_CHUNK", chunk)
        g, _ = generate_sbm(spec)
        ref = triu_generate_sbm(spec)
        assert (g.n, g.m, g.adjacency) == (ref.n, ref.m, ref.adjacency)

    def test_memory_peak_is_bounded_by_the_edges(self):
        """At the coassign-large benchmark's spec (18M node pairs, 41k edges)
        the tracemalloc peak stays below 20 MB; drawing each block's
        uniforms at once peaked at 55 MB."""
        spec = GeneratorSpec(n=3000, sizes=(1200, 1800),
                             p=BlockProbs(0.02, 0.005, 0.01), seed=4)
        tracemalloc.start()
        try:
            generate_sbm(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    def test_size_validation(self):
        with pytest.raises(ValueError, match="at least 1"):
            GeneratorSpec(n=0, sizes=(0, 0), p=BlockProbs(0.1, 0.1, 0.1))
        with pytest.raises(ValueError, match="sum to --n"):
            GeneratorSpec(n=10, sizes=(4, 5), p=BlockProbs(0.1, 0.1, 0.1))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            GeneratorSpec(n=10, sizes=(4, 6), p=BlockProbs(1.2, 0.1, 0.1))


@pytest.fixture(scope="module")
def tiny_rows():
    spec = SweepSpec(
        n=40, sizes=(16, 24), p11=0.5, p22=0.2,
        p12_grid=(0.05, 0.35, 0.8), replicates=3,
        chain=ChainConfig(total_samples=400, burn_in=100, seed=0),
        seed=5,
    )
    return spec, run_sweep(spec)


class TestRunSweep:
    def test_rows_in_grid_order_and_normalized(self, tiny_rows):
        spec, rows = tiny_rows
        assert [r.p12 for r in rows] == list(spec.p12_grid)
        for r in rows:
            total = r.mean_assortative + r.mean_cp + r.mean_disassortative
            assert total == pytest.approx(1.0, abs=1e-12)
            assert r.replicates == 3
            assert len(r.replicate_probs) == 3

    def test_clear_settings_get_confident_verdicts(self, tiny_rows):
        _, rows = tiny_rows
        # p12 far below both within-block densities: assortative
        assert rows[0].mean_assortative > 0.8
        # p12 between the two: core-periphery
        assert rows[1].mean_cp > 0.8
        # p12 far above: disassortative
        assert rows[2].mean_disassortative > 0.8

    def test_deterministic(self, tiny_rows):
        spec, rows = tiny_rows
        again = run_sweep(spec)
        assert again == rows
        assert sweep_table_csv(again) == sweep_table_csv(rows)

    def test_csv_shape(self, tiny_rows):
        _, rows = tiny_rows
        lines = sweep_table_csv(rows).strip().splitlines()
        assert lines[0].startswith("p12,mean_assortative,se_assortative,mean_cp")
        assert len(lines) == 1 + len(rows)
        assert all(len(line.split(",")) == 8 for line in lines[1:])

    def test_spec_validation(self):
        chain = ChainConfig(total_samples=100, burn_in=10)
        with pytest.raises(ValueError, match="nonempty"):
            SweepSpec(n=10, sizes=(5, 5), p11=0.2, p22=0.1, p12_grid=(),
                      replicates=2, chain=chain)
        with pytest.raises(ValueError, match="replicates"):
            SweepSpec(n=10, sizes=(5, 5), p11=0.2, p22=0.1, p12_grid=(0.1,),
                      replicates=0, chain=chain)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SweepSpec(n=10, sizes=(5, 5), p11=0.2, p22=0.1, p12_grid=(0.1, 1.5),
                      replicates=2, chain=chain)
        with pytest.raises(ValueError, match="sum to --n"):
            SweepSpec(n=10, sizes=(4, 5), p11=0.2, p22=0.1, p12_grid=(0.1,),
                      replicates=2, chain=chain)
