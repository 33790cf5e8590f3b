import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import beta as beta_dist

from mesoscale.graph import Graph
from mesoscale.model import (
    BlockCounts,
    BlockProbs,
    Hyperparameters,
    block_counts,
    group1_degrees,
    log_marginal_likelihood,
)
from mesoscale.sampler import ChainConfig, ChainState, label_sweep
from mesoscale.synth import GeneratorSpec, SweepSpec, generate_sbm
from reference import log_likelihood, log_prior_labels


def labels(*entries):
    return np.array(entries, dtype=np.int64)


class TestBlockCounts:
    def test_hand_enumerated_four_nodes(self):
        # pairs: (0,1) in-1, (0,2) cross, (0,3) cross, (1,2) cross,
        # (1,3) cross, (2,3) in-2; edges (0,1), (0,2), (2,3)
        g = Graph.from_edges([(0, 1), (0, 2), (2, 3)])
        c = labels(1, 1, 2, 2)
        counts = block_counts(g, c)
        assert counts == BlockCounts(M11=1, M12=1, M22=1,
                                     m11=1, m12=4, m22=1, n1=2, n2=2)

    def test_empty_graph(self):
        g = Graph.from_edges([], n=5)
        counts = block_counts(g, labels(1, 1, 2, 2, 2))
        assert (counts.M11, counts.M12, counts.M22) == (0, 0, 0)
        assert (counts.m11, counts.m12, counts.m22) == (1, 6, 3)

    def test_complete_graph_single_block(self):
        g = Graph.from_edges([(i, j) for i in range(4) for j in range(i + 1, 4)])
        counts = block_counts(g, labels(1, 1, 1, 1))
        assert counts.M11 == counts.m11 == 6
        assert counts.n2 == 0
        assert counts.m12 == counts.m22 == 0

    def test_length_mismatch(self):
        g = Graph.from_edges([(0, 1)])
        with pytest.raises(ValueError, match="length"):
            block_counts(g, labels(1, 2, 1))

    @given(st.data())
    @settings(max_examples=100)
    def test_edge_total_and_pair_total(self, data):
        n = data.draw(st.integers(min_value=2, max_value=10))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = data.draw(st.sets(st.sampled_from(pairs)))
        g = Graph.from_edges(sorted(edges), n=n)
        c = labels(*data.draw(st.lists(st.sampled_from((1, 2)),
                                       min_size=n, max_size=n)))
        counts = block_counts(g, c)
        assert counts.M11 + counts.M12 + counts.M22 == g.m
        assert counts.m11 + counts.m12 + counts.m22 == n * (n - 1) // 2
        assert counts.n1 + counts.n2 == n
        assert 0 <= counts.M11 <= counts.m11
        assert 0 <= counts.M12 <= counts.m12
        assert 0 <= counts.M22 <= counts.m22

    @given(st.data())
    @settings(max_examples=60)
    def test_group1_degrees_and_counts_match_brute_force(self, data):
        n = data.draw(st.integers(min_value=1, max_value=150))
        node = st.integers(min_value=0, max_value=n - 1)
        pairs = data.draw(st.lists(st.tuples(node, node), max_size=3 * n))
        g = Graph.from_edges([(i, j) for i, j in pairs if i != j], n=n)
        for i in range(n):
            assert g.degrees[i] == len(g.adjacency[i])
        drawn = labels(*data.draw(st.lists(st.sampled_from((1, 2)),
                                           min_size=n, max_size=n)))
        for c in (drawn, np.ones(n, dtype=np.int64), np.full(n, 2)):
            brute = [0, 0, 0]
            d1 = [0] * n
            for i, j in g.edges():
                brute[int(c[i] + c[j]) - 2] += 1
                d1[i] += c[j] == 1
                d1[j] += c[i] == 1
            assert group1_degrees(g, (c == 1).tobytes()) == d1
            counts = block_counts(g, c)
            assert [counts.M11, counts.M12, counts.M22] == brute


class TestLogLikelihood:
    def test_all_half_is_total_pairs_times_log_half(self):
        counts = BlockCounts(M11=2, M12=1, M22=0, m11=3, m12=6, m22=1, n1=3, n2=2)
        total_pairs = counts.m11 + counts.m12 + counts.m22
        assert log_likelihood(counts, BlockProbs(0.5, 0.5, 0.5)) == pytest.approx(
            -total_pairs * math.log(2)
        )

    def test_direct_substitution(self):
        counts = BlockCounts(M11=1, M12=1, M22=1, m11=1, m12=4, m22=1, n1=2, n2=2)
        expected = (math.log(0.2) + math.log(0.1) + 3 * math.log(0.9)
                    + math.log(0.3))
        assert log_likelihood(counts, BlockProbs(0.2, 0.1, 0.3)) == pytest.approx(
            expected, rel=1e-12
        )

    def test_impossible_configuration_is_minus_inf(self):
        counts = BlockCounts(M11=0, M12=2, M22=0, m11=0, m12=4, m22=1, n1=1, n2=4)
        assert log_likelihood(counts, BlockProbs(0.5, 0.0, 0.5)) == -math.inf
        # p = 1 with a missing edge is impossible too
        assert log_likelihood(counts, BlockProbs(0.5, 1.0, 0.5)) == -math.inf

    def test_saturated_probabilities_can_be_certain(self):
        counts = BlockCounts(M11=0, M12=4, M22=0, m11=0, m12=4, m22=1, n1=1, n2=4)
        assert log_likelihood(counts, BlockProbs(0.5, 1.0, 0.0)) == pytest.approx(0.0)

    def test_relabel_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n1, n2 = rng.integers(0, 6, size=2)
            m11, m12, m22 = n1 * (n1 - 1) // 2, n1 * n2, n2 * (n2 - 1) // 2
            counts = BlockCounts(
                M11=int(rng.integers(0, m11 + 1)),
                M12=int(rng.integers(0, m12 + 1)),
                M22=int(rng.integers(0, m22 + 1)),
                m11=m11, m12=m12, m22=m22, n1=int(n1), n2=int(n2),
            )
            p = BlockProbs(*rng.random(3))
            swapped = BlockCounts.of(counts.M22, counts.M12, counts.M11,
                                     counts.n2, counts.n1)
            assert log_likelihood(counts, p) == pytest.approx(
                log_likelihood(swapped, BlockProbs(p.p22, p.p12, p.p11)),
                rel=1e-12, abs=1e-12,
            )


def clamp(p):
    """p moved into [smallest subnormal, largest float below 1], as the
    label sweep takes it."""
    return BlockProbs(*(min(max(q, math.ulp(0.0)), math.nextafter(1.0, 0.0))
                        for q in p))


def first_node_draws(g, i, u):
    """One sweep's draws in which node i is visited first, with uniform u;
    every later node gets log u = 0 and so moves only on delta >= 0."""
    order = np.array([i] + [j for j in range(g.n) if j != i])
    log_us = np.array([math.log(u)] + [0.0] * (g.n - 1))
    return iter([(order, log_us)])


def sweep_flips(g, c, p, h, i, u):
    """Whether label_sweep flips node i when i is drawn first with uniform u."""
    state = ChainState.of(g, c, p)
    label_sweep(state, g, h, first_node_draws(g, i, u))
    return state.c[i] != c[i]


MARGIN = 1e-9  # relative gap between u and exp(delta) that rounding may not cross


def assert_flip_delta(g, c, p, h, i, full):
    """The sweep's delta for flipping node i from c equals full: a uniform
    just below exp(full) flips the node, and one just above keeps it. Below
    exp(-700) a tiny uniform must keep it, and full >= 0 must flip it."""
    if full < -700:
        assert not sweep_flips(g, c, p, h, i, 1e-300)
        return
    below = math.exp(min(full, 0.0)) * (1 - MARGIN)
    above = math.exp(min(full, 0.0)) * (1 + MARGIN)
    assert sweep_flips(g, c, p, h, i, below)
    if above < 1.0:
        assert not sweep_flips(g, c, p, h, i, above)


def assert_flip_delta_both_ways(g, c, p, h, i, full):
    """The flip and its reverse, whose delta is -full; together they also
    pin a delta near 0 from both sides."""
    flipped = c.copy()
    flipped[i] = 3 - flipped[i]
    assert_flip_delta(g, c, p, h, i, full)
    assert_flip_delta(g, flipped, p, h, i, -full)


def log_target(g, c, p, h):
    return log_likelihood(block_counts(g, c), p) + log_prior_labels(c, h)


class TestLogLikelihoodDelta:
    def test_two_nodes_no_edges(self):
        g = Graph.from_edges([], n=2)
        h = Hyperparameters.uniform()
        for p in (BlockProbs(0.3, 0.6, 0.2), BlockProbs(0.6, 0.3, 0.2)):
            assert_flip_delta_both_ways(g, labels(1, 2), p, h, 1,
                                        math.log1p(-p.p11) - math.log1p(-p.p12))

    def test_uniform_p_gives_zero_delta(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        h = Hyperparameters.uniform()
        c = labels(1, 2, 1, 2)
        for i in range(4):
            assert_flip_delta_both_ways(g, c, BlockProbs(0.5, 0.5, 0.5), h, i, 0.0)

    def test_matches_full_recompute_randomized(self):
        """Each p_ij is 0, 1 or uniform; the graph is drawn from p with the
        current labels as blocks, so the current state is always possible.
        The sweep's delta is checked against the full log target at the
        clamped p, where every flip has a finite delta."""
        rng = np.random.default_rng(123)
        for seed in range(300):
            p = BlockProbs(*(float(rng.choice([0.0, 1.0, rng.uniform()]))
                             for _ in range(3)))
            n1 = int(rng.integers(0, 13))
            g, c = generate_sbm(GeneratorSpec(n=12, sizes=(n1, 12 - n1), p=p,
                                              seed=seed))
            h = Hyperparameters(a0_11=1, b0_11=1, a0_12=1, b0_12=1, a0_22=1,
                                b0_22=1, pi=float(rng.uniform(0.05, 0.95)))
            i = int(rng.integers(0, 12))
            flipped = c.copy()
            flipped[i] = 3 - flipped[i]
            full = log_target(g, flipped, clamp(p), h) - log_target(g, c, clamp(p), h)
            assert math.isfinite(full)
            assert_flip_delta_both_ways(g, c, p, h, i, full)


class TestLogPriorLabels:
    def test_flat_prior(self):
        h = Hyperparameters.uniform()
        assert log_prior_labels(labels(1, 2, 2, 1), h) == pytest.approx(
            -4 * math.log(2)
        )

    def test_direct_substitution(self):
        h = Hyperparameters(a0_11=1, b0_11=1, a0_12=1, b0_12=1, a0_22=1, b0_22=1,
                            pi=0.9)
        assert log_prior_labels(labels(1, 2, 1), h) == pytest.approx(
            math.log(0.9) + math.log(0.1) + math.log(0.9)
        )

    def test_flip_invariance_at_half(self):
        h = Hyperparameters.uniform()
        c = labels(1, 1, 2, 1, 2)
        flipped = 3 - c
        assert log_prior_labels(c, h) == pytest.approx(log_prior_labels(flipped, h))


def quadrature_marginal(counts, h):
    """Independent oracle: integrate the likelihood against the Beta priors."""
    blocks = (
        (counts.M11, counts.m11, h.a0_11, h.b0_11),
        (counts.M12, counts.m12, h.a0_12, h.b0_12),
        (counts.M22, counts.m22, h.a0_22, h.b0_22),
    )
    total = 0.0
    for M, m, a0, b0 in blocks:
        val, _ = quad(
            lambda p, M=M, m=m, a0=a0, b0=b0:
                p ** M * (1 - p) ** (m - M) * beta_dist.pdf(p, a0, b0),
            0.0, 1.0, epsabs=1e-12, epsrel=1e-12,
        )
        total += math.log(val)
    return total


class TestLogMarginalLikelihood:
    def test_all_zero_counts(self):
        counts = BlockCounts(M11=0, M12=0, M22=0, m11=0, m12=0, m22=0, n1=1, n2=0)
        h = Hyperparameters.uniform()
        assert log_marginal_likelihood(counts, h) == pytest.approx(0.0, abs=1e-12)

    def test_single_pair_single_edge(self):
        counts = BlockCounts(M11=1, M12=0, M22=0, m11=1, m12=0, m22=0, n1=2, n2=0)
        h = Hyperparameters.uniform()
        assert log_marginal_likelihood(counts, h) == pytest.approx(math.log(0.5))

    def test_uniform_prior_closed_form(self):
        counts = BlockCounts(M11=2, M12=3, M22=1, m11=3, m12=8, m22=3, n1=3, n2=4)
        h = Hyperparameters.uniform()
        expected = sum(
            math.log(
                math.factorial(M) * math.factorial(m - M) / math.factorial(m + 1)
            )
            for M, m in ((2, 3), (3, 8), (1, 3))
        )
        assert log_marginal_likelihood(counts, h) == pytest.approx(expected, rel=1e-12)

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            n1, n2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            m11, m12, m22 = n1 * (n1 - 1) // 2, n1 * n2, n2 * (n2 - 1) // 2
            counts = BlockCounts(
                M11=int(rng.integers(0, m11 + 1)),
                M12=int(rng.integers(0, m12 + 1)),
                M22=int(rng.integers(0, m22 + 1)),
                m11=m11, m12=m12, m22=m22, n1=n1, n2=n2,
            )
            a0, b0 = rng.uniform(0.5, 3.0, size=2)
            h = Hyperparameters.uniform(a0=float(a0), b0=float(b0))
            assert log_marginal_likelihood(counts, h) == pytest.approx(
                quadrature_marginal(counts, h), abs=1e-6
            )


class TestHyperparameters:
    def test_rejects_nonpositive_shapes(self):
        for a0 in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                Hyperparameters.uniform(a0=a0)

    def test_rejects_degenerate_pi(self):
        """pi is one number in (0, 1): an array, even of one valid value, is
        refused too."""
        for bad in (0.0, 1.0, math.nan, np.array([0.5, 0.3]), np.array([0.5]), [0.5]):
            with pytest.raises(ValueError, match="strictly"):
                Hyperparameters.uniform(pi=bad)

    def test_swap_symmetry_and_log_odds(self):
        def prior(pi=0.5, **shapes):
            kw = dict(a0_11=1.0, b0_11=1.0, a0_12=1.0, b0_12=1.0,
                      a0_22=1.0, b0_22=1.0, pi=pi)
            kw.update(shapes)
            return Hyperparameters(**kw)

        assert prior().swap_symmetric
        assert prior(a0_12=3.0, b0_12=0.5).swap_symmetric  # p12 maps to itself
        assert prior(a0_11=2.0, a0_22=2.0, b0_11=0.3, b0_22=0.3).swap_symmetric
        assert not prior(pi=0.2).swap_symmetric
        assert not prior(a0_11=2.0).swap_symmetric
        assert not prior(b0_22=2.0).swap_symmetric
        assert not prior(pi=0.7).swap_symmetric
        assert prior(a0_11=2.0).log_odds == 0.0
        assert prior(pi=0.7).log_odds == math.log(0.7) - math.log1p(-0.7)


SHAPES = dict(a0_11=1.0, b0_11=1.0, a0_12=1.0, b0_12=1.0, a0_22=1.0, b0_22=1.0)
VALID = {
    # one retained draw more than the co-assignment tally counts exactly
    ChainConfig: dict(total_samples=2**23 + 11, burn_in=10),
    Hyperparameters: dict(SHAPES, pi=0.5),
    GeneratorSpec: dict(n=10, sizes=(4, 6), p=BlockProbs(0.1, 0.2, 0.3)),
    SweepSpec: dict(n=10, sizes=(4, 6), p11=0.2, p22=0.1, p12_grid=(0.1,),
                    replicates=2, chain=ChainConfig(total_samples=100, burn_in=10)),
}
# one out-of-range value per field that a CLI option sets
BAD = {
    ChainConfig: dict(total_samples=0, burn_in=-1, thin=0, chains=0, coassign=True),
    Hyperparameters: dict({name: 0.0 for name in SHAPES}, pi=1.0),
    GeneratorSpec: dict(n=0, sizes=(4, 7), p=BlockProbs(0.1, 1.5, 0.3)),
    SweepSpec: dict(n=0, p11=math.nan, p22=-0.1, p12_grid=(0.1, 2.0), replicates=0),
}


REFUSALS = [(config, name, value) for config, bad in BAD.items()
            for name, value in bad.items()]


@pytest.mark.parametrize("config, name, value", REFUSALS,
                         ids=[f"{c.__name__}-{name}" for c, name, _ in REFUSALS])
def test_every_config_refusal_names_its_option(config, name, value):
    """Library callers and the CLI get one message: it begins with the option
    that sets the field (for p and the shapes, one of the options named)."""
    option = {f.name: f.metadata.get("option") for f in fields(config)}[name]
    assert option and option.startswith("--")
    with pytest.raises(ValueError) as exc:
        config(**{**VALID[config], name: value})
    assert str(exc.value).split()[0] in option.split()


def test_every_option_field_has_a_bad_case():
    for config in VALID:
        named = {f.name for f in fields(config) if "option" in f.metadata}
        assert named == set(BAD[config]), config
