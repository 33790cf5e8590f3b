import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.special import betainc, logsumexp
from scipy.stats import beta as beta_dist

from mesoscale.graph import Graph
from mesoscale.inference import (
    ENUMERATION_LIMIT,
    _labelling_counts,
    _simpson_weights,
    classify_draws,
    classify_structure,
    coassignment_matrix,
    density_summary,
    exact_structure_posterior,
    group_size_posterior,
    membership_probabilities,
)
from mesoscale.model import (
    BlockProbs,
    Hyperparameters,
    block_counts,
    log_marginal_likelihood,
    log_prior_labels,
)
from mesoscale.sampler import ChainConfig, PosteriorSamples, run_chain
from mesoscale.synth import GeneratorSpec, generate_sbm


def samples_from_draws(draws, n_nodes=4, label_tally=None, size_tally=None,
                       coassign=None):
    draws = np.asarray(draws, dtype=float)
    r = len(draws)
    return PosteriorSamples(
        draws=draws,
        label_tally=np.zeros(n_nodes, dtype=np.int64)
        if label_tally is None else np.asarray(label_tally),
        size_tally=np.zeros(n_nodes + 1, dtype=np.int64)
        if size_tally is None else np.asarray(size_tally),
        swap_acceptance_rate=0.5,
        retained=r,
        chain_sizes=(r,),
        coassign_tally=coassign,
    )


class TestClassifyStructure:
    def test_fixed_cp_ordering(self):
        s = samples_from_draws([(0.3, 0.2, 0.1)] * 10)
        v = classify_structure(s)
        assert v.p_core_periphery == 1.0
        assert v.p_assortative == v.p_disassortative == 0.0

    def test_fixed_assortative(self):
        s = samples_from_draws([(0.3, 0.05, 0.1)] * 10)
        assert classify_structure(s).p_assortative == 1.0

    def test_fixed_disassortative(self):
        s = samples_from_draws([(0.3, 0.5, 0.1)] * 10)
        assert classify_structure(s).p_disassortative == 1.0

    def test_boundary_ties_go_to_core_periphery(self):
        # p12 equal to min or to max of (p11, p22)
        s = samples_from_draws([(0.3, 0.1, 0.1), (0.3, 0.3, 0.1),
                                (0.2, 0.2, 0.2)])
        v = classify_structure(s)
        assert v.p_core_periphery == 1.0

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(0)
        s = samples_from_draws(rng.random((500, 3)))
        v = classify_structure(s)
        assert v.p_assortative + v.p_core_periphery + v.p_disassortative == 1.0

    def test_empty_samples_error(self):
        s = samples_from_draws(np.empty((0, 3)))
        with pytest.raises(ValueError, match="no retained draws"):
            classify_structure(s)

    def test_per_chain_breakdown(self):
        draws = np.array([(0.3, 0.05, 0.1)] * 4 + [(0.3, 0.5, 0.1)] * 4)
        s = samples_from_draws(draws)
        s.chain_sizes = (4, 4)
        v = classify_structure(s)
        assert v.per_chain == ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0))

    @given(st.lists(st.tuples(
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=1),
    ), min_size=1, max_size=50))
    @settings(max_examples=100)
    def test_relabel_invariance_and_totality(self, rows):
        draws = np.array(rows)
        cats = classify_draws(draws)
        swapped = classify_draws(draws[:, [2, 1, 0]])
        assert np.array_equal(cats, swapped)
        assert set(np.unique(cats)) <= {0, 1, 2}


class TestMembership:
    def test_always_group_one(self):
        s = samples_from_draws(np.zeros((8, 3)), n_nodes=3,
                               label_tally=[8, 0, 4])
        probs = membership_probabilities(s)
        assert probs.tolist() == [1.0, 0.0, 0.5]

    def test_mean_membership_matches_group_size_mean(self):
        g, _ = generate_sbm(GeneratorSpec(n=10, sizes=(5, 5),
                                          p=BlockProbs(0.8, 0.2, 0.6), seed=4))
        h = Hyperparameters.uniform(10)
        s = run_chain(g, h, ChainConfig(total_samples=2000, burn_in=500, seed=4))
        probs = membership_probabilities(s)
        sizes = group_size_posterior(s)
        mean_n1 = float(np.arange(11) @ sizes)
        assert probs.mean() * 10 == pytest.approx(mean_n1, rel=1e-12)


class TestCoassignment:
    def test_requires_tally(self):
        s = samples_from_draws(np.zeros((5, 3)))
        with pytest.raises(ValueError, match="--coassign"):
            coassignment_matrix(s)

    def test_matches_recount_from_stored_labels(self, run_recording_labels):
        g, _ = generate_sbm(GeneratorSpec(n=6, sizes=(3, 3),
                                          p=BlockProbs(0.9, 0.1, 0.7), seed=2))
        h = Hyperparameters.uniform(6)
        cfg = ChainConfig(total_samples=1200, burn_in=200, seed=6, coassign=True)
        s, c = run_recording_labels(g, h, cfg)
        mat = coassignment_matrix(s)
        recount = np.mean(c[:, :, None] == c[:, None, :], axis=0)
        assert np.array_equal(mat, recount)
        assert np.allclose(mat, mat.T)
        assert np.all(np.diag(mat) == 1.0)
        assert np.all((0.0 <= mat) & (mat <= 1.0))


class TestGroupSizePosterior:
    def test_point_mass_when_degenerate(self):
        s = samples_from_draws(np.zeros((7, 3)), n_nodes=3,
                               size_tally=[0, 0, 0, 7])
        hist = group_size_posterior(s)
        assert hist.tolist() == [0, 0, 0, 1.0]

    def test_mass_sums_to_one(self):
        g, _ = generate_sbm(GeneratorSpec(n=8, sizes=(4, 4),
                                          p=BlockProbs(0.7, 0.3, 0.5), seed=3))
        h = Hyperparameters.uniform(8)
        s = run_chain(g, h, ChainConfig(total_samples=900, burn_in=100, seed=3))
        assert group_size_posterior(s).sum() == pytest.approx(1.0)

    def test_mean_matches_recount_from_stored_labels(self, run_recording_labels):
        g, _ = generate_sbm(GeneratorSpec(n=7, sizes=(3, 4),
                                          p=BlockProbs(0.8, 0.2, 0.5), seed=9))
        h = Hyperparameters.uniform(7)
        s, c = run_recording_labels(g, h, ChainConfig(total_samples=700,
                                                      burn_in=100, seed=9))
        hist = group_size_posterior(s)
        mean_from_hist = float(np.arange(8) @ hist)
        mean_from_labels = float(np.mean((c == 1).sum(axis=1)))
        assert mean_from_hist == pytest.approx(mean_from_labels, rel=1e-12)


class TestDensitySummary:
    def test_point_mass(self):
        s = samples_from_draws([(0.31, 0.22, 0.13)] * 20)
        d = density_summary(s, bins=10)
        assert d.p11.sd == pytest.approx(0.0, abs=1e-15)
        assert d.p11.mass.sum() == pytest.approx(1.0)
        assert d.p11.mass[3] == 1.0  # 0.31 falls in [0.3, 0.4)
        assert d.p11.q025 == d.p11.median == d.p11.q975 == 0.31

    def test_identifiability_exceedance(self):
        g, _ = generate_sbm(GeneratorSpec(n=9, sizes=(4, 5),
                                          p=BlockProbs(0.8, 0.4, 0.2), seed=5))
        h = Hyperparameters.uniform(9)
        s = run_chain(g, h, ChainConfig(total_samples=2000, burn_in=400, seed=5))
        d = density_summary(s)
        assert d.prob_p11_gt_p22 == 1.0

    def test_quantiles_monotone_and_mass_normalized(self):
        rng = np.random.default_rng(12)
        s = samples_from_draws(rng.beta(2, 5, size=(400, 3)))
        d = density_summary(s, bins=25)
        for comp in (d.p11, d.p12, d.p22):
            assert comp.q025 <= comp.median <= comp.q975
            assert comp.mass.sum() == pytest.approx(1.0)
            assert len(comp.mass) == 25
            assert len(comp.bin_edges) == 26

    def test_bins_validation(self):
        s = samples_from_draws([(0.3, 0.2, 0.1)])
        with pytest.raises(ValueError, match="bins"):
            density_summary(s, bins=1)


def exact_membership_oracle(g, h, quad_points=4097):
    """P(c_i = 1 | A) with group 1 the group with p11 >= p22 in each draw.

    Enumerates label vectors; conditional on labels, P(p11 > p22) is a
    one-dimensional integral of the Beta density of p11 against the CDF
    of p22. When p22 > p11 every node's group is exchanged.
    """
    x = np.linspace(0.0, 1.0, quad_points)
    masks = list(itertools.product((1, 2), repeat=g.n))
    log_w = np.empty(len(masks))
    p11_gt = np.empty(len(masks))
    for k, labels in enumerate(masks):
        c = np.array(labels)
        counts = block_counts(g, c)
        log_w[k] = log_marginal_likelihood(counts, h) + log_prior_labels(c, h)
        a11 = counts.M11 + h.a0_11
        b11 = counts.m11 - counts.M11 + h.b0_11
        a22 = counts.M22 + h.a0_22
        b22 = counts.m22 - counts.M22 + h.b0_22
        f11 = beta_dist.pdf(x, a11, b11)
        f11[~np.isfinite(f11)] = 0.0
        p11_gt[k] = simpson(f11 * betainc(a22, b22, x), x=x)
    w = np.exp(log_w - log_w.max())
    w /= w.sum()
    member = np.zeros(g.n)
    for k, labels in enumerate(masks):
        in1 = np.array(labels) == 1
        member += w[k] * (in1 * p11_gt[k] + (~in1) * (1.0 - p11_gt[k]))
    return member


def loop_structure_oracle(g, h, quad_points=4097):
    """Verdict by one block_counts call per label vector and one Simpson
    quadrature per distinct set of counts: the reference for the array code
    in exact_structure_posterior."""
    x = np.linspace(0.0, 1.0, quad_points)
    log_w = np.empty(2 ** g.n)
    all_counts = []
    for k, labels in enumerate(itertools.product((1, 2), repeat=g.n)):
        c = np.array(labels)
        counts = block_counts(g, c)
        all_counts.append(counts)
        log_w[k] = log_marginal_likelihood(counts, h) + log_prior_labels(c, h)
    w = np.exp(log_w - logsumexp(log_w))
    cache = {}
    pa = pd = 0.0
    for wk, counts in zip(w, all_counts):
        key = (counts.M11, counts.m11, counts.M12,
               counts.m12, counts.M22, counts.m22)
        if key not in cache:
            a11 = counts.M11 + h.a0_11
            b11 = counts.m11 - counts.M11 + h.b0_11
            a12 = counts.M12 + h.a0_12
            b12 = counts.m12 - counts.M12 + h.b0_12
            a22 = counts.M22 + h.a0_22
            b22 = counts.m22 - counts.M22 + h.b0_22
            f12 = beta_dist.pdf(x, a12, b12)
            f12[~np.isfinite(f12)] = 0.0
            cdf11 = betainc(a11, b11, x)
            cdf22 = betainc(a22, b22, x)
            cache[key] = (simpson(f12 * (1.0 - cdf11) * (1.0 - cdf22), x=x),
                          simpson(f12 * cdf11 * cdf22, x=x))
        qa, qd = cache[key]
        pa += wk * qa
        pd += wk * qd
    return pa, 1.0 - pa - pd, pd


@pytest.mark.parametrize("points", [3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 4096, 4097])
def test_simpson_weights_match_scipy(points):
    x = np.linspace(0.0, 1.0, points)
    w = _simpson_weights(points)
    rng = np.random.default_rng(points)
    for y in (rng.random(points), np.sqrt(x), np.ones(points)):
        assert abs(w @ y - simpson(y, x=x)) < 1e-14


@pytest.mark.parametrize("g", [
    Graph.from_edges([], n=5),
    Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)], n=7),
    generate_sbm(GeneratorSpec(n=8, sizes=(3, 5), p=BlockProbs(0.8, 0.3, 0.4),
                               seed=3))[0],
    generate_sbm(GeneratorSpec(n=15, sizes=(6, 9), p=BlockProbs(0.6, 0.2, 0.3),
                               seed=8))[0],
], ids=["empty-5", "isolated-nodes-7", "sbm-8", "sbm-15"])
def test_labelling_counts_match_block_counts(g):
    h = Hyperparameters(a0_11=1, b0_11=1, a0_12=1, b0_12=1, a0_22=1, b0_22=1,
                        pi=np.linspace(0.1, 0.9, g.n))
    n1, M11, M22, log_prior = _labelling_counts(g, h)
    assert len(n1) == len(M11) == len(M22) == len(log_prior) == 2 ** g.n
    for k in range(2 ** g.n):
        c = np.where((k >> np.arange(g.n)) & 1, 1, 2)
        counts = block_counts(g, c)
        assert (n1[k], M11[k], g.m - M11[k] - M22[k], M22[k]) == \
            (counts.n1, counts.M11, counts.M12, counts.M22)
        assert log_prior[k] == pytest.approx(log_prior_labels(c, h), rel=1e-12)


class TestExactStructurePosterior:
    def test_refuses_large_graphs(self):
        n = ENUMERATION_LIMIT + 2
        g = Graph.from_edges([(i, i + 1) for i in range(n - 1)])
        h = Hyperparameters.uniform(n)
        with pytest.raises(ValueError, match=f"n <= {ENUMERATION_LIMIT}"):
            exact_structure_posterior(g, h)

    @pytest.mark.parametrize("points", [3, 4, 257, 4097])
    @pytest.mark.parametrize("h", [
        Hyperparameters.uniform(8),
        Hyperparameters.uniform(8, pi=0.2),
        Hyperparameters(a0_11=1, b0_11=1, a0_12=1, b0_12=1, a0_22=1, b0_22=1,
                        pi=np.linspace(0.15, 0.85, 8)),
        Hyperparameters(a0_11=3, b0_11=1, a0_12=0.5, b0_12=2, a0_22=0.5,
                        b0_22=2, pi=np.full(8, 0.5)),
    ], ids=["pi-0.5", "pi-0.2", "pi-per-node", "asymmetric-shapes"])
    def test_matches_loop_oracle(self, h, points):
        g, _ = generate_sbm(GeneratorSpec(n=7, sizes=(3, 4),
                                          p=BlockProbs(0.7, 0.2, 0.5), seed=21))
        g = Graph.from_edges(list(g.edges()), n=8)  # plus an isolated node
        v = exact_structure_posterior(g, h, quadrature_points=points)
        assert v.as_tuple() == pytest.approx(
            loop_structure_oracle(g, h, points), abs=1e-12)

    def test_refuses_too_few_quadrature_points(self):
        g = Graph.from_edges([(0, 1)])
        h = Hyperparameters.uniform(2)
        for points in (0, 1, 2):
            with pytest.raises(ValueError, match="at least 3"):
                exact_structure_posterior(g, h, quadrature_points=points)

    def test_asymmetric_prior_is_invariant_to_exchanging_groups(self):
        """Enumeration needs no prior symmetry. Exchanging the groups' Beta
        shapes and replacing pi by 1 - pi describes the same prior under
        swapped names, so the verdict must not change."""
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)], n=6)
        pi = np.array([0.2, 0.3, 0.5, 0.6, 0.8, 0.4])
        h = Hyperparameters(a0_11=3, b0_11=1, a0_12=1, b0_12=2,
                            a0_22=0.5, b0_22=2, pi=pi)
        swapped = Hyperparameters(a0_11=0.5, b0_11=2, a0_12=1, b0_12=2,
                                  a0_22=3, b0_22=1, pi=1 - pi)
        v = exact_structure_posterior(g, h, quadrature_points=257)
        assert sum(v.as_tuple()) == pytest.approx(1.0, abs=1e-8)
        assert v.as_tuple() == pytest.approx(
            exact_structure_posterior(g, swapped, quadrature_points=257).as_tuple(),
            abs=1e-10)
        flat = exact_structure_posterior(g, Hyperparameters.uniform(6),
                                         quadrature_points=257)
        assert abs(v.p_assortative - flat.p_assortative) > 0.01

    def test_triangle_probabilities_sum_to_one(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
        h = Hyperparameters.uniform(3)
        v = exact_structure_posterior(g, h)
        assert v.p_assortative + v.p_core_periphery + v.p_disassortative == \
            pytest.approx(1.0, abs=1e-8)
        assert all(0 <= q <= 1 for q in v.as_tuple())

    def test_empty_graph_frozen_values(self):
        """Empty graph, flat priors: within/between roles are NOT exchangeable.

        The cross block observes m12 = n1*n2 non-edges versus n(n-1)/2 split
        between the within blocks, so p12 is pulled lower and assortative mass
        exceeds disassortative. Expected values frozen from this quadrature
        oracle and independently confirmed by 2e6 Monte Carlo draws from the
        generative posterior (agreement within Monte Carlo error).
        """
        g = Graph.from_edges([], n=4)
        h = Hyperparameters.uniform(4)
        v = exact_structure_posterior(g, h)
        assert v.p_assortative == pytest.approx(0.387427, abs=1e-4)
        assert v.p_core_periphery == pytest.approx(0.383041, abs=1e-4)
        assert v.p_disassortative == pytest.approx(0.229532, abs=1e-4)
        assert v.p_assortative + v.p_core_periphery + v.p_disassortative == \
            pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("h", [
        Hyperparameters.uniform(7),
        Hyperparameters.uniform(7, pi=0.2),
        Hyperparameters(a0_11=1, b0_11=1, a0_12=1, b0_12=1, a0_22=1, b0_22=1,
                        pi=np.linspace(0.15, 0.85, 7)),
        Hyperparameters(a0_11=3, b0_11=1, a0_12=1, b0_12=2, a0_22=0.5, b0_22=2,
                        pi=np.full(7, 0.5)),
    ], ids=["pi-0.5", "pi-0.2", "pi-per-node", "asymmetric-shapes"])
    def test_matches_mcmc_on_random_graph(self, h):
        g, _ = generate_sbm(GeneratorSpec(n=7, sizes=(3, 4),
                                          p=BlockProbs(0.7, 0.2, 0.5), seed=21))
        exact = exact_structure_posterior(g, h)
        s = run_chain(g, h, ChainConfig(total_samples=30000, burn_in=3000,
                                        seed=21))
        mcmc = classify_structure(s)
        tv = 0.5 * sum(abs(a - b)
                       for a, b in zip(exact.as_tuple(), mcmc.as_tuple()))
        assert tv < 0.03

    @pytest.mark.parametrize("pi", [0.5, 0.2])
    def test_matches_mcmc_on_larger_random_graph(self, pi):
        """16 nodes with spread verdicts: (0.73, 0.23, 0.04) at pi 0.5 and
        (0.58, 0.30, 0.12) at pi 0.2, so the chain must move between modes."""
        g, _ = generate_sbm(GeneratorSpec(n=16, sizes=(7, 9),
                                          p=BlockProbs(0.7, 0.4, 0.2), seed=21))
        h = Hyperparameters.uniform(16, pi=pi)
        exact = exact_structure_posterior(g, h)
        s = run_chain(g, h, ChainConfig(total_samples=30000, burn_in=3000,
                                        seed=21))
        mcmc = classify_structure(s)
        tv = 0.5 * sum(abs(a - b)
                       for a, b in zip(exact.as_tuple(), mcmc.as_tuple()))
        assert tv < 0.03

    def test_membership_matches_exact_oracle(self):
        g, _ = generate_sbm(GeneratorSpec(n=6, sizes=(3, 3),
                                          p=BlockProbs(0.85, 0.25, 0.55), seed=31))
        h = Hyperparameters.uniform(6)
        expected = exact_membership_oracle(g, h)
        s = run_chain(g, h, ChainConfig(total_samples=60000, burn_in=5000,
                                        seed=31))
        observed = membership_probabilities(s)
        assert np.max(np.abs(observed - expected)) < 0.02
