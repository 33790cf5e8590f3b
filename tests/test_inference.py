import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc, logsumexp

from mesoscale import inference
from mesoscale.graph import Graph
from mesoscale.inference import (
    ENUMERATION_LIMIT,
    GRID_CHUNK,
    QUADRATURE_TOLERANCE,
    _CdfFamilies,
    _conditional_orderings,
    _labelling_counts,
    classify_draws,
    classify_structure,
    density_summary,
    exact_structure_posterior,
    group_size_posterior,
    membership_probabilities,
)
from mesoscale.model import (
    BlockCounts,
    BlockProbs,
    Hyperparameters,
    block_counts,
    log_marginal_likelihood,
    posterior_shapes,
)
from mesoscale.sampler import ChainConfig, PosteriorSamples, run_chain
from mesoscale.synth import GeneratorSpec, generate_sbm
from reference import log_prior_labels


def samples_from_draws(draws, n_nodes=4, label_tally=None, size_tally=None):
    draws = np.asarray(draws, dtype=float)
    return PosteriorSamples(
        draws=draws,
        label_tally=np.zeros(n_nodes, dtype=np.int64)
        if label_tally is None else np.asarray(label_tally),
        size_tally=np.zeros(n_nodes + 1, dtype=np.int64)
        if size_tally is None else np.asarray(size_tally),
        retained=len(draws),
        chain_acceptance=(0.5,),
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
        s.chain_acceptance = (0.5, 0.5)  # two chains of 4 draws
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
        h = Hyperparameters.uniform()
        s = run_chain(g, h, ChainConfig(total_samples=2000, burn_in=500, seed=4))
        probs = membership_probabilities(s)
        sizes = group_size_posterior(s)
        mean_n1 = float(np.arange(11) @ sizes)
        assert probs.mean() * 10 == pytest.approx(mean_n1, rel=1e-12)


class TestCoassignment:
    def test_matches_recount_from_stored_labels(self, run_recording_labels):
        """The float32 tally of exact counts, divided in float64 (float32
        division would round), is the share of draws in which each pair
        shares a group."""
        g, _ = generate_sbm(GeneratorSpec(n=6, sizes=(3, 3),
                                          p=BlockProbs(0.9, 0.1, 0.7), seed=2))
        h = Hyperparameters.uniform()
        cfg = ChainConfig(total_samples=1200, burn_in=200, seed=6, coassign=True)
        s, c = run_recording_labels(g, h, cfg)
        mat = np.divide(s.coassign_tally, s.retained, dtype=np.float64)
        recount = np.mean(c[:, :, None] == c[:, None, :], axis=0)
        assert mat.dtype == np.float64
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
        h = Hyperparameters.uniform()
        s = run_chain(g, h, ChainConfig(total_samples=900, burn_in=100, seed=3))
        assert group_size_posterior(s).sum() == pytest.approx(1.0)

    def test_mean_matches_recount_from_stored_labels(self, run_recording_labels):
        g, _ = generate_sbm(GeneratorSpec(n=7, sizes=(3, 4),
                                          p=BlockProbs(0.8, 0.2, 0.5), seed=9))
        h = Hyperparameters.uniform()
        s, c = run_recording_labels(g, h, ChainConfig(total_samples=700,
                                                      burn_in=100, seed=9))
        hist = group_size_posterior(s)
        mean_from_hist = float(np.arange(8) @ hist)
        mean_from_labels = float(np.mean((c == 1).sum(axis=1)))
        assert mean_from_hist == pytest.approx(mean_from_labels, rel=1e-12)


class TestDensitySummary:
    def test_point_mass(self):
        s = samples_from_draws([(0.31, 0.22, 0.13)] * 20)
        p11 = density_summary(s, bins=10)["p11"]
        assert p11["sd"] == pytest.approx(0.0, abs=1e-15)
        assert sum(p11["mass"]) == pytest.approx(1.0)
        assert p11["mass"][3] == 1.0  # 0.31 falls in [0.3, 0.4)
        assert p11["q025"] == p11["median"] == p11["q975"] == 0.31

    def test_identifiability_exceedance(self):
        g, _ = generate_sbm(GeneratorSpec(n=9, sizes=(4, 5),
                                          p=BlockProbs(0.8, 0.4, 0.2), seed=5))
        h = Hyperparameters.uniform()
        s = run_chain(g, h, ChainConfig(total_samples=2000, burn_in=400, seed=5))
        d = density_summary(s)
        assert d["exceedance"]["p11_gt_p22"] == 1.0

    def test_quantiles_monotone_and_mass_normalized(self):
        rng = np.random.default_rng(12)
        s = samples_from_draws(rng.beta(2, 5, size=(400, 3)))
        d = density_summary(s, bins=25)
        assert d["bins"] == 25
        for comp in (d["p11"], d["p12"], d["p22"]):
            assert comp["q025"] <= comp["median"] <= comp["q975"]
            assert sum(comp["mass"]) == pytest.approx(1.0)
            assert len(comp["mass"]) == 25
            assert len(comp["bin_edges"]) == 26

    def test_bins_validation(self):
        s = samples_from_draws([(0.3, 0.2, 0.1)])
        with pytest.raises(ValueError, match="bins"):
            density_summary(s, bins=1)


def oracle_grid(points):
    """The oracle's grid: x = (1 - cos(pi t)) / 2 on evenly spaced t."""
    return (1.0 - np.cos(np.pi * np.linspace(0.0, 1.0, points))) / 2


def exact_membership_oracle(g, h, quad_points=4097):
    """P(c_i = 1 | A) with group 1 the group with p11 >= p22 in each draw.

    Enumerates label vectors; conditional on labels, P(p11 > p22) is the
    Stieltjes sum of F22 dF11 on the oracle's grid, each cell adding its
    rise of F11 times the mean of F22 at its two edges, as in
    loop_structure_oracle. When p22 > p11 every node's group is exchanged.
    """
    x = oracle_grid(quad_points)
    masks = list(itertools.product((1, 2), repeat=g.n))
    log_w = np.empty(len(masks))
    p11_gt = np.empty(len(masks))
    for k, labels in enumerate(masks):
        c = np.array(labels)
        counts = block_counts(g, c)
        log_w[k] = log_marginal_likelihood(counts, h) + log_prior_labels(c, h)
        (a11, b11), _, (a22, b22) = posterior_shapes(counts, h)
        cdf22 = betainc(a22, b22, x)
        p11_gt[k] = np.diff(betainc(a11, b11, x)) @ ((cdf22[:-1] + cdf22[1:]) / 2)
    w = np.exp(log_w - log_w.max())
    w /= w.sum()
    member = np.zeros(g.n)
    for k, labels in enumerate(masks):
        in1 = np.array(labels) == 1
        member += w[k] * (in1 * p11_gt[k] + (~in1) * (1.0 - p11_gt[k]))
    return member


def loop_structure_oracle(g, h, quad_points=4097):
    """Verdict by one block_counts call per label vector and, per distinct set
    of counts, scipy's betainc for all three CDFs on the oracle's grid: the
    reference for the array code in exact_structure_posterior. Each cell adds
    its rise of F12 times the mean of g = (1 - F11)(1 - F22) or F11 F22 at its
    two edges. Also returns the half-width of the edge sums' brackets, sum
    dF12 (dF11 + dF22) / 2, which the oracle's chunked bound must cover."""
    x = oracle_grid(quad_points)
    log_w = np.empty(2 ** g.n)
    all_counts = []
    for k, labels in enumerate(itertools.product((1, 2), repeat=g.n)):
        c = np.array(labels)
        counts = block_counts(g, c)
        all_counts.append(counts)
        log_w[k] = log_marginal_likelihood(counts, h) + log_prior_labels(c, h)
    w = np.exp(log_w - logsumexp(log_w))
    cache = {}
    pa = pd = width = 0.0
    for wk, counts in zip(w, all_counts):
        key = (counts.M11, counts.m11, counts.M12,
               counts.m12, counts.M22, counts.m22)
        if key not in cache:
            cdf11, cdf12, cdf22 = (betainc(a, b, x)
                                   for a, b in posterior_shapes(counts, h))
            rise = np.diff(cdf12)
            cache[key] = tuple(rise @ ((below[:-1] + below[1:]) / 2)
                               for below in ((1.0 - cdf11) * (1.0 - cdf22),
                                             cdf11 * cdf22))
            cache[key] += (rise @ (np.diff(cdf11) + np.diff(cdf22)) / 2,)
        qa, qd, half_width = cache[key]
        pa += wk * qa
        pd += wk * qd
        width += wk * half_width
    return (pa, 1.0 - pa - pd, pd), width


@pytest.mark.parametrize("points", [3, 4, 65, 4097])
@pytest.mark.parametrize("a0, b0", [(1, 1), (0.2, 0.2), (0.5, 2), (3.7, 0.3),
                                    (2, 0.5)])
def test_cdf_families_match_betainc(a0, b0, points):
    """Every row, endpoints included, for within-group blocks of 0 to
    ENUMERATION_LIMIT nodes and cross-group blocks of n1 (ENUMERATION_LIMIT -
    n1) pairs, over the full and a partial range of edge counts, tabulated
    chunk by chunk as the oracle does."""
    n = ENUMERATION_LIMIT
    m = np.unique([k * (k - 1) // 2 for k in range(n + 1)] +
                  [k * (n - k) for k in range(n + 1)])
    x = oracle_grid(points)
    with np.errstate(divide="ignore"):
        logx, log1mx = np.log(x), np.log1p(-x)
    for lo, hi in ((0 * m, m), (m // 3, 2 * m // 3)):
        M = np.concatenate([np.arange(a, b + 1) for a, b in zip(lo, hi)])
        block_m = np.repeat(m, hi - lo + 1)
        families = _CdfFamilies(a0, b0, block_m, M)
        table = np.concatenate(
            [families.table(x[c], logx[c], log1mx[c])
             for c in (slice(s, s + GRID_CHUNK) for s in range(0, points, GRID_CHUNK))],
            axis=1)
        expected = betainc(M[:, None] + a0, block_m[:, None] - M[:, None] + b0, x)
        assert np.abs(table[families.rows] - expected).max() < 1e-12


@pytest.mark.parametrize("g", [
    Graph.from_edges([], n=5),
    Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)], n=7),
    generate_sbm(GeneratorSpec(n=8, sizes=(3, 5), p=BlockProbs(0.8, 0.3, 0.4),
                               seed=3))[0],
    generate_sbm(GeneratorSpec(n=15, sizes=(6, 9), p=BlockProbs(0.6, 0.2, 0.3),
                               seed=8))[0],
], ids=["empty-5", "isolated-nodes-7", "sbm-8", "sbm-15"])
def test_labelling_counts_match_block_counts(g):
    """Each labelling's key (n1, M11, M22) matches its block counts, and its
    label prior is the oracle's per-key term n1 * log_odds plus a constant."""
    h = Hyperparameters.uniform(pi=0.3)
    n1, M11, M22 = _labelling_counts(g)
    assert len(n1) == len(M11) == len(M22) == 2 ** g.n
    for k in range(2 ** g.n):
        c = np.where((k >> np.arange(g.n)) & 1, 1, 2)
        counts = block_counts(g, c)
        assert (n1[k], M11[k], g.m - M11[k] - M22[k], M22[k]) == \
            (counts.n1, counts.M11, counts.M12, counts.M22)
        assert n1[k] * h.log_odds + g.n * np.log1p(-h.pi) == \
            pytest.approx(log_prior_labels(c, h), rel=1e-12)


# the loop reference's case: a 7-node SBM plus an isolated node
LOOP_GRAPH = Graph.from_edges(list(generate_sbm(GeneratorSpec(
    n=7, sizes=(3, 4), p=BlockProbs(0.7, 0.2, 0.5), seed=21))[0].edges()), n=8)
LOOP_PRIORS = [
    Hyperparameters.uniform(),
    Hyperparameters.uniform(pi=0.2),
    Hyperparameters.uniform(pi=0.7),
    Hyperparameters(a0_11=3, b0_11=1, a0_12=0.5, b0_12=2, a0_22=0.5, b0_22=2,
                    pi=0.5),
]
LOOP_PRIOR_IDS = ["pi-0.5", "pi-0.2", "pi-0.7", "asymmetric-shapes"]


def key_counts(g):
    """The block counts of the oracle's keys (n1, M11, M22) on g."""
    n1, M11, M22 = np.unique(np.stack(_labelling_counts(g)).astype(np.int64), axis=1)
    return BlockCounts.of(M11, g.m - M11 - M22, M22, n1, g.n - n1)


def integrated_rows(monkeypatch):
    """The row count of every per-row sum np.einsum takes from here on."""
    rows = []
    einsum = np.einsum

    def spy(subscripts, *operands, **kwargs):
        rows.append(len(operands[0]))
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    return rows


ORBIT_GRAPH = generate_sbm(GeneratorSpec(n=14, sizes=(6, 8), p=BlockProbs(0.7, 0.3, 0.2),
                                         seed=13))[0]


@pytest.mark.parametrize("h", [
    Hyperparameters.uniform(),
    Hyperparameters(a0_11=2, b0_11=0.5, a0_12=1, b0_12=3, a0_22=2, b0_22=0.5, pi=0.3),
], ids=["uniform", "equal-within-shapes"])
def test_each_exchange_orbit_is_integrated_once(h, monkeypatch):
    """With equal 11 and 22 shapes, key (n1, M11, M22) and its image under the
    group exchange, (n - n1, M22, M11), are integrated as one orbit: the
    quadrature's sums run over (keys + keys that are their own image) / 2
    rows, and a key and its image get bit-identical results."""
    counts = key_counts(ORBIT_GRAPH)
    keys = list(zip(counts.n1.tolist(), counts.M11.tolist(), counts.M22.tolist()))
    index = {key: i for i, key in enumerate(keys)}
    image = np.array([index[ORBIT_GRAPH.n - n1, M22, M11] for n1, M11, M22 in keys])
    own = np.count_nonzero(image == np.arange(len(keys)))
    rows = integrated_rows(monkeypatch)
    results = _conditional_orderings(counts, h, 4097)
    assert set(rows) == {(len(keys) + own) // 2}
    for q in results:
        assert np.array_equal(q, q[image])


def test_unequal_within_shapes_fold_no_keys(monkeypatch):
    """With unequal 11 and 22 shapes a key and its image have different
    within-group CDFs, so every key is integrated on its own."""
    counts = key_counts(ORBIT_GRAPH)
    rows = integrated_rows(monkeypatch)
    _conditional_orderings(counts, LOOP_PRIORS[3], 4097)
    assert set(rows) == {len(counts.M11)}


def test_oracle_memory_does_not_grow_past_the_grid():
    """Nothing but the float64 grid and one temporary, the 16 bytes a point
    that require_quadrature charges, grows with the grid: from 4097 to
    262145 points the traced peak grows by less than 32 bytes a point."""
    g = generate_sbm(GeneratorSpec(n=10, sizes=(4, 6), p=BlockProbs(0.7, 0.3, 0.2),
                                   seed=13))[0]
    h = Hyperparameters.uniform()
    exact_structure_posterior(g, h)  # imports and caches outside the trace
    grids, peaks = (4097, 2**18 + 1), []
    for points in grids:
        tracemalloc.start()
        try:
            exact_structure_posterior(g, h, quadrature_points=points)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 32 * (grids[1] - grids[0])


class TestExactStructurePosterior:
    def test_refuses_large_graphs(self):
        n = ENUMERATION_LIMIT + 2
        g = Graph.from_edges([(i, i + 1) for i in range(n - 1)])
        h = Hyperparameters.uniform()
        with pytest.raises(ValueError, match=f"n <= {ENUMERATION_LIMIT}"):
            exact_structure_posterior(g, h)

    @pytest.mark.parametrize("points", [3, 4, 257, 1025, 4097])
    @pytest.mark.parametrize("h", LOOP_PRIORS, ids=LOOP_PRIOR_IDS)
    def test_matches_loop_oracle(self, h, points, monkeypatch):
        """The array code against the loop reference, on grids from one chunk
        of 3 points to 65 chunks, and its chunked error bound against the
        brackets' exact width. Grids of 3, 4 and 257 points are refused for
        their bound (test_coarse_grid_is_refused), so the refusal is lifted
        here, where only the arithmetic is checked."""
        monkeypatch.setattr(inference, "QUADRATURE_TOLERANCE", np.inf)
        v, error = exact_structure_posterior(LOOP_GRAPH, h, quadrature_points=points)
        expected, width = loop_structure_oracle(LOOP_GRAPH, h, points)
        assert v.as_tuple() == pytest.approx(expected, abs=1e-12)
        assert 0 < width <= error

    @pytest.mark.parametrize("points", [3, 4])
    @pytest.mark.parametrize("h", LOOP_PRIORS, ids=LOOP_PRIOR_IDS)
    def test_coarse_grid_is_refused(self, h, points):
        """A grid of 3 or 4 points bounds the error by 0.77 to 0.95."""
        with pytest.raises(ArithmeticError, match="raise --quad-points"):
            exact_structure_posterior(LOOP_GRAPH, h, quadrature_points=points)

    @pytest.mark.parametrize("shapes", [
        (1e6, 1),  # a spike at 1 - 1e-6, narrower than the grid's cells
        (1e300, 1e300),  # three spikes at 1/2, all in the same two cells
        (0.01, 0.01),  # 79% of p12's prior mass lies within 1e-10 of 0 or 1
    ])
    def test_impossible_verdict_raises(self, shapes):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ArithmeticError, match="quadrature error bound"):
            exact_structure_posterior(g, Hyperparameters.uniform(*shapes))

    @pytest.mark.parametrize("g, h", [
        (Graph.from_edges([(0, 1), (1, 2), (0, 2)]), Hyperparameters.uniform(0.2, 0.2)),
        (generate_sbm(GeneratorSpec(n=12, sizes=(5, 7), p=BlockProbs(0.7, 0.3, 0.2),
                                    seed=13))[0], Hyperparameters.uniform(0.2, 0.2)),
        (Graph.from_edges([(0, 1), (1, 2), (2, 3)]), Hyperparameters.uniform(0.05, 0.05)),
        (LOOP_GRAPH, LOOP_PRIORS[3]),
    ], ids=["triangle-a0-0.2", "sbm-12-a0-0.2", "path-4-a0-0.05", "asymmetric-shapes"])
    def test_quadrature_error_bounds_the_change_on_a_finer_grid(self, g, h):
        """Each grid's verdict lies within its bound of the true one, so the
        verdicts on 4097 and 65537 points differ by at most both bounds."""
        coarse, coarse_error = exact_structure_posterior(g, h)
        fine, fine_error = exact_structure_posterior(g, h, quadrature_points=2**16 + 1)
        assert fine_error < coarse_error < QUADRATURE_TOLERANCE
        assert np.abs(np.subtract(coarse.as_tuple(), fine.as_tuple())).max() \
            <= coarse_error + fine_error

    def test_self_complementary_path_is_symmetric(self):
        """The 4-path is its own complement, and a0 = b0 makes the prior
        symmetric under p -> 1 - p, so assortative and disassortative are
        equally likely. The grid is symmetric about 1/2, so the oracle keeps
        that at shapes as small as 0.05."""
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        v, _ = exact_structure_posterior(g, Hyperparameters.uniform(0.05, 0.05))
        assert v.p_assortative == pytest.approx(v.p_disassortative, abs=1e-12)

    def test_triangle_at_small_shapes_matches_direct_monte_carlo(self):
        """At a0 = b0 = 0.2 p12's posterior shape is below 1 for the
        labellings with no cross-group pair, so its density is unbounded at
        the ends. The oracle lies within its quadrature error plus 4 standard
        errors of 2e6 direct draws from the posterior: a labelling by its
        weight, then p11, p12 and p22 from their Beta posteriors."""
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
        h = Hyperparameters.uniform(0.2, 0.2)
        v, error = exact_structure_posterior(g, h)
        labellings = [np.array(c) for c in itertools.product((1, 2), repeat=g.n)]
        counts = [block_counts(g, c) for c in labellings]
        log_w = np.array([log_marginal_likelihood(k, h) + log_prior_labels(c, h)
                          for k, c in zip(counts, labellings)])
        draws = 2_000_000
        rng = np.random.default_rng(20261019)
        tally = np.zeros(3)
        for k, size in zip(counts, rng.multinomial(draws, np.exp(log_w - logsumexp(log_w)))):
            p = np.stack([rng.beta(a, b, size) for a, b in posterior_shapes(k, h)], axis=1)
            tally += np.bincount(classify_draws(p), minlength=3)
        mc = tally / draws
        se = np.sqrt(mc * (1.0 - mc) / draws)
        assert error < 5e-3
        assert np.all(np.abs(np.array(v.as_tuple()) - mc) <= error + 4 * se)
        assert v.as_tuple() == pytest.approx((0.263, 0.377, 0.360), abs=1e-3)

    def test_refuses_too_few_quadrature_points(self):
        g = Graph.from_edges([(0, 1)])
        h = Hyperparameters.uniform()
        for points in (0, 1, 2):
            with pytest.raises(ValueError, match="at least 3"):
                exact_structure_posterior(g, h, quadrature_points=points)

    def test_asymmetric_prior_is_invariant_to_exchanging_groups(self):
        """Enumeration needs no prior symmetry. Exchanging the groups' Beta
        shapes and replacing pi by 1 - pi describes the same prior under
        swapped names, so the verdict must not change."""
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)], n=6)
        pi = 0.3
        h = Hyperparameters(a0_11=3, b0_11=1, a0_12=1, b0_12=2,
                            a0_22=0.5, b0_22=2, pi=pi)
        swapped = Hyperparameters(a0_11=0.5, b0_11=2, a0_12=1, b0_12=2,
                                  a0_22=3, b0_22=1, pi=1 - pi)
        v, _ = exact_structure_posterior(g, h, quadrature_points=1025)
        assert sum(v.as_tuple()) == pytest.approx(1.0, abs=1e-8)
        assert v.as_tuple() == pytest.approx(
            exact_structure_posterior(g, swapped, quadrature_points=1025)[0].as_tuple(),
            abs=1e-10)
        flat, _ = exact_structure_posterior(g, Hyperparameters.uniform(),
                                            quadrature_points=1025)
        assert abs(v.p_assortative - flat.p_assortative) > 0.01

    def test_triangle_probabilities_sum_to_one(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
        h = Hyperparameters.uniform()
        v, _ = exact_structure_posterior(g, h)
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
        h = Hyperparameters.uniform()
        v, _ = exact_structure_posterior(g, h)
        assert v.p_assortative == pytest.approx(0.387427, abs=1e-4)
        assert v.p_core_periphery == pytest.approx(0.383041, abs=1e-4)
        assert v.p_disassortative == pytest.approx(0.229532, abs=1e-4)
        assert v.p_assortative + v.p_core_periphery + v.p_disassortative == \
            pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("h", [
        Hyperparameters.uniform(),
        Hyperparameters.uniform(pi=0.2),
        Hyperparameters.uniform(pi=0.7),
        Hyperparameters(a0_11=3, b0_11=1, a0_12=1, b0_12=2, a0_22=0.5, b0_22=2,
                        pi=0.5),
    ], ids=["pi-0.5", "pi-0.2", "pi-0.7", "asymmetric-shapes"])
    def test_matches_mcmc_on_random_graph(self, h):
        g, _ = generate_sbm(GeneratorSpec(n=7, sizes=(3, 4),
                                          p=BlockProbs(0.7, 0.2, 0.5), seed=21))
        exact, error = exact_structure_posterior(g, h)
        s = run_chain(g, h, ChainConfig(total_samples=30000, burn_in=3000,
                                        seed=21))
        mcmc = classify_structure(s)
        tv = 0.5 * sum(abs(a - b)
                       for a, b in zip(exact.as_tuple(), mcmc.as_tuple()))
        # the oracle's total variation error is at most its quadrature error
        assert tv < 0.03 + error

    @pytest.mark.parametrize("pi", [0.5, 0.2])
    def test_matches_mcmc_on_larger_random_graph(self, pi):
        """16 nodes with spread verdicts: (0.73, 0.23, 0.04) at pi 0.5 and
        (0.58, 0.30, 0.12) at pi 0.2, so the chain must move between modes."""
        g, _ = generate_sbm(GeneratorSpec(n=16, sizes=(7, 9),
                                          p=BlockProbs(0.7, 0.4, 0.2), seed=21))
        h = Hyperparameters.uniform(pi=pi)
        exact, error = exact_structure_posterior(g, h)
        s = run_chain(g, h, ChainConfig(total_samples=30000, burn_in=3000,
                                        seed=21))
        mcmc = classify_structure(s)
        tv = 0.5 * sum(abs(a - b)
                       for a, b in zip(exact.as_tuple(), mcmc.as_tuple()))
        # the oracle's total variation error is at most its quadrature error
        assert tv < 0.03 + error

    def test_matches_mcmc_on_triangle_at_small_shapes(self):
        """a0_12 = 0.2 < 1. The Simpson rule on p12's density gave a
        core-periphery probability of 0.543 here, for a true 0.377."""
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
        h = Hyperparameters.uniform(0.2, 0.2)
        exact, error = exact_structure_posterior(g, h)
        s = run_chain(g, h, ChainConfig(total_samples=30000, burn_in=3000, seed=21))
        mcmc = classify_structure(s)
        tv = 0.5 * sum(abs(a - b)
                       for a, b in zip(exact.as_tuple(), mcmc.as_tuple()))
        assert tv < 0.03 + error

    def test_membership_matches_exact_oracle(self):
        g, _ = generate_sbm(GeneratorSpec(n=6, sizes=(3, 3),
                                          p=BlockProbs(0.85, 0.25, 0.55), seed=31))
        h = Hyperparameters.uniform()
        expected = exact_membership_oracle(g, h)
        s = run_chain(g, h, ChainConfig(total_samples=60000, burn_in=5000,
                                        seed=31))
        observed = membership_probabilities(s)
        assert np.max(np.abs(observed - expected)) < 0.02

    def test_membership_matches_exact_oracle_below_shape_one(self):
        """b0 = 0.1 < 1, where p11's density is unbounded at 1. Simpson's
        rule on that density, with its infinite endpoint values set to 0,
        put a node's membership 0.18 from this chain's."""
        g, _ = generate_sbm(GeneratorSpec(n=6, sizes=(3, 3),
                                          p=BlockProbs(0.85, 0.25, 0.55), seed=7))
        h = Hyperparameters.uniform(1.0, 0.1)
        expected = exact_membership_oracle(g, h)
        s = run_chain(g, h, ChainConfig(total_samples=60000, burn_in=5000,
                                        seed=31))
        observed = membership_probabilities(s)
        assert np.max(np.abs(observed - expected)) < 0.02
