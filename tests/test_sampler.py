import collections
import dataclasses
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import beta as beta_dist

from mesoscale.cli import main
from mesoscale.graph import Graph, parse_edge_list
from mesoscale.datasets import load_dataset
from mesoscale.model import (
    BlockProbs,
    Hyperparameters,
    block_counts,
)
from mesoscale import sampler
from mesoscale.sampler import (
    DRAW_BYTES,
    ChainConfig,
    ChainState,
    chain_rng,
    chain_states,
    exchange_groups,
    gibbs_update_probs,
    init_chain,
    label_sweep,
    run_chain,
    sweep_draws,
)
from mesoscale.synth import GeneratorSpec, generate_sbm
from reference import (
    NumpyState,
    counts_of,
    log_likelihood,
    log_prior_labels,
    loop_label_sweep,
    numpy_exchange_groups,
    numpy_run_chain,
    probs_of,
    reference_gibbs,
    reference_sweep_draws,
)


def make_state(g, c, p):
    return ChainState.of(g, c, p)


def assert_consistent(state, g):
    """Flags, group-1 neighbour counts and block counts describe the same
    labels; d1 is recounted from the flags over each node's adjacency."""
    c = state.c
    assert set(state.flags) <= {0, 1}
    assert state.d1 == [sum(state.flags[j] for j in nb) for nb in g.adjacency]
    assert counts_of(state) == block_counts(g, c)


def path_graph(n):
    return Graph.from_edges([(i, i + 1) for i in range(n - 1)])


class TestInitChain:
    def test_deterministic_for_same_seed_and_chain(self):
        g = load_dataset("karate")
        h = Hyperparameters.uniform()
        a = init_chain(g, h, chain_rng(42, 3))
        b = init_chain(g, h, chain_rng(42, 3))
        assert np.array_equal(a.c, b.c)
        assert probs_of(a) == probs_of(b)
        assert counts_of(a) == counts_of(b)

    def test_different_chains_differ(self):
        g = load_dataset("karate")
        h = Hyperparameters.uniform()
        a = init_chain(g, h, chain_rng(42, 0))
        b = init_chain(g, h, chain_rng(42, 1))
        assert probs_of(a) != probs_of(b)

    def test_cached_fields_consistent(self):
        g = path_graph(6)
        h = Hyperparameters.uniform()
        state = init_chain(g, h, chain_rng(9, 0))
        assert_consistent(state, g)

    def test_starts_are_draws_from_the_prior(self):
        """2000 starts on karate, chain_rng(7, i) for i < 2000, at pi = 0.2
        and Beta(2, 5) on every block: the mean group-1 fraction and the mean
        p11 lie within 4 standard errors of their prior means 0.2 and 2/7."""
        g = load_dataset("karate")
        h = Hyperparameters.uniform(a0=2.0, b0=5.0, pi=0.2)
        starts = [init_chain(g, h, chain_rng(7, i)) for i in range(2000)]
        fraction = np.array([state.n1 / g.n for state in starts])
        p11 = np.array([state.p11 for state in starts])
        for x, mean, var in ((fraction, 0.2, 0.2 * 0.8 / g.n),
                             (p11, 2 / 7, 2 * 5 / (7**2 * 8))):
            assert abs(x.mean() - mean) <= 4 * math.sqrt(var / len(x))


class TestChainState:
    def test_labels_round_trip(self):
        c = np.array([1, 2, 2, 1, 1, 2, 1])
        state = make_state(path_graph(7), c, BlockProbs(0.5, 0.5, 0.5))
        assert state.flags == bytearray([1, 0, 0, 1, 1, 0, 1])
        assert state.d1 == [0, 1, 1, 1, 1, 2, 0]
        assert state.c.dtype == np.int64
        assert np.array_equal(state.c, c)

    def test_labels_are_a_copy(self):
        state = make_state(path_graph(3), np.array([1, 2, 1]),
                           BlockProbs(0.5, 0.5, 0.5))
        state.c[0] = 2
        assert np.array_equal(state.c, [1, 2, 1])


@pytest.mark.parametrize("q", [0.0, 5e-324, 0.5, math.nextafter(1.0, 0.0), 1.0])
def test_logs_are_taken_at_the_clamped_q(q):
    """Inside (0, 1) the logs are taken at q itself; at 0 and 1, where
    math.log or math.log1p raises, at the nearest float inside."""
    clamped = min(max(q, sampler.P_FLOOR), sampler.P_CEIL)
    assert sampler._logs(q) == (math.log(clamped), math.log1p(-clamped))


class TestLabelSweep:
    def test_flat_target_accepts_everything(self):
        g = path_graph(8)
        h = Hyperparameters.uniform()
        rng = chain_rng(1, 0)
        state = make_state(g, np.array([1, 2] * 4), BlockProbs(0.5, 0.5, 0.5))
        _, accepted = label_sweep(state, g, h, sweep_draws(rng, g))
        assert accepted == g.n

    def test_counts_stay_consistent_over_many_sweeps(self):
        g = load_dataset("karate")
        h = Hyperparameters.uniform()
        rng = chain_rng(5, 0)
        state = init_chain(g, h, rng)
        sweeps = sweep_draws(rng, g)
        for _ in range(60):
            label_sweep(state, g, h, sweeps)
            gibbs_update_probs(state, h, rng)
            exchange_groups(state, g, h, rng)
            assert_consistent(state, g)

    def test_zero_cross_probability_never_creates_a_cross_edge(self):
        """At p12 = 0 the sweep's cross-block logs come from p12 clamped to
        the smallest positive float, so a flip that would put an edge across
        the groups costs about 744 and is rejected: the two components stay
        apart while the isolated nodes 5 and 6 move."""
        g = Graph.from_edges([(0, 1), (1, 2), (3, 4)], n=7)
        h = Hyperparameters.uniform()
        rng = chain_rng(4, 0)
        state = make_state(g, np.array([1, 1, 1, 2, 2, 1, 2]),
                           BlockProbs(0.6, 0.0, 0.3))
        accepted = 0
        sweeps = sweep_draws(rng, g)
        for _ in range(200):
            _, flips = label_sweep(state, g, h, sweeps)
            accepted += flips
            assert_consistent(state, g)
            assert counts_of(state).M12 == 0
        assert accepted > 0

    @pytest.mark.parametrize("g, p, update_p, prior", [
        (load_dataset("karate"), None, True, None),
        (load_dataset("dolphins"), None, True, None),
        # 200-node SBM plus 30 isolated nodes, whose counts stay 0
        (Graph.from_edges(generate_sbm(GeneratorSpec(
            n=200, sizes=(80, 120), p=BlockProbs(0.08, 0.02, 0.05), seed=17)
        )[0].edges(), n=230), None, True, None),
        (Graph.from_edges([], n=1), None, True, None),
        (Graph.from_edges([(0, 1), (1, 2), (3, 4)], n=7),
         BlockProbs(0.6, 0.0, 0.3), False, None),
        (load_dataset("karate"), BlockProbs(1.0, 0.0, 0.2), False, None),
        # swap-symmetric prior: the log-odds is 0 and the exchange is skipped
        (load_dataset("karate"), None, True, Hyperparameters.uniform(pi=0.5)),
        # positive log-odds, where the default pi of 0.4 gives a negative one
        (load_dataset("dolphins"), None, True, Hyperparameters.uniform(pi=0.7)),
        (load_dataset("karate"), None, True,
         Hyperparameters(a0_11=2.0, b0_11=0.7, a0_12=1.0, b0_12=3.0,
                         a0_22=0.5, b0_22=1.5, pi=0.85)),
        (load_dataset("dolphins"), None, True,
         Hyperparameters(a0_11=3.0, b0_11=1.0, a0_12=0.4, b0_12=2.0,
                         a0_22=1.0, b0_22=0.5, pi=0.3)),
        # unstructured and dense: about half the flips are accepted, and each
        # updates about 30 neighbour counts
        (Graph.from_edges(generate_sbm(GeneratorSpec(
            n=60, sizes=(30, 30), p=BlockProbs(0.5, 0.5, 0.5), seed=5)
        )[0].edges(), n=60), None, True, None),
        # simulate-p12's shape at its p12 = 0.125 point: about 40% of the
        # flips are accepted, so the k terms are checked over 8000 flips
        (Graph.from_edges(generate_sbm(GeneratorSpec(
            n=100, sizes=(40, 60), p=BlockProbs(0.2, 0.125, 0.1), seed=14)
        )[0].edges(), n=100), None, True, None),
    ], ids=["karate", "dolphins", "sbm-200-isolated", "single-node",
            "p12-zero", "karate-p-at-0-and-1", "karate-flat-half",
            "dolphins-pi-0.7", "karate-asymmetric-pi-0.85",
            "dolphins-asymmetric", "dense-60", "sbm-100-p12-0.125"])
    def test_matches_adjacency_loop_state_for_state(self, g, p, update_p, prior):
        h = prior or Hyperparameters.uniform(pi=0.4)
        states, rngs = [], []
        for _ in range(2):
            rng = chain_rng(11, 0)
            state = init_chain(g, h, rng)
            if p is not None:
                state.p11, state.p12, state.p22 = p
            states.append(state)
            rngs.append(rng)
        sweeps = [sweep_draws(rngs[0], g), reference_sweep_draws(rngs[1], g.n)]
        states[1] = NumpyState(c=states[1].c, p=probs_of(states[1]),
                               counts=counts_of(states[1]))
        for _ in range(200):
            _, accepted = label_sweep(states[0], g, h, sweeps[0])
            _, expected = loop_label_sweep(states[1], g, h, sweeps[1])
            assert accepted == expected
            assert np.array_equal(states[0].c, states[1].c)
            assert counts_of(states[0]) == states[1].counts
            if update_p:
                for state, rng, gibbs, exchange in zip(
                        states, rngs, (gibbs_update_probs, reference_gibbs),
                        (exchange_groups, numpy_exchange_groups)):
                    gibbs(state, h, rng)
                    exchange(state, g, h, rng)
                assert probs_of(states[0]) == states[1].p
            assert_consistent(states[0], g)

    def test_single_free_node_visits_both_groups_evenly(self):
        g = Graph.from_edges([], n=1)
        h = Hyperparameters.uniform()
        rng = chain_rng(3, 0)
        state = make_state(g, np.array([1]), BlockProbs(0.4, 0.3, 0.2))
        tally = 0
        sweeps = 20000
        draws = sweep_draws(rng, g)
        for _ in range(sweeps):
            label_sweep(state, g, h, draws)
            tally += state.c[0] == 1
        # flat conditional: three standard errors around one half
        se = 0.5 / math.sqrt(sweeps)
        assert abs(tally / sweeps - 0.5) < 3 * se + 1.0 / sweeps

    def test_flat_target_per_node_frequency_half(self):
        g = path_graph(5)
        h = Hyperparameters.uniform()
        rng = chain_rng(17, 0)
        q = 0.37
        state = make_state(g, np.array([1, 1, 2, 2, 1]), BlockProbs(q, q, q))
        sweeps = 10000
        tally = np.zeros(5)
        draws = sweep_draws(rng, g)
        for _ in range(sweeps):
            label_sweep(state, g, h, draws)
            tally += state.c == 1
        se = 0.5 / math.sqrt(sweeps)
        assert np.all(np.abs(tally / sweeps - 0.5) <= 3 * se + 1.0 / sweeps)

    def test_matches_exact_conditional_on_small_graph(self):
        """Empirical label-vector frequencies at fixed p against enumeration."""
        rng_g = np.random.default_rng(2024)
        n = 7
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [pq for pq in pairs if rng_g.random() < 0.45]
        g = Graph.from_edges(edges, n=n)
        h = Hyperparameters.uniform()
        p = BlockProbs(0.72, 0.35, 0.15)

        log_target = np.empty(2 ** n)
        for mask in range(2 ** n):
            c = np.array([1 if mask >> k & 1 else 2 for k in range(n)])
            log_target[mask] = (log_likelihood(block_counts(g, c), p)
                                + log_prior_labels(c, h))
        target = np.exp(log_target - log_target.max())
        target /= target.sum()

        rng = chain_rng(77, 0)
        state = make_state(g, np.ones(n, dtype=np.int64), p)
        sweeps = 200000
        freq = np.zeros(2 ** n)
        draws = sweep_draws(rng, g)
        for _ in range(sweeps):
            label_sweep(state, g, h, draws)
            # bit k set: node k in group 1
            freq[sum(flag << k for k, flag in enumerate(state.flags))] += 1
        freq /= sweeps
        tv = 0.5 * np.abs(freq - target).sum()
        assert tv < 0.02


def random_graph(n, m, seed):
    """n nodes and up to m random edges, so that degrees vary."""
    pairs = np.random.default_rng(seed).integers(0, n, size=(m, 2)).tolist()
    return Graph.from_edges([(i, j) for i, j in pairs if i != j], n=n)


class TestSweepDraws:
    @pytest.mark.parametrize("n", [1, 7, 62, sampler.SWEEP_BLOCK + 1])
    def test_each_sweep_gets_an_order_and_fresh_log_us(self, n):
        """Across three block boundaries every sweep's order is a permutation
        of range(n), and its n log u are <= 0 and drawn afresh: no value
        repeats in the whole run."""
        g = random_graph(n, 3 * n, seed=n)
        sweeps = 3 * max(1, sampler.SWEEP_BLOCK // n) + 1
        all_log_us = []
        for order, log_us in itertools.islice(
                sweep_draws(chain_rng(9, 0), g), sweeps):
            assert sorted(order.tolist()) == list(range(n))
            assert len(log_us) == n and max(log_us) <= 0.0
            all_log_us += log_us.tolist()
        assert len(all_log_us) == sweeps * n
        assert len(set(all_log_us)) == len(all_log_us)

    def test_the_six_orders_of_three_nodes_are_equally_likely(self):
        """Chi-square over 60000 sweeps (44 blocks) against 1/6 each; 20.52 is
        the 0.999 quantile of chi-square with 5 degrees of freedom."""
        sweeps = 60000
        tally = collections.Counter(
            tuple(order.tolist()) for order, _ in itertools.islice(
                sweep_draws(chain_rng(12, 0), path_graph(3)), sweeps))
        assert len(tally) == 6
        expected = sweeps / 6
        assert sum((c - expected) ** 2 / expected for c in tally.values()) < 20.52


class TestGibbsUpdate:
    def test_empty_block_reproduces_prior(self):
        g = Graph.from_edges([], n=4)
        h = Hyperparameters.uniform()
        rng = chain_rng(8, 0)
        c = np.array([1, 1, 1, 1])  # block 2 and cross pairs empty
        draws = []
        state = make_state(g, c, BlockProbs(0.5, 0.5, 0.5))
        for _ in range(4000):
            gibbs_update_probs(state, h, rng)
            draws.append(state.p12)
        draws = np.asarray(draws)
        # Beta(1,1) = uniform: mean 1/2, var 1/12
        assert abs(draws.mean() - 0.5) < 3 * math.sqrt(1 / 12 / len(draws))
        assert abs(draws.var() - 1 / 12) < 0.01

    def test_complete_block_conjugate_update(self):
        g = Graph.from_edges([(0, 1), (0, 2), (1, 2)], n=3)
        h = Hyperparameters.uniform()
        rng = chain_rng(9, 0)
        state = make_state(g, np.array([1, 1, 1]), BlockProbs(0.5, 0.5, 0.5))
        m11 = 3
        draws = np.array([
            gibbs_update_probs(state, h, rng).p11 for _ in range(4000)
        ])
        expected_mean = (m11 + 1) / (m11 + 2)
        expected_var = expected_mean * (1 - expected_mean) / (m11 + 3)
        assert abs(draws.mean() - expected_mean) < 3 * math.sqrt(
            expected_var / len(draws)
        )

    def test_frozen_labels_on_karate_match_beta_moments(self):
        g = load_dataset("karate")
        h = Hyperparameters.uniform()
        rng = chain_rng(10, 0)
        c = np.where(np.arange(g.n) % 2 == 0, 1, 2)
        counts = block_counts(g, c)
        state = make_state(g, c, BlockProbs(0.5, 0.5, 0.5))
        ndraws = 10000
        draws = np.empty((ndraws, 3))
        for k in range(ndraws):
            gibbs_update_probs(state, h, rng)
            draws[k] = probs_of(state)
        params = (
            (counts.M11 + 1, counts.m11 - counts.M11 + 1),
            (counts.M12 + 1, counts.m12 - counts.M12 + 1),
            (counts.M22 + 1, counts.m22 - counts.M22 + 1),
        )
        for col, (a, b) in enumerate(params):
            mean = a / (a + b)
            var = a * b / ((a + b) ** 2 * (a + b + 1))
            mc_se = math.sqrt(var / ndraws)
            assert abs(draws[:, col].mean() - mean) < 3 * mc_se


class StubRng:
    """Hands out one fixed uniform and counts the draws."""

    def __init__(self, u):
        self.u, self.draws = u, 0

    def random(self):
        self.draws += 1
        return self.u


class TestExchangeGroups:
    G = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)], n=6)
    C = np.array([1, 1, 1, 2, 2, 1])
    H = Hyperparameters(a0_11=3.0, b0_11=1.0, a0_12=1.0, b0_12=2.0,
                        a0_22=0.5, b0_22=2.0, pi=0.3)

    @staticmethod
    def log_prior(c, p, h):
        """Log prior density of (c, p) up to a constant, recomputed in full."""
        return (log_prior_labels(c, h)
                + beta_dist.logpdf(p.p11, h.a0_11, h.b0_11)
                + beta_dist.logpdf(p.p22, h.a0_22, h.b0_22))

    def log_ratio(self, c, p):
        mirror = BlockProbs(p.p22, p.p12, p.p11)
        return (self.log_prior(3 - c, mirror, self.H)
                - self.log_prior(c, p, self.H))

    def exchange(self, c, p, u):
        state = make_state(self.G, c.copy(), p)
        rng = StubRng(u)
        exchange_groups(state, self.G, self.H, rng)
        assert_consistent(state, self.G)
        return state, rng.draws

    def test_accepts_with_the_prior_ratio(self):
        for p in (BlockProbs(0.4, 0.3, 0.6), BlockProbs(0.9, 0.2, 0.1),
                  BlockProbs(0.05, 0.5, 0.7), BlockProbs(0.3, 0.3, 0.8)):
            c, mirror = self.C, BlockProbs(p.p22, p.p12, p.p11)
            full = self.log_ratio(c, p)
            if full > 0.0:  # start from the mirror, whose ratio is below 1
                c, p, mirror, full = 3 - c, mirror, p, -full
            bound = math.exp(full)
            state, draws = self.exchange(c, p, bound * (1 - 1e-9))
            assert draws == 1
            assert np.array_equal(state.c, 3 - c)
            assert probs_of(state) == mirror
            # each node's group-1 neighbours were its group-2 neighbours
            before = make_state(self.G, c, p).d1
            assert state.d1 == [d - d1 for d, d1 in zip(self.G.degrees, before)]
            state, draws = self.exchange(c, p, bound * (1 + 1e-9))
            assert draws == 1
            assert np.array_equal(state.c, c)
            assert probs_of(state) == p
            # the reverse move has ratio 1 / bound > 1: always taken
            state, draws = self.exchange(3 - c, mirror, 1 - 1e-12)
            assert draws == 1
            assert np.array_equal(state.c, c)
            assert probs_of(state) == p

    def test_ratio_beyond_float_range_is_taken(self):
        """exp of a log ratio above 709 overflows; the move is taken."""
        g, c = path_graph(6), np.array([1, 1, 1, 1, 1, 2])
        h = Hyperparameters.uniform(pi=1e-300)  # log ratio 4 * 690.8
        state = make_state(g, c.copy(), BlockProbs(0.2, 0.5, 0.7))
        rng = StubRng(1 - 1e-12)
        exchange_groups(state, g, h, rng)
        assert rng.draws == 1
        assert np.array_equal(state.c, 3 - c)
        assert_consistent(state, g)

    @pytest.mark.parametrize("h,c", [
        (Hyperparameters.uniform(a0=2.0, b0=0.5), [1, 2, 2, 1, 2]),
        # flat pi away from 1/2 and equal group sizes: the label terms cancel
        (Hyperparameters.uniform(pi=0.3), [1, 2, 2, 1]),
        # 34 nodes, where a label term summed node by node rounds to -3.55e-15
        (Hyperparameters.uniform(pi=0.3), [1] * 17 + [2] * 17),
    ], ids=["symmetric-prior", "flat-pi-equal-groups", "flat-pi-34-nodes"])
    def test_ratio_of_one_neither_moves_nor_draws(self, h, c):
        c = np.array(c)
        g, p = path_graph(len(c)), BlockProbs(0.2, 0.5, 0.7)
        state = make_state(g, c.copy(), p)
        rng = StubRng(0.0)
        exchange_groups(state, g, h, rng)
        assert rng.draws == 0
        assert np.array_equal(state.c, c)
        assert probs_of(state) == p
        assert_consistent(state, g)


class ZeroFirstUniform:
    """A chain RNG whose every block of sweep uniforms has an exact 0.0 first
    in each sweep's row; it records the node each sweep visits first."""

    def __init__(self, rng):
        self.rng, self.firsts = rng, []

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def permuted(self, x, axis):
        orders = self.rng.permuted(x, axis=axis)
        self.firsts.extend(orders[:, 0].tolist())
        return orders

    def random(self, size):
        u = self.rng.random(size)
        if u.ndim == 2:  # the sweeps' blocks; init_chain's labels pass unchanged
            u[:, 0] = 0.0
        return u


class TestRunChain:
    def test_uniform_of_zero_is_accepted_without_a_warning(self, monkeypatch):
        """log 0 = -inf in the sweep draws is silenced by sweep_draws'
        errstate, and the proposal it decides, the first in visiting order,
        is accepted. The chain spans three blocks of draws, and u = 0 opens
        every sweep of each, so the errstate covers the log of every block."""
        g = load_dataset("karate")
        h = Hyperparameters.uniform()
        k = sampler.SWEEP_BLOCK // g.n  # sweeps per block
        rngs, flips = [], []

        def zero_first_rng(seed, chain_index):
            rngs.append(ZeroFirstUniform(chain_rng(seed, chain_index)))
            return rngs[-1]

        def recording_sweep(state, g, h, sweeps):
            before = bytes(state.flags)
            result = label_sweep(state, g, h, sweeps)
            flips.append((before, bytes(state.flags)))
            return result

        monkeypatch.setattr(sampler, "chain_rng", zero_first_rng)
        monkeypatch.setattr(sampler, "label_sweep", recording_sweep)
        errors = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            run_chain(g, h, ChainConfig(total_samples=2 * k + 10, burn_in=10, seed=3))
        assert np.geterr() == errors
        (rng,) = rngs
        assert len(flips) == 2 * k + 10
        assert len(rng.firsts) == 3 * k
        assert all(before[i] != after[i]
                   for (before, after), i in zip(flips, rng.firsts))

    def test_retained_counts(self):
        g = path_graph(5)
        h = Hyperparameters.uniform()
        s = run_chain(g, h, ChainConfig(total_samples=1500, burn_in=500, seed=1))
        assert s.retained == 1000
        assert s.draws.shape == (1000, 3)
        s = run_chain(g, h, ChainConfig(total_samples=100, burn_in=10,
                                        thin=7, seed=1))
        assert s.retained == 90 // 7

    def test_deterministic_given_config(self):
        g = load_dataset("karate")
        h = Hyperparameters.uniform()
        cfg = ChainConfig(total_samples=400, burn_in=100, seed=123, chains=2,
                          coassign=True)
        a = run_chain(g, h, cfg)
        b = run_chain(g, h, cfg)
        assert np.array_equal(a.draws, b.draws)
        assert np.array_equal(a.label_tally, b.label_tally)
        assert np.array_equal(a.size_tally, b.size_tally)
        assert np.array_equal(a.coassign_tally, b.coassign_tally)
        assert a.chain_acceptance == b.chain_acceptance

    def test_every_retained_draw_is_identifiable(self):
        g = path_graph(6)
        h = Hyperparameters.uniform()
        s = run_chain(g, h, ChainConfig(total_samples=3000, burn_in=200, seed=7))
        assert np.all(s.draws[:, 0] >= s.draws[:, 2])

    def test_tallies_bounded_by_retained(self):
        g = path_graph(6)
        h = Hyperparameters.uniform()
        cfg = ChainConfig(total_samples=800, burn_in=100, seed=3, coassign=True)
        s = run_chain(g, h, cfg)
        assert np.all(s.label_tally >= 0) and np.all(s.label_tally <= s.retained)
        assert s.size_tally.sum() == s.retained
        assert np.all(s.coassign_tally <= s.retained)
        assert np.all(np.diag(s.coassign_tally) == s.retained)

    def test_pooled_chains_concatenate_in_order(self):
        g = path_graph(6)
        h = Hyperparameters.uniform()
        pooled = run_chain(g, h, ChainConfig(total_samples=300, burn_in=50,
                                             seed=11, chains=3))
        assert pooled.retained == 750 and len(pooled.chain_acceptance) == 3
        first = run_chain(g, h, ChainConfig(total_samples=300, burn_in=50,
                                            seed=11, chains=1))
        assert np.array_equal(pooled.draws[:250], first.draws)

    def test_memory_does_not_grow_with_the_flags_of_each_draw(self, monkeypatch):
        """On a 1000-node graph the tracemalloc peak at 10 R retained draws
        exceeds the peak at R by at most DRAW_BYTES a draw plus 64 KiB: each
        draw's 1000 flag bytes are tallied, not kept. The chain repeats its
        first state, every other draw folded, as sweeps run about 30 times
        slower under tracemalloc."""
        g, _ = generate_sbm(GeneratorSpec(n=1000, sizes=(400, 600),
                                          p=BlockProbs(0.02, 0.005, 0.01), seed=3))
        h = Hyperparameters.uniform()
        state = init_chain(g, h, chain_rng(3, 0))

        def repeated_states(g, h, cfg, chain_index):
            for _ in range(cfg.retained_per_chain):
                state.p11, state.p22 = state.p22, state.p11
                yield state

        monkeypatch.setattr(sampler, "chain_states", repeated_states)
        R, peaks = 300, []
        for retained in (R, 10 * R):
            tracemalloc.start()
            try:
                run_chain(g, h, ChainConfig(total_samples=retained + 1, burn_in=1))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= DRAW_BYTES * 9 * R + 2**16

    def test_config_validation(self):
        with pytest.raises(ValueError, match="burn-in"):
            ChainConfig(total_samples=100, burn_in=200)
        with pytest.raises(ValueError, match="thin"):
            ChainConfig(total_samples=100, burn_in=10, thin=0)
        with pytest.raises(ValueError, match="no draws retained"):
            ChainConfig(total_samples=10, burn_in=5, thin=10)

    def test_coassign_limited_to_the_draws_float32_counts_exactly(self):
        """2**23 retained draws in all chains are accepted with the tally,
        one more is refused; without the tally the count is not limited."""
        at_limit = dict(total_samples=2**22 + 1, burn_in=1, chains=2)
        assert ChainConfig(coassign=True, **at_limit).coassign
        with pytest.raises(ValueError, match=(
                r"^--coassign tallies at most 8388608 retained draws exactly, "
                r"got 8388610 \(--chains times")):
            ChainConfig(coassign=True, **{**at_limit, "total_samples": 2**22 + 2})
        ChainConfig(**{**at_limit, "total_samples": 2**22 + 2})


def karate_prior(a, b, pi):
    """Shapes (a11, a12, a22) and (b11, b12, b22) with prior pi of group 1."""
    return Hyperparameters(a0_11=a[0], b0_11=b[0], a0_12=a[1], b0_12=b[1],
                           a0_22=a[2], b0_22=b[2], pi=pi)


class TestMatchesNumpyStateReference:
    """run_chain against numpy_run_chain: the same chains with the labels in
    a numpy array, the reference's own sweep draws, adjacency-loop sweep and
    Beta draws, an exchange that always computes its ratio, and every draw
    tallied on its own. Cases run on karate unless named for dolphins."""

    CASES = {
        "pi-0.5": (Hyperparameters.uniform(), dict(
            total_samples=300, burn_in=100, seed=1)),
        "pi-0.2": (Hyperparameters.uniform(a0=0.3, pi=0.2), dict(
            total_samples=300, burn_in=100, seed=2, chains=2)),
        "asymmetric-pi-0.7": (karate_prior(
            (3.0, 1.0, 0.5), (1.0, 2.0, 2.0), 0.7),
            dict(total_samples=400, burn_in=100, seed=3, thin=3, chains=2)),
        "thin-3-three-chains": (Hyperparameters.uniform(), dict(
            total_samples=250, burn_in=50, seed=4, thin=3, chains=3)),
        "retained-31": (Hyperparameters.uniform(pi=0.3), dict(
            total_samples=41, burn_in=10, seed=5)),
        "retained-32": (Hyperparameters.uniform(), dict(
            total_samples=42, burn_in=10, seed=6)),
        "retained-33": (Hyperparameters.uniform(pi=0.3), dict(
            total_samples=43, burn_in=10, seed=7)),
        # 66 sweeps a block; 600 iterations span ten blocks
        "dolphins-asymmetric-pi-0.4": (Hyperparameters(
            a0_11=3.0, b0_11=1.0, a0_12=1.0, b0_12=2.0, a0_22=0.5, b0_22=2.0, pi=0.4),
            dict(total_samples=600, burn_in=100, seed=8, thin=2, chains=2)),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_same_draws_and_tallies(self, case):
        g = load_dataset("dolphins" if case.startswith("dolphins") else "karate")
        h, kw = self.CASES[case]
        cfg = ChainConfig(coassign=True, **kw)
        s = run_chain(g, h, cfg)
        ref = numpy_run_chain(g, h, cfg)
        if case.startswith("retained-"):
            assert s.retained == int(case.split("-")[1])
        assert np.array_equal(s.draws, ref["draws"])
        assert np.array_equal(s.label_tally, ref["label_tally"])
        assert np.array_equal(s.size_tally, ref["size_tally"])
        assert np.array_equal(s.coassign_tally, ref["coassign_tally"])
        assert s.chain_acceptance == ref["chain_acceptance"]


class TestChainStates:
    """chain_states against numpy_run_chain's own loop, and against what
    run_chain tallies from it."""

    G = load_dataset("karate")
    # 90 post-burn-in iterations, 12 retained at thin 7: 6 run after the last
    CFG = ChainConfig(total_samples=100, burn_in=10, thin=7, chains=2, seed=11)

    @pytest.mark.parametrize("h", [Hyperparameters.uniform(), karate_prior(
        (3.0, 1.0, 0.5), (1.0, 2.0, 2.0), 0.7)], ids=["uniform", "asymmetric"])
    def test_yields_the_retained_states_run_chain_tallies(self, h):
        g, cfg = self.G, self.CFG
        per_chain = [[(probs_of(state), bytes(state.flags))
                      for state in chain_states(g, h, cfg, chain_index)]
                     for chain_index in range(cfg.chains)]
        assert [len(states) for states in per_chain] == [12, 12]
        ps, flags = zip(*itertools.chain(*per_chain))
        ref = numpy_run_chain(g, h, cfg)
        assert ps == tuple(p for p, _ in ref["states"])
        x = np.frombuffer(b"".join(flags), dtype=np.uint8).reshape(24, g.n)
        assert np.array_equal(x, np.array([c == 1 for _, c in ref["states"]]))
        s = run_chain(g, h, cfg)
        fold = np.array([p.p11 < p.p22 for p in ps])
        assert np.array_equal(s.draws, [p[::-1] if f else p for p, f in zip(ps, fold)])
        x = x ^ fold[:, None]
        assert np.array_equal(s.label_tally, x.sum(axis=0))
        assert np.array_equal(s.size_tally, np.bincount(x.sum(axis=1), minlength=g.n + 1))

    def test_acceptance_counts_the_flips_after_the_last_retained_draw(self):
        g, cfg = self.G, self.CFG
        h = Hyperparameters.uniform()
        ref = numpy_run_chain(g, h, cfg)["chain_acceptance"]
        for chain_index in range(cfg.chains):
            for state in chain_states(g, h, cfg, chain_index):
                at_last_draw = state.flips_after_burn_in
            assert state.flips_after_burn_in > at_last_draw
            assert state.flips_after_burn_in / (g.n * 90) == ref[chain_index]
        assert run_chain(g, h, cfg).chain_acceptance == ref

    @pytest.mark.parametrize("divide", ["warn", "raise"])  # numpy's default, and not
    def test_caller_error_state_is_untouched(self, divide):
        """The sweeps' errstate is held only around a log inside next(), so
        the caller's error state holds between next() calls and after an
        early close()."""
        with np.errstate(divide=divide):
            errors = np.geterr()
            states = chain_states(self.G, Hyperparameters.uniform(), self.CFG, 0)
            assert np.geterr() == errors
            next(states)
            assert np.geterr() == errors
            next(states)
            assert np.geterr() == errors
            states.close()
            assert np.geterr() == errors


class ZeroSomeUniforms:
    """A chain RNG whose sweep uniforms, its only 2-d draws, are exactly 0.0
    in every 29th column of each block: log u = -inf 14 times a sweep at
    n = 400."""

    def __init__(self, rng):
        self.rng = rng

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def random(self, size=None):
        u = self.rng.random(size)
        if np.ndim(u) == 2:
            u[:, ::29] = 0.0
        return u


class TestScreenedSweep:
    """sampler.screened_sweep against the plain loop of label_sweep: every
    proposal the screen skips would have been rejected, so the chains and
    every seeded output are the same. The module constants force one path
    or the other: the screened side screens every sweep after the first."""

    CASES = {
        # exchange_groups moves, and replaces the d1 list, under asymmetric
        # shapes at pi 0.3
        "asymmetric-pi-0.3": (karate_prior((3.0, 1.0, 0.5), (1.0, 2.0, 2.0), 0.3),
                              sampler.SCREEN_DRIFT, False),
        # shapes this small draw block probabilities of exactly 0.0 and 1.0
        "clamped-p": (Hyperparameters.uniform(a0=0.002, b0=0.002, pi=0.05),
                      sampler.SCREEN_DRIFT, False),
        # a fresh screen after every accepted flip
        "drift-0": (Hyperparameters.uniform(pi=0.4), 0, False),
        "u-zero": (Hyperparameters.uniform(), sampler.SCREEN_DRIFT, True),
        # a hub joined to nodes 1-300, max degree 303: d1 may pass 255, the
        # largest budget a node's byte holds
        "hub-degree-303": (Hyperparameters.uniform(), sampler.SCREEN_DRIFT, False),
    }

    @staticmethod
    def force(monkeypatch, g, screened):
        """Route every sweep after a chain's first through screened_sweep, or
        none; returns the list that counts the screened sweeps. Each screened
        sweep's state is checked against a recount."""
        calls = []
        screen = sampler.screened_sweep

        def counting(state, g, *args):
            calls.append(1)
            accepted = screen(state, g, *args)
            assert_consistent(state, g)
            return accepted

        monkeypatch.setattr(sampler, "screened_sweep", counting)
        monkeypatch.setattr(sampler, "SCREEN_MIN_NODES", 0 if screened else g.n + 1)
        monkeypatch.setattr(sampler, "SCREEN_MAX_MARKED", math.inf)
        return calls

    @pytest.mark.parametrize("case", CASES)
    def test_same_posterior_samples(self, case, monkeypatch):
        h, drift, zero_u = self.CASES[case]
        g = random_graph(400, 2000, seed=23)
        if case == "hub-degree-303":
            g = Graph.from_edges([*g.edges(), *((0, j) for j in range(1, 301))])
            assert max(g.degrees) == 303
        cfg = ChainConfig(total_samples=150, burn_in=50, seed=6, chains=2,
                          coassign=True)
        monkeypatch.setattr(sampler, "SCREEN_DRIFT", drift)
        if zero_u:
            monkeypatch.setattr(sampler, "chain_rng",
                                lambda *key: ZeroSomeUniforms(chain_rng(*key)))
        probs = []
        gibbs = sampler.gibbs_update_probs

        def recording_gibbs(state, h, rng):
            state = gibbs(state, h, rng)
            probs.extend(probs_of(state))
            return state

        monkeypatch.setattr(sampler, "gibbs_update_probs", recording_gibbs)
        results = []
        for screened in (False, True):
            calls = self.force(monkeypatch, g, screened)
            results.append(run_chain(g, h, cfg))
            assert len(calls) == (cfg.total_samples - 1) * cfg.chains * screened
        plain, screened = results
        for f in dataclasses.fields(plain):
            assert np.array_equal(getattr(plain, f.name), getattr(screened, f.name)), f.name
        if case == "clamped-p":
            assert {0.0, 1.0} <= set(probs)

    def test_analyze_reports_are_byte_identical(self, tmp_path, monkeypatch):
        g, _ = generate_sbm(GeneratorSpec(n=1000, sizes=(400, 600),
                                          p=BlockProbs(0.03, 0.005, 0.02), seed=8))
        edges, nodes = tmp_path / "sbm.edges", tmp_path / "sbm.nodes"
        edges.write_text(g.to_edge_list())
        nodes.write_text("\n".join(g.names))
        for seed in (1, 2, 3):
            reports = []
            for screened in (False, True):
                calls = self.force(monkeypatch, g, screened)
                out = tmp_path / f"report-{seed}-{screened}.json"
                assert main(["analyze", str(edges), "--nodes", str(nodes),
                             "--samples", "60", "--burn-in", "20",
                             "--seed", str(seed), "--out", str(out)]) == 0
                assert len(calls) == 59 * screened
                reports.append(out.read_bytes())
            assert reports[0] == reports[1]


class TestCoassignTally:
    # (total_samples, burn_in, thin, chains, retained, coassign), tallied in
    # blocks of 32 draws: 300 is not a multiple of the block, 30 is below it,
    # 64 fills it exactly twice, and with 2 or 3 chains a block straddles two
    CONFIGS = [(400, 100, 3, 3, 300, True), (40, 10, 3, 3, 30, True),
               (43, 11, 1, 2, 64, True), (400, 100, 3, 3, 300, False)]

    @pytest.mark.parametrize(
        "total,burn_in,thin,chains,retained,coassign", CONFIGS,
        ids=["400-100-3-3-300", "40-10-3-3-30", "43-11-1-2-64", "without-coassign"])
    def test_matches_recount_from_stored_labels(self, total, burn_in, thin,
                                                chains, retained, coassign,
                                                monkeypatch, run_recording_labels):
        g = load_dataset("karate")
        h = Hyperparameters.uniform()
        monkeypatch.setattr(sampler, "TALLY_BYTES", 32 * g.n)
        s, c = run_recording_labels(g, h, ChainConfig(
            total_samples=total, burn_in=burn_in, thin=thin, chains=chains,
            seed=8, coassign=coassign))
        assert s.retained == retained
        x = c == 1
        assert np.array_equal(s.label_tally, x.sum(axis=0))
        assert np.array_equal(s.size_tally, np.bincount(x.sum(axis=1), minlength=g.n + 1))
        if coassign:
            recount = np.sum(c[:, :, None] == c[:, None, :], axis=0)
            assert np.array_equal(s.coassign_tally, recount)
        else:
            assert s.coassign_tally is None

    def test_matches_int64_recount_in_partial_blocks_and_tiles(self, monkeypatch):
        """Tally blocks of 3 draws and 4-node mirror tiles divide neither the
        100 retained draws nor the 23 nodes; the float32 tally still equals
        the reference's int64 count draw by draw."""
        g, _ = generate_sbm(GeneratorSpec(n=23, sizes=(10, 13),
                                          p=BlockProbs(0.5, 0.1, 0.4), seed=9))
        h = Hyperparameters.uniform()
        cfg = ChainConfig(total_samples=60, burn_in=10, chains=2, seed=9,
                          coassign=True)
        monkeypatch.setattr(sampler, "TALLY_BYTES", 3 * g.n)
        monkeypatch.setattr(sampler, "MIRROR_BLOCK", 4)
        s = run_chain(g, h, cfg)
        ref = numpy_run_chain(g, h, cfg)
        assert s.retained == 100
        assert s.coassign_tally.dtype == np.float32
        assert np.array_equal(s.coassign_tally, ref["coassign_tally"])

    def test_memory_peak_is_the_float32_tally(self):
        """At n = 1000 the tracemalloc peak of a run with the tally stays
        below its 4 n^2 bytes plus 1 MiB: no n x n float64 array or n x n
        temporary is made."""
        n = 1000
        g, _ = generate_sbm(GeneratorSpec(n=n, sizes=(400, 600),
                                          p=BlockProbs(0.02, 0.005, 0.01), seed=3))
        h = Hyperparameters.uniform()
        cfg = ChainConfig(total_samples=60, burn_in=10, seed=3, coassign=True)
        import scipy.linalg.blas  # noqa: F401  loaded before tracing: no import in the peak
        tracemalloc.start()
        try:
            s = run_chain(g, h, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.diag(s.coassign_tally) == s.retained)
        assert peak < 4 * n * n + 2**20

    def test_leaves_other_outputs_unchanged(self):
        g = load_dataset("karate")
        h = Hyperparameters.uniform()
        kw = dict(total_samples=300, burn_in=50, thin=2, chains=2, seed=21)
        with_tally = run_chain(g, h, ChainConfig(coassign=True, **kw))
        without = run_chain(g, h, ChainConfig(**kw))
        assert without.coassign_tally is None
        assert np.array_equal(with_tally.draws, without.draws)
        assert np.array_equal(with_tally.label_tally, without.label_tally)
        assert np.array_equal(with_tally.size_tally, without.size_tally)
        assert with_tally.chain_acceptance == without.chain_acceptance

    def test_refused_before_the_chain_when_memory_is_short(self, monkeypatch):
        g = path_graph(10)
        h = Hyperparameters.uniform()
        monkeypatch.setattr(sampler, "physical_memory", lambda: 4 * 10 * 10 - 1)
        monkeypatch.setattr(sampler, "init_chain", None)  # must not be reached
        with pytest.raises(ValueError, match="needs 1240 bytes"):  # 400 + 20 draws
            run_chain(g, h, ChainConfig(total_samples=20, burn_in=0,
                                        coassign=True))

    def test_guard_skipped_when_memory_is_unknown(self, monkeypatch):
        g = path_graph(10)
        h = Hyperparameters.uniform()
        monkeypatch.setattr(sampler, "physical_memory", lambda: None)
        s = run_chain(g, h, ChainConfig(total_samples=20, burn_in=0,
                                        coassign=True))
        assert np.all(np.diag(s.coassign_tally) == s.retained)


def test_parse_and_run_end_to_end():
    g = parse_edge_list("a b\nb c\nc a\nd e\ne f\nf d\na d")
    h = Hyperparameters.uniform()
    s = run_chain(g, h, ChainConfig(total_samples=500, burn_in=100, seed=2))
    assert s.retained == 400
    assert np.isfinite(s.draws).all()
