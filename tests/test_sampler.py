import math

import numpy as np
import pytest
from scipy.stats import beta as beta_dist

from mesoscale.graph import Graph, node_bits, parse_edge_list
from mesoscale.datasets import load_dataset
from mesoscale.model import (
    BlockProbs,
    Hyperparameters,
    block_counts,
    log_prior_labels,
)
from mesoscale import sampler
from mesoscale.sampler import (
    TALLY_BLOCK,
    ChainConfig,
    ChainState,
    chain_rng,
    exchange_groups,
    gibbs_update_probs,
    init_chain,
    label_sweep,
    run_chain,
)
from mesoscale.synth import GeneratorSpec, generate_sbm
from reference import (
    NumpyState,
    log_likelihood,
    loop_label_sweep,
    numpy_exchange_groups,
    numpy_run_chain,
)


def make_state(g, c, p):
    return ChainState.of(c, p, block_counts(g, c))


def assert_consistent(state, g):
    """Flags, bit set and counts describe the same labels."""
    c = state.c
    assert set(state.flags) <= {0, 1}
    assert state.bits == node_bits(c == 1)
    assert state.counts == block_counts(g, c)


def path_graph(n):
    return Graph.from_edges([(i, i + 1) for i in range(n - 1)])


class TestInitChain:
    def test_deterministic_for_same_seed_and_chain(self):
        g = load_dataset("karate")
        h = Hyperparameters.uniform(g.n)
        cfg = ChainConfig(total_samples=10, burn_in=0, seed=42)
        a = init_chain(g, h, cfg, chain_index=3)
        b = init_chain(g, h, cfg, chain_index=3)
        assert np.array_equal(a.c, b.c)
        assert a.p == b.p
        assert a.counts == b.counts

    def test_different_chains_differ(self):
        g = load_dataset("karate")
        h = Hyperparameters.uniform(g.n)
        cfg = ChainConfig(total_samples=10, burn_in=0, seed=42)
        a = init_chain(g, h, cfg, chain_index=0)
        b = init_chain(g, h, cfg, chain_index=1)
        assert a.p != b.p

    def test_degree_split_puts_hubs_in_group_one(self):
        g = load_dataset("karate")
        h = Hyperparameters.uniform(g.n)
        cfg = ChainConfig(total_samples=10, burn_in=0, seed=0, init="degree_split")
        state = init_chain(g, h, cfg)
        degrees = np.array([len(adj) for adj in g.adjacency])
        median = np.median(degrees)
        assert np.all(state.c[degrees > median] == 1)
        assert np.all(state.c[degrees < median] == 2)
        # ties go to group 1
        assert np.all(state.c[degrees == median] == 1)

    def test_degree_split_tie_rule_two_node_path(self):
        g = path_graph(2)
        h = Hyperparameters.uniform(2)
        cfg = ChainConfig(total_samples=10, burn_in=0, init="degree_split")
        state = init_chain(g, h, cfg)
        assert np.array_equal(state.c, np.array([1, 1]))

    def test_cached_fields_consistent(self):
        g = path_graph(6)
        h = Hyperparameters.uniform(6)
        state = init_chain(g, h, ChainConfig(total_samples=10, burn_in=0, seed=9))
        assert_consistent(state, g)


class TestChainState:
    def test_labels_round_trip(self):
        c = np.array([1, 2, 2, 1, 1, 2, 1])
        state = make_state(path_graph(7), c, BlockProbs(0.5, 0.5, 0.5))
        assert state.flags == bytearray([1, 0, 0, 1, 1, 0, 1])
        assert state.bits == 0b1011001
        assert state.c.dtype == np.int64
        assert np.array_equal(state.c, c)

    def test_labels_are_a_copy(self):
        state = make_state(path_graph(3), np.array([1, 2, 1]),
                           BlockProbs(0.5, 0.5, 0.5))
        state.c[0] = 2
        assert np.array_equal(state.c, [1, 2, 1])


class TestLabelSweep:
    def test_flat_target_accepts_everything(self):
        g = path_graph(8)
        h = Hyperparameters.uniform(8)
        rng = chain_rng(1, 0)
        state = make_state(g, np.array([1, 2] * 4), BlockProbs(0.5, 0.5, 0.5))
        _, accepted = label_sweep(state, g, h, rng)
        assert accepted == g.n

    def test_counts_stay_consistent_over_many_sweeps(self):
        g = load_dataset("karate")
        h = Hyperparameters.uniform(g.n)
        rng = chain_rng(5, 0)
        state = init_chain(g, h, ChainConfig(total_samples=10, burn_in=0, seed=5),
                           rng=rng)
        for _ in range(60):
            label_sweep(state, g, h, rng)
            gibbs_update_probs(state, h, rng)
            exchange_groups(state, h, rng)
            assert_consistent(state, g)

    def test_zero_cross_probability_never_creates_a_cross_edge(self):
        """At p12 = 0 the sweep's cross-block logs come from p12 clamped to
        the smallest positive float, so a flip that would put an edge across
        the groups costs about 744 and is rejected: the two components stay
        apart while the isolated nodes 5 and 6 move."""
        g = Graph.from_edges([(0, 1), (1, 2), (3, 4)], n=7)
        h = Hyperparameters.uniform(7)
        rng = chain_rng(4, 0)
        state = make_state(g, np.array([1, 1, 1, 2, 2, 1, 2]),
                           BlockProbs(0.6, 0.0, 0.3))
        accepted = 0
        for _ in range(200):
            _, flips = label_sweep(state, g, h, rng)
            accepted += flips
            assert_consistent(state, g)
            assert state.counts.M12 == 0
        assert accepted > 0

    @pytest.mark.parametrize("g, p, update_p", [
        (load_dataset("karate"), None, True),
        (load_dataset("dolphins"), None, True),
        # 200-node SBM plus 30 isolated nodes: masks of many digits and zeros
        (Graph.from_edges(generate_sbm(GeneratorSpec(
            n=200, sizes=(80, 120), p=BlockProbs(0.08, 0.02, 0.05), seed=17)
        )[0].edges(), n=230), None, True),
        (Graph.from_edges([], n=1), None, True),
        (Graph.from_edges([(0, 1), (1, 2), (3, 4)], n=7),
         BlockProbs(0.6, 0.0, 0.3), False),
        (load_dataset("karate"), BlockProbs(1.0, 0.0, 0.2), False),
    ], ids=["karate", "dolphins", "sbm-200-isolated", "single-node",
            "p12-zero", "karate-p-at-0-and-1"])
    def test_matches_adjacency_loop_state_for_state(self, g, p, update_p):
        h = Hyperparameters.uniform(g.n, pi=0.4)
        states, rngs = [], []
        for _ in range(2):
            rng = chain_rng(11, 0)
            state = init_chain(g, h, ChainConfig(total_samples=10, burn_in=0,
                                                 seed=11), rng=rng)
            if p is not None:
                state.p = p
            states.append(state)
            rngs.append(rng)
        states[1] = NumpyState(c=states[1].c, p=states[1].p,
                               counts=states[1].counts)
        for _ in range(200):
            _, accepted = label_sweep(states[0], g, h, rngs[0])
            _, expected = loop_label_sweep(states[1], g, h, rngs[1])
            assert accepted == expected
            assert np.array_equal(states[0].c, states[1].c)
            assert states[0].counts == states[1].counts
            if update_p:
                for state, rng, exchange in zip(
                        states, rngs, (exchange_groups, numpy_exchange_groups)):
                    gibbs_update_probs(state, h, rng)
                    exchange(state, h, rng)
                assert states[0].p == states[1].p

    def test_single_free_node_visits_both_groups_evenly(self):
        g = Graph.from_edges([], n=1)
        h = Hyperparameters.uniform(1)
        rng = chain_rng(3, 0)
        state = make_state(g, np.array([1]), BlockProbs(0.4, 0.3, 0.2))
        tally = 0
        sweeps = 20000
        for _ in range(sweeps):
            label_sweep(state, g, h, rng)
            tally += state.c[0] == 1
        # flat conditional: three standard errors around one half
        se = 0.5 / math.sqrt(sweeps)
        assert abs(tally / sweeps - 0.5) < 3 * se + 1.0 / sweeps

    def test_flat_target_per_node_frequency_half(self):
        g = path_graph(5)
        h = Hyperparameters.uniform(5)
        rng = chain_rng(17, 0)
        q = 0.37
        state = make_state(g, np.array([1, 1, 2, 2, 1]), BlockProbs(q, q, q))
        sweeps = 10000
        tally = np.zeros(5)
        for _ in range(sweeps):
            label_sweep(state, g, h, rng)
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
        h = Hyperparameters.uniform(n)
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
        for _ in range(sweeps):
            label_sweep(state, g, h, rng)
            freq[state.bits] += 1  # bit k set: node k in group 1
        freq /= sweeps
        tv = 0.5 * np.abs(freq - target).sum()
        assert tv < 0.02


class TestGibbsUpdate:
    def test_empty_block_reproduces_prior(self):
        g = Graph.from_edges([], n=4)
        h = Hyperparameters.uniform(4)
        rng = chain_rng(8, 0)
        c = np.array([1, 1, 1, 1])  # block 2 and cross pairs empty
        draws = []
        state = make_state(g, c, BlockProbs(0.5, 0.5, 0.5))
        for _ in range(4000):
            gibbs_update_probs(state, h, rng)
            draws.append(state.p.p12)
        draws = np.asarray(draws)
        # Beta(1,1) = uniform: mean 1/2, var 1/12
        assert abs(draws.mean() - 0.5) < 3 * math.sqrt(1 / 12 / len(draws))
        assert abs(draws.var() - 1 / 12) < 0.01

    def test_complete_block_conjugate_update(self):
        g = Graph.from_edges([(0, 1), (0, 2), (1, 2)], n=3)
        h = Hyperparameters.uniform(3)
        rng = chain_rng(9, 0)
        state = make_state(g, np.array([1, 1, 1]), BlockProbs(0.5, 0.5, 0.5))
        m11 = 3
        draws = np.array([
            gibbs_update_probs(state, h, rng).p.p11 for _ in range(4000)
        ])
        expected_mean = (m11 + 1) / (m11 + 2)
        expected_var = expected_mean * (1 - expected_mean) / (m11 + 3)
        assert abs(draws.mean() - expected_mean) < 3 * math.sqrt(
            expected_var / len(draws)
        )

    def test_frozen_labels_on_karate_match_beta_moments(self):
        g = load_dataset("karate")
        h = Hyperparameters.uniform(g.n)
        rng = chain_rng(10, 0)
        c = np.where(np.arange(g.n) % 2 == 0, 1, 2)
        counts = block_counts(g, c)
        state = make_state(g, c, BlockProbs(0.5, 0.5, 0.5))
        ndraws = 10000
        draws = np.empty((ndraws, 3))
        for k in range(ndraws):
            gibbs_update_probs(state, h, rng)
            draws[k] = state.p
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
                        a0_22=0.5, b0_22=2.0,
                        pi=np.array([0.2, 0.3, 0.5, 0.6, 0.8, 0.4]))

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
        exchange_groups(state, self.H, rng)
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
            assert state.p == mirror
            state, draws = self.exchange(c, p, bound * (1 + 1e-9))
            assert draws == 1
            assert np.array_equal(state.c, c)
            assert state.p == p
            # the reverse move has ratio 1 / bound > 1: always taken
            state, draws = self.exchange(3 - c, mirror, 1 - 1e-12)
            assert draws == 1
            assert np.array_equal(state.c, c)
            assert state.p == p

    def test_ratio_beyond_float_range_is_taken(self):
        """exp of a log ratio above 709 overflows; the move is taken."""
        g, c = path_graph(6), np.array([1, 1, 1, 1, 1, 2])
        h = Hyperparameters.uniform(6, pi=1e-300)  # log ratio 4 * 690.8
        state = make_state(g, c.copy(), BlockProbs(0.2, 0.5, 0.7))
        rng = StubRng(1 - 1e-12)
        exchange_groups(state, h, rng)
        assert rng.draws == 1
        assert np.array_equal(state.c, 3 - c)
        assert_consistent(state, g)

    @pytest.mark.parametrize("h,c", [
        (Hyperparameters.uniform(5, a0=2.0, b0=0.5), [1, 2, 2, 1, 2]),
        # flat pi away from 1/2 and equal group sizes: the label terms cancel
        (Hyperparameters.uniform(4, pi=0.3), [1, 2, 2, 1]),
    ], ids=["symmetric-prior", "flat-pi-equal-groups"])
    def test_ratio_of_one_neither_moves_nor_draws(self, h, c):
        c = np.array(c)
        g, p = path_graph(len(c)), BlockProbs(0.2, 0.5, 0.7)
        state = make_state(g, c.copy(), p)
        rng = StubRng(0.0)
        exchange_groups(state, h, rng)
        assert rng.draws == 0
        assert np.array_equal(state.c, c)
        assert state.p == p
        assert_consistent(state, g)


class TestRunChain:
    def test_retained_counts(self):
        g = path_graph(5)
        h = Hyperparameters.uniform(5)
        s = run_chain(g, h, ChainConfig(total_samples=1500, burn_in=500, seed=1))
        assert s.retained == 1000
        assert s.draws.shape == (1000, 3)
        s = run_chain(g, h, ChainConfig(total_samples=100, burn_in=10,
                                        thin=7, seed=1))
        assert s.retained == 90 // 7

    def test_deterministic_given_config(self):
        g = load_dataset("karate")
        h = Hyperparameters.uniform(g.n)
        cfg = ChainConfig(total_samples=400, burn_in=100, seed=123, chains=2,
                          coassign=True)
        a = run_chain(g, h, cfg)
        b = run_chain(g, h, cfg)
        assert np.array_equal(a.draws, b.draws)
        assert np.array_equal(a.label_tally, b.label_tally)
        assert np.array_equal(a.size_tally, b.size_tally)
        assert np.array_equal(a.coassign_tally, b.coassign_tally)
        assert a.swap_acceptance_rate == b.swap_acceptance_rate

    def test_every_retained_draw_is_identifiable(self):
        g = path_graph(6)
        h = Hyperparameters.uniform(6)
        s = run_chain(g, h, ChainConfig(total_samples=3000, burn_in=200, seed=7))
        assert np.all(s.draws[:, 0] >= s.draws[:, 2])

    def test_tallies_bounded_by_retained(self):
        g = path_graph(6)
        h = Hyperparameters.uniform(6)
        cfg = ChainConfig(total_samples=800, burn_in=100, seed=3, coassign=True)
        s = run_chain(g, h, cfg)
        assert np.all(s.label_tally >= 0) and np.all(s.label_tally <= s.retained)
        assert s.size_tally.sum() == s.retained
        assert np.all(s.coassign_tally <= s.retained)
        assert np.all(np.diag(s.coassign_tally) == s.retained)

    def test_pooled_chains_concatenate_in_order(self):
        g = path_graph(6)
        h = Hyperparameters.uniform(6)
        pooled = run_chain(g, h, ChainConfig(total_samples=300, burn_in=50,
                                             seed=11, chains=3))
        assert pooled.chain_sizes == (250, 250, 250)
        first = run_chain(g, h, ChainConfig(total_samples=300, burn_in=50,
                                            seed=11, chains=1))
        assert np.array_equal(pooled.draws[:250], first.draws)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="burn_in"):
            ChainConfig(total_samples=100, burn_in=200)
        with pytest.raises(ValueError, match="thin"):
            ChainConfig(total_samples=100, burn_in=10, thin=0)
        with pytest.raises(ValueError, match="init"):
            ChainConfig(total_samples=100, burn_in=10, init="warmstart")
        with pytest.raises(ValueError, match="no draws retained"):
            ChainConfig(total_samples=10, burn_in=5, thin=10)


def karate_prior(a, b, pi):
    """Shapes (a11, a12, a22) and (b11, b12, b22) with per-node pi on karate."""
    return Hyperparameters(a0_11=a[0], b0_11=b[0], a0_12=a[1], b0_12=b[1],
                           a0_22=a[2], b0_22=b[2], pi=pi)


class TestMatchesNumpyStateReference:
    """run_chain against numpy_run_chain: the same chains with the labels in
    a numpy array, the reference adjacency-loop sweep, an exchange that always
    computes its ratio, and every draw tallied on its own."""

    K = 34  # karate's node count
    CASES = {
        "pi-0.5": (Hyperparameters.uniform(K), dict(
            total_samples=300, burn_in=100, seed=1)),
        "pi-0.2": (Hyperparameters.uniform(K, a0=0.3, pi=0.2), dict(
            total_samples=300, burn_in=100, seed=2, chains=2)),
        "asymmetric-per-node-pi": (karate_prior(
            (3.0, 1.0, 0.5), (1.0, 2.0, 2.0), np.linspace(0.15, 0.85, K)),
            dict(total_samples=400, burn_in=100, seed=3, thin=3, chains=2)),
        "thin-3-three-chains-degree": (Hyperparameters.uniform(K), dict(
            total_samples=250, burn_in=50, seed=4, thin=3, chains=3,
            init="degree_split")),
        "retained-31": (Hyperparameters.uniform(K, pi=0.3), dict(
            total_samples=41, burn_in=10, seed=5)),
        "retained-32": (Hyperparameters.uniform(K), dict(
            total_samples=42, burn_in=10, seed=6)),
        "retained-33": (Hyperparameters.uniform(K, pi=0.3), dict(
            total_samples=43, burn_in=10, seed=7)),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_same_draws_and_tallies(self, case):
        g = load_dataset("karate")
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


class TestCoassignTally:
    # (total_samples, burn_in, thin, chains, retained): 300 is not a multiple
    # of the BLAS block, 30 is below it, 64 fills it exactly twice
    CONFIGS = [(400, 100, 3, 3, 300), (40, 10, 3, 3, 30),
               (43, 11, 1, 2, 2 * TALLY_BLOCK)]

    @pytest.mark.parametrize("total,burn_in,thin,chains,retained", CONFIGS)
    def test_matches_recount_from_stored_labels(self, total, burn_in, thin,
                                                chains, retained,
                                                run_recording_labels):
        g = load_dataset("karate")
        h = Hyperparameters.uniform(g.n)
        s, c = run_recording_labels(g, h, ChainConfig(
            total_samples=total, burn_in=burn_in, thin=thin, chains=chains,
            seed=8, coassign=True))
        assert s.retained == retained
        recount = np.sum(c[:, :, None] == c[:, None, :], axis=0)
        assert np.array_equal(s.coassign_tally, recount)

    def test_leaves_other_outputs_unchanged(self):
        g = load_dataset("karate")
        h = Hyperparameters.uniform(g.n)
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
        h = Hyperparameters.uniform(10)
        monkeypatch.setattr(sampler, "physical_memory", lambda: 8 * 10 * 10 - 1)
        monkeypatch.setattr(sampler, "init_chain", None)  # must not be reached
        with pytest.raises(ValueError, match="needs 800 bytes"):
            run_chain(g, h, ChainConfig(total_samples=20, burn_in=0,
                                        coassign=True))

    def test_guard_skipped_when_memory_is_unknown(self, monkeypatch):
        g = path_graph(10)
        h = Hyperparameters.uniform(10)
        monkeypatch.setattr(sampler, "physical_memory", lambda: None)
        s = run_chain(g, h, ChainConfig(total_samples=20, burn_in=0,
                                        coassign=True))
        assert np.all(np.diag(s.coassign_tally) == s.retained)


def test_parse_and_run_end_to_end():
    g = parse_edge_list("a b\nb c\nc a\nd e\ne f\nf d\na d")
    h = Hyperparameters.uniform(g.n)
    s = run_chain(g, h, ChainConfig(total_samples=500, burn_in=100, seed=2))
    assert s.retained == 400
    assert np.isfinite(s.draws).all()
