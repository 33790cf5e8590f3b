"""Reference implementations that the package is checked against.

Plain, slow code with no caches: the label prior, the collapsed Bernoulli
likelihood, a chain whose state is a numpy {1, 2} label array, swept with
a Python loop over each node's adjacency and tallied draw by draw, and an
SBM generator that draws every block's uniforms in one call. The chain
makes its own sweep draws and Beta draws, in the package's stream order.
"""

import math
from dataclasses import dataclass

import numpy as np

from mesoscale import sampler
from mesoscale.graph import Graph
from mesoscale.model import BlockCounts, BlockProbs, Hyperparameters, group1_counts
from mesoscale.sampler import ChainConfig, chain_rng


def _bernoulli_block_term(M: int, m: int, p: float) -> float:
    """M log p + (m - M) log(1 - p), with 0 * log 0 == 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"block probability {p} outside [0, 1]")
    out = 0.0
    if M > 0:
        out += M * math.log(p) if p > 0.0 else -math.inf
    if m - M > 0:
        out += (m - M) * math.log1p(-p) if p < 1.0 else -math.inf
    return out


def log_prior_labels(c: np.ndarray, h: Hyperparameters) -> float:
    """Sum of log pi over the group-1 nodes and log(1 - pi) over the others."""
    return sum(math.log(h.pi) if label == 1 else math.log1p(-h.pi)
               for label in np.asarray(c).tolist())


def log_likelihood(counts: BlockCounts, p: BlockProbs) -> float:
    """Log of the collapsed Bernoulli likelihood over the three block pairs."""
    return (
        _bernoulli_block_term(counts.M11, counts.m11, p.p11)
        + _bernoulli_block_term(counts.M12, counts.m12, p.p12)
        + _bernoulli_block_term(counts.M22, counts.m22, p.p22)
    )


def probs_of(state) -> BlockProbs:
    """A ChainState's block probabilities."""
    return BlockProbs(state.p11, state.p12, state.p22)


def counts_of(state) -> BlockCounts:
    """A ChainState's block counts, from its group-1 n1, M11 and D1."""
    return BlockCounts(*group1_counts(state.g.n, state.g.m, state.n1, state.M11, state.D1))


@dataclass
class NumpyState:
    """A chain state held as a numpy label array with entries in {1, 2}."""

    c: np.ndarray
    p: BlockProbs
    counts: BlockCounts


def reference_sweep_draws(rng, n):
    """Endless (order, log_us) per sweep, drawn a block of sampler.SWEEP_BLOCK
    // n sweeps (at least one) at a time, in the RNG stream order the
    package's sweep_draws keeps: one row-wise permutation of the block's
    orders, then one array of its uniforms."""
    sweeps = max(1, sampler.SWEEP_BLOCK // n)
    while True:
        orders = rng.permuted(np.tile(np.arange(n), (sweeps, 1)), axis=1).tolist()
        with np.errstate(divide="ignore"):  # u == 0 gives log u = -inf
            log_us = np.log(rng.random((sweeps, n))).tolist()
        yield from zip(orders, log_us)


def reference_gibbs(state, h, rng):
    """The conjugate Beta draws of p11, p12 and p22, in that order, from the
    state's counts."""
    k = state.counts
    state.p = BlockProbs(rng.beta(k.M11 + h.a0_11, k.m11 - k.M11 + h.b0_11),
                         rng.beta(k.M12 + h.a0_12, k.m12 - k.M12 + h.b0_12),
                         rng.beta(k.M22 + h.a0_22, k.m22 - k.M22 + h.b0_22))
    return state


def loop_label_sweep(state, g, h, sweeps):
    """The label sweep with a Python loop over each node's adjacency, on a
    NumpyState: the reference that label_sweep must match state for state.
    Takes the visiting order and log u from next(sweeps) (see
    reference_sweep_draws), and counts each node's neighbours itself."""
    n = g.n
    lp11, l1m11 = sampler._logs(state.p.p11)
    lp12, l1m12 = sampler._logs(state.p.p12)
    lp22, l1m22 = sampler._logs(state.p.p22)
    order, log_us = next(sweeps)
    ing1 = (state.c == 1).astype(np.int64).tolist()
    counts = state.counts
    n1, n2 = counts.n1, counts.n2
    M11, M12, M22 = counts.M11, counts.M12, counts.M22
    accepted = 0
    for k in range(n):
        i = order[k]
        adj = g.adjacency[i]
        d1 = 0
        for j in adj:
            d1 += ing1[j]
        d2 = len(adj) - d1
        if ing1[i]:
            delta = (
                d1 * (lp12 - lp11) + (n1 - 1 - d1) * (l1m12 - l1m11)
                + d2 * (lp22 - lp12) + (n2 - d2) * (l1m22 - l1m12)
                - h.log_odds
            )
        else:
            delta = (
                d2 * (lp12 - lp22) + (n2 - 1 - d2) * (l1m12 - l1m22)
                + d1 * (lp11 - lp12) + (n1 - d1) * (l1m11 - l1m12)
                + h.log_odds
            )
        if delta >= 0.0 or log_us[k] < delta:
            accepted += 1
            if ing1[i]:
                ing1[i] = 0
                n1, n2 = n1 - 1, n2 + 1
                M11, M12, M22 = M11 - d1, M12 + d1 - d2, M22 + d2
            else:
                ing1[i] = 1
                n1, n2 = n1 + 1, n2 - 1
                M11, M12, M22 = M11 + d1, M12 + d2 - d1, M22 - d2
    state.c = np.where(np.array(ing1, dtype=bool), 1, 2).astype(np.int64)
    state.counts = BlockCounts(
        M11=M11, M12=M12, M22=M22,
        m11=n1 * (n1 - 1) // 2, m12=n1 * n2, m22=n2 * (n2 - 1) // 2,
        n1=n1, n2=n2,
    )
    return state, accepted


def numpy_exchange_groups(state, g, h, rng):
    """The group exchange on a NumpyState, its ratio computed in every state."""
    n1 = int(np.sum(state.c == 1))
    lp11, l1m11 = sampler._logs(state.p.p11)
    lp22, l1m22 = sampler._logs(state.p.p22)
    log_ratio = (
        h.log_odds * (len(state.c) - 2 * n1)
        + (h.a0_11 - h.a0_22) * (lp22 - lp11)
        + (h.b0_11 - h.b0_22) * (l1m22 - l1m11)
    )
    if log_ratio == 0.0 or rng.random() >= math.exp(min(log_ratio, 0.0)):
        return state
    state.c = 3 - state.c
    state.p = BlockProbs(*state.p[::-1])
    k = state.counts
    state.counts = BlockCounts.of(k.M22, k.M12, k.M11, k.n2, k.n1)
    return state


def numpy_run_chain(g, h: Hyperparameters, cfg: ChainConfig) -> dict:
    """run_chain on NumpyState with the reference sweep and exchange, each
    retained draw tallied on its own (co-assignment always, as int64). Also
    returns the retained states unfolded, as (p, labels) in chain order."""
    n = g.n
    states, draws, label_tally = [], [], np.zeros(n, dtype=np.int64)
    size_tally = np.zeros(n + 1, dtype=np.int64)
    coassign = np.zeros((n, n), dtype=np.int64)
    chain_acceptance = []
    for chain_index in range(cfg.chains):
        rng = chain_rng(cfg.seed, chain_index)
        init = sampler.init_chain(g, h, rng)
        state = NumpyState(c=init.c, p=probs_of(init), counts=counts_of(init))
        sweeps = reference_sweep_draws(rng, n)
        accepted_post = 0
        for it in range(cfg.total_samples):
            _, accepted = loop_label_sweep(state, g, h, sweeps)
            reference_gibbs(state, h, rng)
            numpy_exchange_groups(state, g, h, rng)
            if it < cfg.burn_in:
                continue
            accepted_post += accepted
            if (it - cfg.burn_in + 1) % cfg.thin == 0:
                states.append((state.p, state.c.copy()))
                fold = state.p.p11 < state.p.p22
                draws.append(state.p[::-1] if fold else state.p)
                in1 = state.c == 1 + fold
                label_tally += in1
                size_tally[state.counts.n2 if fold else state.counts.n1] += 1
                coassign += in1[:, None] == in1[None, :]
        post_sweeps = cfg.total_samples - cfg.burn_in
        chain_acceptance.append(accepted_post / (n * post_sweeps))
    return {
        "draws": np.array(draws), "label_tally": label_tally,
        "size_tally": size_tally, "coassign_tally": coassign,
        "chain_acceptance": tuple(chain_acceptance), "states": states,
    }


def triu_generate_sbm(spec) -> Graph:
    """generate_sbm with each block's uniforms drawn at once: np.triu_indices
    for the 11 and 22 blocks and an (n1, n2) matrix for the 12 block."""
    n1, n2 = spec.sizes
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed]))
    edges = []

    i1, j1 = np.triu_indices(n1, k=1)
    keep = rng.random(len(i1)) < spec.p.p11
    edges.extend(zip(i1[keep].tolist(), j1[keep].tolist()))

    if n1 > 0 and n2 > 0:
        cross = rng.random((n1, n2)) < spec.p.p12
        ci, cj = np.nonzero(cross)
        edges.extend(zip(ci.tolist(), (cj + n1).tolist()))

    i2, j2 = np.triu_indices(n2, k=1)
    keep = rng.random(len(i2)) < spec.p.p22
    edges.extend(zip((i2[keep] + n1).tolist(), (j2[keep] + n1).tolist()))
    return Graph.from_edges(edges, n=spec.n)
