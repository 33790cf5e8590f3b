"""Reference implementations that the package is checked against.

Plain, slow code with no caches: the collapsed Bernoulli likelihood, and a
chain whose state is a numpy {1, 2} label array, swept with a Python loop over
each node's adjacency and tallied draw by draw.
"""

import math
from dataclasses import dataclass

import numpy as np

from mesoscale import sampler
from mesoscale.model import BlockCounts, BlockProbs, Hyperparameters
from mesoscale.sampler import ChainConfig, chain_rng, gibbs_update_probs


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


def log_likelihood(counts: BlockCounts, p: BlockProbs) -> float:
    """Log of the collapsed Bernoulli likelihood over the three block pairs."""
    return (
        _bernoulli_block_term(counts.M11, counts.m11, p.p11)
        + _bernoulli_block_term(counts.M12, counts.m12, p.p12)
        + _bernoulli_block_term(counts.M22, counts.m22, p.p22)
    )


@dataclass
class NumpyState:
    """A chain state held as a numpy label array with entries in {1, 2}."""

    c: np.ndarray
    p: BlockProbs
    counts: BlockCounts


def loop_label_sweep(state, g, h, rng):
    """The label sweep with a Python loop over each node's adjacency, on a
    NumpyState: the reference that label_sweep must match state for state."""
    n = g.n
    lp11, l1m11 = sampler._logs(state.p.p11)
    lp12, l1m12 = sampler._logs(state.p.p12)
    lp22, l1m22 = sampler._logs(state.p.p22)
    log_odds = h.log_odds.tolist()
    order = rng.permutation(n).tolist()
    us = rng.random(n).tolist()
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
                - log_odds[i]
            )
        else:
            delta = (
                d2 * (lp12 - lp22) + (n2 - 1 - d2) * (l1m12 - l1m22)
                + d1 * (lp11 - lp12) + (n1 - d1) * (l1m11 - l1m12)
                + log_odds[i]
            )
        if delta >= 0.0 or us[k] < math.exp(delta):
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


def numpy_exchange_groups(state, h, rng):
    """The group exchange on a NumpyState, its ratio computed in every state."""
    in1 = state.c == 1
    lp11, l1m11 = sampler._logs(state.p.p11)
    lp22, l1m22 = sampler._logs(state.p.p22)
    log_ratio = (
        float(h.log_odds.dot(~in1) - h.log_odds.dot(in1))
        + (h.a0_11 - h.a0_22) * (lp22 - lp11)
        + (h.b0_11 - h.b0_22) * (l1m22 - l1m11)
    )
    if log_ratio == 0.0 or rng.random() >= math.exp(min(log_ratio, 0.0)):
        return state
    state.c = 3 - state.c
    state.p = BlockProbs(*state.p[::-1])
    state.counts = state.counts.swapped()
    return state


def numpy_run_chain(g, h: Hyperparameters, cfg: ChainConfig) -> dict:
    """run_chain on NumpyState with the reference sweep and exchange, each
    retained draw tallied on its own (co-assignment always, as int64)."""
    n = g.n
    draws, label_tally = [], np.zeros(n, dtype=np.int64)
    size_tally = np.zeros(n + 1, dtype=np.int64)
    coassign = np.zeros((n, n), dtype=np.int64)
    chain_acceptance = []
    for chain_index in range(cfg.chains):
        rng = chain_rng(cfg.seed, chain_index)
        init = sampler.init_chain(g, h, cfg, chain_index, rng=rng)
        state = NumpyState(c=init.c, p=init.p, counts=init.counts)
        accepted_post = 0
        for it in range(cfg.total_samples):
            _, accepted = loop_label_sweep(state, g, h, rng)
            gibbs_update_probs(state, h, rng)
            numpy_exchange_groups(state, h, rng)
            if it < cfg.burn_in:
                continue
            accepted_post += accepted
            if (it - cfg.burn_in + 1) % cfg.thin == 0:
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
        "chain_acceptance": tuple(chain_acceptance),
    }
