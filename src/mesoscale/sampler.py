"""MCMC over labels and block probabilities for the two-block SBM.

Each iteration runs a Metropolis label sweep over all nodes in fresh random
order, a conjugate Gibbs draw for the three block probabilities, and a
Metropolis exchange of the two groups, so the chain is exact for any prior.
Chains are deterministic given (seed, chain_index).

The Beta prior keeps every block probability strictly inside (0, 1), but a
Beta draw can round to exactly 0 or 1. So the label sweep takes its logs from
p clamped to [P_FLOOR, P_CEIL], the nearest floats inside (0, 1): every log is
finite and one delta expression serves every state. ChainState.p is stored
unclamped.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph
from .model import (
    BlockCounts,
    BlockProbs,
    Hyperparameters,
    block_counts,
)

INIT_MODES = ("random_labels", "degree_split")
COASSIGN_BLOCK = 32  # label draws buffered per co-assignment BLAS update
P_FLOOR, P_CEIL = math.ulp(0.0), math.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class ChainConfig:
    total_samples: int = 15000
    burn_in: int = 5000
    thin: int = 1
    seed: int = 0
    init: str = "random_labels"
    chains: int = 1
    coassign: bool = False

    def __post_init__(self):
        if self.total_samples <= 0:
            raise ValueError("total_samples must be positive")
        if not 0 <= self.burn_in < self.total_samples:
            raise ValueError(
                f"burn_in ({self.burn_in}) must be smaller than "
                f"total_samples ({self.total_samples})"
            )
        if self.thin < 1:
            raise ValueError("thin must be at least 1")
        if self.chains < 1:
            raise ValueError("chains must be at least 1")
        if self.init not in INIT_MODES:
            raise ValueError(f"init must be one of {INIT_MODES}, got {self.init!r}")
        if self.retained_per_chain == 0:
            raise ValueError(
                f"no draws retained: {self.total_samples - self.burn_in} "
                f"post-burn-in iterations with thin={self.thin}"
            )

    @property
    def retained_per_chain(self) -> int:
        return (self.total_samples - self.burn_in) // self.thin


@dataclass
class ChainState:
    """One MCMC state; counts is a cache kept consistent with c."""

    c: np.ndarray
    p: BlockProbs
    counts: BlockCounts


@dataclass
class PosteriorSamples:
    """Retained draws and label tallies pooled in chain order; in every draw
    group 1 is the group with p11 >= p22."""

    draws: np.ndarray                       # (retained, 3) of (p11, p12, p22)
    label_tally: np.ndarray                 # per-node count of draws in group 1
    size_tally: np.ndarray                  # histogram of the group-1 size, 0..n
    swap_acceptance_rate: float             # accepted swaps / proposals, post-burn-in
    retained: int
    chain_sizes: tuple[int, ...] = (0,)
    chain_acceptance: tuple[float, ...] = field(default=(), repr=False)
    # float64 (n, n) exact counts of draws with c_i == c_j; 8*n^2 bytes, opt-in
    coassign_tally: np.ndarray | None = None


def chain_rng(seed: int, chain_index: int) -> np.random.Generator:
    """The RNG stream owned by one chain."""
    return np.random.default_rng(np.random.SeedSequence([seed, chain_index]))


def init_chain(
    g: Graph,
    h: Hyperparameters,
    cfg: ChainConfig,
    chain_index: int = 0,
    rng: np.random.Generator | None = None,
) -> ChainState:
    """Draw the initial state: p from its prior, then labels per cfg.init.

    random_labels draws each c_i from Bernoulli(pi_i); degree_split puts nodes
    with degree >= the median degree in group 1 (ties go to group 1).
    """
    if rng is None:
        rng = chain_rng(cfg.seed, chain_index)
    p = BlockProbs(
        p11=float(rng.beta(h.a0_11, h.b0_11)),
        p12=float(rng.beta(h.a0_12, h.b0_12)),
        p22=float(rng.beta(h.a0_22, h.b0_22)),
    )
    if cfg.init == "random_labels":
        c = np.where(rng.random(g.n) < h.pi, 1, 2).astype(np.int64)
    else:
        degrees = np.array([len(adj) for adj in g.adjacency])
        c = np.where(degrees >= np.median(degrees), 1, 2).astype(np.int64)
    return ChainState(c=c, p=p, counts=block_counts(g, c))


def _logs(q: float) -> tuple[float, float]:
    """log q and log(1 - q) at q clamped into [P_FLOOR, P_CEIL]."""
    q = min(max(q, P_FLOOR), P_CEIL)
    return math.log(q), math.log1p(-q)


def label_sweep(
    state: ChainState, g: Graph, h: Hyperparameters, rng: np.random.Generator
) -> tuple[ChainState, int]:
    """One Metropolis pass over all nodes in a fresh uniformly random order.

    Each node's label flip is accepted with min(1, likelihood ratio x prior
    ratio); counts are updated incrementally from the node's incident pairs.
    The ratio is taken at p clamped into [P_FLOOR, P_CEIL] (module docstring);
    a flip impossible at a p of exactly 0 or 1 then costs about 744 per edge
    at p = 0 or 36.7 per non-edge at p = 1, so it is all but never accepted.
    Mutates ``state`` in place and returns it with the accepted-swap count.
    """
    n = g.n
    lp11, l1m11 = _logs(state.p.p11)
    lp12, l1m12 = _logs(state.p.p12)
    lp22, l1m22 = _logs(state.p.p22)

    log_odds = h.log_odds.tolist()
    order = rng.permutation(n).tolist()
    us = rng.random(n).tolist()

    adjacency = g.adjacency
    c = state.c
    ing1 = (c == 1).astype(np.int64).tolist()
    counts = state.counts
    n1, n2 = counts.n1, counts.n2
    M11, M12, M22 = counts.M11, counts.M12, counts.M22
    accepted = 0

    for k in range(n):
        i = order[k]
        adj = adjacency[i]
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
                n1 -= 1
                n2 += 1
                M11 -= d1
                M12 += d1 - d2
                M22 += d2
            else:
                ing1[i] = 1
                n1 += 1
                n2 -= 1
                M22 -= d2
                M12 += d2 - d1
                M11 += d1

    state.c = np.where(np.array(ing1, dtype=bool), 1, 2).astype(np.int64)
    state.counts = BlockCounts(
        M11=M11, M12=M12, M22=M22,
        m11=n1 * (n1 - 1) // 2, m12=n1 * n2, m22=n2 * (n2 - 1) // 2,
        n1=n1, n2=n2,
    )
    return state, accepted


def gibbs_update_probs(
    state: ChainState, h: Hyperparameters, rng: np.random.Generator
) -> ChainState:
    """Conjugate Beta draw for each block probability, in p11, p12, p22 order."""
    counts = state.counts
    state.p = BlockProbs(
        p11=float(rng.beta(counts.M11 + h.a0_11, counts.m11 - counts.M11 + h.b0_11)),
        p12=float(rng.beta(counts.M12 + h.a0_12, counts.m12 - counts.M12 + h.b0_12)),
        p22=float(rng.beta(counts.M22 + h.a0_22, counts.m22 - counts.M22 + h.b0_22)),
    )
    return state


def exchange_groups(
    state: ChainState, h: Hyperparameters, rng: np.random.Generator
) -> ChainState:
    """Metropolis move to the mirror state: c -> 3 - c, p11 <-> p22.

    The likelihood cancels, so the move is accepted with the prior ratio, its
    logs taken at p clamped like the sweep's. At a ratio of exactly 1 (any
    swap-symmetric prior) it is skipped without a draw: acceptance 0 both
    ways keeps detailed balance.
    """
    in1 = state.c == 1
    lp11, l1m11 = _logs(state.p.p11)
    lp22, l1m22 = _logs(state.p.p22)
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


def physical_memory() -> int | None:
    """Bytes of physical memory, or None where sysconf cannot tell."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def run_chain(g: Graph, h: Hyperparameters, cfg: ChainConfig) -> PosteriorSamples:
    """Run cfg.chains independent chains and pool their retained draws.

    Per chain: init, then total_samples iterations of (label sweep, Gibbs
    update, group exchange). The first burn_in iterations are dropped and
    every thin-th of the rest is tallied, with the groups named so p11 >= p22.
    """
    if len(h.pi) != g.n:
        raise ValueError(f"pi length {len(h.pi)} != graph n={g.n}")
    n = g.n
    retained_per_chain = cfg.retained_per_chain
    total_retained = retained_per_chain * cfg.chains

    draws = np.empty((total_retained, 3))
    label_tally = np.zeros(n, dtype=np.int64)
    size_tally = np.zeros(n + 1, dtype=np.int64)
    coassign = None
    if cfg.coassign:
        # C = 2 X^T X - t_i - t_j + R over the 0/1 group-1 indicators X of the
        # R retained draws; X^T X is accumulated in place, COASSIGN_BLOCK
        # draws per BLAS call. Sums of 0/1 stay exact in float64.
        from scipy.linalg.blas import dgemm

        need, have = 8 * n * n, physical_memory()
        if have is not None and need > have:
            raise ValueError(
                f"co-assignment tally needs {need} bytes for n={n}, "
                f"more than the {have} bytes of physical memory"
            )
        coassign = np.zeros((n, n), order="F")
        block = np.zeros((n, COASSIGN_BLOCK), order="F")
        filled = 0
    chain_acceptance = []
    pos = 0

    for chain_index in range(cfg.chains):
        rng = chain_rng(cfg.seed, chain_index)
        state = init_chain(g, h, cfg, chain_index, rng=rng)
        accepted_post = 0
        for it in range(cfg.total_samples):
            _, accepted = label_sweep(state, g, h, rng)
            gibbs_update_probs(state, h, rng)
            exchange_groups(state, h, rng)
            if it < cfg.burn_in:
                continue
            accepted_post += accepted
            if (it - cfg.burn_in + 1) % cfg.thin == 0:
                fold = state.p.p11 < state.p.p22  # tally p11 >= p22 as group 1
                draws[pos] = state.p[::-1] if fold else state.p
                in1 = state.c == 1 + fold
                label_tally += in1
                size_tally[state.counts.n2 if fold else state.counts.n1] += 1
                if coassign is not None:
                    block[:, filled] = in1
                    filled += 1
                    if filled == COASSIGN_BLOCK:
                        dgemm(1.0, block, block, beta=1.0, c=coassign,
                              trans_b=1, overwrite_c=1)
                        filled = 0
                pos += 1
        post_sweeps = cfg.total_samples - cfg.burn_in
        chain_acceptance.append(accepted_post / (n * post_sweeps))

    assert pos == total_retained
    if coassign is not None:
        if filled:
            x = block[:, :filled]
            dgemm(1.0, x, x, beta=1.0, c=coassign, trans_b=1, overwrite_c=1)
        coassign *= 2
        coassign -= label_tally[:, None]
        coassign -= label_tally[None, :]
        coassign += total_retained
    return PosteriorSamples(
        draws=draws,
        label_tally=label_tally,
        size_tally=size_tally,
        swap_acceptance_rate=float(np.mean(chain_acceptance)),
        retained=total_retained,
        chain_sizes=(retained_per_chain,) * cfg.chains,
        chain_acceptance=tuple(chain_acceptance),
        coassign_tally=coassign,
    )
