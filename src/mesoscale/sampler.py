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

A chain is held in the sweep's own form from init_chain to its last draw:
group 1 as a bytearray of 0/1 flags and, the same set, as the set bits of one
int. The sweep counts a node's group-1 neighbours as popcount(mask_i & group
1) on ints used as bit sets (``Graph.neighbour_masks``): n^2/8 bytes of
masks, and O(n/30) machine words per count in place of O(degree) interpreted
steps. At mean degree 20 that beats a loop over the adjacency at n = 10000
and loses at n = 30000, far above the bundled datasets and the benchmark's
3000 nodes. ChainState.c, the {1, 2} label array, is derived on demand.

Under a swap-symmetric prior the exchange's ratio is exactly 1 in every
state, so exchange_groups returns at once. run_chain copies each retained,
folded row of flags into one (TALLY_BLOCK, n) uint8 buffer and builds numpy
tallies from a full buffer at a time, not from each draw.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, node_bits
from .model import (
    BlockCounts,
    BlockProbs,
    Hyperparameters,
    block_counts,
)

INIT_MODES = ("random_labels", "degree_split")
TALLY_BLOCK = 32  # retained draws buffered per tally (and co-assignment BLAS) update
P_FLOOR, P_CEIL = math.ulp(0.0), math.nextafter(1.0, 0.0)
EXCHANGE_FLAGS = bytes.maketrans(b"\x00\x01", b"\x01\x00")  # 0 <-> 1


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
    """One MCMC state in the sweep's form (module docstring).

    flags[i] is 1 when node i is in group 1 and 0 otherwise; bits holds the
    same set as the set bits of one int. The sweep and the exchange update
    both in place; counts is a cache kept consistent with them.
    """

    flags: bytearray
    bits: int
    p: BlockProbs
    counts: BlockCounts

    @classmethod
    def of(cls, c: np.ndarray, p: BlockProbs, counts: BlockCounts) -> "ChainState":
        """The state with labels c (entries in {1, 2}) and the given p, counts."""
        in1 = np.asarray(c) == 1
        return cls(flags=bytearray(in1.tobytes()), bits=node_bits(in1),
                   p=p, counts=counts)

    @property
    def c(self) -> np.ndarray:
        """The labels as a new int64 array with entries in {1, 2}."""
        return 2 - np.frombuffer(self.flags, dtype=np.uint8).astype(np.int64)


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
        degrees = np.array(g.degrees)
        c = np.where(degrees >= np.median(degrees), 1, 2).astype(np.int64)
    return ChainState.of(c, p, block_counts(g, c))


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
    Neighbours are counted against state.bits, and an accepted flip toggles
    the node in state.bits and state.flags (module docstring); counts are
    rebuilt only when some flip was accepted. The ratio is taken at p clamped
    into [P_FLOOR, P_CEIL] (module docstring); a flip impossible at a p of
    exactly 0 or 1 then costs about 744 per edge at p = 0 or 36.7 per non-edge
    at p = 1, so it is all but never accepted. Mutates ``state`` in place and
    returns it with the accepted-flip count.
    """
    n = g.n
    lp11, l1m11 = _logs(state.p.p11)
    lp12, l1m12 = _logs(state.p.p12)
    lp22, l1m22 = _logs(state.p.p22)
    # per-pair log-ratios of a 1 -> 2 flip; a 2 -> 1 flip negates them exactly
    w1, v1 = lp12 - lp11, l1m12 - l1m11
    w2, v2 = lp22 - lp12, l1m22 - l1m12

    log_odds = h.log_odds_list
    order = rng.permutation(n).tolist()
    us = rng.random(n).tolist()

    masks, degrees = g.neighbour_masks, g.degrees
    flags, in1 = state.flags, state.bits
    counts = state.counts
    n1, n2 = counts.n1, counts.n2
    M11, M12, M22 = counts.M11, counts.M12, counts.M22
    accepted = 0

    for i, u in zip(order, us):
        d1 = (masks[i] & in1).bit_count()
        d2 = degrees[i] - d1
        if flags[i]:
            delta = (
                d1 * w1 + (n1 - 1 - d1) * v1
                + d2 * w2 + (n2 - d2) * v2
                - log_odds[i]
            )
        else:
            delta = (
                -d2 * w2 - (n2 - 1 - d2) * v2
                - d1 * w1 - (n1 - d1) * v1
                + log_odds[i]
            )
        if delta >= 0.0 or u < math.exp(delta):
            accepted += 1
            in1 ^= 1 << i
            if flags[i]:
                flags[i] = 0
                n1 -= 1
                n2 += 1
                M11 -= d1
                M12 += d1 - d2
                M22 += d2
            else:
                flags[i] = 1
                n1 += 1
                n2 -= 1
                M22 -= d2
                M12 += d2 - d1
                M11 += d1

    if accepted:
        state.bits = in1
        state.counts = BlockCounts.of(M11, M12, M22, n1, n2)
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
    logs taken at p clamped like the sweep's. At a ratio of exactly 1 it is
    skipped without a draw: acceptance 0 both ways keeps detailed balance.
    Under a swap-symmetric prior (h.swap_symmetric) the ratio is 1 in every
    state, so the move returns before computing it; otherwise the label term
    is taken on a zero-copy view of state.flags. An accepted move flips every
    flag and every bit of state.bits.
    """
    if h.swap_symmetric:
        return state
    in1 = np.frombuffer(state.flags, dtype=bool)
    lp11, l1m11 = _logs(state.p.p11)
    lp22, l1m22 = _logs(state.p.p22)
    log_ratio = (
        float(h.log_odds.dot(~in1) - h.log_odds.dot(in1))
        + (h.a0_11 - h.a0_22) * (lp22 - lp11)
        + (h.b0_11 - h.b0_22) * (l1m22 - l1m11)
    )
    if log_ratio == 0.0 or rng.random() >= math.exp(min(log_ratio, 0.0)):
        return state
    state.flags = state.flags.translate(EXCHANGE_FLAGS)
    state.bits ^= (1 << len(state.flags)) - 1
    state.p = BlockProbs(*state.p[::-1])
    state.counts = state.counts.swapped()
    return state


def physical_memory() -> int | None:
    """Bytes of physical memory, or None where sysconf cannot tell."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def require_memory(need: int, what: str) -> None:
    """Refuse (ValueError) an array of need bytes beyond physical memory."""
    have = physical_memory()
    if have is not None and need > have:
        raise ValueError(
            f"{what} needs {need} bytes, more than the {have} bytes of "
            "physical memory"
        )


def require_chain_memory(n: int, cfg: ChainConfig) -> None:
    """Refuse (ValueError) a run on n nodes whose co-assignment matrix
    (8 n^2 bytes) or retained draws (24 bytes each) exceed physical memory."""
    if cfg.coassign:
        require_memory(8 * n * n, f"co-assignment tally for n={n}")
    retained = cfg.retained_per_chain * cfg.chains
    require_memory(24 * retained, f"draws array ({retained} rows)")


def run_chain(g: Graph, h: Hyperparameters, cfg: ChainConfig) -> PosteriorSamples:
    """Run cfg.chains independent chains and pool their retained draws.

    Per chain: init, then total_samples iterations of (label sweep, Gibbs
    update, group exchange). The first burn_in iterations are dropped and
    every thin-th of the rest is tallied, with the groups named so p11 >= p22.
    Each tallied draw's folded flags are copied into a (TALLY_BLOCK, n) uint8
    buffer; each full buffer adds its column sums to label_tally and, under
    cfg.coassign, its Gram matrix to the co-assignment tally. The draws
    (24 bytes each) and the co-assignment matrix (8 n^2 bytes) are refused
    before the first chain when they exceed physical memory.
    """
    if len(h.pi) != g.n:
        raise ValueError(f"pi length {len(h.pi)} != graph n={g.n}")
    n = g.n
    retained_per_chain = cfg.retained_per_chain
    total_retained = retained_per_chain * cfg.chains

    require_chain_memory(n, cfg)
    draws = np.empty((total_retained, 3))
    label_tally = np.zeros(n, dtype=np.int64)
    sizes = [0] * (n + 1)  # histogram of the group-1 size
    rows = bytearray(TALLY_BLOCK * n)
    block = np.frombuffer(rows, dtype=np.uint8).reshape(TALLY_BLOCK, n)
    filled = 0
    coassign = None
    if cfg.coassign:
        # C = 2 X^T X - t_i - t_j + R over the 0/1 group-1 indicators X of the
        # R retained draws; X^T X is accumulated in place, one buffer of draws
        # per BLAS call. Sums of 0/1 stay exact in float64.
        from scipy.linalg.blas import dgemm

        coassign = np.zeros((n, n), order="F")

    def tally_block(x: np.ndarray) -> None:
        np.add(label_tally, x.sum(axis=0, dtype=np.int64), out=label_tally)
        if coassign is not None:
            xt = x.T.astype(np.float64)  # (n, draws) in Fortran order
            dgemm(1.0, xt, xt, beta=1.0, c=coassign, trans_b=1, overwrite_c=1)

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
                if fold:
                    draws[pos] = state.p[::-1]
                    rows[filled * n:(filled + 1) * n] = state.flags.translate(
                        EXCHANGE_FLAGS)
                    sizes[state.counts.n2] += 1
                else:
                    draws[pos] = state.p
                    rows[filled * n:(filled + 1) * n] = state.flags
                    sizes[state.counts.n1] += 1
                filled += 1
                if filled == TALLY_BLOCK:
                    tally_block(block)
                    filled = 0
                pos += 1
        post_sweeps = cfg.total_samples - cfg.burn_in
        chain_acceptance.append(accepted_post / (n * post_sweeps))

    assert pos == total_retained
    if filled:
        tally_block(block[:filled])
    if coassign is not None:
        coassign *= 2
        coassign -= label_tally[:, None]
        coassign -= label_tally[None, :]
        coassign += total_retained
    return PosteriorSamples(
        draws=draws,
        label_tally=label_tally,
        size_tally=np.array(sizes, dtype=np.int64),
        swap_acceptance_rate=float(np.mean(chain_acceptance)),
        retained=total_retained,
        chain_sizes=(retained_per_chain,) * cfg.chains,
        chain_acceptance=tuple(chain_acceptance),
        coassign_tally=coassign,
    )
