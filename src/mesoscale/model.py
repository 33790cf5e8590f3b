"""Two-block SBM mathematics: sufficient statistics and log densities.

All arithmetic is done in log space. Degenerate blocks (n1 = 0 or n2 = 0)
are legal and contribute zero terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import betaln

from .graph import Graph, node_bits


class BlockProbs(NamedTuple):
    p11: float
    p12: float
    p22: float


@dataclass(frozen=True)
class BlockCounts:
    """Sufficient statistics of the two-block SBM likelihood.

    Mij is the realized and mij the possible number of edges between blocks
    i and j; n1, n2 are the block sizes.
    """

    M11: int
    M12: int
    M22: int
    m11: int
    m12: int
    m22: int
    n1: int
    n2: int

    @classmethod
    def of(cls, M11, M12, M22, n1, n2) -> "BlockCounts":
        """Counts of realized edges M11, M12, M22 in groups of n1 and n2 nodes."""
        return cls(M11=M11, M12=M12, M22=M22, m11=n1 * (n1 - 1) // 2,
                   m12=n1 * n2, m22=n2 * (n2 - 1) // 2, n1=n1, n2=n2)

    def swapped(self) -> "BlockCounts":
        """Counts after exchanging the two group names."""
        return BlockCounts(
            M11=self.M22, M12=self.M12, M22=self.M11,
            m11=self.m22, m12=self.m12, m22=self.m11,
            n1=self.n2, n2=self.n1,
        )


@dataclass(frozen=True, eq=False)
class Hyperparameters:
    """Beta shapes per block pair and per-node prior probabilities of group 1."""

    a0_11: float
    b0_11: float
    a0_12: float
    b0_12: float
    a0_22: float
    b0_22: float
    pi: np.ndarray
    log_odds: np.ndarray = field(init=False, repr=False)  # log(pi / (1 - pi))
    log_odds_list: list[float] = field(init=False, repr=False)  # the same, as floats
    # the exchange of the two groups leaves the prior unchanged
    swap_symmetric: bool = field(init=False, repr=False)

    def __post_init__(self):
        shapes = (self.a0_11, self.b0_11, self.a0_12,
                  self.b0_12, self.a0_22, self.b0_22)
        if not all(0 < s < math.inf for s in shapes):  # also rejects nan
            raise ValueError("Beta shape parameters must be finite and positive")
        pi = np.asarray(self.pi, dtype=float)
        if not np.all((pi > 0) & (pi < 1)):  # also rejects nan
            raise ValueError("label prior probabilities must lie strictly in (0, 1)")
        object.__setattr__(self, "pi", pi)
        log_odds = np.log(pi) - np.log1p(-pi)
        object.__setattr__(self, "log_odds", log_odds)
        object.__setattr__(self, "log_odds_list", log_odds.tolist())
        object.__setattr__(self, "swap_symmetric", bool(
            self.a0_11 == self.a0_22 and self.b0_11 == self.b0_22
            and not log_odds.any()))

    @classmethod
    def uniform(cls, n: int, a0: float = 1.0, b0: float = 1.0, pi: float = 0.5):
        """Same Beta(a0, b0) on every block pair and flat pi for all n nodes."""
        return cls(a0_11=a0, b0_11=b0, a0_12=a0, b0_12=b0, a0_22=a0, b0_22=b0,
                   pi=np.full(n, pi))


def block_counts(g: Graph, c: np.ndarray) -> BlockCounts:
    """Sufficient statistics for labels c (entries in {1, 2}) on graph g."""
    c = np.asarray(c)
    if len(c) != g.n:
        raise ValueError(f"label vector length {len(c)} != graph n={g.n}")
    group1 = np.flatnonzero(c == 1).tolist()
    n1 = len(group1)
    in1, masks, degrees = node_bits(c == 1), g.neighbour_masks, g.degrees
    M11 = sum((masks[i] & in1).bit_count() for i in group1) // 2
    M12 = sum(degrees[i] for i in group1) - 2 * M11
    return BlockCounts.of(M11, M12, g.m - M11 - M12, n1, g.n - n1)


def log_prior_labels(c: np.ndarray, h: Hyperparameters) -> float:
    """Sum of log pi_i for group-1 nodes and log(1 - pi_i) otherwise."""
    c = np.asarray(c)
    if len(c) != len(h.pi):
        raise ValueError(f"label vector length {len(c)} != pi length {len(h.pi)}")
    in1 = c == 1
    return float(np.sum(np.log(h.pi[in1])) + np.sum(np.log1p(-h.pi[~in1])))


def log_marginal_likelihood(
    counts: BlockCounts, h: Hyperparameters
) -> float | np.ndarray:
    """Log likelihood with the block probabilities integrated out analytically.

    Each block pair contributes log B(Mij + a0, mij - Mij + b0) - log B(a0, b0);
    empty blocks contribute exactly zero. Elementwise when the counts are
    arrays, one entry per set of counts.
    """
    return (
        betaln(counts.M11 + h.a0_11, counts.m11 - counts.M11 + h.b0_11)
        - betaln(h.a0_11, h.b0_11)
        + betaln(counts.M12 + h.a0_12, counts.m12 - counts.M12 + h.b0_12)
        - betaln(h.a0_12, h.b0_12)
        + betaln(counts.M22 + h.a0_22, counts.m22 - counts.M22 + h.b0_22)
        - betaln(h.a0_22, h.b0_22)
    )
