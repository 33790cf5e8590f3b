"""Two-block SBM mathematics: sufficient statistics and log densities.

All arithmetic is done in log space. Degenerate blocks (n1 = 0 or n2 = 0)
are legal and contribute zero terms. scipy.special is imported only inside
log_marginal_likelihood, which only the exact oracle calls, so the sampling
commands start without scipy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .graph import Graph


def option(config, name: str) -> str:
    """How a refusal names field `name` of the dataclass `config`: by the CLI
    option that sets it (the field's metadata "option"), else by its name."""
    return config.__dataclass_fields__[name].metadata.get("option", name)


class BlockProbs(NamedTuple):
    p11: float
    p12: float
    p22: float


class BlockCounts(NamedTuple):
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
        return cls(*group1_counts(n1 + n2, M11 + M12 + M22, n1, M11, 2 * M11 + M12))


@dataclass(frozen=True)
class Hyperparameters:
    """Beta shapes per block pair and the prior probability pi that a node is
    in group 1, the same for every node."""

    a0_11: float = field(metadata={"option": "--a0-11 (or --a0)"})
    b0_11: float = field(metadata={"option": "--b0-11 (or --b0)"})
    a0_12: float = field(metadata={"option": "--a0-12 (or --a0)"})
    b0_12: float = field(metadata={"option": "--b0-12 (or --b0)"})
    a0_22: float = field(metadata={"option": "--a0-22 (or --a0)"})
    b0_22: float = field(metadata={"option": "--b0-22 (or --b0)"})
    pi: float = field(metadata={"option": "--pi"})
    log_odds: float = field(init=False, repr=False)  # log(pi / (1 - pi))
    shapes: tuple = field(init=False, repr=False)  # (a0, b0) of p11, p12, p22
    # the exchange of the two groups leaves the prior unchanged
    swap_symmetric: bool = field(init=False, repr=False)

    def __post_init__(self):
        s11, _, s22 = shapes = ((self.a0_11, self.b0_11), (self.a0_12, self.b0_12),
                                (self.a0_22, self.b0_22))
        object.__setattr__(self, "shapes", shapes)
        for name in ("a0_11", "b0_11", "a0_12", "b0_12", "a0_22", "b0_22"):
            if not 0 < getattr(self, name) < math.inf:  # also rejects nan
                raise ValueError(f"{option(self, name)} must be finite and "
                                 f"positive, got {getattr(self, name)}")
        if not (isinstance(self.pi, numbers.Real) and 0 < self.pi < 1):  # nan too
            raise ValueError(f"{option(self, 'pi')} must lie strictly in (0, 1), "
                             f"got {self.pi}")
        pi = float(self.pi)
        object.__setattr__(self, "pi", pi)
        # numpy's logs, the ones the seeded results were recorded with
        log_odds = float(np.log(pi) - np.log1p(-pi))
        object.__setattr__(self, "log_odds", log_odds)
        object.__setattr__(self, "swap_symmetric", s11 == s22 and log_odds == 0.0)

    @classmethod
    def uniform(cls, a0: float = 1.0, b0: float = 1.0, pi: float = 0.5):
        """Same Beta(a0, b0) on every block pair, with prior pi of group 1."""
        return cls(a0_11=a0, b0_11=b0, a0_12=a0, b0_12=b0, a0_22=a0, b0_22=b0, pi=pi)


def group1_degrees(g: Graph, flags: bytes) -> list[int]:
    """d1[i], the number of node i's neighbours in group 1, where flags[i] is
    1 when node i is in group 1 and 0 otherwise."""
    d1 = [0] * g.n
    for i, flag in enumerate(flags):
        if flag:
            for j in g.adjacency[i]:
                d1[j] += 1
    return d1


def block_counts(g: Graph, c: np.ndarray, d1: list[int] | None = None) -> BlockCounts:
    """Sufficient statistics for labels c (entries in {1, 2}) on graph g, with
    M11 (from d1 = group1_degrees(g, c == 1)) and D1 summed over group 1."""
    c = np.asarray(c)
    if len(c) != g.n:
        raise ValueError(f"label vector length {len(c)} != graph n={g.n}")
    in1 = c == 1
    if d1 is None:
        d1 = group1_degrees(g, in1.tobytes())
    group1 = np.flatnonzero(in1).tolist()
    return BlockCounts(*group1_counts(g.n, g.m, len(group1), sum(d1[i] for i in group1) // 2,
                                      sum(g.degrees[i] for i in group1)))


def group1_counts(n, m, n1, M11, D1) -> tuple:
    """BlockCounts' fields as a plain tuple: the counts on n nodes and m edges
    given group 1's size n1, edges M11 and degree sum D1 (or arrays of them)."""
    n2 = n - n1
    return (M11, D1 - 2 * M11, m - D1 + M11,
            n1 * (n1 - 1) // 2, n1 * n2, n2 * (n2 - 1) // 2, n1, n2)


def posterior_shapes(counts, h: Hyperparameters) -> tuple:
    """The conjugate Beta shapes (Mij + a0, mij - Mij + b0) of p11, p12 and
    p22 given counts in BlockCounts' field order; elementwise on arrays."""
    (a11, b11), (a12, b12), (a22, b22) = h.shapes
    M11, M12, M22, m11, m12, m22 = counts[:6]
    return ((M11 + a11, m11 - M11 + b11),
            (M12 + a12, m12 - M12 + b12),
            (M22 + a22, m22 - M22 + b22))


def log_marginal_likelihood(
    counts: BlockCounts, h: Hyperparameters
) -> float | np.ndarray:
    """Log likelihood with the block probabilities integrated out analytically.

    Each block pair contributes log B(posterior shapes) - log B(prior shapes);
    empty blocks contribute exactly zero. Elementwise when the counts are
    arrays, one entry per set of counts.
    """
    from scipy.special import betaln

    total = 0.0
    for post, prior in zip(posterior_shapes(counts, h), h.shapes):
        total = total + betaln(*post) - betaln(*prior)
    return total
