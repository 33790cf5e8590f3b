"""Posterior summaries: structure verdicts, label uncertainty, and densities.

Draw classification is invariant to exchanging the groups (p12 is compared
against min/max of p11 and p22), so verdicts do not depend on their names.
Label summaries call the group with p11 >= p22 in each draw "group 1".
Ties on the category boundaries go to core-periphery, making the three
categories a partition of the draw space. scipy.special is imported only
inside _CdfFamilies, the exact oracle's one Beta CDF, so the sampling
commands start without scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .model import BlockCounts, Hyperparameters, log_marginal_likelihood
from .sampler import PosteriorSamples, require_memory

ENUMERATION_LIMIT = 18
# grid points tabulated at once: the Beta tables and per-orbit terms stay at
# (rows x 64), not (rows x quadrature points), and every sum, the error bound's
# too, adds its terms chunk by chunk, so only the grid itself grows with the
# quadrature points (see require_quadrature)
GRID_CHUNK = 64
# the largest quadrature error bound the oracle reports; past it a verdict is
# too loose to check an MCMC verdict against
QUADRATURE_TOLERANCE = 1e-2


@dataclass(frozen=True)
class StructureVerdict:
    p_assortative: float
    p_core_periphery: float
    p_disassortative: float
    n_samples: int
    per_chain: tuple[tuple[float, float, float], ...] | None = None

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.p_assortative, self.p_core_periphery, self.p_disassortative)


def classify_draws(draws: np.ndarray) -> np.ndarray:
    """Category per draw: 0 assortative, 1 core-periphery, 2 disassortative."""
    p11, p12, p22 = draws[:, 0], draws[:, 1], draws[:, 2]
    lo = np.minimum(p11, p22)
    hi = np.maximum(p11, p22)
    out = np.ones(len(draws), dtype=np.int8)  # ties fall to core-periphery
    out[p12 < lo] = 0
    out[p12 > hi] = 2
    return out


def classify_structure(samples: PosteriorSamples) -> StructureVerdict:
    """Posterior structure probabilities by counting retained draws."""
    if samples.retained == 0:
        raise ValueError("no retained draws to classify")
    cats = classify_draws(samples.draws)
    per_chain = None
    if len(samples.chain_acceptance) > 1:  # every chain retains as many draws
        per_chain = tuple(tuple(np.bincount(chain, minlength=3) / len(chain))
                          for chain in np.split(cats, len(samples.chain_acceptance)))
    counts = np.bincount(cats, minlength=3)
    pa, pcp, pd = counts / samples.retained
    return StructureVerdict(
        p_assortative=float(pa),
        p_core_periphery=float(pcp),
        p_disassortative=float(pd),
        n_samples=samples.retained,
        per_chain=per_chain,
    )


def membership_probabilities(samples: PosteriorSamples) -> np.ndarray:
    """Per-node posterior probability of group 1, the group with p11 >= p22."""
    return samples.label_tally / samples.retained


def group_size_posterior(samples: PosteriorSamples) -> np.ndarray:
    """Normalized histogram of the size of group 1 (p11 >= p22) over draws."""
    if samples.retained == 0:
        raise ValueError("no retained draws")
    return samples.size_tally / samples.retained


def _component_density(x: np.ndarray, bins: int) -> dict:
    hist, edges = np.histogram(x, bins=bins, range=(0.0, 1.0))
    q025, median, q975 = np.quantile(x, (0.025, 0.5, 0.975))
    return {
        "mean": float(np.mean(x)),
        "sd": float(np.std(x)),
        "q025": float(q025),
        "median": float(median),
        "q975": float(q975),
        "bin_edges": edges.tolist(),
        "mass": (hist / len(x)).tolist(),
    }


def require_bins(bins: int) -> None:
    """Refuse (ValueError) fewer than 2 density bins."""
    if not bins >= 2:
        raise ValueError(f"--bins must be at least 2, got {bins}")


def density_summary(samples: PosteriorSamples, bins: int = 50) -> dict:
    """The report's density block: per block probability its moments,
    quantiles and histogram on [0, 1], then the pairwise exceedances."""
    if samples.retained == 0:
        raise ValueError("no retained draws")
    require_bins(bins)
    d = samples.draws
    return {
        "bins": bins,
        "p11": _component_density(d[:, 0], bins),
        "p12": _component_density(d[:, 1], bins),
        "p22": _component_density(d[:, 2], bins),
        "exceedance": {
            "p11_gt_p12": float(np.mean(d[:, 0] > d[:, 1])),
            "p12_gt_p22": float(np.mean(d[:, 1] > d[:, 2])),
            "p11_gt_p22": float(np.mean(d[:, 0] > d[:, 2])),
        },
    }


class _CdfFamilies:
    """Tables of the Beta CDF I_x(M + a0, m - M + b0) on grid chunks.

    That is the posterior CDF of p_ij for a block with prior (a0, b0), m
    possible pairs and M edges. The constructor takes those four per block
    (broadcast), and blocks that share (a0, b0, m) share a family, whose rows
    run over their M from lo to hi; `rows` is each block's table row. Each
    table calls betainc once per family, at M = hi, then steps down by DLMF
    8.17.20,
        I_x(a, b) = I_x(a + 1, b - 1) + x^a (1 - x)^(b - 1) / (a B(a, b)),
    with (a, b) the shape of M and (a + 1, b - 1) that of M + 1. Each row adds
    one positive term to the row above it, so nothing cancels.
    """

    def __init__(self, a0, b0, m, M):
        from scipy.special import betaln

        blocks = np.broadcast_arrays(a0, b0, m, M)
        # sorted by family, then by M (lexsort: np.unique(axis=0) is far slower)
        order = np.lexsort(blocks[::-1])
        a0, b0, m, M = (v[order] for v in blocks)
        first = np.ones(len(M), dtype=bool)
        first[1:] = (np.diff(a0) != 0) | (np.diff(b0) != 0) | (np.diff(m) != 0)
        fam = np.empty(len(M), dtype=np.int64)
        fam[order] = np.cumsum(first) - 1
        lo, hi = M[first], M[np.roll(first, -1)]  # a family's first and last M
        a0, b0, m = a0[first], b0[first], m[first]
        self.families = len(hi)
        self.depth = int((hi - lo).max()) + 1
        # row j * F + f (F families) is M = hi[f] - j of family f, so the
        # running sum steps through j a block of F rows at a time
        self.rows = (hi[fam] - blocks[3]) * self.families + fam
        self.top = ((hi + a0)[:, None], (m - hi + b0)[:, None])
        f = np.repeat(np.arange(self.families), hi - lo)
        j = np.concatenate([np.arange(1, d + 1) for d in hi - lo])
        self.term_rows = j * self.families + f
        M = hi[f] - j
        a, b = M + a0[f], m[f] - M + b0[f]
        # both powers are positive: b - 1 >= b0 since M < hi <= m
        self.term = (a[:, None], (b - 1)[:, None], (np.log(a) + betaln(a, b))[:, None])

    def table(self, x: np.ndarray, logx: np.ndarray,
              log1mx: np.ndarray) -> np.ndarray:
        """Every family's rows on the grid points x, with their logs."""
        from scipy.special import betainc

        rows = np.zeros((self.depth * self.families, len(x)))
        rows[:self.families] = betainc(*self.top, x)
        a, b1, c = self.term
        e = a * logx
        e += b1 * log1mx
        e -= c
        rows[self.term_rows] = np.exp(e, out=e)
        steps = rows.reshape(self.depth, -1)
        for j in range(1, self.depth):  # row by row: cumsum along an axis is slower
            steps[j] += steps[j - 1]
        return rows


def _labelling_counts(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n1, M11 and M22 of every labelling of g.

    Labelling k puts node i in group 1 when bit i of k is set; its M12 is
    g.m - M11 - M22. Its label prior, pi^n1 (1 - pi)^(n - n1), depends on n1
    alone, so the key (n1, M11, M22) fixes the labelling's whole weight.
    """
    k = np.arange(2 ** g.n)
    in1 = [(k >> i) & 1 == 1 for i in range(g.n)]
    n1 = sum(in1, np.zeros(len(k), dtype=np.int16))
    M11 = np.zeros(len(k), dtype=np.int16)
    M22 = np.zeros(len(k), dtype=np.int16)
    for i, j in g.edges():
        M11 += in1[i] & in1[j]
        M22 += ~(in1[i] | in1[j])
    return n1, M11, M22


def _conditional_orderings(
    counts: BlockCounts, h: Hyperparameters, points: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P(p12 < p11, p22), P(p12 > p11, p22) and an error bound for each set
    of counts.

    Given the labels, p_ij ~ Beta(Mij + a0, mij - Mij + b0) independently, so
    each probability is the Stieltjes integral of g dF12, with g = (1 - F11)
    (1 - F22) or F11 F22 and Fij the CDF of p_ij. The grid is x = (1 -
    cos(pi t)) / 2 on `points` evenly spaced t, fine near 0 and 1. Each cell
    adds its rise of F12 times the mean of g at its two edges: the midpoint of
    the left- and right-edge sums, which bracket the integral because g is
    monotone. The two brackets are together sum dF12 (dF11 + dF22) wide, and
    half of that bounds the error of either probability and of their sum. Per
    chunk of cells the sum is at most the largest dF12 times the chunk's rise
    of F11 + F22, and the bound returned adds these chunk by chunk, keeping
    only F11 + F22 at the previous chunk's end. All three CDFs come from
    _CdfFamilies: blocks 11 and 22 share one table, p12 has its own.

    Both integrands are symmetric in F11 and F22. Under equal 11 and 22
    shapes the group exchange's image of (n1, M11, M22), (n - n1, M22, M11),
    has the same p12 row and the two within-group rows swapped, so each
    orbit (p12 row, lower and higher within row) is integrated once. IEEE
    products and two-term sums commute, so its results are bit for bit each
    member's. Under unequal shapes the two rows lie in different families.
    """
    (a11, b11), (a12, b12), (a22, b22) = h.shapes
    keys = len(counts.M11)
    within = _CdfFamilies(np.repeat([a11, a22], keys), np.repeat([b11, b22], keys),
                          np.concatenate([counts.m11, counts.m22]),
                          np.concatenate([counts.M11, counts.M22]))
    r11, r22 = np.split(within.rows, 2)
    cross = _CdfFamilies(a12, b12, counts.m12, counts.M12)
    # each key's orbit, packed into one integer as the keys are
    size = within.depth * within.families
    orbits, orbit_of = np.unique(
        (cross.rows * size + np.minimum(r11, r22)) * size + np.maximum(r11, r22),
        return_inverse=True)
    r12, r11, r22 = orbits // size**2, orbits // size % size, orbits % size
    x = (1.0 - np.cos(np.pi * np.linspace(0.0, 1.0, points))) / 2
    qa, qd, width = np.zeros((3, len(orbits)))
    ends = 0.0  # F11 + F22 at the end of the chunk before
    with np.errstate(divide="ignore"):  # the grid's logs are -inf at 0 and 1
        for start in range(0, points, GRID_CHUNK):
            # the chunk's points and one more on each side, repeated at the ends
            span = np.arange(start - 1, min(start + GRID_CHUNK, points) + 1)
            xs = x[span.clip(0, points - 1)]
            logs = np.log(xs), np.log1p(-xs)
            rise = np.diff(cross.table(xs, *logs), axis=1)
            # twice each point's weight: the rises of F12 over the cells either side
            w12 = np.take(rise[:, :-1] + rise[:, 1:], r12, axis=0)
            cdf = within.table(xs[1:-1], *(log[1:-1] for log in logs))
            for q, below in ((qa, 1.0 - cdf), (qd, cdf)):
                g = np.take(below, r11, axis=0)
                g *= np.take(below, r22, axis=0)
                q += np.einsum("ij,ij->i", g, w12)
            # the bound's share: p12's largest cell rise times the rise of F11 + F22
            end = cdf[r11, -1] + cdf[r22, -1]
            width += rise[:, :-1].max(axis=1)[r12] * (end - ends)
            ends = end
    return qa[orbit_of] / 2, qd[orbit_of] / 2, width[orbit_of] / 2


def require_quadrature(points: int) -> None:
    """Refuse (ValueError) fewer than 3 quadrature points, or more than the
    float64 grid and one temporary (16 bytes a point) can hold in memory.
    Nothing else in the oracle grows with the grid: its tables and sums are
    per GRID_CHUNK points."""
    if not points >= 3:
        raise ValueError(f"--quad-points must be at least 3, got {points}")
    require_memory(16 * points, f"--quad-points {points}")


@np.errstate(over="raise", invalid="raise")
def exact_structure_posterior(
    g: Graph, h: Hyperparameters, quadrature_points: int = 4097
) -> tuple[StructureVerdict, float]:
    """Brute-force verdict: enumerate all 2^n label vectors.

    Each vector is weighted by its marginal likelihood times label prior.
    Both depend only on its key (n1, M11, M22), so each key's weight is taken
    once and times the number of vectors that share it. Each key has its
    conditional ordering probabilities, integrated against p12's CDF on
    `quadrature_points` (at least 3) grid points of [0, 1] graded toward both
    ends, with the CDFs from _CdfFamilies, once per orbit of the group
    exchange (see _conditional_orderings).
    Returns the verdict and quadrature_error, a bound on each verdict
    probability's quadrature error. A bound above QUADRATURE_TOLERANCE, or a
    verdict outside [0, 1] by more than rounding, raises ArithmeticError; an
    overflow or invalid operation raises FloatingPointError. Only feasible
    for n <= ENUMERATION_LIMIT (18).
    """
    if g.n > ENUMERATION_LIMIT:
        raise ValueError(
            f"exact enumeration is limited to n <= {ENUMERATION_LIMIT} nodes "
            f"(got n={g.n})"
        )
    require_quadrature(quadrature_points)

    n1, M11, M22 = _labelling_counts(g)
    # (n1, M11, M22) fixes every block count; pack it into one integer key,
    # then work per key
    base = g.m + 1
    keys, labellings = np.unique((n1.astype(np.int64) * base + M11) * base + M22,
                                 return_counts=True)
    n1, M11, M22 = keys // base**2, keys // base % base, keys % base
    counts = BlockCounts.of(M11, g.m - M11 - M22, M22, n1, g.n - n1)
    # the label prior up to its constant (1 - pi)^n: exp(n1 * log_odds)
    log_weights = log_marginal_likelihood(counts, h) + n1 * h.log_odds
    weights = labellings * np.exp(log_weights - log_weights.max())
    weights /= weights.sum()
    qa, qd, bound = _conditional_orderings(counts, h, quadrature_points)
    error = float(weights @ bound)
    if not error <= QUADRATURE_TOLERANCE:
        raise ArithmeticError(
            f"the quadrature error bound {error:.2g} exceeds "
            f"{QUADRATURE_TOLERANCE:g}; raise --quad-points")
    pa, pd = weights @ qa, weights @ qd
    verdict = np.array([pa, 1.0 - pa - pd, pd])
    # every key's sums lie in [0, 1], so only rounding can move a verdict out
    if not np.all(np.abs(verdict - 0.5) <= 0.5 + 1e-12):
        raise ArithmeticError(f"exact verdict {verdict.tolist()} lies outside [0, 1]")
    return StructureVerdict(*verdict.clip(0.0, 1.0).tolist(), n_samples=2 ** g.n), error
