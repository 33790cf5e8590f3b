"""Posterior summaries: structure verdicts, label uncertainty, and densities.

Draw classification is invariant to exchanging the groups (p12 is compared
against min/max of p11 and p22), so verdicts do not depend on their names.
Label summaries call the group with p11 >= p22 in each draw "group 1".
Ties on the category boundaries go to core-periphery, making the three
categories a partition of the draw space. scipy.special is imported only
inside the exact oracle's helpers (_CdfFamilies, _conditional_orderings), so
the sampling commands start without scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .model import (
    BlockCounts,
    Hyperparameters,
    log_marginal_likelihood,
    posterior_shapes,
)
from .sampler import PosteriorSamples, require_memory

ENUMERATION_LIMIT = 18
# grid points tabulated at once: keeps the Beta tables and per-labelling terms
# at (rows x 64) instead of (rows x quadrature points), so memory does not grow
# with the grid
GRID_CHUNK = 64


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
    if len(samples.chain_sizes) > 1:
        bounds = np.cumsum((0,) + samples.chain_sizes)
        per_chain = tuple(
            tuple(np.bincount(cats[a:b], minlength=3) / (b - a))
            for a, b in zip(bounds[:-1], bounds[1:])
        )
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


def membership_by_name(samples: PosteriorSamples, g: Graph) -> dict[str, float]:
    probs = membership_probabilities(samples)
    return {g.names[i]: float(probs[i]) for i in range(g.n)}


def coassignment_matrix(samples: PosteriorSamples) -> np.ndarray:
    """Posterior probability that each node pair shares a group, as float64
    (the float32 tally of exact counts divided in float64)."""
    if samples.coassign_tally is None:
        raise ValueError(
            "co-assignment tallying was not enabled for this run; "
            "rerun with coassign=True (CLI: --coassign)"
        )
    return np.divide(samples.coassign_tally, samples.retained, dtype=np.float64)


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


def _simpson_weights(points: int) -> np.ndarray:
    """w with w @ y == scipy's simpson(y, x=np.linspace(0, 1, points)).

    Composite Simpson (1, 4, 2, ..., 4, 1) * h / 3 over the first odd number
    of points. With an even number, the last interval takes scipy's
    Cartwright correction (-1, 8, 5) * h / 12 on the last three points.
    """
    h = 1.0 / (points - 1)
    odd = points if points % 2 else points - 1
    w = np.zeros(points)
    w[1:odd:2] = 4 * h / 3
    w[2:odd - 1:2] = 2 * h / 3
    w[[0, odd - 1]] = h / 3
    if points % 2 == 0:
        w[-3:] += np.array([-1.0, 8.0, 5.0]) * h / 12
    return w


def _exp_rows(p: np.ndarray, q: np.ndarray, c: np.ndarray, logx: np.ndarray,
              log1mx: np.ndarray) -> np.ndarray:
    """exp(p log x + q log(1 - x) - c), one row per entry of p, q and c and one
    column per grid point, from the grid's shared logs; 0 log 0 is taken as 0."""
    p, q = p[:, None], q[:, None]
    e = np.zeros((len(p), len(logx)))
    np.multiply(p, logx, out=e, where=p != 0)
    e += np.multiply(q, log1mx, out=np.zeros_like(e), where=q != 0)
    e -= c[:, None]
    return np.exp(e, out=e)


class _CdfFamilies:
    """Tables of the Beta CDF I_x(M + a0, m - M + b0) on grid chunks.

    That is the posterior CDF of p_ij for a block with prior (a0, b0), m
    possible pairs and M edges. Family f is (a0[f], b0[f], m[f]) and takes
    M = lo[f]..hi[f]. Each table calls betainc once per family, at M = hi[f],
    then steps down by DLMF 8.17.20,
        I_x(a, b) = I_x(a + 1, b - 1) + x^a (1 - x)^(b - 1) / (a B(a, b)),
    with (a, b) the shape of M and (a + 1, b - 1) that of M + 1. Each row adds
    one positive term to the row above it, so nothing cancels.
    """

    def __init__(self, a0, b0, m, lo, hi):
        from scipy.special import betaln

        a0, b0, m, lo, hi = np.broadcast_arrays(a0, b0, m, lo, hi)
        self.hi = hi
        self.depth = int((hi - lo).max()) + 1
        self.top = ((hi + a0)[:, None], (m - hi + b0)[:, None])
        # before the running sum, row j * F + f (F families) holds the term of
        # M = hi[f] - j, so the sum steps through j a block of F rows at a time
        f = np.repeat(np.arange(len(hi)), hi - lo)
        j = np.concatenate([np.arange(1, d + 1) for d in hi - lo])
        self.term_rows = j * len(hi) + f
        M = hi[f] - j
        a, b = M + a0[f], m[f] - M + b0[f]
        self.term = (a, b - 1, np.log(a) + betaln(a, b))

    def row(self, f, M):
        """The table row of M in family f."""
        return (self.hi[f] - M) * len(self.hi) + f

    def table(self, x: np.ndarray, logx: np.ndarray,
              log1mx: np.ndarray) -> np.ndarray:
        """Every family's rows on the grid points x, with their logs."""
        from scipy.special import betainc

        families = len(self.hi)
        rows = np.zeros((self.depth * families, len(x)))
        rows[:families] = betainc(*self.top, x)
        rows[self.term_rows] = _exp_rows(*self.term, logx, log1mx)
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
) -> tuple[np.ndarray, np.ndarray]:
    """P(p12 < p11, p22) and P(p12 > p11, p22) for each set of counts.

    Given the labels, p_ij ~ Beta(Mij + a0, mij - Mij + b0) independently, so
    each is an integral over p12's density, here by Simpson on `points` grid
    points. The CDFs of p11 and p22 come from one _CdfFamilies family per
    (a0, b0, mij); blocks 11 and 22 share it when their priors match. p12's
    density is evaluated once per distinct shape.
    """
    from scipy.special import betaln

    # family key: (prior of block 11 or 22, mij)
    prior = np.repeat([0, int(h.shapes[0] != h.shapes[2])], len(counts.M11))
    M = np.concatenate([counts.M11, counts.M22])
    keys, fam = np.unique(np.stack([prior, np.concatenate([counts.m11, counts.m22])],
                                   axis=1), axis=0, return_inverse=True)
    lo = np.full(len(keys), M.max())
    hi = np.zeros(len(keys), dtype=M.dtype)
    np.minimum.at(lo, fam, M)
    np.maximum.at(hi, fam, M)
    a0, b0 = np.array([h.shapes[0], h.shapes[2]])[keys[:, 0]].T
    families = _CdfFamilies(a0, b0, keys[:, 1], lo, hi)
    r11, r22 = np.split(families.row(fam, M), 2)

    cross, s12 = np.unique(np.stack(posterior_shapes(counts, h)[1], axis=1),
                           axis=0, return_inverse=True)
    a12, b12 = cross.T
    density = (a12 - 1, b12 - 1, betaln(a12, b12))
    x = np.linspace(0.0, 1.0, points)
    w = _simpson_weights(points)
    qa = np.zeros(len(s12))
    qd = np.zeros(len(s12))
    for start in range(0, points, GRID_CHUNK):
        cols = slice(start, start + GRID_CHUNK)
        with np.errstate(divide="ignore"):  # -inf at the endpoints
            logs = np.log(x[cols]), np.log1p(-x[cols])
        f12 = _exp_rows(*density, *logs)
        # shapes < 1 make the density unbounded at an endpoint; drop those grid
        # points rather than propagate inf through the quadrature
        f12[np.isinf(f12)] = 0.0
        f12 = (f12 * w[cols])[s12]
        cdf = families.table(x[cols], *logs)
        for q, below in ((qa, 1.0 - cdf), (qd, cdf)):
            term = below[r11]
            term *= below[r22]
            term *= f12
            q += term.sum(axis=1)
    return qa, qd


def require_quadrature(points: int) -> None:
    """Refuse (ValueError) fewer than 3 quadrature points, or more than the
    float64 grid and Simpson weights (16 bytes a point) can hold in memory."""
    if not points >= 3:
        raise ValueError(f"--quad-points must be at least 3, got {points}")
    require_memory(16 * points, f"--quad-points {points}")


@np.errstate(over="raise", invalid="raise")
def exact_structure_posterior(
    g: Graph, h: Hyperparameters, quadrature_points: int = 4097
) -> StructureVerdict:
    """Brute-force verdict: enumerate all 2^n label vectors.

    Each vector is weighted by its marginal likelihood times label prior.
    Both depend only on its key (n1, M11, M22), so each key's weight is taken
    once and times the number of vectors that share it. Each key has its
    conditional ordering probabilities: Simpson quadrature of p12's density
    on `quadrature_points` evenly spaced points of [0, 1] (any number >= 3;
    an even number takes scipy's correction on the last interval) against
    the CDFs of p11 and p22, which _CdfFamilies tabulates from one betainc
    call per family and grid chunk. An overflow or invalid operation raises
    FloatingPointError, and a verdict outside [0, 1] raises ArithmeticError.
    Only feasible for n <= ENUMERATION_LIMIT (18).
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
    qa, qd = _conditional_orderings(counts, h, quadrature_points)
    pa, pd = weights @ qa, weights @ qd
    verdict = (float(pa), float(1.0 - pa - pd), float(pd))
    # huge shapes can leave the quadrature meaningless without an overflow
    if not all(0.0 <= v <= 1.0 for v in verdict):  # nan too
        raise ArithmeticError(f"exact verdict {verdict} lies outside [0, 1]")
    return StructureVerdict(*verdict, n_samples=2 ** g.n)
