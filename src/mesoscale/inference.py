"""Posterior summaries: structure verdicts, label uncertainty, and densities.

Draw classification is invariant to exchanging the groups (p12 is compared
against min/max of p11 and p22), so verdicts do not depend on their names.
Label summaries call the group with p11 >= p22 in each draw "group 1".
Ties on the category boundaries go to core-periphery, making the three
categories a partition of the draw space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betaln, xlog1py, xlogy

from .graph import Graph
from .model import (
    BlockCounts,
    Hyperparameters,
    log_marginal_likelihood,
    log_prior_labels,
)
from .sampler import PosteriorSamples

ENUMERATION_LIMIT = 18
# grid points tabulated at once: keeps the Beta tables at (shapes x 64)
# instead of (shapes x quadrature points), so memory does not grow with the grid
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


@dataclass(frozen=True)
class ComponentDensity:
    """Histogram and moments for one block probability."""

    bin_edges: np.ndarray
    mass: np.ndarray
    mean: float
    sd: float
    q025: float
    median: float
    q975: float


@dataclass(frozen=True)
class DensitySummary:
    p11: ComponentDensity
    p12: ComponentDensity
    p22: ComponentDensity
    prob_p11_gt_p12: float
    prob_p12_gt_p22: float
    prob_p11_gt_p22: float


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
    """Posterior probability that each node pair shares a group."""
    if samples.coassign_tally is None:
        raise ValueError(
            "co-assignment tallying was not enabled for this run; "
            "rerun with coassign=True (CLI: --coassign)"
        )
    return samples.coassign_tally / samples.retained


def group_size_posterior(samples: PosteriorSamples) -> np.ndarray:
    """Normalized histogram of the size of group 1 (p11 >= p22) over draws."""
    if samples.retained == 0:
        raise ValueError("no retained draws")
    return samples.size_tally / samples.retained


def _component_density(x: np.ndarray, bins: int) -> ComponentDensity:
    hist, edges = np.histogram(x, bins=bins, range=(0.0, 1.0))
    q025, median, q975 = np.quantile(x, (0.025, 0.5, 0.975))
    return ComponentDensity(
        bin_edges=edges,
        mass=hist / len(x),
        mean=float(np.mean(x)),
        sd=float(np.std(x)),
        q025=float(q025),
        median=float(median),
        q975=float(q975),
    )


def density_summary(samples: PosteriorSamples, bins: int = 50) -> DensitySummary:
    """Histograms, moments, and pairwise exceedance for the block probabilities."""
    if samples.retained == 0:
        raise ValueError("no retained draws")
    if bins < 2:
        raise ValueError("bins must be at least 2")
    d = samples.draws
    return DensitySummary(
        p11=_component_density(d[:, 0], bins),
        p12=_component_density(d[:, 1], bins),
        p22=_component_density(d[:, 2], bins),
        prob_p11_gt_p12=float(np.mean(d[:, 0] > d[:, 1])),
        prob_p12_gt_p22=float(np.mean(d[:, 1] > d[:, 2])),
        prob_p11_gt_p22=float(np.mean(d[:, 0] > d[:, 2])),
    )


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


def _beta_pdf(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    f = np.exp(xlogy(a - 1, x) + xlog1py(b - 1, -x) - betaln(a, b))
    # shapes < 1 make the density unbounded at an endpoint; drop those grid
    # points rather than propagate inf through the quadrature
    f[~np.isfinite(f)] = 0.0
    return f


def _labelling_counts(
    g: Graph, h: Hyperparameters
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """n1, M11, M22 and the log label prior of every labelling of g.

    Labelling k puts node i in group 1 when bit i of k is set; its M12 is
    g.m - M11 - M22. The label prior uses log p(c) = log p(all nodes in
    group 2) + sum of log_odds over the group-1 nodes.
    """
    k = np.arange(2 ** g.n)
    in1 = [(k >> i) & 1 == 1 for i in range(g.n)]
    n1 = sum(in1, np.zeros(len(k), dtype=np.int16))
    M11 = np.zeros(len(k), dtype=np.int16)
    M22 = np.zeros(len(k), dtype=np.int16)
    for i, j in g.edges():
        M11 += in1[i] & in1[j]
        M22 += ~(in1[i] | in1[j])
    log_prior = log_prior_labels(np.full(g.n, 2), h) + sum(
        col * log_odds for col, log_odds in zip(in1, h.log_odds))
    return n1, M11, M22, log_prior


def _conditional_orderings(
    counts: BlockCounts, h: Hyperparameters, points: int
) -> tuple[np.ndarray, np.ndarray]:
    """P(p12 < p11, p22) and P(p12 > p11, p22) for each set of counts.

    Given the labels, p_ij ~ Beta(Mij + a0, mij - Mij + b0) independently, so
    each is an integral over p12's density, here by Simpson on `points` grid
    points. The Beta functions are evaluated once per distinct shape.
    """
    within, shape_index = np.unique(np.concatenate([
        np.stack([counts.M11 + h.a0_11, counts.m11 - counts.M11 + h.b0_11], axis=1),
        np.stack([counts.M22 + h.a0_22, counts.m22 - counts.M22 + h.b0_22], axis=1),
    ]), axis=0, return_inverse=True)
    s11, s22 = np.split(shape_index, 2)
    cross, s12 = np.unique(
        np.stack([counts.M12 + h.a0_12, counts.m12 - counts.M12 + h.b0_12], axis=1),
        axis=0, return_inverse=True)
    x = np.linspace(0.0, 1.0, points)
    w = _simpson_weights(points)
    qa = np.zeros(len(s12))
    qd = np.zeros(len(s12))
    for lo in range(0, points, GRID_CHUNK):
        xs, ws = x[lo:lo + GRID_CHUNK], w[lo:lo + GRID_CHUNK]
        cdf = betainc(within[:, :1], within[:, 1:], xs)
        f12 = _beta_pdf(cross[:, :1], cross[:, 1:], xs)[s12]
        cdf11, cdf22 = cdf[s11], cdf[s22]
        qa += (f12 * (1.0 - cdf11) * (1.0 - cdf22)) @ ws
        qd += (f12 * cdf11 * cdf22) @ ws
    return qa, qd


def exact_structure_posterior(
    g: Graph, h: Hyperparameters, quadrature_points: int = 4097
) -> StructureVerdict:
    """Brute-force verdict: enumerate all 2^n label vectors.

    Each vector is weighted by its marginal likelihood times label prior.
    Vectors with the same block counts share their conditional ordering
    probabilities, which come from Simpson quadrature on `quadrature_points`
    evenly spaced points of [0, 1] (any number >= 3; an even number takes
    scipy's correction on the last interval) against the regularized
    incomplete beta function. Only feasible for n <= ENUMERATION_LIMIT (18).
    """
    if g.n > ENUMERATION_LIMIT:
        raise ValueError(
            f"exact enumeration is limited to n <= {ENUMERATION_LIMIT} nodes "
            f"(got n={g.n})"
        )
    if len(h.pi) != g.n:
        raise ValueError(f"pi length {len(h.pi)} != graph n={g.n}")
    if quadrature_points < 3:
        raise ValueError(
            f"quadrature_points must be at least 3, got {quadrature_points}"
        )

    n1, M11, M22, log_prior = _labelling_counts(g, h)
    # (n1, M11, M22) fixes every block count; pack it into one integer key,
    # then work per key
    base = g.m + 1
    keys, inverse = np.unique((n1.astype(np.int64) * base + M11) * base + M22,
                              return_inverse=True)
    n1, M11, M22 = keys // base**2, keys // base % base, keys % base
    counts = BlockCounts.of(M11, g.m - M11 - M22, M22, n1, g.n - n1)
    log_weights = log_marginal_likelihood(counts, h)[inverse] + log_prior
    weights = np.bincount(inverse, np.exp(log_weights - log_weights.max()))
    weights /= weights.sum()
    qa, qd = _conditional_orderings(counts, h, quadrature_points)
    pa, pd = weights @ qa, weights @ qd
    return StructureVerdict(
        p_assortative=float(pa),
        p_core_periphery=float(1.0 - pa - pd),
        p_disassortative=float(pd),
        n_samples=2 ** g.n,
    )
