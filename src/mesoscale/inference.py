"""Posterior summaries: structure verdicts, label uncertainty, and densities.

Draw classification is invariant to exchanging the groups (p12 is compared
against min/max of p11 and p22), so verdicts do not depend on their names.
Label summaries call the group with p11 >= p22 in each draw "group 1".
Ties on the category boundaries go to core-periphery, making the three
categories a partition of the draw space.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.special import betainc, logsumexp

from .graph import Graph
from .model import (
    BlockCounts,
    Hyperparameters,
    block_counts,
    log_marginal_likelihood,
    log_prior_labels,
)
from .sampler import PosteriorSamples

ENUMERATION_LIMIT = 14


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


def _ordering_probabilities(
    counts: BlockCounts, h: Hyperparameters, x: np.ndarray
) -> tuple[float, float]:
    """(P(assortative), P(disassortative)) under independent Beta posteriors.

    Conditions on the labels: p_ij | A, c ~ Beta(Mij + a0, mij - Mij + b0)
    independently, so the ordering probabilities reduce to one-dimensional
    integrals over the density of p12.
    """
    # imported here so that only the oracle pays for these scipy submodules
    from scipy.integrate import simpson
    from scipy.stats import beta as beta_dist

    a11 = counts.M11 + h.a0_11
    b11 = counts.m11 - counts.M11 + h.b0_11
    a12 = counts.M12 + h.a0_12
    b12 = counts.m12 - counts.M12 + h.b0_12
    a22 = counts.M22 + h.a0_22
    b22 = counts.m22 - counts.M22 + h.b0_22
    f12 = beta_dist.pdf(x, a12, b12)
    # shapes < 1 make the density unbounded at an endpoint; drop those two
    # grid points rather than propagate inf through the quadrature
    f12[~np.isfinite(f12)] = 0.0
    cdf11 = betainc(a11, b11, x)
    cdf22 = betainc(a22, b22, x)
    p_assortative = simpson(f12 * (1.0 - cdf11) * (1.0 - cdf22), x=x)
    p_disassortative = simpson(f12 * cdf11 * cdf22, x=x)
    return float(p_assortative), float(p_disassortative)


def exact_structure_posterior(
    g: Graph, h: Hyperparameters, quadrature_points: int = 4097
) -> StructureVerdict:
    """Brute-force verdict: enumerate all 2^n label vectors.

    Each vector is weighted by its marginal likelihood times label prior;
    conditional ordering probabilities come from Simpson quadrature against
    the regularized incomplete beta function. Only feasible for n <= 14.
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

    x = np.linspace(0.0, 1.0, quadrature_points)
    log_weights = np.empty(2 ** g.n)
    all_counts: list[BlockCounts] = []
    for idx, labels in enumerate(product((1, 2), repeat=g.n)):
        c = np.array(labels)
        counts = block_counts(g, c)
        all_counts.append(counts)
        log_weights[idx] = log_marginal_likelihood(counts, h) + log_prior_labels(c, h)

    weights = np.exp(log_weights - logsumexp(log_weights))
    cache: dict[tuple[int, ...], tuple[float, float]] = {}
    pa = pd = 0.0
    for w, counts in zip(weights, all_counts):
        key = (counts.M11, counts.m11, counts.M12,
               counts.m12, counts.M22, counts.m22)
        if key not in cache:
            cache[key] = _ordering_probabilities(counts, h, x)
        qa, qd = cache[key]
        pa += w * qa
        pd += w * qd
    return StructureVerdict(
        p_assortative=float(pa),
        p_core_periphery=float(1.0 - pa - pd),
        p_disassortative=float(pd),
        n_samples=2 ** g.n,
    )
