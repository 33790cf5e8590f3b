"""Bayesian detection of assortative, disassortative, and core-periphery
structure in undirected networks via a two-block stochastic block model."""

from .graph import Graph, GraphParseError, parse_edge_list
from .inference import (
    DensitySummary,
    StructureVerdict,
    classify_structure,
    coassignment_matrix,
    density_summary,
    exact_structure_posterior,
    group_size_posterior,
    membership_probabilities,
)
from .model import (
    BlockCounts,
    BlockProbs,
    Hyperparameters,
    block_counts,
    log_marginal_likelihood,
    log_prior_labels,
)
from .sampler import (
    ChainConfig,
    ChainState,
    PosteriorSamples,
    exchange_groups,
    gibbs_update_probs,
    init_chain,
    label_sweep,
    run_chain,
)
from .synth import GeneratorSpec, SweepSpec, generate_sbm, run_sweep

__version__ = "0.1.0"

__all__ = [
    "BlockCounts",
    "BlockProbs",
    "ChainConfig",
    "ChainState",
    "DensitySummary",
    "GeneratorSpec",
    "Graph",
    "GraphParseError",
    "Hyperparameters",
    "PosteriorSamples",
    "StructureVerdict",
    "SweepSpec",
    "block_counts",
    "classify_structure",
    "coassignment_matrix",
    "density_summary",
    "exact_structure_posterior",
    "exchange_groups",
    "generate_sbm",
    "gibbs_update_probs",
    "group_size_posterior",
    "init_chain",
    "label_sweep",
    "log_marginal_likelihood",
    "log_prior_labels",
    "membership_probabilities",
    "parse_edge_list",
    "run_chain",
    "run_sweep",
]
