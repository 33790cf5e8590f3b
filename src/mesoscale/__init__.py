"""Bayesian detection of assortative, disassortative, and core-periphery
structure in undirected networks via a two-block stochastic block model."""

from .graph import Graph, GraphParseError, parse_edge_list
from .inference import (
    StructureVerdict,
    classify_structure,
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
)
from .sampler import (
    ChainConfig,
    ChainState,
    PosteriorSamples,
    chain_states,
    run_chain,
)
from .synth import GeneratorSpec, SweepSpec, generate_sbm, run_sweep

__version__ = "0.1.0"

__all__ = [
    "BlockCounts",
    "BlockProbs",
    "ChainConfig",
    "ChainState",
    "GeneratorSpec",
    "Graph",
    "GraphParseError",
    "Hyperparameters",
    "PosteriorSamples",
    "StructureVerdict",
    "SweepSpec",
    "block_counts",
    "chain_states",
    "classify_structure",
    "density_summary",
    "exact_structure_posterior",
    "generate_sbm",
    "group_size_posterior",
    "log_marginal_likelihood",
    "membership_probabilities",
    "parse_edge_list",
    "run_chain",
    "run_sweep",
]
